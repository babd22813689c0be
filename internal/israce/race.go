//go:build race

// Package israce reports whether the race detector is compiled in, so that
// allocation-count tests can skip themselves: the detector's instrumentation
// allocates.
package israce

// Enabled is true when the build has -race.
const Enabled = true
