//go:build !race

package israce

// Enabled is true when the build has -race.
const Enabled = false
