package main

import "time"

// defaultVacuumInterval is how often the auto-vacuum sweep re-checks tenants
// when -auto-vacuum is enabled without an explicit -auto-vacuum-interval.
const defaultVacuumInterval = time.Minute

// runAutoVacuum is the background space-management loop: every interval it
// sweeps the opened tenant trees and compacts any whose dead bytes (file
// footprint minus live bytes) exceed the configured fraction of the
// footprint. Compaction is the tree's online vacuum — ordinary shadow-paged
// commits — so tenant traffic on every connection proceeds throughout; the
// sweep only spends I/O on tenants that actually accumulated garbage (the
// check itself reads the store's space counters, not the tree).
//
// The loop stops when stop closes (drain does this before closing the tenant
// trees); a vacuum racing a concurrent drain simply returns the tree's closed
// error, which the sweep logs and moves past.
func (s *server) runAutoVacuum(stop <-chan struct{}) {
	interval := s.cfg.vacuumInterval
	if interval <= 0 {
		interval = defaultVacuumInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s.vacuumSweep()
	}
}

// vacuumSweep runs one pass over every tenant whose tree is open. Errors are
// logged, never fatal: a failed vacuum leaves the tree in a consistent state
// and the next sweep retries.
func (s *server) vacuumSweep() {
	for _, ten := range s.reg.tenants {
		tree := ten.openedTree()
		if tree == nil {
			continue // never opened, or already closed by drain
		}
		file, live := tree.Space()
		if file <= 0 || float64(file-live) < s.cfg.autoVacuum*float64(file) {
			continue
		}
		if err := tree.Vacuum(0); err != nil {
			s.cfg.logf("auto-vacuum %s: %v", ten.name, err)
			continue
		}
		after, _ := tree.Space()
		s.cfg.logf("auto-vacuum %s: %d -> %d file bytes (%d dead)", ten.name, file, after, file-live)
	}
}
