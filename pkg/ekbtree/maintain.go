package ekbtree

import (
	"errors"
	"time"
)

// rotateRetryMin and rotateRetryMax bound the rotator's back-off after a sweep
// that hit an error (a store refusing commits, the seal hard limit): the delay
// doubles per consecutive failed sweep and returns to the minimum after one
// that returns none. A failed sweep has already read every page of the tree,
// so retrying a persistent failure at a constant few milliseconds is a
// whole-tree scan a hundred times a second for as long as the tree is open.
const (
	rotateRetryMin = 10 * time.Millisecond
	rotateRetryMax = 5 * time.Second
)

// vacuumPoll is how often the maintenance loop looks at the tree's garbage
// when Options.AutoVacuum is set. A look is two counter loads; the
// AutoVacuum threshold, not the poll, decides how often a pass runs.
const vacuumPoll = time.Second

// kickMaintain schedules a rotation round. Non-blocking: a round rotates to
// convergence per kick, so a kick that finds one already pending is subsumed
// by it.
func (t *Tree) kickMaintain() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// maintain is the tree's background maintenance: one goroutine per Tree.
// Epoch advances (and Open, once) kick it to sweep the old-epoch pages back
// under the current derived key, retrying a failed sweep after a back-off.
// With autoVacuum > 0 it also wakes every vacuumPoll, and in any round runs
// Vacuum(0) once the garbage made since the last pass is more than
// autoVacuum of the file. Re-seals and relocations are ordinary
// shadow-paged commits, so a crash at any byte of either leaves a normal
// pre-or-post-commit state — no recovery protocol of their own. The loop
// exits when the tree closes, after the round in flight.
func (t *Tree) maintain(autoVacuum float64) {
	defer close(t.stopped)
	var poll <-chan time.Time
	if autoVacuum > 0 {
		tick := time.NewTicker(vacuumPoll)
		defer tick.Stop()
		poll = tick.C
	}
	// left is the garbage the last pass left behind, so a layout already at
	// its floor is not vacuumed again until as much is made anew. A pass that
	// overlapped a commit keeps the old floor: what it left includes garbage
	// made during the pass, which the next one can still reclaim.
	var left int64
	var retry <-chan time.Time // fires when a rotation round is owed; nil once converged
	delay := rotateRetryMin
	for {
		rotate := true
		select {
		case <-t.stop:
			return
		case <-t.kick: // a fresh epoch is what lifts an exhausted one: sweep now
		case <-retry:
		case <-poll:
			rotate = false
		}
		var done bool
		var err error
		if rotate {
			if done, err = t.eng.Rotate(); errors.Is(err, ErrClosed) {
				return
			}
		}
		if autoVacuum > 0 {
			size, live := t.eng.Space()
			if float64(size-live-left) > autoVacuum*float64(size) {
				// A failed pass leaves a consistent layout, and the store's
				// own failure reaches callers on their next write.
				commits := t.eng.Commits()
				_ = t.eng.Vacuum(0)
				size, live = t.eng.Space()
				if t.eng.Commits() == commits {
					left = size - live
				}
			}
		}
		switch {
		case !rotate:
		case err != nil:
			retry, delay = time.After(delay), min(2*delay, rotateRetryMax)
		case done:
			retry, delay = nil, rotateRetryMin
		default: // pages went stale behind the sweep: go again now
			retry, delay = time.After(0), rotateRetryMin
		}
	}
}

// stopMaintain shuts the maintenance loop down and waits for it to exit.
// Idempotent.
func (t *Tree) stopMaintain() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.stopped
}
