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

// kickMaintain schedules a rotation round. Non-blocking: a round rotates to
// convergence per kick, so a kick that finds one already pending is subsumed
// by it.
func (t *Tree) kickMaintain() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// maintain is the tree's background rotator: one goroutine per Tree. Epoch
// advances (and Open, once) kick it to sweep the old-epoch pages back under
// the current derived key, retrying a failed sweep after a back-off.
// Re-seals are ordinary shadow-paged commits, so a crash at any byte of one
// leaves a normal pre-or-post-commit state — no recovery protocol of their
// own. Compaction is not its job: every flush packs, and Vacuum reclaims what
// writes leave when a caller asks. The loop exits when the tree closes, after
// the round in flight.
func (t *Tree) maintain() {
	defer close(t.stopped)
	var retry <-chan time.Time // fires when a rotation round is owed; nil once converged
	delay := rotateRetryMin
	for {
		select {
		case <-t.stop:
			return
		case <-t.kick: // a fresh epoch is what lifts an exhausted one: sweep now
		case <-retry:
		}
		done, err := t.eng.Rotate()
		switch {
		case errors.Is(err, ErrClosed):
			return
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
