package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// releaseQuiet is how long batch traffic must have stopped before the
// server gives back the heap it grew.
const releaseQuiet = 100 * time.Millisecond

// releaser gives back the heap a batch load grew once the load is over.
//
// A BatchCommit's transaction holds the views it read, its node copies and
// its sealed pages until it commits: 2 000-op batches into a 100 000-key
// tree hold 15–27 MB live, against ~2 MB once the load is over, and the
// page buffers they give back to internal/pagebuf stay pooled through one
// more collection. The collector sets its next heap goal at twice what it
// found live, so up to that goal the load's memory stays resident until the
// traffic after it has allocated through it. A write path that makes almost
// no garbage takes seconds of single Puts and Gets to do that, and a quiet
// server holds it until the runtime's two-minute forced collection.
//
// So when no BatchCommit has come for releaseQuiet, the releaser collects
// twice, the first collection moving the pooled buffers to sync.Pool's
// victim cache and the second freeing them, and returns the free memory to
// the OS. It does so only when the heap goal is more than twice the one the
// last release left, so batches that did not grow the heap, as on a server
// whose live heap is large anyway, cost no collection. The release runs on
// the timer's goroutine, never on a request's path.
type releaser struct {
	timer *time.Timer

	mu      sync.Mutex // serializes releases
	settled uint64     // the heap goal the last release left
	goal    [1]metrics.Sample
}

func newReleaser() *releaser {
	r := &releaser{goal: [1]metrics.Sample{{Name: "/gc/heap/goal:bytes"}}}
	r.timer = time.AfterFunc(releaseQuiet, r.release)
	r.timer.Stop()
	return r
}

// batched notes a committed BatchCommit: the release waits for releaseQuiet
// after the last one.
func (r *releaser) batched() { r.timer.Reset(releaseQuiet) }

// stop cancels a release not yet started. The drain calls it once no
// connection is left to note a batch.
func (r *releaser) stop() { r.timer.Stop() }

func (r *releaser) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.heapGoal() <= 2*r.settled {
		return
	}
	runtime.GC()
	debug.FreeOSMemory()
	r.settled = r.heapGoal()
}

func (r *releaser) heapGoal() uint64 {
	metrics.Read(r.goal[:])
	return r.goal[0].Value.Uint64()
}
