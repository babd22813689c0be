package main

import (
	"runtime/metrics"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// forcedGCs is how many collections this process has been asked for.
func forcedGCs() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestBatchLoadReleased checks that the server gives a batch load's heap
// back once its batches stop, with the two collections that free pooled
// page buffers, and that a batch which did not grow the heap past twice
// what the last release left costs no collection.
func TestBatchLoadReleased(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	c := ts.dial(t, "alice")
	ops := make([]wire.BatchOp, 2000)
	for i := range ops {
		ops[i] = wire.BatchOp{Key: tkey("r", i), Value: tval("r", i)}
	}

	before := forcedGCs()
	if err := c.BatchCommit(ops); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for forcedGCs() < before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d collections 10 s after a 2 000-op batch, want 2", forcedGCs()-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.srv.release.mu.Lock() // the release has finished once settled is set
	settled := ts.srv.release.settled
	ts.srv.release.mu.Unlock()
	if settled == 0 {
		t.Fatal("the release recorded no settled heap goal")
	}

	before = forcedGCs()
	if err := c.BatchCommit(ops[:1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * releaseQuiet)
	if n := forcedGCs() - before; n != 0 {
		t.Errorf("a one-op batch after a release cost %d collections, want 0", n)
	}
}
