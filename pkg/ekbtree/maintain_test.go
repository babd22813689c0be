package ekbtree

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
)

// vacuumCountingStore is a page store that counts the vacuum passes run on it.
type vacuumCountingStore struct {
	store.PageStore
	passes *atomic.Int64
}

func (s vacuumCountingStore) Vacuum(target int64) error {
	s.passes.Add(1)
	return s.PageStore.Vacuum(target)
}

// TestAutoVacuum: a sharded Path tree with Options.AutoVacuum compacts its
// own files. Churn — several generations of batched rewrites, then most keys
// deleted one commit at a time — leaves the files several times their live
// bytes; with no Vacuum call the footprint comes back within 1.5x of live,
// every survivor reads back, an idle tree runs no further pass, and Close
// does not wait on the idle loop. Reopened with a fraction below the garbage
// its compacted layout cannot shed, the tree runs one pass and then none:
// only garbage made since a shard's last pass counts.
func TestAutoVacuum(t *testing.T) {
	var passes atomic.Int64
	path := filepath.Join(t.TempDir(), "av.ekb")
	openCounted := func(autoVacuum float64) *Tree {
		open := openShardStore
		defer func() { openShardStore = open }()
		openShardStore = func(opts Options, idx, total int) (store.PageStore, error) {
			st, err := open(opts, idx, total)
			if err != nil {
				return nil, err
			}
			return vacuumCountingStore{st, &passes}, nil
		}
		return mustOpen(t, Options{
			MasterKey: bytes.Repeat([]byte{0xA7}, 32), Path: path,
			Shards: 2, Durability: DurabilityGrouped, AutoVacuum: autoVacuum,
		})
	}
	// idle waits out one poll, for a shard still owed a pass to take it, and
	// reports the passes run over the three polls after that.
	idle := func() int64 {
		time.Sleep(vacuumPoll + vacuumPoll/2)
		before := passes.Load()
		time.Sleep(3 * vacuumPoll)
		return passes.Load() - before
	}
	tr := openCounted(0.15)

	const n, keep, chunk = 1500, 8, 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	val := func(gen, i int) []byte { return []byte(fmt.Sprintf("gen-%d-value-%06d", gen, i)) }
	for gen := 0; gen < 4; gen++ {
		for lo := 0; lo < n; lo += chunk {
			b := tr.NewBatch()
			for i := lo; i < n && i < lo+chunk; i++ {
				if err := b.Put(key(i), val(gen, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		if i%keep == 0 {
			continue
		}
		if _, err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}

	// A pass may already have run mid-churn, so there is no "before" to
	// compare with; without one the deletes leave the files several times
	// their live bytes, so a footprint within 1.5x of live is the proof.
	for deadline := time.Now().Add(10 * vacuumPoll); ; time.Sleep(20 * time.Millisecond) {
		size, live := tr.Space()
		if size > 0 && size < live*3/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-vacuum never converged: file=%d live=%d after %d passes", size, live, passes.Load())
		}
	}
	if passes.Load() == 0 {
		t.Fatal("the footprint converged without a vacuum pass: churn made too little garbage to test")
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i))
		if want := i%keep == 0; err != nil || ok != want || (want && !bytes.Equal(v, val(3, i))) {
			t.Fatalf("Get(%d) after auto-vacuum = (%q, %v, %v), want present=%v", i, v, ok, err, want)
		}
	}

	if n := idle(); n != 0 {
		t.Errorf("an idle tree ran %d more vacuum passes over three polls", n)
	}
	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with the maintenance loop idle", d)
	}

	// The compacted layout keeps some garbage at its floor (residue holes);
	// a fraction well below it makes the first poll vacuum each shard, and a
	// rule that counted all garbage rather than new garbage would go on
	// vacuuming the floor at every poll after.
	tr = openCounted(0.02)
	defer tr.Close()
	if size, live := tr.Space(); float64(size-live) < 0.04*float64(size) {
		t.Fatalf("the compacted layout keeps too little garbage to test the floor: file=%d live=%d", size, live)
	}
	start, before := time.Now(), passes.Load()
	for passes.Load() == before {
		if time.Since(start) > 3*vacuumPoll {
			t.Fatal("a tree reopened over more garbage than AutoVacuum allows ran no pass")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := idle(); n != 0 {
		t.Errorf("a layout at its floor was vacuumed %d more times over three polls", n)
	}
}
