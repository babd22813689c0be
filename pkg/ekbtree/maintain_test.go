package ekbtree

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
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

// TestAutoVacuum: a file-backed tree with Options.AutoVacuum compacts its
// own file. Churn — several generations of batched rewrites, then most keys
// deleted one commit at a time — leaves the file several times its live
// bytes; with no Vacuum call the footprint comes back within 1.5x of live,
// every survivor reads back, an idle tree runs no further pass, and Close
// does not wait on the idle loop. Reopened with a fraction below the garbage
// its compacted layout cannot shed, the tree runs one pass and then none:
// only garbage made since the last pass counts.
func TestAutoVacuum(t *testing.T) {
	var passes atomic.Int64
	path := filepath.Join(t.TempDir(), "av.ekb")
	openCounted := func(autoVacuum float64) *Tree {
		st, err := file.OpenConfig(path, file.Config{Durability: DurabilityGrouped})
		if err != nil {
			t.Fatal(err)
		}
		return mustOpen(t, Options{
			MasterKey: bytes.Repeat([]byte{0xA7}, 32),
			Store:     vacuumCountingStore{st, &passes}, AutoVacuum: autoVacuum,
		})
	}
	// idle waits out one poll, for a pass still owed to run, and
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
	// a fraction well below it makes the first round vacuum, and a
	// rule that counted all garbage rather than new garbage would go on
	// vacuuming the floor at every poll after. Open kicks that first round,
	// which may finish before Open's caller reads the count, so the count is
	// read before the reopen.
	before := passes.Load()
	tr = openCounted(0.02)
	defer tr.Close()
	if size, live := tr.Space(); float64(size-live) < 0.04*float64(size) {
		t.Fatalf("the compacted layout keeps too little garbage to test the floor: file=%d live=%d", size, live)
	}
	start = time.Now()
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

// churnAfterPassStore is a vacuumCountingStore whose Vacuum, once armed, runs
// churn after the real pass returns and hands its error to churned: garbage
// made while the maintenance loop's pass was in flight, as a busy tree makes
// it.
type churnAfterPassStore struct {
	vacuumCountingStore
	armed   *atomic.Bool
	churn   func() error
	churned chan<- error
}

func (s churnAfterPassStore) Vacuum(target int64) error {
	err := s.vacuumCountingStore.Vacuum(target)
	if s.armed.CompareAndSwap(true, false) {
		s.churned <- s.churn()
	}
	return err
}

// TestOverlappedPassKeepsVacuumFloor: a pass during which a commit published
// leaves the auto-vacuum floor where it was. Here the commit deletes seven
// keys in eight, so what the pass leaves behind is mostly garbage made after
// it compacted; taken for the layout's floor, it would keep auto-vacuum off
// until as much again is made. The next poll must vacuum it instead.
func TestOverlappedPassKeepsVacuumFloor(t *testing.T) {
	var passes atomic.Int64
	var armed atomic.Bool
	churned := make(chan error, 1)
	const n, chunk = 1500, 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	st, err := file.OpenConfig(filepath.Join(t.TempDir(), "floor.ekb"), file.Config{Durability: DurabilityGrouped})
	if err != nil {
		t.Fatal(err)
	}
	var tr *Tree
	churn := func() error {
		b := tr.NewBatch()
		for i := 0; i < n; i++ {
			if i%8 != 0 {
				if err := b.Delete(key(i)); err != nil {
					return err
				}
			}
		}
		if err := b.Commit(); err != nil {
			return err
		}
		return tr.Sync()
	}
	tr = mustOpen(t, Options{
		MasterKey:  bytes.Repeat([]byte{0xA7}, 32),
		Store:      churnAfterPassStore{vacuumCountingStore{st, &passes}, &armed, churn, churned},
		AutoVacuum: 0.15,
	})
	defer tr.Close()
	write := func(gen int) {
		t.Helper()
		for lo := 0; lo < n; lo += chunk {
			b := tr.NewBatch()
			for i := lo; i < n && i < lo+chunk; i++ {
				if err := b.Put(key(i), []byte(fmt.Sprintf("gen-%d-value-%06d", gen, i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	write(1)
	// The armed pass runs at the first poll that finds garbage over
	// AutoVacuum of the file. A rewrite does not leave a fixed amount of it:
	// a generation placed in the holes in front of the last one frees the
	// tail, which its flush truncates, and every flush packs pages into the
	// holes the ones before it left. Deleting the first half of the keys in
	// tree order does: it frees their leaves and leaves the others where
	// they are, all over the file, and no flush follows it to pack the holes.
	var inOrder []int
	c := tr.Cursor()
	for ok := c.First(); ok; ok = c.Next() {
		var gen, i int
		if _, err := fmt.Sscanf(string(c.Value()), "gen-%d-value-%06d", &gen, &i); err != nil {
			t.Fatal(err)
		}
		inOrder = append(inOrder, i)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	b := tr.NewBatch()
	for _, i := range inOrder[:n/2] {
		if err := b.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if size, live := tr.Space(); armed.Load() && float64(size-live) <= 0.3*float64(size) {
		t.Fatalf("deleting half the keys left garbage of %.3f of the file (file=%d live=%d), want over 0.3",
			float64(size-live)/float64(size), size, live)
	}
	select {
	case err := <-churned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * vacuumPoll):
		t.Fatal("no vacuum pass ran over the rewritten tree")
	}
	after := passes.Load()
	for deadline := time.Now().Add(5 * vacuumPoll); ; time.Sleep(20 * time.Millisecond) {
		size, live := tr.Space()
		if passes.Load() > after && size < live*3/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the garbage made during a pass became the floor: file=%d live=%d, %d passes after it", size, live, passes.Load()-after)
		}
	}
}
