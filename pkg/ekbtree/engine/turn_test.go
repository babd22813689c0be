package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// queuedWriters reports how many writers wait for g's turn.
func queuedWriters(g *Engine) int {
	g.turn.mu.Lock()
	defer g.turn.mu.Unlock()
	return len(g.turn.queue)
}

// combine applies lead and each of rest on a goroutine of its own. lead takes
// the turn first and, the first time it runs, blocks until all of rest have
// queued behind it and then runs whileHeld, so its holder finds the whole
// queue waiting. It returns every Apply's error, lead's first, once all have
// returned.
func combine(t *testing.T, g *Engine, whileHeld func(), lead func(*btree.Tree) error, rest ...func(*btree.Tree) error) []error {
	t.Helper()
	errs := make([]error, 1+len(rest))
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + len(rest))
	go func() {
		defer wg.Done()
		first := true
		errs[0] = g.Apply(func(bt *btree.Tree) error {
			if first {
				first = false
				close(held)
				for queuedWriters(g) < len(rest) {
					runtime.Gosched()
				}
				whileHeld()
			}
			return lead(bt)
		})
	}()
	<-held
	for i, f := range rest {
		go func() {
			defer wg.Done()
			errs[1+i] = g.Apply(f)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a combined writer never returned")
	}
	return errs
}

func put(k, v string) func(*btree.Tree) error {
	return func(bt *btree.Tree) error { return bt.Put([]byte(k), []byte(v)) }
}

// TestQueuedMutationsCommitAsOne: the turn holder takes every mutation queued
// behind it into its own transaction, so they publish as one epoch, and each
// caller still sees its own result — here, whether its Delete found the key.
func TestQueuedMutationsCommitAsOne(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	putKeys(t, g, 200, "v1")
	commits := g.Commits()

	deletes := []string{"k0003", "k-abs", "k0150", "k0003"}
	deleted := make([]bool, len(deletes))
	var rest []func(*btree.Tree) error
	for i, k := range deletes {
		rest = append(rest, func(bt *btree.Tree) (err error) {
			deleted[i], err = bt.Delete([]byte(k))
			return err
		})
	}
	rest = append(rest, put("k0042", "v2"))
	for i, err := range combine(t, g, func() {}, put("k-new", "v2"), rest...) {
		if err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	if got := g.Commits() - commits; got != 1 {
		t.Fatalf("%d combined mutations published %d epochs, want 1", len(rest)+1, got)
	}
	// Queued writers run in arrival order, which the test does not fix: the
	// two Deletes of k0003 find it once between them.
	if deleted[1] || !deleted[2] || deleted[0] == deleted[3] {
		t.Fatalf("Delete results %v for %v: want absent false, k0150 true, k0003 true once", deleted, deletes)
	}
	for k, want := range map[string]string{"k-new": "v2", "k0042": "v2", "k0004": "v1", "k0003": "", "k0150": ""} {
		v, ok, err := g.Get([]byte(k))
		if err != nil || ok != (want != "") || string(v) != want {
			t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
}

// TestQueuedErrorStaysItsOwn: a queued mutation that fails gets its own error,
// and the mutations it was combined with commit without it.
func TestQueuedErrorStaysItsOwn(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	putKeys(t, g, 200, "v1")
	errRefused := errors.New("refused")
	failing := func(bt *btree.Tree) error {
		if err := bt.Put([]byte("k0010"), []byte("half")); err != nil {
			return err
		}
		return errRefused
	}
	errs := combine(t, g, func() {}, put("k0000", "lead"), put("k0100", "q1"), failing, put("k0199", "q2"))
	for i, want := range []error{nil, nil, errRefused, nil} {
		if !errors.Is(errs[i], want) {
			t.Fatalf("Apply %d = %v, want %v", i, errs[i], want)
		}
	}
	for k, want := range map[string]string{"k0000": "lead", "k0100": "q1", "k0199": "q2", "k0010": "v1"} {
		if v, ok, err := g.Get([]byte(k)); err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, v, ok, err, want)
		}
	}
}

// TestStoreErrorFailsEveryCombinedWriter: the combined transaction reaches the
// store once, so a store that fails it fails every writer in it, and none of
// their writes becomes visible, even once reads fall through to the store
// that applied them.
func TestStoreErrorFailsEveryCombinedWriter(t *testing.T) {
	fs := &failingStore{PageStore: file.NewMem(), apply: true}
	g := newTestEngine(t, fs, 8)
	defer g.Close()
	putKeys(t, g, 200, "v1")
	commits, published := fs.commits.Load(), g.Commits()

	keys := []string{"k0000", "k0050", "k0100", "k0150"}
	var rest []func(*btree.Tree) error
	for _, k := range keys[1:] {
		rest = append(rest, put(k, "new"))
	}
	fs.armed.Store(true)
	for i, err := range combine(t, g, func() {}, put(keys[0], "new"), rest...) {
		if !errors.Is(err, errCommitRefused) {
			t.Fatalf("Apply %d against a failing store = %v, want the injected error", i, err)
		}
	}
	if got := fs.commits.Load() - commits; got != 1 {
		t.Fatalf("the combined writers reached the store %d times, want once", got)
	}
	if got := g.Commits() - published; got != 0 {
		t.Fatalf("a failed combined commit published %d epochs", got)
	}
	g.io.invalidate()
	for _, k := range keys {
		if v, ok, err := g.Get([]byte(k)); err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get(%s) after the failed commit = (%q, %v, %v), want v1", k, v, ok, err)
		}
	}
}

// TestCloseFailsQueuedWriters: Close waits for the turn, so it returns once
// the holder is done, and every writer queued when it was called — combined
// into the holder's transaction or not — gets ErrClosed. None is left waiting.
func TestCloseFailsQueuedWriters(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	putKeys(t, g, 20, "v1")
	closed := make(chan error, 1)
	var rest []func(*btree.Tree) error
	for i := range 6 {
		rest = append(rest, put(fmt.Sprintf("q%04d", i), "v"))
	}
	errs := combine(t, g, func() {
		go func() { closed <- g.Close() }()
		for !g.Closed() {
			runtime.Gosched()
		}
	}, put("lead", "v"), rest...)
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Apply %d queued at Close = %v, want ErrClosed", i, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := enginePut(g, []byte("late"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

// overlapStore counts the CommitPages calls in flight on the store it wraps,
// and how many calls began while another was still in flight.
type overlapStore struct {
	store.PageStore
	inFlight, overlaps, commits atomic.Int32
}

func (o *overlapStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if o.inFlight.Add(1) > 1 {
		o.overlaps.Add(1)
	}
	defer o.inFlight.Add(-1)
	o.commits.Add(1)
	runtime.Gosched() // widen the window a second caller would land in
	return o.PageStore.CommitPages(writes, root, frees)
}

// TestCommitPagesNeverOverlap holds the engine to the store's write contract:
// CommitPages calls on one store never overlap, because an engine's writers
// take turns and the holder's one call is the engine's group commit. Eight
// writers run beside a goroutine that loops AdvanceEpoch, Rotate and
// Vacuum, in every durability mode.
func TestCommitPagesNeverOverlap(t *testing.T) {
	const writers, per = 8, 50
	for _, mode := range []file.Durability{file.Full, file.Grouped, file.Async} {
		t.Run(mode.String(), func(t *testing.T) {
			fs, err := file.OpenConfig(filepath.Join(t.TempDir(), "overlap.ekb"), file.Config{Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			st := &overlapStore{PageStore: fs}
			g := newEpochEngine(t, st, 0, 0, nil)
			defer g.Close()

			stop := make(chan struct{})
			maintained := make(chan error, 1)
			rounds := 0
			go func() {
				for ; ; rounds++ {
					select {
					case <-stop:
						maintained <- nil
						return
					default:
					}
					if err := g.AdvanceEpoch(); err != nil {
						maintained <- err
						return
					}
					if _, err := g.Rotate(); err != nil {
						maintained <- err
						return
					}
					if err := g.Vacuum(); err != nil {
						maintained <- err
						return
					}
				}
			}()
			errs := make(chan error, writers)
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range per {
						if err := enginePut(g, []byte(fmt.Sprintf("w%d-%03d", w, i)), []byte("v")); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			if err := <-maintained; err != nil {
				t.Fatalf("maintenance: %v", err)
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if n := st.overlaps.Load(); n > 0 {
				t.Fatalf("%d of %d CommitPages calls began while another was in flight", n, st.commits.Load())
			}
			t.Logf("%d CommitPages calls beside %d maintenance rounds", st.commits.Load(), rounds)
			for w := range writers {
				for i := range per {
					k := fmt.Sprintf("w%d-%03d", w, i)
					if v, ok, err := g.Get([]byte(k)); err != nil || !ok || string(v) != "v" {
						t.Fatalf("Get(%s) = (%q, %v, %v), want v", k, v, ok, err)
					}
				}
			}
		})
	}
}
