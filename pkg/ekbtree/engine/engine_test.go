package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// newTestEngine builds an engine over the given store with the
// plaintext cipher — the engine under test, none of the façade's layers.
func newTestEngine(t *testing.T, st store.PageStore, order int) *Engine {
	t.Helper()
	g, err := New(Config{Store: st, Cipher: cipher.Plaintext{}, Order: order, CachePages: DefaultCachePages})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func enginePut(g *Engine, k, v []byte) error {
	return g.Apply(func(bt *btree.Tree) error { return bt.Put(k, v) })
}

// failingStore wraps a PageStore and, when armed, rejects every CommitPages
// outright (applying nothing), like a fail-stopped durable store rejecting
// at the door.
type failingStore struct {
	store.PageStore
	armed atomic.Bool
}

var errCommitRefused = fmt.Errorf("injected: commit refused")

func (f *failingStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if f.armed.Load() {
		return errCommitRefused
	}
	return f.PageStore.CommitPages(writes, root, frees)
}

// epochChainLen counts the engine's epoch chain, head to tail.
func epochChainLen(g *Engine) int {
	g.es.mu.Lock()
	defer g.es.mu.Unlock()
	n := 0
	for e := g.es.head; e != nil; e = e.next.Load() {
		n++
	}
	return n
}

// TestFailedCommitsDoNotGrowEpochChain is the regression test for retry
// loops against a failing store: the first failed commit may keep its
// provisional epoch (its pre-images can be load-bearing on a fail-stopped
// durable store), but repeated failures must not grow the epoch chain — or
// every reader's overlay walk — without bound, and reads must keep serving
// the last published state throughout.
func TestFailedCommitsDoNotGrowEpochChain(t *testing.T) {
	fs := &failingStore{PageStore: file.NewMem()}
	g := newTestEngine(t, fs, 8)
	defer g.Close()
	for i := 0; i < 200; i++ {
		if err := enginePut(g, []byte(fmt.Sprintf("k%04d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	base := epochChainLen(g)

	fs.armed.Store(true)
	for i := 0; i < 50; i++ {
		if err := enginePut(g, []byte(fmt.Sprintf("k%04d", i)), []byte("v2")); !errors.Is(err, errCommitRefused) {
			t.Fatalf("put against failing store = %v, want injected error", err)
		}
		if v, ok, err := g.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get during failed retries = (%q, %v, %v), want v1", v, ok, err)
		}
	}
	if got := epochChainLen(g); got > base+2 {
		t.Fatalf("50 failed commits grew the epoch chain from %d to %d", base, got)
	}

	fs.armed.Store(false)
	if err := enginePut(g, []byte("k0000"), []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := g.Get([]byte("k0000")); err != nil || !ok || string(v) != "v3" {
		t.Fatalf("Get after recovery = (%q, %v, %v)", v, ok, err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	it := snap.Iter(nil)
	it.Seek(nil)
	count := 0
	for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
		count++
	}
	if err := it.Err(); err != nil || count != 200 {
		t.Fatalf("scan after recovery visited %d (%v)", count, err)
	}
}

// TestCommitEscalatesAfterRepeatedConflicts is the white-box fairness test:
// a writer whose validation keeps losing to concurrent commits must escalate
// to an exclusive pass after exactly maxOptimisticAttempts optimistic tries,
// and that pass must succeed — the total number of times the mutation
// closure re-runs is bounded. The closure itself triggers the conflicting
// Put on each optimistic attempt (between its reads and the commit's
// validation), so every optimistic validation is guaranteed to lose.
func TestCommitEscalatesAfterRepeatedConflicts(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	// A handful of keys: the whole tree is one leaf, so any two puts
	// conflict on the root page, and no split can change the root mid-test.
	for _, k := range []string{"a", "b", "c"} {
		if err := enginePut(g, []byte(k), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	s0, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}

	var invocations int32
	err = g.Apply(func(bt *btree.Tree) error {
		n := atomic.AddInt32(&invocations, 1)
		if err := bt.Put([]byte("a"), []byte("final")); err != nil {
			return err
		}
		if int(n) <= maxOptimisticAttempts {
			// Commit a racing Put touching the same leaf before this
			// attempt validates. Safe from RWMutex recursion: no exclusive
			// acquisition is pending while optimistic attempts hold RLock.
			done := make(chan error, 1)
			go func() { done <- enginePut(g, []byte("b"), []byte(fmt.Sprintf("race%d", n))) }()
			if err := <-done; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&invocations); got != maxOptimisticAttempts+1 {
		t.Fatalf("mutation closure ran %d times, want %d (maxOptimisticAttempts optimistic + 1 exclusive)", got, maxOptimisticAttempts+1)
	}
	if v, ok, err := g.Get([]byte("a")); err != nil || !ok || string(v) != "final" {
		t.Fatalf("Get after escalated commit = (%q, %v, %v)", v, ok, err)
	}
	s1, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.Conflicts - s0.Conflicts; got != maxOptimisticAttempts {
		t.Errorf("Conflicts advanced by %d, want %d", got, maxOptimisticAttempts)
	}
	if s1.Retries-s0.Retries < maxOptimisticAttempts {
		t.Errorf("Retries advanced by %d, want >= %d", s1.Retries-s0.Retries, maxOptimisticAttempts)
	}
}

// TestSnapshotAge pins the published-commit age counter that backs the
// façade's MaxEpochAge bound: a snapshot's age is exactly the number of
// commits published after its pin, failed commits age nothing, and a fresh
// snapshot starts at zero.
func TestSnapshotAge(t *testing.T) {
	fs := &failingStore{PageStore: file.NewMem()}
	g := newTestEngine(t, fs, 8)
	defer g.Close()
	if err := enginePut(g, []byte("seed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got := snap.Age(); got != 0 {
		t.Fatalf("fresh snapshot age = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if err := enginePut(g, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap.Age(); got != 3 {
		t.Fatalf("snapshot age after 3 commits = %d, want 3", got)
	}
	fs.armed.Store(true)
	if err := enginePut(g, []byte("k0"), []byte("v2")); !errors.Is(err, errCommitRefused) {
		t.Fatalf("put against failing store = %v, want injected error", err)
	}
	fs.armed.Store(false)
	if got := snap.Age(); got != 3 {
		t.Fatalf("failed commit aged the snapshot: age = %d, want 3", got)
	}
	snap2, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Close()
	if got := snap2.Age(); got != 0 {
		t.Fatalf("new snapshot age = %d, want 0", got)
	}
}

// TestBatchRestageAfterFree is the regression test for the staged-commit
// dangling-page bug: a page freed and then re-staged within the same
// transaction used to stay in the freed set, so commit would seal and write
// it and then immediately release it, leaving any reference to it dangling.
func TestBatchRestageAfterFree(t *testing.T) {
	st := file.NewMem()
	g := newTestEngine(t, st, 8)
	defer g.Close()
	if err := enginePut(g, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	id, err := st.Root() // one key: the root leaf is the only page
	if err != nil {
		t.Fatal(err)
	}
	err = g.applyTxn(func(tx *writeTxn) error {
		if err := tx.Free(id); err != nil {
			return err
		}
		v2 := &node.Node{Leaf: true, Keys: [][]byte{[]byte("k")}, Values: [][]byte{[]byte("v2")}}
		if err := tx.Write(id, v2); err != nil {
			return err
		}
		if tx.pages[id].freed {
			t.Error("re-staged page still in the transaction's free set")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The re-staged page must be live in the store, not freed at commit.
	if _, err := st.ReadPage(id); err != nil {
		t.Fatalf("re-staged page gone from store after commit: %v", err)
	}
	g.io.invalidate() // force the read back through the store
	if v, ok, err := g.Get([]byte("k")); err != nil || !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get of re-staged page = (%q, %v, %v), want v2", v, ok, err)
	}
}

// TestWriteTxnAllocClosed pins Alloc's error propagation: a closed store must
// refuse to hand out page IDs instead of silently minting them.
func TestWriteTxnAllocClosed(t *testing.T) {
	st := file.NewMem()
	tx := newWriteTxn()
	tx.io = newNodeIO(st, cipher.Plaintext{}, 4)
	if _, err := tx.Alloc(); err != nil {
		t.Fatalf("Alloc on open store: %v", err)
	}
	st.Close()
	if _, err := tx.Alloc(); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Alloc on closed store = %v, want store.ErrClosed", err)
	}
}

// TestClockEvictionSecondChance pins the clock policy: with a full ring, a
// recently-referenced page survives the sweep and the cold page goes.
func TestClockEvictionSecondChance(t *testing.T) {
	g, err := New(Config{Store: file.NewMem(), Cipher: cipher.Plaintext{}, Order: 8, CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Three one-key leaves, committed as one transaction, then an empty cache.
	var ids [3]uint64
	err = g.applyTxn(func(tx *writeTxn) error {
		for i := range ids {
			id, err := tx.Alloc()
			if err != nil {
				return err
			}
			n := &node.Node{Leaf: true, Keys: [][]byte{{byte(i)}}, Values: [][]byte{{byte(i)}}}
			if err := tx.Write(id, n); err != nil {
				return err
			}
			ids[i] = id
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	io := g.io
	io.invalidate()
	evicted := io.cacheStats().Evictions
	read := func(id uint64) {
		t.Helper()
		if _, err := io.ReadShared(id); err != nil {
			t.Fatal(err)
		}
	}
	inCache := func(id uint64) bool {
		io.mu.Lock()
		defer io.mu.Unlock()
		_, ok := io.cacheIdx[id]
		return ok
	}
	read(ids[0])
	read(ids[1]) // ring full, both unreferenced: inserts start without a second chance
	read(ids[0]) // touch the first so it holds a second chance; the second stays cold
	read(ids[2]) // the clock must evict the cold page, never the referenced one
	if !inCache(ids[0]) {
		t.Fatal("clock evicted the recently-referenced page")
	}
	if inCache(ids[1]) {
		t.Fatal("cold page survived while the ring is full")
	}
	if !inCache(ids[2]) {
		t.Fatal("new page not cached")
	}
	cs := io.cacheStats()
	if got := cs.Evictions - evicted; got != 1 {
		t.Fatalf("Evictions advanced by %d, want 1", got)
	}
	if cs.Pages != 2 {
		t.Fatalf("Pages = %d, want 2", cs.Pages)
	}
}
