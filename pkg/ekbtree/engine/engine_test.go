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

// failingStore wraps a PageStore and, when armed, fails every CommitPages:
// outright, applying nothing, like a fail-stopped durable store rejecting at
// the door — or, with apply set, after applying it, as a Full-mode flush
// failure does to every commit it coalesced. commits counts the calls.
type failingStore struct {
	store.PageStore
	apply   bool
	armed   atomic.Bool
	commits atomic.Int32
}

var errCommitRefused = fmt.Errorf("injected: commit refused")

func (f *failingStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	f.commits.Add(1)
	if !f.armed.Load() {
		return f.PageStore.CommitPages(writes, root, frees)
	}
	if f.apply {
		if err := f.PageStore.CommitPages(writes, root, frees); err != nil {
			return err
		}
	}
	return errCommitRefused
}

// epochChainLen counts the epochs a reader pinning now walks: current and
// every epoch linked after it.
func epochChainLen(g *Engine) int {
	g.es.mu.Lock()
	defer g.es.mu.Unlock()
	n := 0
	for e := g.es.current.Load(); e != nil; e = e.next.Load() {
		n++
	}
	return n
}

// putKeys commits key(i) = v for i in [0, n), one Put each.
func putKeys(t *testing.T, g *Engine, n int, v string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := enginePut(g, []byte(fmt.Sprintf("k%04d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedCommitsDoNotGrowEpochChain is the regression test for retry
// loops against a failing store: the first store error stops the engine's
// writers, so every later Put returns that error without reaching the store,
// the epoch chain — every reader's overlay walk — grows by the one failed
// epoch at most, and reads keep serving the last published state throughout.
func TestFailedCommitsDoNotGrowEpochChain(t *testing.T) {
	fs := &failingStore{PageStore: file.NewMem()}
	g := newTestEngine(t, fs, 8)
	defer g.Close()
	putKeys(t, g, 200, "v1")
	base, commits := epochChainLen(g), fs.commits.Load()

	fs.armed.Store(true)
	for i := 0; i < 50; i++ {
		if err := enginePut(g, []byte(fmt.Sprintf("k%04d", i)), []byte("v2")); !errors.Is(err, errCommitRefused) {
			t.Fatalf("put against failing store = %v, want the first injected error", err)
		}
		if v, ok, err := g.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get during failed retries = (%q, %v, %v), want v1", v, ok, err)
		}
	}
	if got := fs.commits.Load() - commits; got != 1 {
		t.Fatalf("50 failed Puts reached the store %d times, want once", got)
	}
	if got := epochChainLen(g); got > base+1 {
		t.Fatalf("50 failed commits grew the epoch chain from %d to %d", base, got)
	}

	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	it := snap.Iter(nil)
	it.Seek(nil)
	count := 0
	for _, v, ok := it.Next(); ok; _, v, ok = it.Next() {
		if string(v) != "v1" {
			t.Fatalf("scan after failed commits read %q, want v1", v)
		}
		count++
	}
	if err := it.Err(); err != nil || count != 200 {
		t.Fatalf("scan after failed commits visited %d (%v)", count, err)
	}
}

// TestFailedCommitsStayInvisible: a store may fail a commit after applying
// it — a Full-mode flush failure fails every commit it coalesced, and the
// file store goes on serving them all — so no failed Put may become visible,
// not even once the cache is cold and reads fall through to the store. The
// second Put, on another leaf, never reaches the store: the first failure
// stopped the engine's writers.
func TestFailedCommitsStayInvisible(t *testing.T) {
	fs := &failingStore{PageStore: file.NewMem(), apply: true}
	g := newTestEngine(t, fs, 8)
	defer g.Close()
	putKeys(t, g, 200, "v1")
	commits := fs.commits.Load()

	fs.armed.Store(true)
	keys := []string{"k0000", "k0150"} // on different leaves at order 8
	for _, k := range keys {
		if err := enginePut(g, []byte(k), []byte("new")); !errors.Is(err, errCommitRefused) {
			t.Fatalf("Put(%s) against failing store = %v, want the injected error", k, err)
		}
	}
	g.io.invalidate()
	for _, k := range keys {
		if v, ok, err := g.Get([]byte(k)); err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get(%s) after failed Puts = (%q, %v, %v), want v1", k, v, ok, err)
		}
	}
	if got := fs.commits.Load() - commits; got != 1 {
		t.Fatalf("the store saw %d CommitPages after the first failure, want 1", got)
	}
}

// TestRootMovesCommitOptimistically: a commit that moves the root — the first
// insert, every root split — is an ordinary optimistic commit. A lone writer
// never conflicts, so loading a tree several levels deep re-executes nothing.
func TestRootMovesCommitOptimistically(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	putKeys(t, g, 2000, "v")
	s, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Keys != 2000 || s.Height < 4 {
		t.Fatalf("Stats = %+v, want 2000 keys at least four levels deep", s)
	}
	if s.Conflicts != 0 {
		t.Fatalf("a lone writer's load re-executed %d mutations, want 0", s.Conflicts)
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
