package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// snapshotContents iterates a whole snapshot into a map.
func snapshotContents(s Snapshot) (map[string]string, error) {
	out := make(map[string]string)
	it := s.Iter(nil)
	it.Seek(nil)
	for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
		out[string(k)] = string(v)
	}
	return out, it.Err()
}

// TestSnapshotSurvivesCopyOnWriteCommits pins a snapshot, then rewrites every
// page it reads — overwrites, deletes that merge, inserts that split, in
// multi-op transactions — while a reader goroutine iterates the snapshot over
// and over. The snapshot's nodes are the very nodes the writer's descents read,
// so a transaction that altered one in place instead of Editing a copy shows
// up as wrong contents here and as a data race under -race.
func TestSnapshotSurvivesCopyOnWriteCommits(t *testing.T) {
	const keys, perTxn = 600, 48
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	want := make(map[string]string, keys)
	err := g.Apply(func(bt *btree.Tree) error {
		for i := 0; i < keys; i++ {
			want[string(key(i))] = "old"
			if err := bt.Put(key(i), []byte("old")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	check := func(when string) {
		got, err := snapshotContents(snap)
		if err != nil {
			t.Errorf("%s: iterating the pinned snapshot: %v", when, err)
			return
		}
		if len(got) != len(want) {
			t.Errorf("%s: pinned snapshot holds %d entries, want %d", when, len(got), len(want))
			return
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: pinned snapshot has %q = %q, want %q", when, k, got[k], v)
				return
			}
		}
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			check("during the commits")
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Every key is overwritten, a third of them deleted again, and as many new
	// ones inserted between the survivors: every leaf and internal page of the
	// pinned version is rewritten or freed.
	now := make(map[string]string, keys)
	type op struct {
		k, v []byte // v nil: delete
	}
	var ops []op
	for i := 0; i < keys; i++ {
		ops = append(ops, op{key(i), []byte("new")})
	}
	for i := 0; i < keys; i += 3 {
		ops = append(ops, op{k: key(i)})
		ops = append(ops, op{[]byte(fmt.Sprintf("k%05d+", i)), []byte("born")})
	}
	for lo := 0; lo < len(ops); lo += perTxn {
		txn := ops[lo:min(lo+perTxn, len(ops))]
		err := g.Apply(func(bt *btree.Tree) error {
			for _, o := range txn {
				if o.v == nil {
					if _, err := bt.Delete(o.k); err != nil {
						return err
					}
				} else if err := bt.Put(o.k, o.v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range txn {
			if o.v == nil {
				delete(now, string(o.k))
			} else {
				now[string(o.k)] = string(o.v)
			}
		}
	}
	close(stop)
	reader.Wait()
	check("after the commits")

	tip, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer tip.Close()
	got, err := snapshotContents(tip)
	if err != nil || len(got) != len(now) {
		t.Fatalf("current snapshot holds %d entries (%v), want %d", len(got), err, len(now))
	}
	for k, v := range now {
		if got[k] != v {
			t.Fatalf("current snapshot has %q = %q, want %q", k, got[k], v)
		}
	}
}

// recordingStore remembers the page IDs of the last CommitPages call.
type recordingStore struct {
	store.PageStore
	writes, frees []uint64
}

func (r *recordingStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	r.writes = r.writes[:0]
	for id := range writes {
		r.writes = append(r.writes, id)
	}
	r.frees = append(r.frees[:0], frees...)
	return r.PageStore.CommitPages(writes, root, frees)
}

// TestRecycledWorkspaceIsEmpty drives the engine's one recycled transaction
// workspace through everything that can leave something behind — a
// transaction too large to keep, one full of frees, an aborted one, one
// combined from several writers' mutations — and then checks that the next
// commit starts from nothing and hands the store exactly its own read-set,
// writes and frees.
func TestRecycledWorkspaceIsEmpty(t *testing.T) {
	rs := &recordingStore{PageStore: file.NewMem()}
	g := newTestEngine(t, rs, 8)
	defer g.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	putRange := func(bt *btree.Tree, lo, hi int, v string) error {
		for i := lo; i < hi; i++ {
			if err := bt.Put(key(i), []byte(v)); err != nil {
				return err
			}
		}
		return nil
	}
	deleteRange := func(bt *btree.Tree, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, err := bt.Delete(key(i)); err != nil {
				return err
			}
		}
		return nil
	}
	entries := func(tx *writeTxn) int { return len(tx.pages) + len(tx.writes) }
	empty := func(when string, tx *writeTxn) {
		t.Helper()
		if tx == nil {
			t.Fatalf("%s: no workspace kept", when)
		}
		if entries(tx) != 0 || tx.base != nil {
			t.Fatalf("%s: workspace not empty: pages %d writes %d base %v",
				when, len(tx.pages), len(tx.writes), tx.base)
		}
	}

	// A bulk load touching far more than workspaceKeep pages: dropped, so its
	// grown maps are not re-cleared by every later commit.
	if err := g.Apply(func(bt *btree.Tree) error { return putRange(bt, 0, 6000, "v1") }); err != nil {
		t.Fatal(err)
	}
	if g.ws != nil {
		t.Fatal("the workspace of a bulk load was kept")
	}
	// One that fits, with reads, writes, frees (merges) and a fresh page or two.
	err := g.Apply(func(bt *btree.Tree) error {
		if err := deleteRange(bt, 0, 120); err != nil {
			return err
		}
		return putRange(bt, 7000, 7040, "v1")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.frees) == 0 {
		t.Fatal("the delete sweep freed no page; the test needs frees to leave behind")
	}
	empty("after a committed transaction", g.ws)
	// An aborted one: staged edits, frees and a root it never committed.
	errAbort := errors.New("abort")
	err = g.Apply(func(bt *btree.Tree) error {
		if err := deleteRange(bt, 120, 300); err != nil {
			return err
		}
		return errAbort
	})
	if !errors.Is(err, errAbort) {
		t.Fatalf("aborted Apply = %v", err)
	}
	empty("after an aborted transaction", g.ws)
	// A combined one: two writers queue behind the holder, which takes their
	// mutations into its own transaction on the same leaves.
	errs := combine(t, g, func() {},
		func(bt *btree.Tree) error { return deleteRange(bt, 300, 360) },
		func(bt *btree.Tree) error { return bt.Put(key(301), []byte("queued")) },
		func(bt *btree.Tree) error { return putRange(bt, 7040, 7060, "v1") })
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("combined Apply = %v", err)
	}
	empty("after a combined transaction", g.ws)

	// The next commit overwrites one value: it must read one root-to-leaf
	// path, write its one leaf and free nothing.
	st, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	err = g.applyTxn(func(tx *writeTxn) error {
		if n := entries(tx); n != 0 || tx.root != tx.base.root {
			t.Errorf("a transaction began with %d stale workspace entries (root %d, base root %d)", n, tx.root, tx.base.root)
		}
		bt, err := btree.New(tx, g.deg)
		if err != nil {
			return err
		}
		if err := bt.Put(key(5000), []byte("v2")); err != nil {
			return err
		}
		if got := len(readSet(tx)); got != st.Height {
			t.Errorf("read-set holds %d pages, want the %d of one descent", got, st.Height)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.writes) != 1 || len(rs.frees) != 0 {
		t.Fatalf("a one-leaf overwrite committed writes %v and frees %v", rs.writes, rs.frees)
	}
	if v, ok, err := g.Get(key(5000)); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get = (%q, %v, %v), want v2", v, ok, err)
	}
}

// viewBytes returns the page and side buffer a decoded view reads, and false
// for a materialised node. They are unexported fields of node.Node, read by
// reflection so that the node package grows no method for a test alone.
func viewBytes(n *node.Node) (page, side []byte, ok bool) {
	v := reflect.ValueOf(n).Elem()
	page, side = v.FieldByName("page").Bytes(), v.FieldByName("side").Bytes()
	return page, side, page != nil
}

// viewSum checksums what a view reads, and reports false for a materialised
// node.
func viewSum(n *node.Node) (uint32, bool) {
	page, side, ok := viewBytes(n)
	return crc32.Update(crc32.ChecksumIEEE(page), crc32.IEEETable, side), ok
}

// viewRecorder is a transaction as the btree layer sees it, recording every
// view Read hands the layer, with its checksum, in seen.
type viewRecorder struct {
	*writeTxn
	seen map[*node.Node]uint32
}

func (r viewRecorder) Read(id uint64) (*node.Node, error) {
	n, err := r.writeTxn.Read(id)
	if err == nil {
		if sum, ok := viewSum(n); ok {
			r.seen[n] = sum
		}
	}
	return n, err
}

// TestCachedViewsAreNeverWritten is the copy-on-write guard for views. A view
// is the page a read miss deciphered, or the page a commit sealed, and every
// reader, every transaction's pre-image and every snapshot's undo overlay
// shares it, so nothing may write into its page or side buffer: not Edit,
// which materialises a copy over the same key and value bytes (rebuilding a
// copy the last commit made), not Write or promotion, and not eviction. Over
// randomized Put, Delete, batch and re-seal transactions on a cache far
// smaller than the tree, with Gets in between:
//   - every view a writer read must checksum as it did when read, at the end
//     of its mutation and for as long as the cache holds it;
//   - every view a commit installed must checksum as it did when installed,
//     for as long as the cache holds it;
//   - after every transaction, each cached view must equal a fresh decode of
//     its page from the store;
//   - every view an open Snapshot has read must still checksum as it did
//     then, until the Snapshot closes.
//
// The test requires at least ten times the cache's size of distinct views of
// each kind, and that read misses took recycled blocks. Order 64 takes the
// view's second allocation, an offset table too big for the node's own.
func TestCachedViewsAreNeverWritten(t *testing.T) {
	for _, order := range []int{4, 8, 32, 64} {
		t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
			const txns, cachePages = 300, 24
			keys := max(3000, 200*order) // a tree of hundreds of pages at every order
			st := &recordingStore{PageStore: file.NewMem()}
			g, err := New(Config{Store: st, Cipher: cipher.Plaintext{}, Order: order, CachePages: cachePages})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			rng := rand.New(rand.NewSource(int64(order)))
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i*7919%keys)) }
			model := make(map[string]string)
			// The views a writer read and a commit installed, with their
			// checksums and counts. A view's block is recycled only when the
			// engine has no pins, and the test holds a snapshot open except
			// while reopen swaps it, which forgets every view the cache no
			// longer holds: a later view in the same block is another view.
			read := make(map[*node.Node]uint32)
			installed := make(map[*node.Node]uint32)
			reads, installs, counting := 0, 0, false
			apply := func(ops int) {
				t.Helper()
				type op struct{ k, v string } // v == "": delete
				batch := make([]op, ops)
				for i := range batch {
					batch[i].k = string(key(rng.Intn(keys)))
					if rng.Intn(3) > 0 {
						batch[i].v = fmt.Sprintf("v%d-%s", rng.Intn(1000), strings.Repeat("x", rng.Intn(40)))
					}
				}
				err := g.applyTxn(func(tx *writeTxn) error {
					seen := make(map[*node.Node]uint32)
					bt, err := btree.New(viewRecorder{tx, seen}, g.deg)
					if err != nil {
						return err
					}
					for _, o := range batch {
						var err error
						if o.v == "" {
							_, err = bt.Delete([]byte(o.k))
						} else {
							err = bt.Put([]byte(o.k), []byte(o.v))
						}
						if err != nil {
							return err
						}
					}
					for n, sum := range seen {
						if got, _ := viewSum(n); got != sum {
							return errors.New("a view the writer read was written during its mutation")
						}
						if old, ok := read[n]; !counting {
							continue
						} else if !ok {
							read[n] = sum
							reads++
						} else if old != sum {
							return errors.New("a view a writer read before was written")
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range batch {
					if o.v == "" {
						delete(model, o.k)
					} else {
						model[o.k] = o.v
					}
				}
			}
			for i := 0; i < keys; i += 500 {
				apply(500) // no pin spans the load, so no view is counted
			}

			var snap Snapshot
			snapSums := make(map[*node.Node]uint32)
			// check holds the cache to the store and every counted view to its
			// checksum; right after a commit it counts the views it installed,
			// which are all the cache holds of the pages it wrote.
			check := func(when string, committed bool) {
				t.Helper()
				g.io.mu.Lock()
				slots := append([]cacheSlot(nil), g.io.slots...)
				g.io.mu.Unlock()
				wrote := make(map[uint64]bool)
				if committed {
					for _, id := range st.writes {
						wrote[id] = true
					}
				}
				for _, s := range slots {
					page, side, ok := viewBytes(s.n)
					if !ok {
						t.Fatalf("%s: the cache holds page %d materialised", when, s.id)
					}
					stored, err := g.st.ReadPage(s.id)
					if err != nil {
						t.Fatal(err)
					}
					pt, err := g.io.nc.Open(s.id, stored)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := node.DecodeInPlace(pt)
					if err != nil {
						t.Fatal(err)
					}
					wantPage, wantSide, _ := viewBytes(fresh)
					if !bytes.Equal(page, wantPage) || !bytes.Equal(side, wantSide) {
						t.Fatalf("%s: the cached view of page %d differs from a fresh decode of the store's page", when, s.id)
					}
					sum, _ := viewSum(s.n)
					if was, ok := read[s.n]; ok && was != sum {
						t.Fatalf("%s: a cached view a writer read was written", when)
					}
					if was, ok := installed[s.n]; ok && was != sum {
						t.Fatalf("%s: a cached view a commit installed was written", when)
					} else if !ok && wrote[s.id] {
						installed[s.n] = sum
						installs++
					}
				}
				for n, sum := range snapSums {
					if got, _ := viewSum(n); got != sum {
						t.Fatalf("%s: a view an open snapshot read was written", when)
					}
				}
			}
			// reopen closes the open snapshot, if any, forgets the counted
			// views its close may have recycled, opens a new one, and records
			// every view in it by walking the whole tree.
			reopen := func() {
				t.Helper()
				if snap.e != nil {
					snap.Close()
				}
				cached := make(map[*node.Node]bool)
				g.io.mu.Lock()
				for _, s := range g.io.slots {
					cached[s.n] = true
				}
				g.io.mu.Unlock()
				for _, sums := range []map[*node.Node]uint32{read, installed} {
					maps.DeleteFunc(sums, func(n *node.Node, _ uint32) bool { return !cached[n] })
				}
				clear(snapSums)
				if snap, err = g.Snapshot(); err != nil {
					t.Fatal(err)
				}
				for ids := []uint64{snap.e.root}; len(ids) > 0; {
					n, err := snap.e.Read(ids[len(ids)-1])
					if err != nil {
						t.Fatal(err)
					}
					ids = ids[:len(ids)-1]
					if sum, ok := viewSum(n); ok {
						snapSums[n] = sum
					}
					if !n.Leaf {
						for i := range n.Len() + 1 {
							ids = append(ids, n.Child(i))
						}
					}
				}
			}

			g.io.invalidate()
			reopen()
			counting = true
			for txn := 0; txn < txns; txn++ {
				switch r := rng.Intn(10); {
				case r < 4:
					apply(1)
				case r < 8:
					apply(1 + rng.Intn(64))
				default:
					// Re-seal what the cache holds: Edit and Write with no change.
					g.io.mu.Lock()
					var ids []uint64
					for _, s := range g.io.slots {
						ids = append(ids, s.id)
					}
					g.io.mu.Unlock()
					if err := g.resealPages(ids); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("after transaction %d", txn), true)
				for range 8 {
					k := string(key(rng.Intn(keys)))
					if v, ok, err := g.Get([]byte(k)); err != nil || ok != (model[k] != "") || string(v) != model[k] {
						t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, v, ok, err, model[k])
					}
				}
				check(fmt.Sprintf("after the Gets behind transaction %d", txn), false)
				if txn%50 == 49 {
					g.io.invalidate() // the next reads make views of the store's pages
				}
				if txn%25 == 24 {
					reopen()
				}
			}
			snap.Close()
			reused := g.io.blocks.Reused()
			if reads < 10*cachePages || installs < 10*cachePages || reused == 0 {
				t.Fatalf("the %d-page cache met %d distinct views a writer read and %d a commit installed over %d transactions, and read misses took %d recycled blocks", cachePages, reads, installs, txns, reused)
			}
			for k, v := range model {
				if got, ok, err := g.Get([]byte(k)); err != nil || !ok || string(got) != v {
					t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, got, ok, err, v)
				}
			}
			if st, err := g.Stats(); err != nil || st.Keys != len(model) {
				t.Fatalf("Stats = (%d keys, %v), want %d", st.Keys, err, len(model))
			}
			t.Logf("%d views a writer read and %d a commit installed checked, %d recycled blocks read into", reads, installs, reused)
		})
	}
}

// TestCommitCachesViews holds a commit to the cache's contract: the cache
// keeps views of pages, never a writer's copy. A 64-mutation commit (24
// inserts, 24 deletes, 16 overwrites) runs against a tree the cache holds
// whole, and drops every other cached page just before sealing begins, as a
// small cache would have evicted it. Afterwards no slot may hold a
// materialised node; every page the commit wrote that the cache held when
// sealing began must be cached as a view whose page and side bytes equal a
// fresh decode of the store's page; and no page it wrote that the cache did
// not hold may be cached, a new page included.
func TestCommitCachesViews(t *testing.T) {
	const keys = 4000
	st := &recordingStore{PageStore: file.NewMem()}
	g, err := New(Config{Store: st, Cipher: cipher.Plaintext{}, Order: 8, CachePages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)*2654435761) }
	value := func(i, gen int) []byte { return fmt.Appendf(nil, "value %d of generation %d", i, gen) }
	// onlyViews fails the test if a slot holds a materialised node, and
	// returns the slots and the index.
	onlyViews := func(when string) ([]cacheSlot, map[uint64]int) {
		t.Helper()
		g.io.mu.Lock()
		slots := append([]cacheSlot(nil), g.io.slots...)
		cached := maps.Clone(g.io.cacheIdx)
		g.io.mu.Unlock()
		for _, s := range slots {
			if _, _, ok := viewBytes(s.n); !ok {
				t.Fatalf("%s: the cache holds page %d as a materialised node", when, s.id)
			}
		}
		return slots, cached
	}
	for lo := 0; lo < keys; lo += 500 {
		err := g.Apply(func(bt *btree.Tree) error {
			for i := lo; i < lo+500; i++ {
				if err := bt.Put(key(i), value(i, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		onlyViews(fmt.Sprintf("after loading %d keys", lo+500))
	}
	g.io.invalidate()
	for i := range keys {
		if _, ok, err := g.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get(%d) = (%v, %v)", i, ok, err)
		}
	}

	held := make(map[uint64]bool)
	err = g.applyTxn(func(tx *writeTxn) error {
		bt, err := btree.New(tx, g.deg)
		if err != nil {
			return err
		}
		for i := range 24 {
			if err := bt.Put(key(keys+i), value(keys+i, 1)); err != nil {
				return err
			}
			if _, err := bt.Delete(key(i)); err != nil {
				return err
			}
		}
		for i := 24; i < 40; i++ {
			if err := bt.Put(key(i), value(i, 1)); err != nil {
				return err
			}
		}
		g.io.mu.Lock()
		defer g.io.mu.Unlock()
		var ids []uint64
		for _, s := range g.io.slots {
			ids = append(ids, s.id)
		}
		slices.Sort(ids)
		for i, id := range ids {
			if i%2 == 0 {
				g.io.cacheDelete(id)
			} else {
				held[id] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	slots, cached := onlyViews("after the commit")
	viewed, dropped := 0, 0
	for _, id := range st.writes {
		idx, ok := cached[id]
		if !held[id] {
			if ok {
				t.Fatalf("page %d, written but not cached when sealing began, is cached", id)
			}
			dropped++
			continue
		}
		if !ok {
			t.Fatalf("page %d, written and cached when sealing began, is not cached", id)
		}
		stored, err := g.st.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := g.io.nc.Open(id, stored)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := node.DecodeInPlace(pt)
		if err != nil {
			t.Fatal(err)
		}
		page, side, _ := viewBytes(slots[idx].n)
		wantPage, wantSide, _ := viewBytes(fresh)
		if !bytes.Equal(page, wantPage) || !bytes.Equal(side, wantSide) {
			t.Fatalf("the cached view of page %d differs from a fresh decode of the store's page", id)
		}
		viewed++
	}
	if viewed < 10 || dropped < 10 {
		t.Fatalf("the commit wrote %d pages the cache held and %d it did not; the test needs ten of each", viewed, dropped)
	}
	for i := range keys + 24 {
		want := value(i, 0)
		switch {
		case i < 24:
			want = nil
		case i < 40 || i >= keys:
			want = value(i, 1)
		}
		if v, ok, err := g.Get(key(i)); err != nil || ok != (want != nil) || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = (%q, %v, %v), want %q", i, v, ok, err, want)
		}
	}
	t.Logf("the commit wrote %d pages: %d cached as views of their seals, %d left out", len(st.writes), viewed, dropped)
}
