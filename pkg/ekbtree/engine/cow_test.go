package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
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

// isLent reports whether a writer has received view n (node.Node.Lend), read
// like viewBytes.
func isLent(n *node.Node) bool { return reflect.ValueOf(n).Elem().FieldByName("lent").Bool() }

// TestCachedViewsAreNeverWritten is the copy-on-write guard for views. A view
// is the page a read miss deciphered, and every reader, every transaction's
// pre-image and every snapshot's undo overlay shares it, so nothing may write
// into its page or side buffer: not Edit, which materialises a copy over the
// same key and value bytes, not Write or promotion, which take that copy, and
// not eviction. Over randomized Put, Delete, batch and re-seal transactions
// on a cache far smaller than the tree, with Gets in between, after every
// transaction:
//   - each cached view must equal a fresh decode of its page from the store;
//   - every view a writer has seen (lent) must still checksum as it did when
//     first seen, for good: the writer's copies slice into it;
//   - every view an open Snapshot has read must still checksum as it did
//     then, until the Snapshot closes.
//
// The Gets' views are ones no writer has seen, whose blocks are recycled
// once they leave the cache and the shard has no pins; the test requires that
// this happened. Order 64 takes the view's second allocation, an offset table
// too big for the node's own.
func TestCachedViewsAreNeverWritten(t *testing.T) {
	for _, order := range []int{4, 8, 32, 64} {
		t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
			const txns, cachePages = 300, 24
			keys := max(3000, 200*order) // a tree of hundreds of pages at every order
			g, err := New(Config{Store: file.NewMem(), Cipher: cipher.Plaintext{}, Order: order, CachePages: cachePages})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			rng := rand.New(rand.NewSource(int64(order)))
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i*7919%keys)) }
			model := make(map[string]string)
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
				err := g.Apply(func(bt *btree.Tree) error {
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
				apply(500)
			}

			lent := make(map[*node.Node]uint32)
			var snap Snapshot
			snapSums := make(map[*node.Node]uint32)
			views, unlent := 0, 0
			check := func(when string) {
				t.Helper()
				g.io.mu.Lock()
				slots := append([]cacheSlot(nil), g.io.slots...)
				g.io.mu.Unlock()
				for _, s := range slots {
					page, side, ok := viewBytes(s.n)
					if !ok {
						continue
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
					if !isLent(s.n) {
						unlent++
					} else if _, ok := lent[s.n]; !ok {
						lent[s.n], _ = viewSum(s.n)
						views++
					}
				}
				for n, sum := range lent {
					if got, _ := viewSum(n); got != sum {
						t.Fatalf("%s: a view a writer had seen was written after it was first cached", when)
					}
				}
				for n, sum := range snapSums {
					if got, _ := viewSum(n); got != sum {
						t.Fatalf("%s: a view an open snapshot read was written", when)
					}
				}
			}
			// reopen closes the open snapshot, if any, opens a new one, and
			// records every view in it by walking the whole tree.
			reopen := func() {
				t.Helper()
				if snap.e != nil {
					snap.Close()
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
				check(fmt.Sprintf("after transaction %d", txn))
				for range 8 {
					k := string(key(rng.Intn(keys)))
					if v, ok, err := g.Get([]byte(k)); err != nil || ok != (model[k] != "") || string(v) != model[k] {
						t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, v, ok, err, model[k])
					}
				}
				check(fmt.Sprintf("after the Gets behind transaction %d", txn))
				if txn%50 == 49 {
					g.io.invalidate() // the promoted copies leave; the next reads make views
				}
				if txn%25 == 0 {
					reopen()
				}
			}
			snap.Close()
			if views < 10*cachePages {
				t.Fatalf("the %d-page cache held only %d distinct lent views over %d transactions", cachePages, views, txns)
			}
			if reused := g.io.blocks.Reused(); unlent < 10*cachePages || reused == 0 {
				t.Fatalf("the %d-page cache held views no writer had seen %d times, and read misses took %d recycled blocks", cachePages, unlent, reused)
			}
			for k, v := range model {
				if got, ok, err := g.Get([]byte(k)); err != nil || !ok || string(got) != v {
					t.Fatalf("Get(%s) = (%q, %v, %v), want %q", k, got, ok, err, v)
				}
			}
			if st, err := g.Stats(); err != nil || st.Keys != len(model) {
				t.Fatalf("Stats = (%d keys, %v), want %d", st.Keys, err, len(model))
			}
			t.Logf("%d lent views checked, %d recycled blocks read into", views, g.io.blocks.Reused())
		})
	}
}
