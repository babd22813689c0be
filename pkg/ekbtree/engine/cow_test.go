package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/store"
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
	g := newTestEngine(t, store.NewMem(), 8)
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
// transaction too large to keep, one full of frees, an aborted one, a
// conflicted one — and then checks that the next commit starts from nothing
// and hands the store exactly its own read-set, writes and frees.
func TestRecycledWorkspaceIsEmpty(t *testing.T) {
	rs := &recordingStore{PageStore: store.NewMem()}
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
	if g.ws.Load() != nil {
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
	empty("after a committed transaction", g.ws.Load())
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
	empty("after an aborted transaction", g.ws.Load())
	// A conflicted one: a racing commit lands on the same leaf before the
	// first attempt validates, so that attempt is thrown away and re-run.
	runs := 0
	err = g.Apply(func(bt *btree.Tree) error {
		runs++
		if err := deleteRange(bt, 300, 360); err != nil {
			return err
		}
		if runs == 1 {
			done := make(chan error, 1)
			go func() { done <- enginePut(g, key(301), []byte("racer")) }()
			return <-done
		}
		return nil
	})
	if err != nil || runs < 2 {
		t.Fatalf("conflicted Apply = %v after %d runs, want a re-run", err, runs)
	}
	empty("after a conflicted transaction", g.ws.Load())

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
