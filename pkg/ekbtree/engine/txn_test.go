package engine

import (
	"errors"
	"slices"
	"testing"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// readSet lists the pages a transaction's validation would conflict on.
func readSet(tx *writeTxn) []uint64 {
	var ids []uint64
	for id := range tx.pages {
		if tx.observed(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func leafHolding(v string) *node.Node {
	return &node.Node{Leaf: true, Keys: [][]byte{[]byte("k")}, Values: [][]byte{[]byte(v)}}
}

// holds renders what a page read answered: the leaf's value, or "gone" for
// ErrNotFound.
func holds(t *testing.T, n *node.Node, err error) string {
	t.Helper()
	if errors.Is(err, store.ErrNotFound) {
		return "gone"
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(n.Values[0])
}

// TestTxnPageTable walks one page through every transition its record in a
// write transaction's table can take and checks, through the real commit
// path, what the transaction reads back, what joins its read-set, what the
// store is handed (writes, frees) and what the published epoch carries (undo,
// touched) — the sets a commit reads off the table.
func TestTxnPageTable(t *testing.T) {
	const absent = 9999 // a page ID the base epoch has no record of
	type handed struct{ writes, frees, undo, touched, reads []uint64 }
	cases := []struct {
		name string
		// steps drives the transaction; p is the one page the base holds
		// ("old"). It returns the page the case is about.
		steps func(t *testing.T, tx *writeTxn, p uint64) uint64
		noop  bool // nothing to commit: no store call, no new epoch
		want  func(id uint64) handed
		read  string // what tx.Read(id) answers after the steps
		after string // what the page holds once the commit has published
	}{
		{
			name: "read",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				n, err := tx.Read(p)
				if base, _ := tx.base.Read(p); n != base || err != nil {
					t.Errorf("Read = (%p, %v), want the base epoch's shared node %p", n, err, base)
				}
				return p
			},
			noop: true,
			want: func(id uint64) handed { return handed{reads: []uint64{id}} },
			read: "old", after: "old",
		},
		{
			name: "read, edit, write",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				shared, _ := tx.Read(p)
				c, err := tx.Edit(p)
				if err != nil || c == shared {
					t.Fatalf("Edit = (%p, %v), want a copy of the shared node %p", c, err, shared)
				}
				c.Values[0] = []byte("new")
				if err := tx.Write(p, c); err != nil {
					t.Fatal(err)
				}
				if got := holds(t, shared, nil); got != "old" {
					t.Errorf("the shared node now holds %q", got)
				}
				return p
			},
			want: func(id uint64) handed {
				return handed{writes: []uint64{id}, undo: []uint64{id}, touched: []uint64{id}, reads: []uint64{id}}
			},
			read: "new", after: "new",
		},
		{
			name: "edit twice",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				c1, err1 := tx.Edit(p)
				c2, err2 := tx.Edit(p)
				if err1 != nil || err2 != nil || c1 != c2 {
					t.Errorf("Edit, Edit = (%p, %v), (%p, %v), want one copy", c1, err1, c2, err2)
				}
				if n, _ := tx.Read(p); n != c1 {
					t.Errorf("Read after Edit = %p, want the private copy %p", n, c1)
				}
				return p
			},
			noop: true, // edited, never written
			want: func(id uint64) handed { return handed{reads: []uint64{id}} },
			read: "old", after: "old",
		},
		{
			name: "write of a page never read",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				if err := tx.Write(p, leafHolding("new")); err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: func(id uint64) handed {
				return handed{writes: []uint64{id}, undo: []uint64{id}, touched: []uint64{id}, reads: []uint64{id}}
			},
			read: "new", after: "new",
		},
		{
			name: "free of a read page",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				if _, err := tx.Read(p); err != nil {
					t.Fatal(err)
				}
				if err := tx.Free(p); err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: func(id uint64) handed {
				return handed{frees: []uint64{id}, undo: []uint64{id}, touched: []uint64{id}, reads: []uint64{id}}
			},
			read: "gone", after: "gone",
		},
		{
			name: "free, then write",
			steps: func(t *testing.T, tx *writeTxn, p uint64) uint64 {
				if err := tx.Free(p); err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(p, leafHolding("new")); err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: func(id uint64) handed {
				return handed{writes: []uint64{id}, undo: []uint64{id}, touched: []uint64{id}, reads: []uint64{id}}
			},
			read: "new", after: "new",
		},
		{
			name: "alloc, write",
			steps: func(t *testing.T, tx *writeTxn, _ uint64) uint64 {
				id, err := tx.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				n, err := tx.Read(id)
				if got := holds(t, n, err); got != "gone" {
					t.Errorf("an alloc'd, unwritten page reads %q", got)
				}
				if err := tx.Write(id, leafHolding("new")); err != nil {
					t.Fatal(err)
				}
				return id
			},
			want: func(id uint64) handed { return handed{writes: []uint64{id}, touched: []uint64{id}} },
			read: "new", after: "new",
		},
		{
			name: "alloc, write, free",
			steps: func(t *testing.T, tx *writeTxn, _ uint64) uint64 {
				id, err := tx.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(id, leafHolding("new")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Free(id); err != nil {
					t.Fatal(err)
				}
				if len(tx.pages) != 0 {
					t.Errorf("a page born and freed here left %d records", len(tx.pages))
				}
				return id
			},
			noop: true,
			want: func(uint64) handed { return handed{} },
			read: "gone", after: "gone",
		},
		{
			name: "free of a page the base has no record of",
			steps: func(t *testing.T, tx *writeTxn, _ uint64) uint64 {
				if err := tx.Free(absent); err != nil {
					t.Fatal(err)
				}
				return absent
			},
			want: func(id uint64) handed {
				return handed{frees: []uint64{id}, touched: []uint64{id}, reads: []uint64{id}}
			},
			read: "gone", after: "gone",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := &recordingStore{PageStore: file.NewMem()}
			g := newTestEngine(t, rs, 8)
			defer g.Close()
			var p uint64
			err := g.applyTxn(func(tx *writeTxn) (err error) {
				if p, err = tx.Alloc(); err != nil {
					return err
				}
				return tx.Write(p, leafHolding("old"))
			})
			if err != nil {
				t.Fatal(err)
			}
			g.io.invalidate()
			// The pin keeps the epoch the transaction publishes from having
			// its undo reclaimed before the test has looked at it.
			before, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer before.Close()
			rs.writes, rs.frees = nil, nil
			commits := g.commits.Load()

			var id uint64
			var got handed
			err = g.applyTxn(func(tx *writeTxn) error {
				id = tc.steps(t, tx, p)
				n, err := tx.Read(id)
				if read := holds(t, n, err); read != tc.read {
					t.Errorf("Read after the steps answers %q, want %q", read, tc.read)
				}
				got.reads = readSet(tx)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			e := g.es.current
			if tc.noop {
				if e != before.e || g.commits.Load() != commits || rs.writes != nil || rs.frees != nil {
					t.Fatalf("a transaction with nothing to commit published epoch %d, store writes %v frees %v", e.seq, rs.writes, rs.frees)
				}
			} else {
				if e == before.e {
					t.Fatal("no epoch published")
				}
				got.writes, got.frees, got.touched = rs.writes, rs.frees, e.touched
				for id, pre := range e.undo {
					if pre != mustRead(t, before.e, id) {
						t.Errorf("undo[%d] is not the node the base epoch reads", id)
					}
					got.undo = append(got.undo, id)
				}
			}
			want := tc.want(id)
			for _, c := range []struct {
				set       string
				got, want []uint64
			}{
				{"writes", got.writes, want.writes}, {"frees", got.frees, want.frees},
				{"undo", got.undo, want.undo}, {"touched", got.touched, want.touched},
				{"read-set", got.reads, want.reads},
			} {
				if !slices.Equal(c.got, c.want) {
					t.Errorf("%s = %v, want %v", c.set, c.got, c.want)
				}
			}
			if holds(t, mustRead(t, before.e, p), nil) != "old" {
				t.Error("the snapshot pinned before the transaction no longer reads the old page")
			}
			g.io.invalidate() // the answer must come from the store, not the promoted cache
			after, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer after.Close()
			n, err := after.e.Read(id)
			if now := holds(t, n, err); now != tc.after {
				t.Errorf("after the commit the page reads %q, want %q", now, tc.after)
			}
		})
	}
}

func mustRead(t *testing.T, e *epoch, id uint64) *node.Node {
	t.Helper()
	n, err := e.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTxnPageTableConflicts shows the validation rule the table answers: a page
// the transaction only read conflicts with a racing commit that rewrites it,
// and a page born in the transaction never conflicts with anything.
func TestTxnPageTableConflicts(t *testing.T) {
	g := newTestEngine(t, file.NewMem(), 8)
	defer g.Close()
	var p uint64
	err := g.applyTxn(func(tx *writeTxn) (err error) {
		if p, err = tx.Alloc(); err != nil {
			return err
		}
		return tx.Write(p, leafHolding("old"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// race commits fn's transaction from another goroutine while the caller's
	// is between its reads and its validation.
	race := func(fn func(tx *writeTxn) error) error {
		done := make(chan error, 1)
		go func() { done <- g.applyTxn(fn) }()
		return <-done
	}
	allocWrite := func(tx *writeTxn) error {
		id, err := tx.Alloc()
		if err != nil {
			return err
		}
		if tx.observed(id) {
			t.Error("a fresh page is in the read-set")
		}
		return tx.Write(id, leafHolding("born"))
	}

	for _, tc := range []struct {
		name     string
		work     func(tx *writeTxn) error
		racer    func(tx *writeTxn) error
		wantRuns int
	}{
		{
			name: "a page only read, rewritten by the racer",
			work: func(tx *writeTxn) error {
				if _, err := tx.Read(p); err != nil {
					return err
				}
				return allocWrite(tx)
			},
			racer:    func(tx *writeTxn) error { return tx.Write(p, leafHolding("racer")) },
			wantRuns: 2,
		},
		{
			name:     "fresh pages on both sides",
			work:     allocWrite,
			racer:    allocWrite,
			wantRuns: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conflicts, runs := g.conflicts.Load(), 0
			err := g.applyTxn(func(tx *writeTxn) error {
				runs++
				if err := tc.work(tx); err != nil {
					return err
				}
				if runs == 1 {
					return race(tc.racer)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := int(g.conflicts.Load() - conflicts); runs != tc.wantRuns || got != tc.wantRuns-1 {
				t.Fatalf("the transaction ran %d times with %d conflicts, want %d runs", runs, got, tc.wantRuns)
			}
		})
	}
}
