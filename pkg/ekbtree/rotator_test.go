package ekbtree

import (
	"bytes"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store/file"
)

// refusingStore counts reads and, while refuse is set, fails every CommitPages
// — a store that has fail-stopped, as a file store does on ENOSPC. SetSealMark
// still works, so an epoch can advance over it.
type refusingStore struct {
	countingStore
	refuse atomic.Bool
}

func (rs *refusingStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if rs.refuse.Load() {
		return errInjectedOp
	}
	return rs.PageStore.CommitPages(writes, root, frees)
}

// TestRotatorBacksOffOnPersistentFailure: a rotation that cannot finish — the
// store refuses its re-seal commits, or the seal hard limit runs out part-way
// through the tree — must not cost a whole-tree scan per retry at a constant
// 10 ms for as long as the tree is open. The rotator backs off, the tree keeps
// serving reads with pages still pending, and Close does not wait out a
// back-off.
func TestRotatorBacksOffOnPersistentFailure(t *testing.T) {
	const keys, window = 3000, 2 * time.Second
	key := func(i int) []byte { return []byte{byte(i >> 8), byte(i), 'k'} }
	for _, tc := range []struct {
		name string
		// opts gives the options rotation runs under, for a tree of the given size.
		opts   func(nodes int) Options
		refuse bool
	}{
		{"store refuses commits", func(int) Options { return Options{} }, true},
		// No budget-driven advance, and an epoch too small to re-seal the tree in.
		{"seal hard limit reached mid-rotation", func(nodes int) Options {
			return Options{SealBudget: -1, sealHardLimit: uint64(nodes / 2)}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "rot.ekb")
			open := func(o Options) (*Tree, *refusingStore) {
				fs, err := file.OpenConfig(path, file.Config{})
				if err != nil {
					t.Fatal(err)
				}
				rs := &refusingStore{countingStore: countingStore{PageStore: fs}}
				// The cache holds the whole tree, so a sweep costs one read a page.
				o.MasterKey, o.order, o.Store, o.CachePages = bytes.Repeat([]byte{0x5E}, 32), 8, rs, 4096
				return mustOpen(t, o), rs
			}
			tr, _ := open(Options{})
			b := tr.NewBatch()
			for i := 0; i < keys; i++ {
				if err := b.Put(key(i), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			st, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			nodes := st.Nodes
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			tr, rs := open(tc.opts(nodes))
			rs.refuse.Store(tc.refuse)
			if err := tr.AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
			before := rs.reads.Load()
			time.Sleep(window)
			// Doubling from 10 ms fits eight sweeps in the window.
			reads := rs.reads.Load() - before
			t.Logf("%d store reads in %v over a %d-node tree", reads, window, nodes)
			if reads > int64(20*nodes) {
				t.Errorf("about %d whole-tree scans in %v, want a handful", reads/int64(nodes), window)
			}

			if v, ok, err := tr.Get(key(keys / 2)); err != nil || !ok || string(v) != "value" {
				t.Fatalf("Get under a stuck rotation = (%q, %v, %v)", v, ok, err)
			}
			n := 0
			c := tr.Cursor()
			for ok := c.First(); ok; ok = c.Next() {
				n++
			}
			if err := c.Err(); err != nil || n != keys {
				t.Fatalf("cursor under a stuck rotation read %d of %d entries (%v)", n, keys, err)
			}
			c.Close()
			if st, err = tr.Stats(); err != nil || st.PagesPendingReseal == 0 || st.Keys != keys {
				t.Fatalf("Stats under a stuck rotation = %+v (%v), want every key and pages pending re-seal", st, err)
			}

			start := time.Now()
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Close took %v: it waited out the rotator's back-off", d)
			}
		})
	}
}
