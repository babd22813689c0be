package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

var errInjectedOp = errors.New("injected store fault")

// faultStore wraps a PageStore and fails permanently at the Nth mutating
// operation, simulating a store that dies mid-workload. Reads keep working,
// matching a crashed-then-reopened process inspecting surviving state.
type faultStore struct {
	store.PageStore
	mu        sync.Mutex
	remaining int // mutating ops until injection; negative = disarmed
	dead      bool
}

func (fs *faultStore) gate() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return errInjectedOp
	}
	if fs.remaining == 0 {
		fs.dead = true
		return errInjectedOp
	}
	if fs.remaining > 0 {
		fs.remaining--
	}
	return nil
}

func (fs *faultStore) arm(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.remaining, fs.dead = n, false
}

func (fs *faultStore) SetMeta(meta []byte) error {
	if err := fs.gate(); err != nil {
		return err
	}
	return fs.PageStore.SetMeta(meta)
}

func (fs *faultStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if err := fs.gate(); err != nil {
		return err
	}
	return fs.PageStore.CommitPages(writes, root, frees)
}

// scanAll snapshots a tree's full logical content as substituted-key →
// value.
func scanAll(t *testing.T, tr *Tree) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := walk(tr.Cursor(), func(sk, v []byte) bool {
		out[string(sk)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestTreeCommitAtomicityUnderStoreFaults drives the same mutation sequence
// — a few single Puts, then a mixed Put/Delete batch — against the page
// store over a file in memory (reopened through the same Store) and on disk
// (reopened by Path), with the store failing at every possible mutating
// operation in turn. After each injected failure the still-open tree, and a
// tree reopened over the surviving store state, must both show exactly the
// state some prefix of the successfully committed operations produced —
// never a torn tree, and for each individual commit, never a partial
// application.
func TestTreeCommitAtomicityUnderStoreFaults(t *testing.T) {
	master := bytes.Repeat([]byte{0xC1}, 32)

	// The workload applied after the fault is armed: each step is one commit
	// (one mutating store op), so arming at n means steps [0, n) succeed.
	type step struct {
		del  bool
		keys []string // batched together when len > 1
	}
	steps := []step{
		{keys: []string{"after-0"}},
		{keys: []string{"after-1"}},
		{del: true, keys: []string{"base-03"}},
		{keys: []string{"after-2", "after-3", "after-4", "batch-del:base-07"}}, // the batch
	}
	apply := func(tr *Tree, s step) error {
		if len(s.keys) == 1 && !s.del {
			return tr.Put([]byte(s.keys[0]), []byte("v:"+s.keys[0]))
		}
		if s.del {
			_, err := tr.Delete([]byte(s.keys[0]))
			return err
		}
		b := tr.NewBatch()
		for _, k := range s.keys {
			var err error
			if rest, ok := strings.CutPrefix(k, "batch-del:"); ok {
				err = b.Delete([]byte(rest))
			} else {
				err = b.Put([]byte(k), []byte("v:"+k))
			}
			if err != nil {
				return err
			}
		}
		return b.Commit()
	}

	// expected[j] is the tree content after j successful steps, computed on a
	// plain reference tree with the same master key (identical
	// substituted keys).
	expected := make([]map[string]string, len(steps)+1)
	{
		ref, err := Open(Options{MasterKey: master, order: 8, Store: file.NewMem()})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		for i := 0; i < 10; i++ {
			if err := ref.Put([]byte(fmt.Sprintf("base-%02d", i)), []byte("base-v")); err != nil {
				t.Fatal(err)
			}
		}
		expected[0] = scanAll(t, ref)
		for j, s := range steps {
			if err := apply(ref, s); err != nil {
				t.Fatal(err)
			}
			expected[j+1] = scanAll(t, ref)
		}
	}

	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			for n := 0; n <= len(steps); n++ {
				var inner store.PageStore = file.NewMem()
				path := filepath.Join(t.TempDir(), "faults.ekb")
				if backend == "file" {
					st, err := file.OpenConfig(path, file.Config{})
					if err != nil {
						t.Fatal(err)
					}
					inner = st
				}
				fs := &faultStore{PageStore: inner, remaining: -1}
				tr, err := Open(Options{MasterKey: master, order: 8, Store: fs})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					if err := tr.Put([]byte(fmt.Sprintf("base-%02d", i)), []byte("base-v")); err != nil {
						t.Fatal(err)
					}
				}

				fs.arm(n)
				applied := 0
				var ferr error
				for _, s := range steps {
					if ferr = apply(tr, s); ferr != nil {
						break
					}
					applied++
				}
				fs.arm(-1) // disarm: reads and the retry below must reach the store
				if n < len(steps) {
					if ferr == nil {
						t.Fatalf("n=%d: no step failed", n)
					}
					if applied != n {
						t.Fatalf("n=%d: %d steps applied before the fault", n, applied)
					}
				} else if ferr != nil {
					t.Fatalf("n=%d: unexpected failure: %v", n, ferr)
				}

				// The tree that experienced the fault must already be at the
				// exact prefix state — the failed commit left nothing behind,
				// in the store or in the node cache.
				if got := scanAll(t, tr); !reflect.DeepEqual(got, expected[applied]) {
					t.Fatalf("n=%d: live tree torn after fault: %d entries, want %d",
						n, len(got), len(expected[applied]))
				}

				// Reopen over the surviving store: the prefix state must be
				// intact, and — commits being all-or-nothing — retrying the
				// remaining steps must converge on the full final state.
				reopen := Options{MasterKey: master, order: 8, Store: inner}
				if backend == "file" {
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
					reopen = Options{MasterKey: master, order: 8, Path: path}
				}
				re, err := Open(reopen)
				if err != nil {
					t.Fatalf("n=%d: reopen: %v", n, err)
				}
				if got := scanAll(t, re); !reflect.DeepEqual(got, expected[applied]) {
					t.Fatalf("n=%d: reopened tree torn", n)
				}
				for _, s := range steps[applied:] {
					if err := apply(re, s); err != nil {
						t.Fatalf("n=%d: retry: %v", n, err)
					}
				}
				if got := scanAll(t, re); !reflect.DeepEqual(got, expected[len(steps)]) {
					t.Fatalf("n=%d: retry did not converge on final state", n)
				}
				if backend == "file" {
					re.Close()
				}
			}
		})
	}
}
