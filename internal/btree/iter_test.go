package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
)

// iterEntry is one collected key/value pair, copied out of the iterator's
// views.
type iterEntry struct {
	Key   []byte
	Value []byte
}

// iterCollect drains an iterator positioned at from into a flat entry list.
func iterCollect(t *testing.T, it *Iter, from []byte) []iterEntry {
	t.Helper()
	it.Seek(from)
	var out []iterEntry
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, iterEntry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// recursiveScan is the reference the iterator is checked against: a plain
// recursive in-order walk emitting entries with from <= key < to (nil bounds
// are open). It shares no traversal state with Iter — no path stack, no
// positioning — which is what makes it an oracle.
func recursiveScan(t *testing.T, r Reader, id uint64, from, to []byte, out *[]iterEntry) {
	t.Helper()
	if id == store.NoRoot {
		return
	}
	n, err := r.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= n.Len(); i++ {
		if !n.Leaf {
			recursiveScan(t, r, n.Child(i), from, to, out)
		}
		if i == n.Len() {
			break
		}
		k := n.Key(i)
		if (from == nil || bytes.Compare(k, from) >= 0) && (to == nil || bytes.Compare(k, to) < 0) {
			*out = append(*out, iterEntry{Key: k, Value: n.Value(i)})
		}
	}
}

// TestIterMatchesScanRange cross-checks the path-keeping iterator against the
// recursive range scan over random trees, bounds, and seek points, for
// several degrees (so root-only, two-level, and three-level shapes are all
// covered).
func TestIterMatchesScanRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, degree := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, 5, 300, 1000} {
			t.Run(fmt.Sprintf("t=%d/n=%d", degree, n), func(t *testing.T) {
				st := newMemNodes()
				tr, err := New(st, degree)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					k := make([]byte, 8)
					rng.Read(k)
					if err := tr.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				root, err := st.Root()
				if err != nil {
					t.Fatal(err)
				}
				bounds := [][]byte{nil, {0x00}, {0x40}, {0x80, 0x80}, {0xC0}, {0xFF, 0xFF, 0xFF}}
				for _, from := range bounds {
					for _, to := range bounds {
						var want []iterEntry
						recursiveScan(t, st, root, from, to, &want)
						got := iterCollect(t, NewIter(st, root, to), from)
						if len(got) != len(want) {
							t.Fatalf("from=%x to=%x: iter yielded %d entries, scan %d", from, to, len(got), len(want))
						}
						for i := range got {
							if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
								t.Fatalf("from=%x to=%x: entry %d diverges", from, to, i)
							}
						}
					}
				}
			})
		}
	}
}

// TestIterReseek checks that Seek repositions an already-used iterator, both
// forward and backward, and that seeking to an exact key lands on it.
func TestIterReseek(t *testing.T) {
	st := newMemNodes()
	tr, err := New(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := tr.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	root, _ := st.Root()
	it := NewIter(st, root, nil)

	it.Seek([]byte("k050"))
	k, _, ok := it.Next()
	if !ok || string(k) != "k050" {
		t.Fatalf("Seek(k050) → %q, %v", k, ok)
	}
	// Drain a few then re-seek backwards.
	for i := 0; i < 10; i++ {
		it.Next()
	}
	it.Seek([]byte("k003"))
	k, _, ok = it.Next()
	if !ok || string(k) != "k003" {
		t.Fatalf("re-Seek(k003) → %q, %v", k, ok)
	}
	// Seek past the end.
	it.Seek([]byte("z"))
	if _, _, ok := it.Next(); ok {
		t.Fatal("Seek past the last key still yielded an entry")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestIterEmptyTree checks the NoRoot case.
func TestIterEmptyTree(t *testing.T) {
	st := newMemNodes()
	it := NewIter(st, store.NoRoot, nil)
	it.Seek(nil)
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator over empty tree yielded an entry")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}
