package engine

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// resizingStore runs change once, just before the first read of page id that
// is not a length query, and records every ReadPageInto of id as (len(buf),
// the length answered).
type resizingStore struct {
	store.PageStore
	id     uint64
	change func() error
	err    error
	calls  [][2]int
}

func (s *resizingStore) ReadPageInto(id uint64, buf []byte) (int, error) {
	if id == s.id && len(buf) > 0 && s.change != nil {
		change := s.change
		s.change = nil
		s.err = change()
	}
	n, err := s.PageStore.ReadPageInto(id, buf)
	if id == s.id {
		s.calls = append(s.calls, [2]int{len(buf), n})
	}
	return n, err
}

// TestReadMissRereadsResizedPage: a read miss sizes its block by the store's
// length answer and reads the page in a second call, so a commit landing
// between the two can hand it a page of another length. The read must answer
// the new length without decoding anything from a room of the old size, and
// the miss must read again into a block of the new size and return the page
// as the commit left it. The commit grows the page in one case and shrinks it
// in the other: a shorter page fits the old room, and is read again all the
// same. The commit's writer finds the page in the cache, so the only store
// reads of it are the miss's.
func TestReadMissRereadsResizedPage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(bt *btree.Tree) error
		keys   int // in the page after the change
	}{
		{"page grows", func(bt *btree.Tree) error { return bt.Put([]byte("k9"), bytes.Repeat([]byte{'v'}, 300)) }, 5},
		{"page shrinks", func(bt *btree.Tree) error { _, err := bt.Delete([]byte("k1")); return err }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := &resizingStore{PageStore: file.NewMem()}
			g := newTestEngine(t, rs, 8)
			defer g.Close()
			for i := range 4 {
				if err := enginePut(g, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
					t.Fatal(err)
				}
			}
			root, err := rs.Root()
			if err != nil {
				t.Fatal(err)
			}
			rs.id = root
			rs.change = func() error { return g.Apply(tc.change) }
			n, err := g.io.fetch(root)
			if err != nil || rs.err != nil {
				t.Fatalf("fetch = %v, change = %v", err, rs.err)
			}
			if len(rs.calls) != 3 {
				t.Fatalf("ReadPageInto calls (len(buf), answer) = %v, want a length query and two reads", rs.calls)
			}
			old, resized := rs.calls[0][1], rs.calls[1][1]
			if want := [][2]int{{0, old}, {old, resized}, {resized, resized}}; fmt.Sprint(rs.calls) != fmt.Sprint(want) || old == resized {
				t.Fatalf("ReadPageInto calls (len(buf), answer) = %v, want %v with the page resized", rs.calls, want)
			}
			cached, err := g.io.ReadShared(root)
			if err != nil {
				t.Fatal(err)
			}
			if n.Len() != tc.keys || !sameNode(n, cached) {
				t.Fatalf("the miss decoded %d keys; the commit left %d", n.Len(), cached.Len())
			}
		})
	}
}

// sameNode reports whether a and b hold the same entries and children.
func sameNode(a, b *node.Node) bool {
	if a.Leaf != b.Leaf || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !bytes.Equal(a.Key(i), b.Key(i)) || !bytes.Equal(a.Value(i), b.Value(i)) {
			return false
		}
	}
	if !a.Leaf {
		for i := range a.Len() + 1 {
			if a.Child(i) != b.Child(i) {
				return false
			}
		}
	}
	return true
}

// benchEngine builds an engine under the tree's real cipher over a file store
// in memory, holding keys 16-byte keys with 100-byte values at the default
// order: the pages the repository benchmark's workloads read. It returns the
// engine and the IDs of every page in the tree.
func benchEngine(b *testing.B, keys int) (*Engine, []uint64) {
	b.Helper()
	nc, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0xBE}, 32))
	if err != nil {
		b.Fatal(err)
	}
	st := file.NewMem()
	g, err := New(Config{Store: st, Cipher: nc, Order: 32, CachePages: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	err = g.Apply(func(bt *btree.Tree) error {
		for i := range keys {
			k := fmt.Appendf(nil, "%016x", uint64(i)*0x9E3779B97F4A7C15)
			if err := bt.Put(k, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	root, err := st.Root()
	if err != nil {
		b.Fatal(err)
	}
	ids := []uint64{root}
	for i := 0; i < len(ids); i++ {
		n, err := g.io.ReadShared(ids[i])
		if err != nil {
			b.Fatal(err)
		}
		if !n.Leaf {
			for c := range n.Len() + 1 {
				ids = append(ids, n.Child(c))
			}
		}
	}
	return g, ids
}

// BenchmarkReadMiss is one cold page fetch, what a cache miss costs: the
// length query, the read into a block, the decipher and the decode, round
// robin over every page of a 20 000-key tree. With -benchmem, "fresh" shows
// the one allocation a page costs when the free list is empty and the bytes
// its block spends, and "recycled", where each view's block goes back to the
// free list as a view evicted at a moment with no pins does, shows a miss
// that allocates nothing.
func BenchmarkReadMiss(b *testing.B) {
	g, ids := benchEngine(b, 20000)
	defer g.Close()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := g.io.fetch(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		fetch := func(id uint64) {
			n, err := g.io.fetch(id)
			if err != nil {
				b.Fatal(err)
			}
			g.io.blocks.Recycle(n)
		}
		for _, id := range ids { // a block of every class the tree's pages need
			fetch(id)
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			fetch(ids[i%len(ids)])
		}
	})
}

// BenchmarkStaleScan is one rotation staleness scan over a 20 000-key tree
// whose pages are all cached and all stale: a walk of the cached views, each
// of which reports the key epoch its page was sealed under.
func BenchmarkStaleScan(b *testing.B) {
	g, ids := benchEngine(b, 20000)
	defer g.Close()
	b.ReportAllocs()
	scans := 0
	for b.Loop() {
		stale, err := g.staleScan(1)
		if err != nil || len(stale) != len(ids) {
			b.Fatalf("staleScan = (%d pages, %v), want all %d", len(stale), err, len(ids))
		}
		scans++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scans*len(ids)), "ns/page")
}
