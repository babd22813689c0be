package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/israce"
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

// keepOpen is a page store whose Close leaves it open, so that a second
// engine can open what a first one wrote.
type keepOpen struct{ store.PageStore }

func (keepOpen) Close() error { return nil }

// TestLegacyPagesAreCachedAsViews: an engine over a store of version-1 pages
// (written by an engine configured with node.FormatPrefix, as every file
// before version 2 was) caches every page it reads as a recyclable view of
// the page's version-2 encoding, holding the old page's entries and its
// sealed epoch. A legacy miss, with the free list stocked, allocates twice:
// the node the version-1 page parses to and its key arena, both garbage once
// the view is made, where a version-2 miss allocates nothing. Once the pages
// are rewritten, here by a re-seal, the engine reads version 2 only.
func TestLegacyPagesAreCachedAsViews(t *testing.T) {
	nc, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0x1E}, 32))
	if err != nil {
		t.Fatal(err)
	}
	st := keepOpen{file.NewMem()}
	open := func(f node.Format) *Engine {
		g, err := New(Config{Store: st, Cipher: nc, Order: 32, CachePages: 1 << 12, NodeFormat: f})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	const keys = 3000
	key := func(i int) []byte {
		return binary.BigEndian.AppendUint64(bytes.Repeat([]byte{0x4B}, 16), uint64(i)*0x9E3779B97F4A7C15)
	}
	old := open(node.FormatPrefix)
	for lo := 0; lo < keys; lo += 64 {
		err := old.Apply(func(bt *btree.Tree) error {
			for i := lo; i < min(lo+64, keys); i++ {
				if err := bt.Put(key(i), fmt.Appendf(nil, "value-%d", i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// ids walks the tree from the root through g's reads, and checks each
	// page it reads against the store: its format, and the view's entries
	// against the page's own.
	ids := func(g *Engine, want node.Format) []uint64 {
		t.Helper()
		root, err := st.Root()
		if err != nil {
			t.Fatal(err)
		}
		all := []uint64{root}
		for i := 0; i < len(all); i++ {
			v, err := g.io.ReadShared(all[i])
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := st.ReadPage(all[i])
			if err != nil {
				t.Fatal(err)
			}
			epoch, _ := nc.SealedEpoch(sealed)
			pt, err := nc.Open(all[i], sealed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := node.Decode(pt)
			if err != nil {
				t.Fatal(err)
			}
			if got := node.FormatOf(pt); got != want {
				t.Fatalf("page %d is %v, want %v", all[i], got, want)
			}
			if !v.Recyclable() || v.SealedEpoch() != epoch || !sameNode(v, m) {
				t.Fatalf("page %d is cached as %+v (recyclable %v, epoch %d of %d), want a view of %+v", all[i], v.Materialize(), v.Recyclable(), v.SealedEpoch(), epoch, m)
			}
			if enc, err := v.EncodeFormat(node.FormatStride); err != nil || node.FormatOf(enc) != node.FormatStride {
				t.Fatalf("the view of page %d encodes as (%x, %v)", all[i], enc, err)
			}
			if !v.Leaf {
				for c := range v.Len() + 1 {
					all = append(all, v.Child(c))
				}
			}
		}
		return all
	}
	// missAllocs is what one miss allocates, round robin over the tree's
	// pages, each view's block going back to the free list as a view evicted
	// with no pins does.
	missAllocs := func(g *Engine, pages []uint64) float64 {
		t.Helper()
		fetch := func(id uint64) {
			v, err := g.io.fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			g.io.blocks.Recycle(v)
		}
		for _, id := range pages { // a block of every class the pages need
			fetch(id)
		}
		i := 0
		return testing.AllocsPerRun(len(pages), func() { fetch(pages[i%len(pages)]); i++ })
	}

	g := open(node.FormatStride)
	defer g.Close()
	pages := ids(g, node.FormatPrefix)
	for i := range keys {
		if v, ok, err := g.Get(key(i)); err != nil || !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(key %d) = (%q, %v, %v)", i, v, ok, err)
		}
	}
	legacy := missAllocs(g, pages)
	if err := g.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = g.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	g.io.invalidate()
	pages = ids(g, node.FormatStride)
	current := missAllocs(g, pages)
	t.Logf("allocations a miss: %.2f on a version-1 page, %.2f on a version-2 page, over %d pages", legacy, current, len(pages))
	if !israce.Enabled && (legacy != 2 || current != 0) {
		t.Errorf("a miss allocates %.2f times on a version-1 page (want 2) and %.2f on a version-2 page (want 0)", legacy, current)
	}
}

// blockBytes is what the block holding view n, which a read miss made, takes
// from the heap, as node.NewBlock sizes blocks: the Go size class, 576 bytes
// at least, that holds the sealed page (the view's page and the cipher's
// overhead) beside the node and the runtime's 8-byte header. append rounds a
// new slice's capacity up to that size class.
func blockBytes(n *node.Node, overhead int) int {
	page, _ := viewBytes(n)
	need := len(page) + overhead + 8 + int(unsafe.Sizeof(node.Node{}))
	return max(576, cap(append([]byte(nil), make([]byte, need)...)))
}

// TestCachedViewFootprint bounds what the cache spends on a byte of page. A
// tree of 20 000 random 24-byte keys (HMAC's width) with 100-byte values,
// loaded from a fixed seed in 64-key commits under the tree's cipher, is
// read back whole by one cursor scan after the cache is emptied, so every
// view is a read miss's: the blocks the cached views hold, over the
// plaintext bytes of their pages, must stay at or below footprintBound,
// 1.145 rounded up. When a view carried an offset table in its block, beside
// prefix-coded pages, the same tree read 1.297.
func TestCachedViewFootprint(t *testing.T) {
	const keys, footprintBound = 20000, 1.15
	nc, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0xF0}, 32))
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Store: file.NewMem(), Cipher: nc, Order: 32, CachePages: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(52))
	for lo := 0; lo < keys; lo += 64 {
		err := g.Apply(func(bt *btree.Tree) error {
			for range min(64, keys-lo) {
				k, v := make([]byte, 24), make([]byte, 100)
				rng.Read(k)
				rng.Read(v)
				if err := bt.Put(k, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.io.invalidate()
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	it := snap.Iter(nil)
	it.Seek(nil)
	n := 0
	for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
		n++
	}
	snap.Close()
	if err := it.Err(); err != nil || n != keys {
		t.Fatalf("the scan read %d entries (%v), want %d", n, err, keys)
	}
	g.io.mu.Lock()
	slots := append([]cacheSlot(nil), g.io.slots...)
	g.io.mu.Unlock()
	blocks, pages := 0, 0
	for _, s := range slots {
		if !s.n.Recyclable() {
			t.Fatalf("page %d is cached outside a block", s.id)
		}
		blocks += blockBytes(s.n, nc.Overhead())
		pages += s.n.EncodedSizeFormat(node.FormatStride)
	}
	ratio := float64(blocks) / float64(pages)
	t.Logf("%d cached views: %d B of blocks for %d B of pages, %.3f", len(slots), blocks, pages, ratio)
	if ratio > footprintBound {
		t.Errorf("the cache spends %.3f bytes a byte of page, want at most %.2f", ratio, footprintBound)
	}
}
