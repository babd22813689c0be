package file

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
)

func TestSealMarkPersists(t *testing.T) {
	s, path := openTemp(t)
	if m, err := s.SealMark(); err != nil || m != (store.SealMark{}) {
		t.Fatalf("fresh mark = %+v, %v; want zero", m, err)
	}
	want := store.SealMark{Epoch: 3, Clean: 2, Counter: 0x1122334455667788}
	if err := s.SetSealMark(want); err != nil {
		t.Fatal(err)
	}
	// Applied immediately, like any commit.
	if m, _ := s.SealMark(); m != want {
		t.Fatalf("applied mark = %+v, want %+v", m, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m, _ := s2.SealMark(); m != want {
		t.Fatalf("reopened mark = %+v, want %+v", m, want)
	}
}

func TestSealMarkRidesCommitPipeline(t *testing.T) {
	// A mark set in the same group as page writes survives together with
	// them: latest mark wins within a group, and the mark coexists with meta.
	s, path := openTemp(t)
	id, _ := s.Alloc()
	if err := s.SetSealMark(store.SealMark{Epoch: 1, Counter: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta([]byte("header blob")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(map[uint64][]byte{id: []byte("page")}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSealMark(store.SealMark{Epoch: 1, Counter: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m, _ := s2.SealMark(); m != (store.SealMark{Epoch: 1, Counter: 4096}) {
		t.Fatalf("mark = %+v, want epoch 1 counter 4096", m)
	}
	if meta, _ := s2.Meta(); string(meta) != "header blob" {
		t.Fatalf("meta = %q", meta)
	}
	if p, _ := s2.ReadPage(id); string(p) != "page" {
		t.Fatalf("page = %q", p)
	}
}

func TestPreMarkDirectoryReadsZeroMark(t *testing.T) {
	// A directory serialized without the trailing mark (what files written
	// before the mark existed hold, their free list still stored) must parse
	// as the zero mark.
	pages := map[uint64]extent{7: {off: dataStart, len: 32}}
	free := []extent{{off: dataStart + 100, len: 64}}
	gotPages, gotMeta, mark, err := parseDir(oldDir(pages, free, []byte("old header"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if mark != (store.SealMark{}) {
		t.Fatalf("mark = %+v, want zero", mark)
	}
	if len(gotPages) != 1 || gotPages[7] != pages[7] || string(gotMeta) != "old header" {
		t.Fatal("pre-mark directory did not round-trip")
	}
}

func TestFreeIndexMatchesLinearBestFit(t *testing.T) {
	// The bucketed allocator must satisfy the same contract as the old
	// best-fit scan: carve from a free extent when one fits (preferring exact
	// fits in the request's own size class), else extend the frontier; the
	// total free bytes + allocated bytes must balance.
	rng := rand.New(rand.NewSource(1))
	var free []extent
	off := int64(dataStart)
	for i := 0; i < 200; i++ {
		l := uint32(rng.Intn(5000) + 1)
		free = append(free, extent{off: off, len: l})
		off += int64(l) + 7 // gaps so nothing coalesces implicitly
	}
	fi := newFreeIndex(free)
	end := off
	totalFree := int64(0)
	for _, e := range free {
		totalFree += int64(e.len)
	}
	allocated := int64(0)
	grown := int64(0)
	for i := 0; i < 500; i++ {
		n := uint32(rng.Intn(6000) + 1)
		beforeEnd := end
		e := fi.allocExtent(&end, n)
		if e.len != n {
			t.Fatalf("alloc %d returned extent of len %d", n, e.len)
		}
		if end != beforeEnd {
			grown += int64(n)
		}
		allocated += int64(n)
	}
	remaining := int64(0)
	rem := fi.appendTo(nil)
	for _, e := range rem {
		remaining += int64(e.len)
	}
	if totalFree+grown != allocated+remaining {
		t.Fatalf("byte conservation broken: free %d + grown %d != allocated %d + remaining %d",
			totalFree, grown, allocated, remaining)
	}
	// No remaining extent may overlap another (would corrupt pages on disk).
	sort.Slice(rem, func(i, j int) bool { return rem[i].off < rem[j].off })
	for i := 1; i < len(rem); i++ {
		if rem[i-1].end() > rem[i].off {
			t.Fatalf("overlapping free extents %+v and %+v", rem[i-1], rem[i])
		}
	}
}

// newFreeIndex is a fresh index of free.
func newFreeIndex(free []extent) *freeIndex {
	fi := new(freeIndex)
	fi.reset(free)
	return fi
}

// TestFreeIndexBuildsInOneArray pins newFreeIndex against the index built by
// adding the extents one at a time, as it once was: the same extents in every
// bucket in the same order, so every allocation — and so every page's place
// in the file — comes out the same, with the whole build one allocation: the
// array its buckets are cut from (the store keeps the index itself, and the
// fresh one here stays on the stack). A bucket that
// alloc's remainders grow past its cut must not spill into the next. Reset
// over the same list, the used index rebuilds in the arrays it has: the same
// buckets, and no allocation.
func TestFreeIndexBuildsInOneArray(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var free []extent
	off := int64(dataStart)
	for i := 0; i < 300; i++ {
		l := uint32(rng.Intn(9000))
		if i%50 == 0 {
			l = 0 // a zero-length extent indexes nowhere
		}
		free = append(free, extent{off: off, len: l})
		off += int64(l) + 3
	}
	fi, ref := newFreeIndex(free), &freeIndex{}
	for _, e := range free {
		ref.add(e)
	}
	for b := range fi.buckets {
		if !slices.Equal(fi.buckets[b], ref.buckets[b]) {
			t.Fatalf("bucket %d = %+v, want %+v", b, fi.buckets[b], ref.buckets[b])
		}
	}
	if fi.n != ref.n || fi.nonEmpty != ref.nonEmpty {
		t.Fatalf("newFreeIndex counts %d extents in %b, want %d in %b", fi.n, fi.nonEmpty, ref.n, ref.nonEmpty)
	}
	endA, endB := off, off
	for i := 0; i < 400; i++ {
		n := uint32(rng.Intn(6000) + 1)
		if a, b := fi.allocExtent(&endA, n), ref.allocExtent(&endB, n); a != b {
			t.Fatalf("allocation %d of %d bytes: %+v, want %+v", i, n, a, b)
		}
	}
	if a, b := fi.appendTo(nil), ref.appendTo(nil); !slices.Equal(a, b) || endA != endB {
		t.Fatalf("after the allocations: %+v (end %d), want %+v (end %d)", a, endA, b, endB)
	}
	if n := testing.AllocsPerRun(100, func() { newFreeIndex(free) }); n != 1 {
		t.Errorf("newFreeIndex allocates %.0f times, want 1", n)
	}
	fresh := newFreeIndex(free)
	if n := testing.AllocsPerRun(100, func() { fi.reset(free) }); n != 0 {
		t.Errorf("resetting a used index allocates %.0f times, want 0", n)
	}
	for b := range fi.buckets {
		if !slices.Equal(fi.buckets[b], fresh.buckets[b]) {
			t.Fatalf("reset bucket %d = %+v, want %+v", b, fi.buckets[b], fresh.buckets[b])
		}
	}
	if fi.n != fresh.n || fi.nonEmpty != fresh.nonEmpty {
		t.Fatalf("reset counts %d extents in %b, want %d in %b", fi.n, fi.nonEmpty, fresh.n, fresh.nonEmpty)
	}
}

func TestFreeIndexExactFitPreferred(t *testing.T) {
	fi := newFreeIndex([]extent{
		{off: 1000, len: 96},
		{off: 2000, len: 64},
		{off: 3000, len: 80},
	})
	e, ok := fi.alloc(64)
	if !ok || e.off != 2000 || e.len != 64 {
		t.Fatalf("alloc(64) = %+v,%v; want exact fit at 2000", e, ok)
	}
	// 100 fits nothing: frontier growth.
	if _, ok := fi.alloc(100); !ok {
		// remaining are 96 and 80, both < 100 — alloc must report no fit.
		// (ok==false is the expected branch; reaching here is the failure.)
	} else {
		t.Fatal("alloc(100) found a fit in {96, 80}")
	}
	// 70 must split the 80 (own bucket, bucket 6 holds 64..127: both 96 and
	// 80 live there; best fit picks 80).
	e, ok = fi.alloc(70)
	if !ok || e.off != 3000 || e.len != 70 {
		t.Fatalf("alloc(70) = %+v,%v; want split of the 80 at 3000", e, ok)
	}
	rem := fi.appendTo(nil)
	if len(rem) != 2 {
		t.Fatalf("remaining = %+v, want the 96 and the 10-byte split tail", rem)
	}
}
