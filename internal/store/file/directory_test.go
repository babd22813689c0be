package file

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
)

// oldDir serializes the directory layout written before free space was
// derived: the page map, the stored free list, the meta blob and, unless mark
// is nil, the seal mark (directories from before the mark existed end at the
// meta).
func oldDir(pages map[uint64]extent, free []extent, meta []byte, mark *store.SealMark) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pages)))
	for id, e := range pages {
		b = binary.BigEndian.AppendUint64(b, id)
		b = binary.BigEndian.AppendUint64(b, uint64(e.off))
		b = binary.BigEndian.AppendUint32(b, e.len)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(free)))
	for _, e := range free {
		b = binary.BigEndian.AppendUint64(b, uint64(e.off))
		b = binary.BigEndian.AppendUint32(b, e.len)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(meta)))
	b = append(b, meta...)
	if mark != nil {
		b = binary.BigEndian.AppendUint32(b, mark.Epoch)
		b = binary.BigEndian.AppendUint32(b, mark.Clean)
		b = binary.BigEndian.AppendUint64(b, mark.Counter)
	}
	return b
}

// installDirectory writes dir at off and points both meta slots at it, above
// the file's newest transaction, so Open has no other state to fall back on.
func installDirectory(t *testing.T, f File, dir []byte, off int64) {
	t.Helper()
	hdr := make([]byte, dataStart)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	s0, ok0 := parseSlot(hdr[slot0Off : slot0Off+slotSize])
	s1, ok1 := parseSlot(hdr[slot1Off : slot1Off+slotSize])
	if !ok0 && !ok1 {
		t.Fatal("no valid slot to build on")
	}
	sd := s0
	if !ok0 || ok1 && s1.txid > s0.txid {
		sd = s1
	}
	sd.dir, sd.dirCRC = extent{off: off, len: uint32(len(dir))}, crc32.ChecksumIEEE(dir)
	if _, err := f.WriteAt(dir, off); err != nil {
		t.Fatal(err)
	}
	for _, slotOff := range []int64{slot0Off, slot1Off} {
		sd.txid++
		if _, err := f.WriteAt(serializeSlot(sd), slotOff); err != nil {
			t.Fatal(err)
		}
	}
}

// churnedMem returns a closed store over a page file in memory that holds
// live pages and free extents (buildGarbage), and that file.
func churnedMem(t *testing.T) (*Store, *memFile) {
	t.Helper()
	f := &memFile{}
	s, err := OpenWithConfig(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	buildGarbage(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.free) == 0 {
		t.Fatal("churn left no free extents")
	}
	return s, f
}

// TestOpenRefusesOverlappingExtents: free space is what the page map and the
// directory leave, so a directory whose extents overlap, or reach into the
// header region, describes no free list a flush could safely write into, and
// Open refuses it rather than recycle a live page's bytes.
func TestOpenRefusesOverlappingExtents(t *testing.T) {
	ids := func(pages map[uint64]extent) []uint64 {
		out := make([]uint64, 0, len(pages))
		for id := range pages {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	for _, tc := range []struct {
		name string
		// edit changes the page map of a directory to be written at dirOff.
		edit func(pages map[uint64]extent, dirOff int64)
	}{
		{"unchanged", func(map[uint64]extent, int64) {}},
		{"overlapping pages", func(pages map[uint64]extent, _ int64) {
			id := ids(pages)
			pages[id[1]] = extent{off: pages[id[0]].off + 1, len: pages[id[1]].len}
		}},
		{"page over the directory", func(pages map[uint64]extent, dirOff int64) {
			id := ids(pages)
			pages[id[0]] = extent{off: dirOff + 8, len: pages[id[0]].len}
		}},
		{"page below dataStart", func(pages map[uint64]extent, _ int64) {
			id := ids(pages)
			pages[id[0]] = extent{off: dataStart - 16, len: pages[id[0]].len}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := churnedMem(t)
			pages := make(map[uint64]extent, len(s.pages))
			for id, e := range s.pages {
				pages[id] = e
			}
			dirOff := s.fileEnd
			tc.edit(pages, dirOff)
			dir := make([]byte, dirSize(len(pages), len(s.meta)))
			serializeDir(dir, pages, s.meta, s.mark)
			installDirectory(t, f, dir, dirOff)
			r, err := OpenWithConfig(f, Config{})
			if tc.name == "unchanged" {
				if err != nil {
					t.Fatalf("Open of the rewritten directory = %v", err)
				}
				defer r.Close()
				if !slices.Equal(r.free, coalesce(append(slices.Clone(s.free), s.dirExt))) {
					t.Fatalf("rewritten directory opened with free list %v", r.free)
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				if err == nil {
					r.Close()
				}
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOldLayoutDirectoryDerivesStoredFreeList: a directory written before
// free space was derived stores its free list, and Open skips it. What Open
// derives is the list that directory stored, with or without the trailing
// seal mark, so the file reopens exactly as it was.
func TestOldLayoutDirectoryDerivesStoredFreeList(t *testing.T) {
	for _, withMark := range []bool{true, false} {
		s, f := churnedMem(t)
		want := coalesce(append(slices.Clone(s.free), s.dirExt))
		mark := &store.SealMark{Epoch: 2, Clean: 1, Counter: 77}
		wantMark := *mark
		if !withMark {
			mark, wantMark = nil, store.SealMark{}
		}
		dir := oldDir(s.pages, want, s.meta, mark)
		installDirectory(t, f, dir, s.fileEnd)
		r, err := OpenWithConfig(f, Config{})
		if err != nil {
			t.Fatalf("mark=%v: %v", withMark, err)
		}
		if !slices.Equal(r.free, want) {
			t.Errorf("mark=%v: derived free list %v, stored %v", withMark, r.free, want)
		}
		if r.fileEnd != s.fileEnd+int64(len(dir)) || r.mark != wantMark || !bytes.Equal(r.meta, s.meta) {
			t.Errorf("mark=%v: reopened at end %d mark %+v meta %q", withMark, r.fileEnd, r.mark, r.meta)
		}
		for id := range s.pages {
			if _, err := r.ReadPage(id); err != nil {
				t.Fatalf("mark=%v: page %d: %v", withMark, id, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushedDirectoryStoresNoFreeList: a flush writes a zero free-list count
// and sizes its directory exactly, however many free extents the store has.
func TestFlushedDirectoryStoresNoFreeList(t *testing.T) {
	s, f := churnedMem(t)
	dir := make([]byte, s.dirExt.len)
	if _, err := f.ReadAt(dir, s.dirExt.off); err != nil {
		t.Fatal(err)
	}
	if want := dirSize(len(s.pages), len(s.meta)); len(dir) != want {
		t.Fatalf("directory is %d bytes, want exactly %d", len(dir), want)
	}
	if n := binary.BigEndian.Uint32(dir[4+len(s.pages)*pageEntLen:]); n != 0 {
		t.Fatalf("directory stores %d free extents; the store has %d in memory", n, len(s.free))
	}
}

// TestFreeGapsCutWhatAnExtentCannotHold: a gap longer than an extent's uint32
// length is derived as several free extents, and coalesce does not merge them
// back into one whose length wraps.
func TestFreeGapsCutWhatAnExtentCannotHold(t *testing.T) {
	dir := extent{off: dataStart, len: 28}
	far := extent{off: dir.end() + math.MaxUint32 + 100, len: 8}
	free, end, err := freeGaps(map[uint64]extent{9: far}, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []extent{{off: dir.end(), len: math.MaxUint32}, {off: dir.end() + math.MaxUint32, len: 100}}
	if !slices.Equal(free, want) || end != far.end() {
		t.Fatalf("freeGaps = %v, end %d; want %v, end %d", free, end, want, far.end())
	}
	if got := coalesce(slices.Clone(free)); !slices.Equal(got, want) {
		t.Fatalf("coalesce merged the cut gap into %v", got)
	}
}

// FuzzParseDirectory feeds arbitrary directory blobs, placed at an arbitrary
// offset, through what Open does with them: parseDir, then freeGaps. Neither
// may panic, and an accepted directory's pages, the derived free extents and
// the directory's own extent tile [dataStart, end) exactly, zero-length pages
// covering nothing.
func FuzzParseDirectory(f *testing.F) {
	pages := map[uint64]extent{3: {off: dataStart + 100, len: 40}, 4: {off: dataStart + 140, len: 60}}
	dir := make([]byte, dirSize(len(pages), 6))
	serializeDir(dir, pages, []byte("header"), store.SealMark{Epoch: 1, Counter: 9})
	f.Add(int64(dataStart+300), dir)
	f.Add(int64(dataStart), oldDir(pages, []extent{{off: dataStart + 200, len: 12}}, nil, nil))
	far := map[uint64]extent{5: {off: 6 << 30, len: 8}, 6: {off: dataStart + 64, len: 0}}
	f.Add(int64(dataStart+8), oldDir(far, nil, []byte("m"), &store.SealMark{}))
	f.Add(int64(dataStart), []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, dirOff int64, b []byte) {
		pages, _, _, err := parseDir(b)
		if err != nil {
			return
		}
		dirExt := extent{off: dirOff, len: uint32(len(b))}
		free, end, err := freeGaps(pages, dirExt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("freeGaps error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		tiles := append([]extent{dirExt}, free...)
		for _, e := range pages {
			if e.len > 0 {
				tiles = append(tiles, e)
			}
		}
		slices.SortFunc(tiles, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
		at := int64(dataStart)
		for _, e := range tiles {
			if e.off != at {
				t.Fatalf("extent %+v does not start at %d: pages, free list and directory do not tile", e, at)
			}
			at = e.end()
		}
		if at != end {
			t.Fatalf("tiling ends at %d, frontier at %d", at, end)
		}
		for _, e := range free {
			if e.len == 0 {
				t.Fatalf("empty free extent at %d", e.off)
			}
		}
	})
}
