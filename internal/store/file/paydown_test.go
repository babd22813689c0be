package file

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repro/ekbtree/internal/faulttest"
)

// paydownPage is page i of generation gen, 512 bytes.
func paydownPage(i, gen int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(gen), 0x5D}, 128)
}

// commitSync commits writes and frees and waits for their flush.
func commitSync(t *testing.T, s *Store, writes map[uint64][]byte, frees ...uint64) {
	t.Helper()
	if err := s.CommitPages(writes, 1, frees); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// rewrittenStore returns a store over a page file in memory whose n pages of
// 512 bytes were written in one flush and then all rewritten in a second: the
// first generation's extents are one hole in front of the second, so the file
// is about twice its live bytes.
func rewrittenStore(t *testing.T, n int) (*Store, []uint64) {
	t.Helper()
	s := NewMem()
	ids := make([]uint64, n)
	for gen := range 2 {
		writes := make(map[uint64][]byte, n)
		for i := range ids {
			if gen == 0 {
				var err error
				if ids[i], err = s.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			writes[ids[i]] = paydownPage(i, gen)
		}
		commitSync(t, s, writes)
	}
	return s, ids
}

// TestFlushesPayDownGarbage: every flush packs the pages nearest the
// frontier into the holes below them, as many bytes as it writes of its own.
// A 2 000-page store whose every page one flush rewrote is about twice its
// live bytes; single-page flushes of one hot page then each move a page from
// the tail into the hole in front, and the file must come within 1.1 of its
// live bytes within 2 000 of them (measured: 1 793). Without the pay-down the
// hot page only trades one hole for another and the file stays where it was.
func TestFlushesPayDownGarbage(t *testing.T) {
	const n, maxFlushes = 2_000, 2_000
	s, ids := rewrittenStore(t, n)
	defer s.Close()
	ratio := func() float64 {
		file, live := s.Space()
		return float64(file) / float64(live)
	}
	if r := ratio(); r < 1.3 {
		t.Fatalf("the rewrite left file/live at %.3f, want at least 1.3", r)
	}
	want := make(map[uint64]string, n)
	for i, id := range ids {
		want[id] = string(paydownPage(i, 1))
	}
	flushes := 0
	for r := ratio(); r > 1.1; r = ratio() {
		if flushes == maxFlushes {
			t.Fatalf("file/live is %.3f after %d single-page flushes, want at most 1.1", r, flushes)
		}
		flushes++
		p := paydownPage(0, 1+flushes)
		want[ids[0]] = string(p) // before CommitPages takes the buffer
		commitSync(t, s, map[uint64][]byte{ids[0]: p})
	}
	t.Logf("file/live at most 1.1 after %d single-page flushes", flushes)
	if got := snapshotState(t, s); !reflect.DeepEqual(got.pages, want) {
		t.Fatal("paying down changed what the pages read")
	}
}

// TestFlushThatFillsEveryHoleMovesNothing: a flush whose own pages fill every
// hole has nowhere to pack and moves nothing: it writes its pages and its
// directory, and syncs, writes and syncs its slot. The same flush with one
// page fewer leaves a hole that a page above it fits, and moves a page into
// it. Writes are counted by a faulttest.File that never faults.
func TestFlushThatFillsEveryHoleMovesNothing(t *testing.T) {
	base := filepath.Join(t.TempDir(), "holes.ekb")
	s, err := OpenConfig(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 40)
	writes := make(map[uint64][]byte)
	for i := range ids {
		if ids[i], err = s.Alloc(); err != nil {
			t.Fatal(err)
		}
		writes[ids[i]] = paydownPage(i, 0)
	}
	if err := s.CommitPages(writes, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	var frees []uint64
	for i := 0; i < 20; i += 2 {
		frees = append(frees, ids[i])
	}
	if err := s.CommitPages(nil, ids[1], frees); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, leaveOpen := range []int{1, 0} {
		t.Run(fmt.Sprintf("holes-left-open=%d", leaveOpen), func(t *testing.T) {
			work := filepath.Join(t.TempDir(), "work.ekb")
			faulttest.Copy(t, base, work)
			f, err := faulttest.Open(work, faulttest.Never, faulttest.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenWithConfig(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.mu.RLock()
			holes := s.free
			before := maps.Clone(s.pages)
			s.mu.RUnlock()
			// A fresh page exactly as long as each hole, but the lowest
			// page-sized hole's when one is left open: a flush places pages in
			// map order, so some freed pages were neighbours.
			open := -1
			for i, h := range holes {
				if open < 0 && h.len >= 512 {
					open = i
				}
			}
			if open < 0 {
				t.Fatalf("the frees left no page-sized hole: %v", holes)
			}
			fill := make(map[uint64][]byte)
			for i, h := range holes {
				if leaveOpen == 1 && i == open {
					continue
				}
				id, err := s.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				fill[id] = bytes.Repeat([]byte{byte(i)}, int(h.len))
			}
			ops := f.Ops()
			if err := s.CommitPages(fill, ids[1], nil); err != nil {
				t.Fatal(err)
			}
			moved := 0
			s.mu.RLock()
			for id, e := range before {
				if s.pages[id] != e {
					moved++
				}
			}
			s.mu.RUnlock()
			// Each page is one write, as is each move's copy; the directory,
			// the slot and two syncs are four more.
			if got, want := f.Ops()-ops, len(fill)+moved+4; got != want {
				t.Fatalf("the flush made %d writes and syncs, want %d: %d pages, %d moves and 4", got, want, len(fill), moved)
			}
			switch {
			case leaveOpen == 0 && moved != 0:
				t.Fatalf("a flush that filled every hole moved %d pages", moved)
			case leaveOpen == 1 && moved == 0:
				t.Fatal("a flush that left a page-sized hole open moved no page into it")
			}
		})
	}
}

// TestPayDownAtomicityUnderFaults: a flush that writes its group and packs
// pages from the tail into the holes in front is one shadow-paged flush. At
// every write, sync and truncate of it, as process death with a torn write
// and as power loss, the file reopens to exactly the state before the flush
// or the state after it.
func TestPayDownAtomicityUnderFaults(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.ekb")
	s, err := OpenConfig(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 24)
	writes := make(map[uint64][]byte)
	for i := range ids {
		if ids[i], err = s.Alloc(); err != nil {
			t.Fatal(err)
		}
		writes[ids[i]] = paydownPage(i, 0)
	}
	if err := s.CommitPages(writes, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	// The first eight pages freed: a hole of eight pages in front of sixteen.
	if err := s.CommitPages(nil, ids[8], ids[:8]); err != nil {
		t.Fatal(err)
	}
	pre := snapshotState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flush := func(s *Store) error {
		return s.CommitPages(map[uint64][]byte{ids[8]: paydownPage(8, 1), ids[9]: paydownPage(9, 1)}, ids[8], nil)
	}
	post := pre
	post.pages = maps.Clone(pre.pages)
	post.pages[ids[8]], post.pages[ids[9]] = string(paydownPage(8, 1)), string(paydownPage(9, 1))

	// The flush under test moves pages: a reference run over a copy.
	ref := filepath.Join(t.TempDir(), "ref.ekb")
	faulttest.Copy(t, base, ref)
	rs, err := OpenConfig(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs.mu.RLock()
	before := maps.Clone(rs.pages)
	rs.mu.RUnlock()
	if err := flush(rs); err != nil {
		t.Fatal(err)
	}
	moved := 0
	rs.mu.RLock()
	for id, e := range before {
		if id != ids[8] && id != ids[9] && rs.pages[id] != e {
			moved++
		}
	}
	rs.mu.RUnlock()
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("the flush under test moves no page")
	}

	faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, 1, 7, halfSlot}, Lose: powerLoss, Truncates: true},
		func(f *faulttest.File) error {
			fs, err := OpenWithConfig(f, Config{})
			if err != nil {
				t.Fatalf("%s: open with fault file: %v", f, err)
			}
			defer fs.Close()
			return flush(fs)
		},
		func(tag, work string, fired bool, ferr error) {
			re, err := OpenConfig(work, Config{})
			if err != nil {
				t.Fatalf("%s: reopen after injected fault: %v", tag, err)
			}
			got := snapshotState(t, re)
			re.Close()
			if fired == (ferr == nil) {
				t.Fatalf("%s: fault reached = %v, but the flush returned %v", tag, fired, ferr)
			}
			switch {
			case reflect.DeepEqual(got, post):
			case ferr != nil && reflect.DeepEqual(got, pre):
			default:
				t.Fatalf("%s: reopened to neither the pre- nor the post-flush state", tag)
			}
		})
}
