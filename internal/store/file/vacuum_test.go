package file

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/store"
)

// buildGarbage fills a store with live pages and then churns them —
// overwrites and frees — so the file carries substantial reclaimable
// garbage between and after the live extents.
func buildGarbage(t *testing.T, s *Store) []uint64 {
	t.Helper()
	var ids []uint64
	for i := 0; i < 48; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	page := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(gen)}, 40+17*(i%7))
	}
	writes := make(map[uint64][]byte)
	for i, id := range ids {
		writes[id] = page(i, 0)
	}
	if err := s.SetMeta([]byte("vacuum-test-header")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(writes, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	// Churn: several generations of overwrites push live extents toward the
	// tail, then frees punch holes.
	for gen := 1; gen <= 12; gen++ {
		w := make(map[uint64][]byte)
		for i, id := range ids {
			if (i+gen)%3 == 0 {
				w[id] = page(i, gen)
			}
		}
		if err := s.CommitPages(w, ids[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	var frees []uint64
	for i, id := range ids[8:] {
		if i%4 == 0 {
			frees = append(frees, id)
		}
	}
	if err := s.CommitPages(nil, ids[0], frees); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestVacuumShrinksFile is the basic contract: vacuum compacts a churned
// store toward its live size, physically truncates the backing file, leaves
// the logical state bit-identical, and survives a close/reopen.
func TestVacuumShrinksFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vac.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	buildGarbage(t, s)
	pre := snapshotState(t, s)
	fileBefore, liveBefore := s.Space()
	if fileBefore <= liveBefore+int64(liveBefore/4) {
		t.Fatalf("churn did not create enough garbage: file=%d live=%d", fileBefore, liveBefore)
	}

	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	fileAfter, liveAfter := s.Space()
	// Live bytes stay flat: vacuum moves page extents without resizing them,
	// and the directory blob — part of live bytes — holds the same pages.
	if drift := liveAfter - liveBefore; drift > liveBefore/8 || drift < -liveBefore/8 {
		t.Errorf("vacuum drifted live bytes: %d -> %d", liveBefore, liveAfter)
	}
	if fileAfter >= fileBefore {
		t.Errorf("vacuum did not shrink the file: %d -> %d", fileBefore, fileAfter)
	}
	// The dominant garbage must be gone: compaction cannot reach the exact
	// live size — holes smaller than the smallest page are unfillable, and
	// the directory can only descend into a single hole that fits it whole —
	// but it must reclaim well over half the garbage.
	if fileAfter > liveAfter+(fileBefore-liveBefore)/2 {
		t.Errorf("vacuum left too much slack: file=%d live=%d (was file=%d)", fileAfter, liveAfter, fileBefore)
	}
	if got := snapshotState(t, s); !reflect.DeepEqual(got, pre) {
		t.Fatal("vacuum changed the logical state")
	}
	// The physical file shrank with the frontier.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != fileAfter {
		t.Errorf("physical size %d, durable fileEnd %d", fi.Size(), fileAfter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := snapshotState(t, re); !reflect.DeepEqual(got, pre) {
		t.Fatal("reopened state diverged after vacuum")
	}
}

// TestVacuumLiftUnsticksFragmentedLayout builds the layout that defeats pure
// downward packing — alternating big live pages and small holes, every hole
// smaller than every page — and asserts Vacuum still converges near the live
// size: the lift phase evacuates the page above a hole so the freed extent
// coalesces with it into one packing can use.
func TestVacuumLiftUnsticksFragmentedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vaclift.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Pairs of (big, small) pages laid out in allocation order, then every
	// small page freed: ~300-byte holes between ~2000-byte pages, so no page
	// fits any hole and allocBelow can never move anything.
	var big, small []uint64
	writes := make(map[uint64][]byte)
	for i := 0; i < 40; i++ {
		b, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		sm, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		big, small = append(big, b), append(small, sm)
		writes[b] = bytes.Repeat([]byte{byte(i)}, 2000)
		writes[sm] = bytes.Repeat([]byte{byte(i), 0xEE}, 150)
	}
	if err := s.SetMeta([]byte("lift-test-header")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(writes, big[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(nil, big[0], small); err != nil {
		t.Fatal(err)
	}
	pre := snapshotState(t, s)
	fileBefore, liveBefore := s.Space()
	if fileBefore < liveBefore+10*1024 {
		t.Fatalf("fixture created too little garbage: file=%d live=%d", fileBefore, liveBefore)
	}

	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	fileAfter, liveAfter := s.Space()
	// Near-tight: lift+pack rounds must reclaim the stranded holes, not stall
	// on the first stuck layout. Allowance covers the directory descent floor
	// and sub-page remainders.
	if slack := fileAfter - liveAfter; slack > (fileBefore-liveBefore)/4+int64(s.dirLenForTest()) {
		t.Errorf("lift left the layout stuck: file=%d live=%d slack=%d (garbage was %d)",
			fileAfter, liveAfter, slack, fileBefore-liveBefore)
	}
	if got := snapshotState(t, s); !reflect.DeepEqual(got, pre) {
		t.Fatal("lift vacuum changed the logical state")
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != fileAfter {
		t.Errorf("physical size %d, durable fileEnd %d", fi.Size(), fileAfter)
	}
}

// dirLenForTest exposes the current directory blob size to test allowances.
func (s *Store) dirLenForTest() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dirExt.len
}

// TestSpaceMatchesDirectory: Space answers from a counter that every flush
// moves by the extents it drops and adds, never from a walk. After each kind
// of flush — first writes, overwrites that grow and shrink pages, frees, a
// page freed and written again, vacuum's relocations — and after a reopen,
// it must equal a fresh sum over the durable page map plus the directory
// extent, and the append frontier.
func TestSpaceMatchesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		s.mu.RLock()
		wantFile, wantLive := s.fileEnd, int64(s.dirExt.len)
		for _, e := range s.pages {
			wantLive += int64(e.len)
		}
		s.mu.RUnlock()
		if file, live := s.Space(); file != wantFile || live != wantLive {
			t.Fatalf("%s: Space() = (%d, %d), the directory sums to (%d, %d)", when, file, live, wantFile, wantLive)
		}
	}
	commit := func(when string, writes map[uint64][]byte, frees []uint64) {
		t.Helper()
		if err := s.CommitPages(writes, store.NoRoot, frees); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		check(when)
	}
	check("fresh store")
	ids := make([]uint64, 40)
	for i := range ids {
		if ids[i], err = s.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	page := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 30+13*((i+5*gen)%9)) }
	w := make(map[uint64][]byte)
	for i, id := range ids {
		w[id] = page(i, 0)
	}
	commit("first writes", w, nil)
	for gen := 1; gen <= 8; gen++ {
		w := make(map[uint64][]byte)
		for i, id := range ids {
			if (i+gen)%3 == 0 {
				w[id] = page(i, gen)
			}
		}
		commit(fmt.Sprintf("overwrite generation %d", gen), w, nil)
	}
	commit("frees", nil, []uint64{ids[3], ids[9], ids[17], ids[30], ids[39]})
	commit("a freed page written again, beside a write and a free", map[uint64][]byte{ids[9]: page(9, 9), ids[10]: page(10, 9)}, []uint64{ids[11]})
	fileChurned, _ := s.Space()
	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	check("after vacuum")
	fileVacuumed, liveBefore := s.Space()
	if fileVacuumed >= fileChurned {
		t.Fatalf("vacuum relocated nothing: file %d -> %d", fileChurned, fileVacuumed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenConfig(path, Config{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("reopened")
	if _, live := s.Space(); live != liveBefore {
		t.Fatalf("live bytes %d after reopen, %d before close", live, liveBefore)
	}
	commit("first flush after reopen", map[uint64][]byte{ids[0]: page(0, 10)}, []uint64{ids[1]})
}

// TestVacuumConcurrentWithCommits runs a vacuum loop against concurrent
// writers and a reader, and asserts nothing logically breaks: every committed
// write remains readable with its final content, and the reader never sees a
// page's bytes change under a flush. A flush points the page map at a moved
// page's new extent while the flush is still running, so the reader checks
// ids[8:], which vacuum moves and nothing rewrites, byte for byte: a move
// whose map edit ran ahead of its copy would hand it unwritten bytes. ids[:8]
// must read as their pre-test content or some writer round's.
func TestVacuumConcurrentWithCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vaccc.ekb")
	s, err := OpenConfig(path, Config{Durability: Grouped})
	if err != nil {
		t.Fatal(err)
	}
	ids := buildGarbage(t, s)

	const rounds = 60
	writerPage := func(i, r int) string {
		return fmt.Sprintf("writer-%d-%d-%s", i, r, bytes.Repeat([]byte{0xCC}, 50))
	}
	fixed := make(map[uint64]string) // ids[8:] that buildGarbage left live
	for _, id := range ids[8:] {
		p, err := s.ReadPage(id)
		if errors.Is(err, store.ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fixed[id] = string(p)
	}
	seen := make([]map[string]bool, 8) // what each of ids[:8] may read as
	for i, id := range ids[:8] {
		p, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = map[string]bool{string(p): true}
		for r := range rounds {
			seen[i][writerPage(i, r)] = true
		}
	}

	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		buf := make([]byte, 1024)
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			for id, want := range fixed {
				n, err := s.ReadPageInto(id, buf)
				if err == nil && string(buf[:n]) != want {
					err = fmt.Errorf("page %d changed its bytes mid-vacuum", id)
				}
				if err != nil {
					read <- err
					return
				}
			}
			for i, id := range ids[:8] {
				n, err := s.ReadPageInto(id, buf)
				if err == nil && !seen[i][string(buf[:n])] {
					err = fmt.Errorf("page %d read as no write it was given", id)
				}
				if err != nil {
					read <- err
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			w := make(map[uint64][]byte)
			for i, id := range ids[:8] {
				w[id] = []byte(writerPage(i, r))
			}
			if err := s.CommitPages(w, ids[0], nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			if err := s.Vacuum(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids[:8] {
		want := writerPage(i, rounds-1)
		got, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("page %d lost its final write under concurrent vacuum", id)
		}
	}
	post := snapshotState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := snapshotState(t, re); !reflect.DeepEqual(got, post) {
		t.Fatal("reopened state diverged after concurrent vacuum")
	}
}

// TestVacuumAtomicityUnderFaults is the crash-consistency proof for vacuum:
// for every failure point during a full vacuum pass — each WriteAt, Sync,
// and Truncate, with and without a torn trailing write, as process death and
// as power loss — reopening the file yields EXACTLY the pre-vacuum logical
// state (relocation never changes the logical state, so pre and post
// coincide), the file never shrinks below its live bytes, and re-running
// vacuum after the reopen converges.
func TestVacuumAtomicityUnderFaults(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ekb")
	s, err := OpenConfig(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	buildGarbage(t, s)
	pre := snapshotState(t, s)
	_, liveBytes := s.Space()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	baseInfo, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}

	// A pass is some 140 operations, so of the power-loss variants only the one
	// that has caught something runs here: the pages lost, the directory and
	// slot kept.
	faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, 7, halfSlot}, Lose: []int{faulttest.KeepAll, 2}, Truncates: true},
		func(f *faulttest.File) error {
			fs, err := OpenWithConfig(f, Config{})
			if err != nil {
				t.Fatalf("%s: open with fault file: %v", f, err)
			}
			defer fs.Close()
			return fs.Vacuum()
		},
		func(tag, work string, fired bool, verr error) {
			re, err := OpenConfig(work, Config{})
			if err != nil {
				t.Fatalf("%s: reopen after injected fault: %v", tag, err)
			}
			defer re.Close()
			if got := snapshotState(t, re); !reflect.DeepEqual(got, pre) {
				t.Fatalf("%s: logical state changed across faulted vacuum", tag)
			}
			reFile, reLive := re.Space()
			// Page extents are byte-stable (snapshotState above proved the
			// content); only the directory blob may resize across flushes.
			if drift := reLive - liveBytes; drift > liveBytes/8 || drift < -liveBytes/8 {
				t.Fatalf("%s: live bytes drifted: %d -> %d", tag, liveBytes, reLive)
			}
			if reFile < reLive {
				t.Fatalf("%s: frontier %d below live bytes %d", tag, reFile, reLive)
			}
			if fi, err := os.Stat(work); err != nil {
				t.Fatal(err)
			} else if fi.Size() < reFile {
				t.Fatalf("%s: physical file %d shorter than frontier %d", tag, fi.Size(), reFile)
			}
			// Retry converges: a clean vacuum after the crash still compacts,
			// and the state still matches.
			if err := re.Vacuum(); err != nil {
				t.Fatalf("%s: vacuum retry: %v", tag, err)
			}
			if got := snapshotState(t, re); !reflect.DeepEqual(got, pre) {
				t.Fatalf("%s: retry vacuum changed the logical state", tag)
			}
			retryEnd, _ := re.Space()
			if retryEnd >= baseInfo.Size() {
				t.Fatalf("%s: retry vacuum reclaimed nothing (%d >= %d)", tag, retryEnd, baseInfo.Size())
			}
			if fired == (verr == nil) {
				t.Fatalf("%s: fault reached = %v, but the pass returned %v", tag, fired, verr)
			}
		})
}

// TestVacuumNeverMovesItsGroupsPages: a vacuum flush chooses its pages from
// the durable state it replaces, and never one its own group writes or frees.
// For each pass, the group that carries it rewrites two of the pages the pass
// would choose over the idle store and frees two more. The rewrites must read
// their new bytes and the frees stay gone — a stale copy would undo either —
// and the pages whose extents changed must be exactly the moves the flush
// counted, all of them pages the group did not touch.
func TestVacuumNeverMovesItsGroupsPages(t *testing.T) {
	for _, p := range []pass{{budget: vacuumBatchBytes}, {lift: true, budget: vacuumBatchBytes}} {
		t.Run(fmt.Sprintf("lift=%v", p.lift), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "own.ekb")
			s, err := OpenConfig(path, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ids := buildGarbage(t, s)
			s.mu.RLock()
			chosen := p.choose(s.scratch.dir, s.pageBytes, newFreeIndex(s.free), nil, &scratch{})
			before := maps.Clone(s.pages)
			s.mu.RUnlock()
			if len(chosen) < 6 {
				t.Fatalf("the pass chooses %d pages over the idle store, want at least 6", len(chosen))
			}
			want := snapshotState(t, s)
			writes := make(map[uint64][]byte)
			var frees []uint64
			for i, m := range chosen[:4] {
				if i%2 == 0 {
					writes[m.id] = []byte(fmt.Sprintf("rewritten-%d", m.id))
					want.pages[m.id] = string(writes[m.id])
				} else {
					frees = append(frees, m.id)
					delete(want.pages, m.id)
				}
			}
			s.mu.Lock()
			g := s.enqueueLocked(change{writes: writes, frees: frees, root: &ids[0]})
			g.vacuum = &p
			s.mu.Unlock()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if g.err != nil || g.moveErr != nil {
				t.Fatalf("flush = %v, move error %v", g.err, g.moveErr)
			}
			if got := snapshotState(t, s); !reflect.DeepEqual(got, want) {
				t.Fatal("the flush moved a page its own group wrote or freed")
			}
			moved := 0
			s.mu.RLock()
			for id, e := range s.pages {
				_, written := writes[id]
				if old, ok := before[id]; ok && !written && old != e {
					moved++
				}
			}
			s.mu.RUnlock()
			if g.relocated == 0 || moved != g.relocated {
				t.Fatalf("%d untouched pages changed extent, the flush counted %d moves", moved, g.relocated)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenConfig(path, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := snapshotState(t, re); !reflect.DeepEqual(got, want) {
				t.Fatal("reopened state diverged")
			}
		})
	}
}

// TestVacuumWithNothingToMoveWritesNothing: a vacuum flush that would move no
// page, could not lower its directory and carries no other change skips its
// flip, so a Vacuum over a layout it cannot improve leaves the transaction
// ID where it was — an empty store, and one page in a tight file.
func TestVacuumWithNothingToMoveWritesNothing(t *testing.T) {
	s, err := OpenConfig(filepath.Join(t.TempDir(), "idle.ekb"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vacuum := func(when string) {
		t.Helper()
		txid := s.Txid()
		if err := s.Vacuum(); err != nil {
			t.Fatal(err)
		}
		if got := s.Txid(); got != txid {
			t.Fatalf("%s: Vacuum flushed %d times over a layout it cannot improve", when, got-txid)
		}
	}
	vacuum("empty store")
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(map[uint64][]byte{id: bytes.Repeat([]byte{7}, 300)}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	free := len(s.free)
	s.mu.RUnlock()
	if free != 0 {
		t.Fatalf("a vacuumed one-page store keeps %d free extents, want a tight file", free)
	}
	vacuum("one page, tight")
}

// TestConcurrentVacuums: Vacuum calls on one store take turns, so two at once
// over a churned store both succeed, compact it and change nothing logical.
func TestConcurrentVacuums(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twovac.ekb")
	s, err := OpenConfig(path, Config{Durability: Grouped})
	if err != nil {
		t.Fatal(err)
	}
	buildGarbage(t, s)
	if err := s.Sync(); err != nil { // snapshotState lists the durable pages
		t.Fatal(err)
	}
	pre := snapshotState(t, s)
	fileBefore, _ := s.Space()
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- s.Vacuum() }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshotState(t, s); !reflect.DeepEqual(got, pre) {
		t.Fatal("concurrent vacuums changed the logical state")
	}
	if fileAfter, _ := s.Space(); fileAfter >= fileBefore {
		t.Fatalf("concurrent vacuums did not shrink the file: %d -> %d", fileBefore, fileAfter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := snapshotState(t, re); !reflect.DeepEqual(got, pre) {
		t.Fatal("reopened state diverged after concurrent vacuums")
	}
}

// TestFreeListSortedAndCoalesced: the durable free list is sorted by offset
// and has no two adjacent extents after every kind of flush — first writes,
// overwrites, frees, a header alone, a raised seal mark's two flips, vacuum's
// pack and lift steps — and at Open, which derives it. Vacuum's choice of
// pages walks it in that order.
func TestFreeListSortedAndCoalesced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, st *Store) {
		t.Helper()
		st.mu.RLock()
		defer st.mu.RUnlock()
		for i := 1; i < len(st.free); i++ {
			if prev, e := st.free[i-1], st.free[i]; prev.end() >= e.off {
				t.Fatalf("%s: free extent %+v is followed by %+v", when, prev, e)
			}
		}
	}
	ids := buildGarbage(t, s)
	check("churned", s)
	if err := s.SetMeta([]byte("header alone")); err != nil {
		t.Fatal(err)
	}
	check("a header alone", s)
	if err := s.SetSealMark(store.SealMark{Epoch: 1, Counter: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(map[uint64][]byte{ids[1]: []byte("under a raised mark")}, ids[0], []uint64{ids[2]}); err != nil {
		t.Fatal(err)
	}
	check("a raised mark's two flips", s)
	for _, p := range []pass{{budget: vacuumBatchBytes}, {lift: true, budget: vacuumBatchBytes}, {budget: vacuumBatchBytes}} {
		if _, err := s.relocate(p); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("a vacuum step %+v", p), s)
	}
	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	check("a whole vacuum", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("reopened", re)
}

// sickReadFile is a real file whose data-region reads fail while sick is set.
type sickReadFile struct {
	*os.File
	sick atomic.Bool
}

func (f *sickReadFile) ReadAt(b []byte, off int64) (int, error) {
	if off >= dataStart && f.sick.Load() {
		return 0, syscall.EIO
	}
	return f.File.ReadAt(b, off)
}

// TestVacuumReadErrorSkipsMove: the committer failing to read a page it was
// asked to move is Vacuum's error alone. The move is skipped, the extent taken
// for it goes back, the flush and the store carry on; once the device reads
// again the same vacuum compacts.
func TestVacuumReadErrorSkipsMove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sick.ekb")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	sf := &sickReadFile{File: f}
	s, err := OpenWithConfig(sf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := buildGarbage(t, s)
	pre := snapshotState(t, s)
	fileBefore, _ := s.Space()

	sf.sick.Store(true)
	if err := s.Vacuum(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Vacuum over a device that cannot read = %v, want EIO", err)
	}
	if err := s.CommitPages(nil, ids[0], nil); err != nil {
		t.Fatalf("the store did not stay up: %v", err)
	}
	sf.sick.Store(false)
	if got := snapshotState(t, s); !reflect.DeepEqual(got, pre) {
		t.Fatal("a skipped move changed the logical state")
	}
	s.mu.RLock()
	covered, region := int64(s.dirExt.len), s.fileEnd-dataStart
	for _, e := range s.pages {
		covered += int64(e.len)
	}
	for _, e := range s.free {
		covered += int64(e.len)
	}
	s.mu.RUnlock()
	if covered != region {
		t.Fatalf("pages, free list and directory cover %d of the data region's %d bytes: a skipped move kept its extent", covered, region)
	}
	if err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if fileAfter, _ := s.Space(); fileAfter >= fileBefore {
		t.Errorf("vacuum did not shrink the file once reads worked: %d -> %d", fileBefore, fileAfter)
	}
	if got := snapshotState(t, s); !reflect.DeepEqual(got, pre) {
		t.Fatal("vacuum changed the logical state")
	}
}
