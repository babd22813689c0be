package file

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/israce"
	"github.com/paper-repro/ekbtree/internal/pagebuf"
	"github.com/paper-repro/ekbtree/internal/store"
)

var allModes = []Durability{Full, Grouped, Async}

// TestConcurrentCommitters drives N goroutines through one file store's
// CommitPages in every durability mode (run under -race in CI): every commit
// must be readable immediately (read-your-writes through the overlay), the
// whole set must be durable after Sync, and a reopen must see it all.
// Overlapping calls are outside CommitPages' contract — the engine never
// makes them — but the file store still serializes them safely, and this
// holds it to that.
func TestConcurrentCommitters(t *testing.T) {
	const writers, per = 8, 25
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "conc.ekb")
			s, err := OpenConfig(path, Config{Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([][]uint64, writers)
			for w := range ids {
				ids[w] = make([]uint64, per)
				for c := range ids[w] {
					if ids[w][c], err = s.Alloc(); err != nil {
						t.Fatal(err)
					}
				}
			}
			payload := func(w, c int) []byte {
				return []byte(fmt.Sprintf("w%d-c%d-%s", w, c, bytes.Repeat([]byte{byte(w)}, 50)))
			}
			var wg sync.WaitGroup
			errCh := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for c := 0; c < per; c++ {
						id := ids[w][c]
						if err := s.CommitPages(map[uint64][]byte{id: payload(w, c)}, id, nil); err != nil {
							errCh <- fmt.Errorf("writer %d commit %d: %w", w, c, err)
							return
						}
						// Read-your-writes: the page must be visible now, even
						// if its group has not flushed yet.
						got, err := s.ReadPage(id)
						if err != nil || !bytes.Equal(got, payload(w, c)) {
							errCh <- fmt.Errorf("writer %d read-back %d: (%q, %v)", w, c, got, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			check := func(s *Store, when string) {
				t.Helper()
				for w := 0; w < writers; w++ {
					for c := 0; c < per; c++ {
						got, err := s.ReadPage(ids[w][c])
						if err != nil || !bytes.Equal(got, payload(w, c)) {
							t.Fatalf("%s: page w%d c%d = (%q, %v)", when, w, c, got, err)
						}
					}
				}
			}
			check(s, "before close")
			if n := len(snapshotState(t, s).pages); n != writers*per {
				t.Fatalf("live pages = %d, want %d", n, writers*per)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenConfig(path, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re, "after reopen")
		})
	}
}

// TestGroupCoalescing pins the whole point of the pipeline: many commits
// between durability barriers flush as ONE group — one txid bump, two fsyncs
// — instead of one flush per commit. Txid counts flushes, so it is directly
// observable. It runs at Async, where only the barrier flushes; a Grouped
// group is taken by the same code once its window passes.
func TestGroupCoalescing(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "coalesce.ekb")
		s, err := OpenConfig(path, Config{Durability: Async})
		if err != nil {
			t.Fatal(err)
		}
		base := s.Txid()
		const n = 50
		ids := make([]uint64, n)
		for i := range ids {
			ids[i], _ = s.Alloc()
			if err := s.CommitPages(map[uint64][]byte{ids[i]: []byte(fmt.Sprintf("v%d", i))}, ids[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		// Nothing has hit the disk yet: no sync.
		if got := s.Txid(); got != base {
			t.Fatalf("Txid advanced to %d before any barrier (base %d)", got, base)
		}
		// But every commit is visible.
		for i, id := range ids {
			if got, err := s.ReadPage(id); err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("v%d", i))) {
				t.Fatalf("pre-sync ReadPage(%d) = (%q, %v)", id, got, err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := s.Txid(); got != base+1 {
			t.Fatalf("Txid = %d after Sync, want %d: %d commits did not coalesce into one group", got, base+1, n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenConfig(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for i, id := range ids {
			if got, err := re.ReadPage(id); err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("v%d", i))) {
				t.Fatalf("reopened ReadPage(%d) = (%q, %v)", id, got, err)
			}
		}
	})
}

// TestAsyncCloseFlushes pins clean-shutdown durability: an Async store that
// never calls Sync still lands everything on Close.
func TestAsyncCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async-close.ekb")
	s, err := OpenConfig(path, Config{Durability: Async})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("unsynced")}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.ReadPage(id); err != nil || !bytes.Equal(got, []byte("unsynced")) {
		t.Fatalf("ReadPage after async Close+reopen = (%q, %v)", got, err)
	}
}

// TestBackpressureFlush pins the Async memory bound: a pending overlay at
// the MaxUnflushed bound starts a background flush even in Async mode,
// without any Sync (nothing else would ever flush it).
func TestBackpressureFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pressure.ekb")
	s, err := OpenConfig(path, Config{Durability: Async, MaxUnflushed: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := s.Txid()
	id, _ := s.Alloc()
	big := bytes.Repeat([]byte{0x42}, 4096+1)
	if err := s.CommitPages(map[uint64][]byte{id: big}, id, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Txid() == base {
		if time.Now().After(deadline) {
			t.Fatal("over-bound async commit never flushed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupedWindowFlushes pins the Grouped contract: without any Sync, an
// acknowledged commit becomes durable within (roughly) the group window.
func TestGroupedWindowFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "window.ekb")
	s, err := OpenConfig(path, Config{Durability: Grouped})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := s.Txid()
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("windowed")}, id, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Txid() == base {
		if time.Now().After(deadline) {
			t.Fatal("grouped commit never flushed after its window")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileStoreLocked pins single-writer protection: a second open of the
// same page file fails fast and typed, and closing the first store releases
// the lock.
func TestFileStoreLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenConfig(path, Config{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	// The failed open must not have disturbed the locked store.
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("held")}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatalf("Open after lock release = %v", err)
	}
	defer re.Close()
	if got, err := re.ReadPage(id); err != nil || !bytes.Equal(got, []byte("held")) {
		t.Fatalf("ReadPage = (%q, %v)", got, err)
	}
}

// TestFreeVisibleThroughOverlay pins overlay tombstones: a free acknowledged
// but not yet flushed must hide the page from readers, and a second free of
// it must be ignored, in every mode.
func TestFreeVisibleThroughOverlay(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "free.ekb")
			s, err := OpenConfig(path, Config{Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, _ := s.Alloc()
			if err := s.CommitPages(map[uint64][]byte{id: []byte("v")}, id, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := commitOne(s, id, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ReadPage(id); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("read after unflushed free %d = %v, want ErrNotFound", i+1, err)
				}
			}
			// Rewriting the freed page resurrects it within the same group.
			if err := s.CommitPages(map[uint64][]byte{id: []byte("v2")}, id, nil); err != nil {
				t.Fatal(err)
			}
			if got, err := s.ReadPage(id); err != nil || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("read after re-stage = (%q, %v)", got, err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if got, err := s.ReadPage(id); err != nil || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("read after sync = (%q, %v)", got, err)
			}
		})
	}
}

// TestDurabilityModesFaultSweeps is the crash-atomicity proof for the
// pipeline: for every failure point (each WriteAt and Sync, with and without
// torn trailing writes, as process death and as power loss) during a workload
// of commits punctuated by Sync barriers, reopening the file must yield
// exactly the state some prefix of the flushed groups produced — never a torn
// one — and never roll back past a barrier that reported success. Full makes
// every commit its own group and Async every sync unit one; Grouped, whose
// groups its window cuts by the clock, flushes through the same code.
func TestDurabilityModesFaultSweeps(t *testing.T) {
	for _, mode := range []Durability{Full, Async} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Durability: mode}

			// Base state: three pages, one of them freed, so the faulted
			// flushes exercise extent reuse.
			base := filepath.Join(dir, "base.ekb")
			s, err := OpenConfig(base, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var baseIDs []uint64
			writes := make(map[uint64][]byte)
			for i := 0; i < 3; i++ {
				id, _ := s.Alloc()
				baseIDs = append(baseIDs, id)
				writes[id] = []byte(fmt.Sprintf("base-%d-%s", i, bytes.Repeat([]byte{byte(i)}, 30)))
			}
			if err := s.SetMeta([]byte("hdr")); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitPages(writes, baseIDs[0], nil); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitPages(nil, baseIDs[0], []uint64{baseIDs[2]}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// The workload: two units of two commits each, a Sync barrier
			// after each unit. syncsOK reports which barriers succeeded.
			workload := func(s *Store, fresh []uint64) (syncsOK [2]bool) {
				c1 := s.CommitPages(map[uint64][]byte{
					baseIDs[1]: []byte("rewritten-" + string(bytes.Repeat([]byte{0xE1}, 40))),
				}, baseIDs[1], nil)
				c2 := s.CommitPages(map[uint64][]byte{
					fresh[0]: []byte("fresh-0-" + string(bytes.Repeat([]byte{0xE2}, 25))),
				}, fresh[0], nil)
				syncsOK[0] = c1 == nil && c2 == nil && s.Sync() == nil
				c3 := s.CommitPages(map[uint64][]byte{
					fresh[1]: []byte("fresh-1-" + string(bytes.Repeat([]byte{0xE3}, 60))),
				}, fresh[1], []uint64{baseIDs[0]})
				c4 := s.CommitPages(map[uint64][]byte{
					baseIDs[1]: []byte("rewritten-again-" + string(bytes.Repeat([]byte{0xE4}, 10))),
				}, fresh[1], nil)
				syncsOK[1] = syncsOK[0] && c3 == nil && c4 == nil && s.Sync() == nil
				return syncsOK
			}
			allocFresh := func(s *Store) []uint64 {
				a, _ := s.Alloc()
				b, _ := s.Alloc()
				return []uint64{a, b}
			}

			// Reference run on a clean copy: capture the legal checkpoint
			// states. In Full mode every commit is its own group; in Async
			// the groups are the sync units.
			ref := filepath.Join(dir, "ref.ekb")
			faulttest.Copy(t, base, ref)
			rs, err := OpenConfig(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var checkpoints []logicalState
			snap := func() { checkpoints = append(checkpoints, snapshotState(t, rs)) }
			snap() // S0: pre-workload
			fresh := allocFresh(rs)
			if mode == Full {
				cps := []func(){
					func() {
						rs.CommitPages(map[uint64][]byte{baseIDs[1]: []byte("rewritten-" + string(bytes.Repeat([]byte{0xE1}, 40)))}, baseIDs[1], nil)
					},
					func() {
						rs.CommitPages(map[uint64][]byte{fresh[0]: []byte("fresh-0-" + string(bytes.Repeat([]byte{0xE2}, 25)))}, fresh[0], nil)
					},
					func() {
						rs.CommitPages(map[uint64][]byte{fresh[1]: []byte("fresh-1-" + string(bytes.Repeat([]byte{0xE3}, 60)))}, fresh[1], []uint64{baseIDs[0]})
					},
					func() {
						rs.CommitPages(map[uint64][]byte{baseIDs[1]: []byte("rewritten-again-" + string(bytes.Repeat([]byte{0xE4}, 10)))}, fresh[1], nil)
					},
				}
				for _, step := range cps {
					step()
					snap()
				}
			} else {
				ok := workload(rs, fresh)
				if !ok[0] || !ok[1] {
					t.Fatal("reference workload failed")
				}
				// Async reference checkpoints are the sync barriers;
				// re-derive the mid state by replaying unit 1 alone.
				mid := filepath.Join(dir, "mid.ekb")
				faulttest.Copy(t, base, mid)
				ms, err := OpenConfig(mid, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mfresh := allocFresh(ms)
				ms.CommitPages(map[uint64][]byte{baseIDs[1]: []byte("rewritten-" + string(bytes.Repeat([]byte{0xE1}, 40)))}, baseIDs[1], nil)
				ms.CommitPages(map[uint64][]byte{mfresh[0]: []byte("fresh-0-" + string(bytes.Repeat([]byte{0xE2}, 25)))}, mfresh[0], nil)
				if err := ms.Sync(); err != nil {
					t.Fatal(err)
				}
				checkpoints = append(checkpoints, snapshotState(t, ms))
				ms.Close()
				checkpoints = append(checkpoints, snapshotState(t, rs)) // final
			}
			rs.Close()

			stateIndex := func(got logicalState) int {
				for i, cp := range checkpoints {
					if reflect.DeepEqual(got, cp) {
						return i
					}
				}
				return -1
			}
			// syncFloor[i] is the minimum checkpoint index implied by sync
			// barrier i succeeding.
			syncFloor := [2]int{len(checkpoints) / 2, len(checkpoints) - 1}
			if mode == Full {
				syncFloor = [2]int{2, 4}
			}

			var syncsOK [2]bool
			faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, 3, halfSlot}, Lose: powerLoss},
				func(f *faulttest.File) error {
					fs, err := OpenWithConfig(f, cfg)
					if err != nil {
						t.Fatalf("%s: open: %v", f, err)
					}
					syncsOK = workload(fs, allocFresh(fs))
					return fs.Close()
				},
				func(tag, work string, fired bool, _ error) {
					re, err := OpenConfig(work, Config{})
					if err != nil {
						t.Fatalf("%s: reopen after fault: %v", tag, err)
					}
					got := snapshotState(t, re)
					re.Close()

					idx := stateIndex(got)
					if idx < 0 {
						t.Fatalf("%s: recovered state matches no checkpoint (torn flush?): %+v", tag, got)
					}
					for b, ok := range syncsOK {
						if ok && idx < syncFloor[b] {
							t.Fatalf("%s: sync %d reported success but recovered state rolled back to checkpoint %d (< %d)",
								tag, b, idx, syncFloor[b])
						}
					}
					if fired == syncsOK[1] {
						t.Fatalf("%s: fault reached = %v, but the last barrier reported %v", tag, fired, syncsOK[1])
					}
				})
		})
	}
}

// TestFailedFlushKeepsAppliedStateReadable pins the fail-stop read contract:
// after a flush fails, the acknowledged-but-unflushed writes stay readable
// and Root/ReadPage stay mutually consistent — the root must never point at
// a page the read path has torn out.
func TestFailedFlushKeepsAppliedStateReadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "applied.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id0: []byte("durable")}, id0, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	ff, err := faulttest.Open(path, 0, faulttest.Plan{}) // first op dies
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenWithConfig(ff, Config{Durability: Async})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := fs.Alloc()
	if err := fs.CommitPages(map[uint64][]byte{id1: []byte("acked")}, id1, nil); err != nil {
		t.Fatal(err) // async: acknowledged before the flush
	}
	if err := fs.Sync(); !errors.Is(err, faulttest.ErrInjected) && !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync over dead file = %v, want the flush failure", err)
	}
	// The applied state survives the failure, self-consistent.
	root, err := fs.Root()
	if err != nil || root != id1 {
		t.Fatalf("Root after failed flush = (%d, %v), want %d", root, err, id1)
	}
	if got, err := fs.ReadPage(id1); err != nil || !bytes.Equal(got, []byte("acked")) {
		t.Fatalf("ReadPage(root) after failed flush = (%q, %v); root points at an unreadable page", got, err)
	}
	if got, err := fs.ReadPage(id0); err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("ReadPage(durable) after failed flush = (%q, %v)", got, err)
	}
	// Mutations are refused with the cause attached, not a bare sentinel.
	err = fs.CommitPages(map[uint64][]byte{id0: []byte("nope")}, id0, nil)
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("commit after failure = %v, want ErrFailed", err)
	}
	if !strings.Contains(err.Error(), faulttest.ErrInjected.Error()) {
		t.Errorf("ErrFailed does not carry the original cause: %v", err)
	}
	fs.Close()

	// Reopen recovers the last durable flush (the failed group lost whole).
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.ReadPage(id0); err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("reopened durable page = (%q, %v)", got, err)
	}
	if _, err := re.ReadPage(id1); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("failed group's page survived reopen: %v", err)
	}
}

// TestCloseReportsFailedFinalFlush pins Close's error contract: a lazy-mode
// store whose shutdown flush fails must say so — nil from Close means
// everything acknowledged is on disk.
func TestCloseReportsFailedFinalFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "closeflush.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	ff, err := faulttest.Open(path, 0, faulttest.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenWithConfig(ff, Config{Durability: Async})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Alloc()
	if err := fs.CommitPages(map[uint64][]byte{id: []byte("doomed")}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err == nil {
		t.Fatal("Close returned nil though the final flush failed and acknowledged writes were lost")
	}
}

// TestOpenConfigRejectsUnknownMode pins Config validation at the store layer:
// an unknown durability mode must fail at open, not silently behave like
// Grouped.
func TestOpenConfigRejectsUnknownMode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.ekb")
	if _, err := OpenConfig(bad, Config{Durability: Durability(7)}); err == nil {
		t.Fatal("OpenConfig accepted an unknown durability mode")
	}
	// The rejected opens must not have created a stray file.
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected OpenConfig left a file behind: %v", err)
	}
}

// TestCommitPagesTakesOwnership is the conformance test of CommitPages'
// buffer contract, over store.Mem, the file store over a file in memory, and
// the file store on disk in every durability mode. The store keeps the page
// buffers it is handed and never writes to them; it does not keep the writes
// map, which the engine clears and refills for its next commit; and
// ReadPageInto and ReadPage give the committed bytes in a buffer of the
// reader's own, from the overlay before the flush and from the file after it.
// ReadPageInto writes nothing into a buffer too short for the page and only
// the page into a longer one; the reader deciphers what it read in place, so
// a store that handed out its overlay's bytes would show here as a page
// changed under the next reader and a taken buffer altered.
func TestCommitPagesTakesOwnership(t *testing.T) {
	stores := map[string]func(t *testing.T) store.PageStore{
		"mem":    func(*testing.T) store.PageStore { return store.NewMem() },
		"memory": func(*testing.T) store.PageStore { return NewMem() },
	}
	for _, mode := range allModes {
		stores["file-"+mode.String()] = func(t *testing.T) store.PageStore {
			s, err := OpenConfig(filepath.Join(t.TempDir(), "own.ekb"), Config{Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			var ids [3]uint64
			for i := range ids {
				var err error
				if ids[i], err = s.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			a, b, c := ids[0], ids[1], ids[2]
			pa, pb, pc := []byte("page-a"), []byte("page-b"), []byte("page-c")
			writes := map[uint64][]byte{a: pa, b: pb}
			if err := s.CommitPages(writes, a, nil); err != nil {
				t.Fatal(err)
			}
			clear(writes)
			writes[c] = pc
			if err := s.CommitPages(writes, a, []uint64{b}); err != nil {
				t.Fatal(err)
			}
			clear(writes)
			check := func(when string) {
				t.Helper()
				for id, want := range map[uint64]string{a: "page-a", c: "page-c"} {
					short := []byte("short")
					if n, err := s.ReadPageInto(id, short); err != nil || n != len(want) || string(short) != "short" {
						t.Fatalf("%s: ReadPageInto(%d, 5 bytes) = (%d, %v) leaving %q, want (%d, nil) and nothing written", when, id, n, err, short, len(want))
					}
					into := []byte(strings.Repeat(".", len(want)+2))
					if n, err := s.ReadPageInto(id, into); err != nil || n != len(want) || string(into) != want+".." {
						t.Fatalf("%s: ReadPageInto(%d) = (%d, %v) leaving %q, want (%d, nil) and %q", when, id, n, err, into, len(want), want+"..")
					}
					clear(into) // the reader's own buffer, deciphered in place
					got, err := s.ReadPage(id)
					if err != nil || string(got) != want {
						t.Fatalf("%s: ReadPage(%d) = (%q, %v), want %q", when, id, got, err, want)
					}
					got[0] ^= 0xff // the reader's own buffer
					if again, _ := s.ReadPage(id); string(again) != want {
						t.Fatalf("%s: ReadPage(%d) aliases the store's page", when, id)
					}
				}
				if _, err := s.ReadPage(b); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("%s: freed page readable: %v", when, err)
				}
				if _, err := s.ReadPageInto(b, make([]byte, 16)); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("%s: freed page readable into a buffer: %v", when, err)
				}
			}
			check("applied")
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check("synced")
			if string(pa) != "page-a" || string(pb) != "page-b" || string(pc) != "page-c" {
				t.Errorf("store altered a buffer it took: %q %q %q", pa, pb, pc)
			}
		})
	}
}

// TestReleasedPagesAreUnreachable holds the store to when it gives a page
// buffer back to pagebuf: only once no reader can reach it. Readers copy pages
// out with ReadPageInto in a loop while a writer commits pages it takes from
// pagebuf.Get, as the cipher does, superseding and freeing pages of the
// pending group and flushing with Sync, so every buffer comes back through one
// of the two ways the store returns them and is filled again by a later
// commit. Each page spells out its ID and generation in every byte, so a read
// of a buffer returned early (poisoned under the race detector, or holding a
// later page) fails the check, and under -race also races with the write.
func TestReleasedPagesAreUnreachable(t *testing.T) {
	const pages, commits, readers = 24, 300, 2
	fill := func(b []byte, id, gen uint64) {
		binary.BigEndian.PutUint64(b, id)
		binary.BigEndian.PutUint64(b[8:], gen)
		for i := 16; i < len(b); i++ {
			b[i] = byte(id*31 + gen*7 + uint64(i))
		}
	}
	check := func(b []byte, id uint64) (uint64, error) {
		if len(b) < 16 || binary.BigEndian.Uint64(b) != id {
			return 0, fmt.Errorf("page %d reads %d bytes naming page %x", id, len(b), b[:min(len(b), 8)])
		}
		gen := binary.BigEndian.Uint64(b[8:])
		for i := 16; i < len(b); i++ {
			if b[i] != byte(id*31+gen*7+uint64(i)) {
				return 0, fmt.Errorf("page %d generation %d: byte %d is %#x, not what was committed", id, gen, i, b[i])
			}
		}
		return gen, nil
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := OpenConfig(filepath.Join(t.TempDir(), "released.ekb"), Config{Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ids := make([]uint64, pages)
			for i := range ids {
				if ids[i], err = s.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for r := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 4096)
					seen := make([]uint64, pages)
					for i := r; !stop.Load(); i++ {
						k := i % pages
						n, err := s.ReadPageInto(ids[k], buf)
						if errors.Is(err, store.ErrNotFound) {
							continue // not written yet, or freed
						}
						if err == nil {
							var gen uint64
							if gen, err = check(buf[:n], ids[k]); err == nil && gen < seen[k] {
								err = fmt.Errorf("page %d went back from generation %d to %d", ids[k], seen[k], gen)
							}
							seen[k] = gen
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			rng := rand.New(rand.NewPCG(uint64(mode), 46))
			live := make([]bool, pages)
			for gen := uint64(1); gen <= commits; gen++ {
				writes := make(map[uint64][]byte)
				for range 1 + rng.IntN(6) {
					k := rng.IntN(pages)
					b := pagebuf.Get(300 + rng.IntN(3000))
					fill(b, ids[k], gen)
					writes[ids[k]] = b
					live[k] = true
				}
				var frees []uint64
				if k := rng.IntN(pages); gen%5 == 0 && live[k] && writes[ids[k]] == nil {
					frees, live[k] = append(frees, ids[k]), false
				}
				if err := s.CommitPages(writes, ids[0], frees); err != nil {
					t.Fatal(err)
				}
				if gen%8 == 0 {
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestFlushAllocs pins what a steady-state flush allocates: a 64-page Async
// group, its pages rewritten at their own sizes, then Sync, over a page file
// in memory holding 1 000 or 10 000 pages. The committer builds the free
// index, the released list, the next free list, the directory and the slot
// in memory it keeps, and the group's page map is the last flushed group's,
// so the count does not grow with the page count: the same bound holds at
// both sizes. The pages are not pagebuf's (a
// 64-byte buffer is no size class), so the count is the store's alone. It
// fails if a flush makes its directory blob or an extent slice again.
func TestFlushAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, n := range []int{1_000, 10_000} {
		t.Run(fmt.Sprintf("pages=%d", n), func(t *testing.T) {
			s := NewMem()
			defer s.Close()
			payload := bytes.Repeat([]byte{7}, 64)
			ids := make([]uint64, n)
			writes := make(map[uint64][]byte, n)
			for i := range ids {
				var err error
				if ids[i], err = s.Alloc(); err != nil {
					t.Fatal(err)
				}
				writes[ids[i]] = payload
			}
			if err := s.CommitPages(writes, ids[0], nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			clear(writes)
			next := 0
			flush := func() {
				clear(writes)
				for range 64 {
					writes[ids[next]] = payload
					next = (next + 1) % n
				}
				if err := s.CommitPages(writes, ids[0], nil); err != nil {
					t.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			for range 8 {
				flush() // the scratch grows to its steady size
			}
			// Measured 2 (go1.24, amd64): the group and its done channel. 20 at
			// both sizes while each flush made its free index, released list,
			// free list, directory blob and slot, grew a fresh page map for the
			// group, and copied the page file whenever the frontier retreated.
			const want = 2
			if got := testing.AllocsPerRun(50, flush); got > want {
				t.Errorf("a 64-page flush over %d pages allocates %.0f times, want <= %d", n, got, want)
			} else {
				t.Logf("a 64-page flush over %d pages allocates %.0f times", n, got)
			}
		})
	}
}
