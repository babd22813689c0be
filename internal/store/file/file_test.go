package file

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/store"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// commitOne applies a single-page change through CommitPages, the store's
// only mutator: it writes page to id (nil page: frees id) and keeps the root.
func commitOne(s *Store, id uint64, page []byte) error {
	root, err := s.Root()
	if err != nil {
		return err
	}
	if page == nil {
		return s.CommitPages(nil, root, []uint64{id})
	}
	return s.CommitPages(map[uint64][]byte{id: page}, root, nil)
}

func TestFileStoreRoundTrip(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	id, err := s.Alloc()
	if err != nil || id == store.NoRoot {
		t.Fatalf("Alloc = (%d, %v)", id, err)
	}
	if _, err := s.ReadPage(id); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("read before write = %v, want ErrNotFound", err)
	}
	page := []byte("sealed-bytes")
	if err := commitOne(s, id, page); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPage(id)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("ReadPage = (%q, %v)", got, err)
	}
	if err := s.CommitPages(nil, id, nil); err != nil {
		t.Fatal(err)
	}
	if root, _ := s.Root(); root != id {
		t.Errorf("Root = %d, want %d", root, id)
	}
	if err := s.SetMeta([]byte("sealed-header")); err != nil {
		t.Fatal(err)
	}
	if meta, _ := s.Meta(); !bytes.Equal(meta, []byte("sealed-header")) {
		t.Errorf("Meta = %q", meta)
	}
	// A free of a page that is already gone is ignored, like any free of a
	// never-written ID.
	for i := 0; i < 2; i++ {
		if err := commitOne(s, id, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadPage(id); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("read after free %d = %v, want ErrNotFound", i+1, err)
		}
	}
}

func TestFileStoreReopen(t *testing.T) {
	s, path := openTemp(t)
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := commitOne(s, id, []byte(fmt.Sprintf("page-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CommitPages(nil, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta([]byte("hdr")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, id := range ids {
		got, err := r.ReadPage(id)
		if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("page-%d", i))) {
			t.Fatalf("reopened ReadPage(%d) = (%q, %v)", id, got, err)
		}
	}
	if root, _ := r.Root(); root != ids[0] {
		t.Errorf("reopened Root = %d, want %d", root, ids[0])
	}
	if meta, _ := r.Meta(); !bytes.Equal(meta, []byte("hdr")) {
		t.Errorf("reopened Meta = %q", meta)
	}
	// Alloc after reopen must not collide with persisted IDs.
	fresh, err := r.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh == id {
			t.Fatalf("Alloc after reopen reissued live id %d", id)
		}
	}
}

func TestFileStoreClosed(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(1); !errors.Is(err, store.ErrClosed) {
		t.Errorf("ReadPage after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Alloc(); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Alloc after Close = %v, want ErrClosed", err)
	}
	if err := s.CommitPages(nil, store.NoRoot, nil); !errors.Is(err, store.ErrClosed) {
		t.Errorf("CommitPages after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, store.ErrClosed) {
		t.Errorf("double Close = %v, want ErrClosed", err)
	}
}

func TestFileStoreBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.ekb")
	if err := os.WriteFile(path, []byte("this is not an ekbtree page file at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenConfig(path, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenConfig(junk) = %v, want ErrCorrupt", err)
	}
}

func TestFileStoreTornSlotFallsBack(t *testing.T) {
	s, path := openTemp(t)
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("v1")}, id, nil); err != nil {
		t.Fatal(err)
	}
	inactive := slot0Off
	if s.cur == 0 {
		inactive = slot1Off
	}
	s.Close()
	// Scribble over the inactive slot: a torn write there must not block the
	// valid slot from loading.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAB}, slotSize), int64(inactive)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.ReadPage(id); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("ReadPage after torn inactive slot = (%q, %v)", got, err)
	}
}

// TestFileStoreSpaceReuse checks the free list actually recycles extents:
// rewriting the same pages over and over must not grow the file linearly
// with the number of commits.
func TestFileStoreSpaceReuse(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	ids := make([]uint64, 4)
	page := bytes.Repeat([]byte{0x5A}, 256)
	for i := range ids {
		ids[i], _ = s.Alloc()
	}
	writes := make(map[uint64][]byte, len(ids))
	for _, id := range ids {
		writes[id] = page
	}
	if err := s.CommitPages(writes, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	warmup := 16
	for i := 0; i < warmup; i++ {
		if err := s.CommitPages(writes, ids[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	mark := s.fileEnd
	for i := 0; i < 200; i++ {
		if err := s.CommitPages(writes, ids[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Identically-shaped commits reach a steady state: everything the next
	// commit needs fits in extents the previous ones freed.
	if s.fileEnd != mark {
		t.Errorf("file grew from %d to %d over 200 identical commits", mark, s.fileEnd)
	}
}

// ---- fault injection ----
//
// The faulting file and the sweep loop are internal/faulttest's; these are the
// variants this package's sweeps share.

// halfSlot is the torn size every sweep adds to its few-byte tears, which stop
// inside a page or inside a slot's zero high txid bytes: the new txid, root
// and nextID land over the old directory extent and CRC.
const halfSlot = slotSize / 2

// powerLoss is process death and the three swept orders in which unsynced
// writes are lost: all of them, all but the newest (the slot reaches the
// platter, the directory and pages do not), all but the newest two.
var powerLoss = []int{faulttest.KeepAll, 0, 1, 2}

// logicalState is a full logical snapshot of a store: every live page's
// bytes, the root pointer, and the meta blob.
type logicalState struct {
	pages map[uint64]string
	root  uint64
	meta  string
}

func snapshotState(t *testing.T, s *Store) logicalState {
	t.Helper()
	st := logicalState{pages: make(map[uint64]string)}
	s.mu.RLock()
	ids := make([]uint64, 0, len(s.pages))
	for id := range s.pages {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	for _, id := range ids {
		p, err := s.ReadPage(id)
		if err != nil {
			t.Fatalf("snapshot ReadPage(%d): %v", id, err)
		}
		st.pages[id] = string(p)
	}
	root, err := s.Root()
	if err != nil {
		t.Fatal(err)
	}
	st.root = root
	meta, err := s.Meta()
	if err != nil {
		t.Fatal(err)
	}
	st.meta = string(meta)
	return st
}

// TestCommitAtomicityUnderFaults is the crash-consistency proof for the
// shadow-paged commit: for every possible failure point during a batch
// commit — each WriteAt and each Sync, with and without a torn trailing
// write, as process death and as power loss — reopening the file yields
// exactly the pre-commit or the post-commit state. Never a mix, never
// ErrCorrupt.
func TestCommitAtomicityUnderFaults(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ekb")

	// Build the pre-commit state: pages 1..6, root at 1, a meta blob, and
	// some free-list churn so the faulted commit exercises extent reuse.
	s, err := OpenConfig(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	writes := make(map[uint64][]byte)
	for i := 0; i < 6; i++ {
		id, _ := s.Alloc()
		ids = append(ids, id)
		writes[id] = []byte(fmt.Sprintf("base-page-%d-%s", i, bytes.Repeat([]byte{byte(i)}, 40)))
	}
	if err := s.SetMeta([]byte("sealed-engine-header")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(writes, ids[0], nil); err != nil {
		t.Fatal(err)
	}
	// Free one page pre-commit so the free list is non-empty going in.
	if err := s.CommitPages(nil, ids[0], []uint64{ids[5]}); err != nil {
		t.Fatal(err)
	}
	pre := snapshotState(t, s)
	s.Close()

	// The commit under test: overwrite one page, add two fresh pages, free
	// two old ones, and move the root.
	applyBatch := func(s *Store) error {
		n1, err := s.Alloc()
		if err != nil {
			return err
		}
		n2, err := s.Alloc()
		if err != nil {
			return err
		}
		return s.CommitPages(map[uint64][]byte{
			ids[1]: []byte("overwritten-" + string(bytes.Repeat([]byte{0xEE}, 64))),
			n1:     []byte("fresh-1-" + string(bytes.Repeat([]byte{0xF1}, 33))),
			n2:     []byte("fresh-2-" + string(bytes.Repeat([]byte{0xF2}, 90))),
		}, n1, []uint64{ids[2], ids[3]})
	}

	var post *logicalState
	var deferred []logicalState // non-pre states seen before post was known
	faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, 1, 7, halfSlot}, Lose: powerLoss},
		func(f *faulttest.File) error {
			fs, err := OpenWithConfig(f, Config{})
			if err != nil {
				t.Fatalf("%s: open with fault file: %v", f, err)
			}
			defer fs.Close()
			return applyBatch(fs)
		},
		func(tag, work string, fired bool, cerr error) {
			re, err := OpenConfig(work, Config{})
			if err != nil {
				t.Fatalf("%s: reopen after injected fault: %v", tag, err)
			}
			got := snapshotState(t, re)
			re.Close()

			if fired == (cerr == nil) {
				t.Fatalf("%s: fault reached = %v, but the commit returned %v", tag, fired, cerr)
			}
			if cerr == nil {
				// n exceeded the commit's op count, so no fault fired: this
				// run defines (and later sweeps confirm) the post state.
				if post == nil {
					if reflect.DeepEqual(got, pre) {
						t.Fatal("post-commit state equals pre-commit state; batch is a no-op")
					}
					post = &got
				}
				if !reflect.DeepEqual(got, *post) {
					t.Fatalf("%s: successful commit state diverged", tag)
				}
				return
			}
			switch {
			case reflect.DeepEqual(got, pre):
				// Fault before the commit point: full pre-state. The common case.
			case post != nil && reflect.DeepEqual(got, *post):
				// Fault after the slot flip reached disk (a failing Sync whose
				// slot write already landed): commit reported an error but is
				// durable. Legal — never torn.
			case post == nil:
				// The first sweep hasn't discovered post yet; park the state
				// and verify it below once post is known.
				deferred = append(deferred, got)
			default:
				t.Fatalf("%s: torn state after fault:\n got: %+v\n pre: %+v\npost: %+v", tag, got, pre, *post)
			}
		})
	for i, got := range deferred {
		if !reflect.DeepEqual(got, *post) {
			t.Fatalf("deferred state %d matches neither pre nor post: %+v", i, got)
		}
	}
}

// TestFailedSlotFlipPoisonsStore pins the fix for the stale-slot hazard: a
// commit whose final sync fails may have durably written a valid,
// higher-txid meta slot. If the store then accepted further commits from its
// in-memory pre-commit state, they would recycle the failed commit's extents
// while that stale slot still points at them, and a crash before the next
// flip would open a torn state. So after a failure at or past the slot
// write, mutations must be refused (ErrFailed), reads must keep serving the
// last known-durable state, and reopening must recover cleanly.
func TestFailedSlotFlipPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "poison.ekb")
	s, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("pre-commit")}, id, nil); err != nil {
		t.Fatal(err)
	}
	pre := snapshotState(t, s)
	s.Close()

	// Count the ops one commit takes, so the fault can target the final sync.
	id2 := id + 1
	commit := func(s *Store) error {
		return s.CommitPages(map[uint64][]byte{id2: []byte("post-commit")}, id2, nil)
	}
	probePath := filepath.Join(dir, "probe.ekb")
	faulttest.Copy(t, path, probePath)
	counter, err := faulttest.Open(probePath, faulttest.Never, faulttest.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := OpenWithConfig(counter, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(ps); err != nil {
		t.Fatal(err)
	}
	totalOps := counter.Ops()
	ps.Close()

	// Fail exactly the final sync (the op after the slot write), then heal:
	// without poisoning, the next commit would succeed and set up the torn
	// state.
	ff, err := faulttest.Open(path, totalOps-1, faulttest.Plan{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenWithConfig(ff, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(fs); !errors.Is(err, ErrFailed) {
		t.Fatalf("commit with failing final sync = %v, want ErrFailed", err)
	}
	// Mutations are refused even though the file has healed…
	if err := fs.CommitPages(map[uint64][]byte{id: []byte("should-not-land")}, id, nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("commit after failed flip = %v, want ErrFailed", err)
	}
	if err := fs.SetMeta([]byte("nor-this")); !errors.Is(err, ErrFailed) {
		t.Fatalf("SetMeta after failed flip = %v, want ErrFailed", err)
	}
	// …while reads keep serving the pre-commit state.
	if got, err := fs.ReadPage(id); err != nil || !bytes.Equal(got, []byte("pre-commit")) {
		t.Fatalf("ReadPage after failed flip = (%q, %v)", got, err)
	}
	fs.Close()

	// Reopen resolves the ambiguity: the slot write in this scenario did
	// land, so recovery yields the post-commit state (pre would be equally
	// legal had the slot not reached the disk) — and the store mutates again.
	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := snapshotState(t, re)
	if !reflect.DeepEqual(got, pre) {
		if p, err := re.ReadPage(id2); err != nil || !bytes.Equal(p, []byte("post-commit")) {
			t.Fatalf("recovered state is neither pre nor post: %+v", got)
		}
	}
	if err := commitOne(re, id, []byte("recovered")); err != nil {
		t.Fatalf("store still refuses mutations after reopen: %v", err)
	}
}

// TestZeroedMagicRepairs pins the fix for header-prefix damage: zeroing the
// magic of a populated file must not trigger re-initialization (which would
// wipe the store); Open recovers through the surviving meta slot and repairs
// the magic.
func TestZeroedMagicRepairs(t *testing.T) {
	s, path := openTemp(t)
	id, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{id: []byte("survives")}, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta([]byte("hdr")); err != nil {
		t.Fatal(err)
	}
	want := snapshotState(t, s)
	s.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, len(magic)), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatalf("Open after zeroed magic = %v, want recovery via meta slot", err)
	}
	if got := snapshotState(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state = %+v, want %+v", got, want)
	}
	re.Close()
	// The magic was rewritten: a plain reopen sees a well-formed file.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:len(magic)]) != magic {
		t.Error("magic not repaired on disk")
	}
	re2, err := OpenConfig(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	re2.Close()
}

// TestInitCrashLeavesFreshFile sweeps faults over store initialization: a
// crash before the magic header is durable must leave a file that Open
// simply re-initializes.
//
// Initialization never has more than two writes unsynced, so losing all but
// the newest two is KeepAll. Losing all but the newest one includes n=2: the
// first slot reaches the platter, the first directory, appended past the end
// of an empty file, does not, and Open must see that nothing was ever stored.
func TestInitCrashLeavesFreshFile(t *testing.T) {
	faulttest.Sweep(t, "", faulttest.Plan{Torn: []int{0, halfSlot}, Lose: []int{faulttest.KeepAll, 0, 1}},
		func(f *faulttest.File) error {
			s, err := OpenWithConfig(f, Config{})
			if err == nil {
				s.Close()
			}
			return err
		},
		func(tag, path string, fired bool, ierr error) {
			s, err := OpenConfig(path, Config{})
			if err != nil {
				t.Fatalf("%s: reopen after init fault: %v", tag, err)
			}
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := commitOne(s, id, []byte("works")); err != nil {
				t.Fatalf("%s: store unusable after init fault: %v", tag, err)
			}
			s.Close()
			if fired == (ierr == nil) {
				t.Fatalf("%s: fault reached = %v, but initialization returned %v", tag, fired, ierr)
			}
		})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestTransientFaultFailStops sweeps a device error that passes — ENOSPC on
// one write (whole or short), sync or truncate, after which the device works
// again — over every operation of a commit and of a vacuum pass. At each point
// the failed call names the cause, the store fail-stops (every later mutation,
// barrier and vacuum is refused with ErrFailed carrying the cause, without
// touching the device) while reads keep serving the applied state, and a
// reopen finds the pre- or post-state (vacuum: the one logical state) and
// commits again.
func TestTransientFaultFailStops(t *testing.T) {
	cause := syscall.ENOSPC
	// Torn half a slot makes the failing write a short one.
	plan := faulttest.Plan{Heal: true, Err: cause, Truncates: true, Torn: []int{0, halfSlot}}
	for _, leg := range []struct {
		name  string
		build func(t *testing.T, s *Store) []uint64
		op    func(s *Store, ids []uint64) error
	}{
		{"commit",
			// One page per flush lays them out front to back; freeing the first
			// two leaves holes at the front that the commit below and its
			// directory fit in.
			func(t *testing.T, s *Store) []uint64 {
				var ids []uint64
				for i := 0; i < 6; i++ {
					id, _ := s.Alloc()
					ids = append(ids, id)
					if err := s.CommitPages(map[uint64][]byte{id: bytes.Repeat([]byte{byte(i)}, 1024)}, ids[0], nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.SetMeta([]byte("hdr")); err != nil {
					t.Fatal(err)
				}
				if err := s.CommitPages(nil, ids[2], ids[:2]); err != nil {
					t.Fatal(err)
				}
				return ids
			},
			// Everything at the tail goes, so the frontier retreats and the
			// commit ends in a Truncate.
			func(s *Store, ids []uint64) error {
				return s.CommitPages(map[uint64][]byte{ids[2]: []byte("rewritten")}, ids[2], ids[3:])
			}},
		{"vacuum",
			func(t *testing.T, s *Store) []uint64 { return buildGarbage(t, s) },
			func(s *Store, _ []uint64) error { return s.Vacuum() }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "base.ekb")
			s, err := OpenConfig(base, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ids := leg.build(t, s)
			pre := snapshotState(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// The post-state, from a clean run on a copy.
			ref := filepath.Join(dir, "ref.ekb")
			faulttest.Copy(t, base, ref)
			rs, err := OpenConfig(ref, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := leg.op(rs, ids); err != nil {
				t.Fatal(err)
			}
			post := snapshotState(t, rs)
			rs.Close()
			if before, after := fileSize(t, base), fileSize(t, ref); after >= before {
				t.Fatalf("the clean run did not shrink the file (%d -> %d bytes): no Truncate to fail", before, after)
			}

			refused := func(tag, what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), cause.Error()) {
					t.Fatalf("%s: %s after the fault = %v, want ErrFailed naming %q", tag, what, err, cause)
				}
			}
			faulttest.Sweep(t, base, plan,
				func(f *faulttest.File) error {
					tag := f.String()
					fs, err := OpenWithConfig(f, Config{})
					if err != nil {
						t.Fatalf("%s: open: %v", tag, err)
					}
					defer fs.Close()
					operr := leg.op(fs, ids)
					if !f.Fired() {
						return operr
					}
					// flushGroup wraps a page, directory or data-sync error with
					// %w; from the slot write on the flip may have landed, and
					// the error is ErrFailed with the cause in its text.
					if operr == nil || !strings.Contains(operr.Error(), cause.Error()) ||
						errors.Is(operr, cause) == errors.Is(operr, ErrFailed) {
						t.Fatalf("%s: the failed call returned %v, want %q wrapped or behind ErrFailed", tag, operr, cause)
					}
					ops := f.Ops()
					refused(tag, "CommitPages", fs.CommitPages(map[uint64][]byte{ids[2]: []byte("nope")}, ids[2], nil))
					refused(tag, "SetMeta", fs.SetMeta([]byte("nope")))
					refused(tag, "SetSealMark", fs.SetSealMark(store.SealMark{Epoch: 9}))
					refused(tag, "Sync", fs.Sync())
					refused(tag, "Vacuum", fs.Vacuum())
					if f.Ops() != ops {
						t.Fatalf("%s: a refused call reached the device (%d operations since the fault)", tag, f.Ops()-ops)
					}
					// The applied state — the commit's, acknowledged or not — is
					// what reads serve until the reopen.
					for id, want := range post.pages {
						if got, err := fs.ReadPage(id); err != nil || string(got) != want {
							t.Fatalf("%s: ReadPage(%d) after the fault = (%q, %v)", tag, id, got, err)
						}
					}
					for id := range pre.pages {
						if _, live := post.pages[id]; live {
							continue
						}
						if _, err := fs.ReadPage(id); !errors.Is(err, store.ErrNotFound) {
							t.Fatalf("%s: ReadPage(%d), freed by the failed commit = %v, want ErrNotFound", tag, id, err)
						}
					}
					if root, err := fs.Root(); err != nil || root != post.root {
						t.Fatalf("%s: Root after the fault = (%d, %v), want %d", tag, root, err, post.root)
					}
					if meta, err := fs.Meta(); err != nil || string(meta) != post.meta {
						t.Fatalf("%s: Meta after the fault = (%q, %v)", tag, meta, err)
					}
					return operr
				},
				func(tag, work string, fired bool, operr error) {
					if fired == (operr == nil) {
						t.Fatalf("%s: fault reached = %v, but the call returned %v", tag, fired, operr)
					}
					re, err := OpenConfig(work, Config{})
					if err != nil {
						t.Fatalf("%s: reopen: %v", tag, err)
					}
					defer re.Close()
					if got := snapshotState(t, re); !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post) {
						t.Fatalf("%s: reopened state is neither pre nor post: %+v", tag, got)
					}
					if err := commitOne(re, ids[2], []byte("recovered")); err != nil {
						t.Fatalf("%s: the reopened store refuses a commit: %v", tag, err)
					}
				})
		})
	}
}

// TestMemFile: a read past the end answers io.EOF, which Open's header read
// of a fresh file relies on, and bytes Truncate cut are gone — a later write
// beyond the cut leaves zeros in the gap, as on disk.
func TestMemFile(t *testing.T) {
	f := &memFile{}
	f.WriteAt([]byte("abcdefgh"), 0)
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 6); n != 2 || err != io.EOF || string(buf[:n]) != "gh" {
		t.Fatalf("ReadAt across the end = (%d, %v, %q), want (2, EOF, \"gh\")", n, err, buf[:n])
	}
	if n, err := f.ReadAt(buf, 8); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at the end = (%d, %v), want (0, EOF)", n, err)
	}
	f.Truncate(2)
	f.WriteAt([]byte("z"), 6)
	got := make([]byte, 7)
	if n, err := f.ReadAt(got, 0); n != 7 || err != nil || string(got) != "ab\x00\x00\x00\x00z" {
		t.Fatalf("after Truncate(2) and a write at 6 the file reads (%d, %v, %q)", n, err, got)
	}
}
