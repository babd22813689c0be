package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestDurabilityOptionsValidation pins the Options contract for the new
// fields: durability tuning is meaningful only for Path-backed trees, and the
// window only for the Grouped mode.
func TestDurabilityOptionsValidation(t *testing.T) {
	master := bytes.Repeat([]byte{0xD7}, 32)
	path := filepath.Join(t.TempDir(), "opts.ekb")
	cases := []struct {
		name string
		opts Options
	}{
		{"durability without path", Options{MasterKey: master, Durability: DurabilityGrouped}},
		{"window without path", Options{MasterKey: master, GroupWindow: time.Millisecond}},
		{"durability with store", Options{MasterKey: master, Store: NewMemStore(), Durability: DurabilityAsync}},
		{"window without grouped", Options{MasterKey: master, Path: path, Durability: DurabilityAsync, GroupWindow: time.Millisecond}},
		{"window with full", Options{MasterKey: master, Path: path, GroupWindow: time.Millisecond}},
		{"negative window", Options{MasterKey: master, Path: path, Durability: DurabilityGrouped, GroupWindow: -time.Millisecond}},
		{"unknown mode", Options{MasterKey: master, Path: path, Durability: Durability(99)}},
		{"max unflushed without path", Options{MasterKey: master, MaxUnflushed: 1 << 20}},
		{"negative max unflushed", Options{MasterKey: master, Path: path, Durability: DurabilityAsync, MaxUnflushed: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts); !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("Open = %v, want ErrInvalidOptions", err)
			}
		})
	}
}

// TestDurabilityModesEndToEnd drives each durability mode through the
// façade: writes are immediately visible (read-your-writes ahead of the
// fsync), Sync is accepted as the barrier, and a close/reopen cycle preserves
// everything — including batches.
func TestDurabilityModesEndToEnd(t *testing.T) {
	master := bytes.Repeat([]byte{0xD8}, 32)
	for _, tc := range []struct {
		name string
		opts func(path string) Options
	}{
		{"full", func(p string) Options { return Options{MasterKey: master, Order: 8, Path: p} }},
		{"grouped", func(p string) Options {
			return Options{MasterKey: master, Order: 8, Path: p, Durability: DurabilityGrouped, GroupWindow: 5 * time.Millisecond}
		}},
		{"async", func(p string) Options {
			return Options{MasterKey: master, Order: 8, Path: p, Durability: DurabilityAsync}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mode.ekb")
			tr, err := Open(tc.opts(path))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("k%04d", i))
				if err := tr.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			b := tr.NewBatch()
			for i := 0; i < 100; i += 2 {
				if err := b.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			// Read-your-writes before any barrier.
			if v, ok, err := tr.Get([]byte("k0151")); err != nil || !ok || string(v) != "v151" {
				t.Fatalf("pre-sync Get = (%q, %v, %v)", v, ok, err)
			}
			if _, ok, err := tr.Get([]byte("k0050")); err != nil || ok {
				t.Fatalf("pre-sync Get of deleted key = (%v, %v)", ok, err)
			}
			if err := tr.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			want := scanAll(t, tr)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(tc.opts(path))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := scanAll(t, re); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened %s-mode tree has %d entries, want %d", tc.name, len(got), len(want))
			}
		})
	}
}

// TestMaxUnflushedEndToEnd drives an Async tree with a tiny MaxUnflushed
// bound through enough writes to cross it many times: backpressure must
// throttle, never deadlock or drop, and a close/reopen cycle preserves
// everything.
func TestMaxUnflushedEndToEnd(t *testing.T) {
	master := bytes.Repeat([]byte{0xDA}, 32)
	path := filepath.Join(t.TempDir(), "maxunflushed.ekb")
	tr := mustOpen(t, Options{
		MasterKey:    master,
		Path:         path,
		Durability:   DurabilityAsync,
		MaxUnflushed: 4 << 10,
	})
	const n = 400
	val := bytes.Repeat([]byte{0x5C}, 256) // ~100KB total: dozens of bound crossings
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("bp%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{MasterKey: master, Path: path, Durability: DurabilityAsync, MaxUnflushed: 4 << 10})
	defer re.Close()
	for i := 0; i < n; i++ {
		if v, ok, err := re.Get([]byte(fmt.Sprintf("bp%04d", i))); err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("reopened Get(bp%04d) = (%d bytes, %v, %v)", i, len(v), ok, err)
		}
	}
}

// TestSyncOnMemBackend: Sync on a tree with neither Path nor Store flushes its
// in-memory page file, so the footprint is real afterwards, and Sync after
// Close is ErrClosed.
func TestSyncOnMemBackend(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xD9}, 32)})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatalf("Sync on memory tree = %v, want nil", err)
	}
	if s, err := tr.Stats(); err != nil || s.LiveBytes <= 0 || s.FileBytes < s.LiveBytes {
		t.Fatalf("Stats after Sync = (%s, %v), want FileBytes >= LiveBytes > 0", s, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
}

// TestOpenLockedPath pins the façade's single-writer surface: opening a tree
// over a page file another tree holds fails with ErrLocked, and the lock dies
// with the holder.
func TestOpenLockedPath(t *testing.T) {
	master := bytes.Repeat([]byte{0xDA}, 32)
	path := filepath.Join(t.TempDir(), "locked.ekb")
	tr, err := Open(Options{MasterKey: master, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Path: path}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	// The holder is unharmed by the rejected open.
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{MasterKey: master, Path: path})
	if err != nil {
		t.Fatalf("Open after lock release = %v", err)
	}
	defer re.Close()
	if v, ok, err := re.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after reopen = (%q, %v, %v)", v, ok, err)
	}
}

// TestLazyModesCrashSemantics simulates crashes around Sync barriers for the
// lazy durability modes through the façade: the page file is snapshotted (as
// a crashed process would leave it) before any barrier, after a Sync, and
// after further un-synced writes. Opening each snapshot must show exactly the
// synced prefix — acknowledged-but-unsynced writes are lost whole, synced
// ones never — and never a torn or corrupt tree. The Grouped window is set
// huge so no background flush races the snapshots.
func TestLazyModesCrashSemantics(t *testing.T) {
	master := bytes.Repeat([]byte{0xDB}, 32)
	for _, tc := range []struct {
		name string
		opts func(path string) Options
	}{
		{"grouped", func(p string) Options {
			return Options{MasterKey: master, Order: 8, Path: p, Durability: DurabilityGrouped, GroupWindow: time.Hour}
		}},
		{"async", func(p string) Options {
			return Options{MasterKey: master, Order: 8, Path: p, Durability: DurabilityAsync}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "live.ekb")
			tr, err := Open(tc.opts(path))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			snapshot := func(name string) string {
				t.Helper()
				dst := filepath.Join(dir, name)
				// Copy every shard's page file so the crash image covers the
				// whole keyspace under the shard matrix (shardPath is the
				// identity when testDefaultShards == 1).
				for i := 0; i < testDefaultShards; i++ {
					b, err := os.ReadFile(shardPath(path, i, testDefaultShards))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(shardPath(dst, i, testDefaultShards), b, 0o600); err != nil {
						t.Fatal(err)
					}
				}
				return dst
			}
			openSnap := func(dst string) map[string]string {
				t.Helper()
				re, err := Open(Options{MasterKey: master, Order: 8, Path: dst})
				if err != nil {
					t.Fatalf("open crash snapshot %s: %v", dst, err)
				}
				defer re.Close()
				return scanAll(t, re)
			}

			for i := 0; i < 50; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("early-%02d", i)), []byte("e")); err != nil {
					t.Fatal(err)
				}
			}
			preSync := snapshot("pre-sync.ekb")
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			synced := scanAll(t, tr)
			postSync := snapshot("post-sync.ekb")
			for i := 0; i < 50; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("late-%02d", i)), []byte("l")); err != nil {
					t.Fatal(err)
				}
			}
			unsynced := snapshot("unsynced.ekb")
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			final := scanAll(t, tr)
			postFinal := snapshot("post-final.ekb")

			// A crash before the first barrier loses everything acknowledged
			// since open: the snapshot is an empty (or freshly-initialized)
			// tree, not a torn one.
			if got := openSnap(preSync); len(got) != 0 {
				t.Fatalf("pre-sync crash snapshot holds %d entries, want 0", len(got))
			}
			if got := openSnap(postSync); !reflect.DeepEqual(got, synced) {
				t.Fatalf("post-sync crash snapshot diverged: %d entries, want %d", len(got), len(synced))
			}
			// Un-synced writes after the barrier are lost whole; the synced
			// prefix survives intact.
			if got := openSnap(unsynced); !reflect.DeepEqual(got, synced) {
				t.Fatalf("unsynced crash snapshot = %d entries, want the synced prefix (%d)", len(got), len(synced))
			}
			if got := openSnap(postFinal); !reflect.DeepEqual(got, final) {
				t.Fatalf("final crash snapshot diverged: %d entries, want %d", len(got), len(final))
			}
		})
	}
}
