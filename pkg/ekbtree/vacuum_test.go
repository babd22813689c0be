package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repro/ekbtree/internal/keysub"
)

// prefixFriendlyOpts returns file-backed options whose substituter preserves
// an 8-byte plaintext prefix (the bucketed scheme), so sequential key runs
// produce long shared prefixes inside each node — the case prefix truncation
// is built for.
func prefixFriendlyOpts(t *testing.T, path string, shards int) Options {
	t.Helper()
	master := bytes.Repeat([]byte{0x55}, 32)
	inner, err := keysub.NewHMAC(master, 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := keysub.NewBucketed(inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	return Options{MasterKey: master, Substituter: sub, Path: path, Shards: shards}
}

// TestTreeVacuum is the façade-level vacuum contract: churn creates garbage
// visible as Stats.FileBytes >> LiveBytes, Vacuum(0) reclaims it across all
// shards, content is untouched, and the tree reopens cleanly afterwards.
func TestTreeVacuum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vac.ekb")
	opts := prefixFriendlyOpts(t, path, 3)
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	for gen := 0; gen < 6; gen++ {
		b := tr.NewBatch()
		for i := 0; i < 1500; i++ {
			if err := b.Put(key(i), []byte(fmt.Sprintf("gen-%d-value-%d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Dropping most of the keyspace leaves the B-tree a fraction of its peak:
	// the freed pages' extents are garbage only a vacuum can return to the OS.
	for i := 0; i < 1500; i++ {
		if i%8 == 0 {
			continue
		}
		if _, err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(t, tr)

	before, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.FileBytes == 0 || before.LiveBytes == 0 {
		t.Fatalf("file-backed tree reports no footprint: %+v", before)
	}
	if before.FileBytes < before.LiveBytes*5/4 {
		t.Fatalf("churn created too little garbage: file=%d live=%d", before.FileBytes, before.LiveBytes)
	}
	if err := tr.Vacuum(0); err != nil {
		t.Fatal(err)
	}
	after, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.FileBytes >= before.FileBytes {
		t.Errorf("vacuum did not shrink: file %d -> %d", before.FileBytes, after.FileBytes)
	}
	// Allow each shard its compaction floor — a directory blob that can only
	// descend into a hole that fits it whole, plus sub-page fragments — on
	// top of half the garbage; the strict ratios are pinned by the
	// store-level tests and the large soak tier, where scale dwarfs the floor.
	allow := (before.FileBytes-before.LiveBytes)/2 + int64(3*1024)
	if after.FileBytes > after.LiveBytes+allow {
		t.Errorf("vacuum left too much slack: file=%d live=%d (was file=%d live=%d)",
			after.FileBytes, after.LiveBytes, before.FileBytes, before.LiveBytes)
	}
	if got := scanAll(t, tr); !reflect.DeepEqual(got, want) {
		t.Fatal("vacuum changed tree contents")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := scanAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened tree diverged after vacuum")
	}

	// Negative targets are rejected; a generous satisfied target is a no-op.
	if err := re.Vacuum(-1); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Vacuum(-1) = %v, want ErrInvalidOptions", err)
	}
	st, err := re.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Vacuum(2 * st.FileBytes); err != nil {
		t.Fatal(err)
	}
}

// TestVacuumMemNoop: the in-memory backend has no layout to compact; Vacuum
// succeeds as a no-op and the footprint gauges stay zero. The store is
// pinned explicitly so EKBTREE_BACKEND=file doesn't swap it out.
func TestVacuumMemNoop(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0x44}, 32), Store: NewMemStore()})
	defer tr.Close()
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Vacuum(0); err != nil {
		t.Fatalf("mem vacuum: %v", err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FileBytes != 0 || st.LiveBytes != 0 {
		t.Fatalf("in-memory tree reports footprint: %+v", st)
	}
	if v, ok, err := tr.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after vacuum = (%q, %v, %v)", v, ok, err)
	}
}
