package ekbtree

import (
	"bytes"
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
func prefixFriendlyOpts(t *testing.T, path string) Options {
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
	return Options{MasterKey: master, Substituter: sub, Path: path}
}

// TestTreeVacuum is the façade-level vacuum contract: churn creates garbage
// visible as Stats.FileBytes >> LiveBytes, Vacuum reclaims it, content is
// untouched, and the tree reopens cleanly afterwards.
func TestTreeVacuum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vac.ekb")
	opts := prefixFriendlyOpts(t, path)
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
	if err := tr.Vacuum(); err != nil {
		t.Fatal(err)
	}
	after, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.FileBytes >= before.FileBytes {
		t.Errorf("vacuum did not shrink: file %d -> %d", before.FileBytes, after.FileBytes)
	}
	// Allow the compaction floor — a directory blob that can only
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
}

// TestMemoryTreeHasAPageFile: a tree with neither Path nor Store runs the
// file store over a page file in memory, so it has the footprint, the
// garbage and the vacuum a Path tree has.
func TestMemoryTreeHasAPageFile(t *testing.T) {
	checkFootprintAndVacuum(t, Options{MasterKey: bytes.Repeat([]byte{0x44}, 32)})
}

// TestWrappedStoreKeepsSpaceAndVacuum: a wrapper that embeds the PageStore it
// decorates, as the tests' doubles do, forwards the footprint and the vacuum
// of the store inside, because both are PageStore methods.
func TestWrappedStoreKeepsSpaceAndVacuum(t *testing.T) {
	checkFootprintAndVacuum(t, Options{MasterKey: bytes.Repeat([]byte{0x44}, 32), Store: newGateStore()})
}

// checkFootprintAndVacuum churns a tree opened with opts: after a Sync its
// Stats report FileBytes >= LiveBytes > 0, and Vacuum lowers the file
// size with every survivor reading back.
func checkFootprintAndVacuum(t *testing.T, opts Options) {
	tr := mustOpen(t, opts)
	key := func(i int) []byte { return []byte(fmt.Sprintf("m%05d", i)) }
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i), bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, err := tr.Stats(); err != nil || s.LiveBytes <= 0 || s.FileBytes < s.LiveBytes {
		t.Fatalf("Stats after Sync = (%s, %v), want FileBytes >= LiveBytes > 0", s, err)
	}
	for i := 0; i < 2000; i++ {
		var err error
		if i%4 == 0 {
			err = tr.Put(key(i), []byte("v")) // shrink one key in four
		} else {
			_, err = tr.Delete(key(i)) // and delete the rest
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _ := tr.Space()
	if err := tr.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if after, _ := tr.Space(); after >= before {
		t.Errorf("Vacuum left the file at %d bytes, was %d", after, before)
	}
	for i := 0; i < 2000; i++ {
		if v, ok, err := tr.Get(key(i)); err != nil || ok != (i%4 == 0) || (ok && string(v) != "v") {
			t.Fatalf("Get(%s) after vacuum = (%q, %v, %v)", key(i), v, ok, err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
