package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFileBackendPersistence is the end-to-end durability test: a tree
// written through Options.Path survives close and reopen with identical
// content, reopening with the wrong master key fails closed with
// ErrWrongKey, a mismatched configuration fails with ErrConfigMismatch, and
// a file damaged from outside fails with ErrCorrupt.
func TestFileBackendPersistence(t *testing.T) {
	master := bytes.Repeat([]byte{0xE7}, 32)
	path := filepath.Join(t.TempDir(), "tree.ekb")

	tr, err := Open(Options{MasterKey: master, Order: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Mixed batch so the persisted tree has seen the staged-commit path too.
	b := tr.NewBatch()
	for i := 0; i < 100; i += 2 {
		if err := b.Delete([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	want := scanAll(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{MasterKey: master, Order: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened tree has %d entries, want %d", len(got), len(want))
	}
	if v, ok, err := re.Get([]byte("key-151")); err != nil || !ok || string(v) != "val-151" {
		t.Fatalf("reopened Get = (%q, %v, %v)", v, ok, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong master key: the sealed header fails authentication at Open, fast
	// and closed — no page is ever deciphered under the wrong key.
	wrong := bytes.Repeat([]byte{0xE8}, 32)
	if _, err := Open(Options{MasterKey: wrong, Order: 8, Path: path}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong master key = %v, want ErrWrongKey", err)
	}
	// Mismatched order: header deciphers but records a different shape.
	if _, err := Open(Options{MasterKey: master, Order: 16, Path: path}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched order = %v, want ErrConfigMismatch", err)
	}
	// The failed opens above must not have disturbed the file.
	re2, err := Open(Options{MasterKey: master, Order: 8, Path: path})
	if err != nil {
		t.Fatalf("reopen after rejected opens: %v", err)
	}
	re2.Close()

	// External damage to the file's structural metadata surfaces as
	// ErrCorrupt.
	junk := filepath.Join(t.TempDir(), "junk.ekb")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0x5F}, 2048), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Order: 8, Path: junk}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open of damaged file = %v, want ErrCorrupt", err)
	}
}

// TestOptionsStorePathExclusive pins the Options contract: supplying both a
// Store and a Path is invalid.
func TestOptionsStorePathExclusive(t *testing.T) {
	_, err := Open(Options{
		MasterKey: bytes.Repeat([]byte{0xE9}, 32),
		Store:     NewMemStore(),
		Path:      filepath.Join(t.TempDir(), "x.ekb"),
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Open with Store and Path = %v, want ErrInvalidOptions", err)
	}
}

// TestFileBackendCursorAcrossReopen checks ordered iteration is identical
// before and after a reopen — the cursor path exercises the snapshot
// iterator over the file store's pages.
func TestFileBackendCursorAcrossReopen(t *testing.T) {
	master := bytes.Repeat([]byte{0xEA}, 32)
	path := filepath.Join(t.TempDir(), "cursor.ekb")
	tr, err := Open(Options{MasterKey: master, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		k := []byte(fmt.Sprintf("c%04d", i))
		if err := tr.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(tr *Tree) [][]byte {
		var keys [][]byte
		c := tr.Cursor()
		defer c.Close()
		for ok := c.First(); ok; ok = c.Next() {
			keys = append(keys, c.Key())
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	before := collect(tr)
	tr.Close()
	re, err := Open(Options{MasterKey: master, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	after := collect(re)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("cursor order changed across reopen: %d vs %d entries", len(before), len(after))
	}
}
