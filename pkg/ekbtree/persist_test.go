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
// ErrWrongKey, a reopen needs no order and keeps the one the header records,
// a header recording no usable order fails with ErrConfigMismatch, and a
// file damaged from outside fails with ErrCorrupt.
func TestFileBackendPersistence(t *testing.T) {
	master := bytes.Repeat([]byte{0xE7}, 32)
	path := filepath.Join(t.TempDir(), "tree.ekb")

	tr, err := Open(Options{MasterKey: master, order: 8, Path: path})
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

	re, err := Open(Options{MasterKey: master, order: 8, Path: path})
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
	if _, err := Open(Options{MasterKey: wrong, order: 8, Path: path}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong master key = %v, want ErrWrongKey", err)
	}
	// The failed open above must not have disturbed the file, and the order is
	// the header's: reopened with default options, the order-8 tree stays at
	// order 8. More inserts split its nodes at 8 children, so no node holds
	// more than 7 keys, where an order-32 tree would absorb them into the
	// nodes it has.
	re2, err := Open(Options{MasterKey: master, Path: path})
	if err != nil {
		t.Fatalf("reopen after a rejected open: %v", err)
	}
	for i := 300; i < 1000; i++ {
		if err := re2.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := re2.Stats(); err != nil || st.Keys != 950 || st.Keys > 7*st.Nodes {
		t.Errorf("reopened with default options, then grown: %+v (%v); want 950 keys, at most 7 a node", st, err)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}
	// A header that names an order no tree can have, or none, is refused.
	_, sub, nc, _, err := Options{MasterKey: master}.validate()
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{
		fmt.Sprintf("ekbtree/1 order=7 keysub=%s cipher=%s enc=prefix", sub.Name(), nc.Name()),
		fmt.Sprintf("ekbtree/1 keysub=%s cipher=%s enc=prefix", sub.Name(), nc.Name()),
	} {
		sealed, err := nc.Seal(metaPageID, []byte(header))
		if err != nil {
			t.Fatal(err)
		}
		st := NewMemStore()
		if err := st.SetMeta(sealed); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{MasterKey: master, Store: st}); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("Open over header %q = %v, want ErrConfigMismatch", header, err)
		}
	}

	// External damage to the file's structural metadata surfaces as
	// ErrCorrupt.
	junk := filepath.Join(t.TempDir(), "junk.ekb")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0x5F}, 2048), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, order: 8, Path: junk}); !errors.Is(err, ErrCorrupt) {
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
