package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// commitOne applies a single-page change through CommitPages, the store's
// only mutator: it writes page to id (nil page: frees id) and keeps the root.
func commitOne(m *Mem, id uint64, page []byte) error {
	root, err := m.Root()
	if err != nil {
		return err
	}
	if page == nil {
		return m.CommitPages(nil, root, []uint64{id})
	}
	return m.CommitPages(map[uint64][]byte{id: page}, root, nil)
}

func TestMemReadWrite(t *testing.T) {
	m := NewMem()
	defer m.Close()
	id, err := m.Alloc()
	if err != nil || id == NoRoot {
		t.Fatalf("Alloc = (%d, %v)", id, err)
	}
	if _, err := m.ReadPage(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("read before write = %v, want ErrNotFound", err)
	}
	page := []byte("sealed-bytes")
	if err := commitOne(m, id, page); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Errorf("ReadPage = %q, want %q", got, page)
	}
	// The store owns the committed buffer and a reader owns what ReadPage
	// returned: scribbling on the latter must not reach the former.
	got[1] = 'Y'
	fresh, _ := m.ReadPage(id)
	if !bytes.Equal(fresh, []byte("sealed-bytes")) {
		t.Error("ReadPage aliases the store's page")
	}
	if string(page) != "sealed-bytes" {
		t.Errorf("store altered the buffer it took: %q", page)
	}
}

func TestMemAllocUnique(t *testing.T) {
	m := NewMem()
	defer m.Close()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("Alloc returned duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestMemFree(t *testing.T) {
	m := NewMem()
	defer m.Close()
	id, _ := m.Alloc()
	if err := commitOne(m, id, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(m, id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadPage(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("read after free = %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d, want 0", m.Len())
	}
}

func TestMemRoot(t *testing.T) {
	m := NewMem()
	defer m.Close()
	root, err := m.Root()
	if err != nil || root != NoRoot {
		t.Fatalf("fresh Root = (%d, %v), want (NoRoot, nil)", root, err)
	}
	if err := m.CommitPages(nil, 42, nil); err != nil {
		t.Fatal(err)
	}
	if root, _ = m.Root(); root != 42 {
		t.Errorf("Root = %d, want 42", root)
	}
}

func TestMemMeta(t *testing.T) {
	m := NewMem()
	defer m.Close()
	meta, err := m.Meta()
	if err != nil || len(meta) != 0 {
		t.Fatalf("fresh Meta = (%q, %v), want empty", meta, err)
	}
	blob := []byte("header")
	if err := m.SetMeta(blob); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Meta()
	if !bytes.Equal(got, blob) {
		t.Errorf("Meta = %q, want %q", got, blob)
	}
	blob[0] = 'X'
	got[1] = 'Y'
	if fresh, _ := m.Meta(); !bytes.Equal(fresh, []byte("header")) {
		t.Error("Meta aliases caller buffers")
	}
}

func TestMemClosed(t *testing.T) {
	m := NewMem()
	m.Close()
	if _, err := m.ReadPage(1); err == nil {
		t.Error("ReadPage after Close succeeded")
	}
	// Regression: Alloc used to ignore the closed flag and silently hand out
	// page IDs from a dead store.
	if id, err := m.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after Close = (%d, %v), want ErrClosed", id, err)
	}
	if err := m.CommitPages(nil, NoRoot, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("CommitPages after Close = %v, want ErrClosed", err)
	}
}

// TestMemCommitPages checks the atomic batch hook: writes, root update, and
// frees apply together, frees of never-written pages are ignored, and the
// store keeps the page buffers but not the map that carried them.
func TestMemCommitPages(t *testing.T) {
	m := NewMem()
	defer m.Close()
	a, _ := m.Alloc()
	b, _ := m.Alloc()
	ghost, _ := m.Alloc() // allocated, never written, freed in the same batch
	if err := commitOne(m, a, []byte("old-a")); err != nil {
		t.Fatal(err)
	}
	writes := map[uint64][]byte{b: []byte("new-b")}
	if err := m.CommitPages(writes, b, []uint64{a, ghost}); err != nil {
		t.Fatal(err)
	}
	clear(writes) // the engine recycles the map for its next commit
	if got, err := m.ReadPage(b); err != nil || !bytes.Equal(got, []byte("new-b")) {
		t.Errorf("ReadPage(b) = (%q, %v), want new-b", got, err)
	}
	if _, err := m.ReadPage(a); !errors.Is(err, ErrNotFound) {
		t.Errorf("freed page a readable: %v", err)
	}
	if root, _ := m.Root(); root != b {
		t.Errorf("Root = %d, want %d", root, b)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestMemConcurrent(t *testing.T) {
	m := NewMem()
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id, err := m.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				if err := commitOne(m, id, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.ReadPage(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() != 800 {
		t.Errorf("Len = %d, want 800", m.Len())
	}
}
