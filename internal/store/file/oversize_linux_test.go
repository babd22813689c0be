package file

import (
	"errors"
	"math"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
)

// TestCommitPagesRefusesPagesOver4GiB pins the store's half of the page-size
// limit: an extent's length is 32-bit, so a page of more than 4 GiB is refused
// before anything of its commit is applied, never flushed with a wrapped
// length over whatever follows it. The page is 4 GiB + 1 bytes of address
// space mapped with no access, which costs no memory: the store must refuse it
// without reading any of it (a read fails, it does not fault pages in). The
// refusal leaves the store writable.
func TestCommitPagesRefusesPagesOver4GiB(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, math.MaxUint32+1, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot map 4 GiB of address space: %v", err)
	}
	defer syscall.Munmap(huge)
	path := filepath.Join(t.TempDir(), "big.ekb")
	s, err := OpenConfig(path, Config{Durability: Full})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	var a, b uint64
	for _, id := range []*uint64{&a, &b} {
		if *id, err = s.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CommitPages(map[uint64][]byte{a: []byte("page-a")}, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPages(map[uint64][]byte{a: []byte("page-a2"), b: huge}, b, nil); err == nil {
		t.Fatal("CommitPages took a page of 4 GiB + 1 bytes")
	}
	check := func(when string, root uint64, pages map[uint64]string) {
		t.Helper()
		if got, err := s.Root(); err != nil || got != root {
			t.Errorf("%s: Root = (%d, %v), want %d", when, got, err, root)
		}
		for id, want := range pages {
			got, err := s.ReadPage(id)
			if want == "" {
				if !errors.Is(err, store.ErrNotFound) {
					t.Errorf("%s: ReadPage(%d) = (%q, %v), want ErrNotFound", when, id, got, err)
				}
			} else if err != nil || string(got) != want {
				t.Errorf("%s: ReadPage(%d) = (%q, %v), want %q", when, id, got, err, want)
			}
		}
	}
	check("after the refusal", a, map[uint64]string{a: "page-a", b: ""})
	if err := s.CommitPages(map[uint64][]byte{b: []byte("page-b")}, b, nil); err != nil {
		t.Fatalf("CommitPages after the refusal = %v, want the store still writable", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenConfig(path, Config{}); err != nil {
		t.Fatal(err)
	}
	check("reopened", b, map[uint64]string{a: "page-a", b: "page-b"})
}
