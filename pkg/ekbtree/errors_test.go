package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestClosedTree verifies every façade method returns ErrClosed after Close.
func TestClosedTree(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC0}, 32)})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := tr.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := tr.Scan(func(_, _ []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Errorf("Scan after Close = %v, want ErrClosed", err)
	}
	if err := tr.ScanRange(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Errorf("ScanRange after Close = %v, want ErrClosed", err)
	}
	if _, err := tr.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stats after Close = %v, want ErrClosed", err)
	}
	if err := tr.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// wideSub is a valid Substituter whose output exceeds the page encoding's key
// limit, to drive ErrTooLarge through the façade.
type wideSub struct{}

func (wideSub) Substitute(key []byte) []byte { return make([]byte, node.MaxKeyLen+1) }
func (wideSub) Width() int                   { return node.MaxKeyLen + 1 }
func (wideSub) Name() string                 { return "wide" }

func TestErrTooLarge(t *testing.T) {
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, Options{Substituter: wideSub{}, Cipher: nc})
	defer tr.Close()

	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put with oversized substituted key = %v, want ErrTooLarge", err)
	}
	if _, err := tr.Delete([]byte("k")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Delete with oversized substituted key = %v, want ErrTooLarge", err)
	}
	b := tr.NewBatch()
	if err := b.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Batch.Put with oversized substituted key = %v, want ErrTooLarge", err)
	}
	b.Discard()
}

// TestOpenSentinels pins the error taxonomy of Open: ErrInvalidOptions for
// unusable Options, ErrWrongKey for an undecipherable header, and
// ErrConfigMismatch for a header written under a different configuration
// (order, substituter, or cipher scheme).
func TestOpenSentinels(t *testing.T) {
	master := bytes.Repeat([]byte{0xC2}, 32)

	for _, opts := range []Options{
		{},                              // no keys at all
		{MasterKey: []byte("short")},    // short master key
		{MasterKey: master, Order: 7},   // odd order
		{MasterKey: master, Order: 2},   // tiny order
		{MasterKey: master, Order: -10}, // negative order
	} {
		if _, err := Open(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Open(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
	}

	st := file.NewMem()
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st}); err != nil {
		t.Fatal(err)
	}

	// Wrong master key: the header does not decipher.
	if _, err := Open(Options{MasterKey: bytes.Repeat([]byte{0xC3}, 32), Store: st}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong master key = %v, want ErrWrongKey", err)
	}
	// Same cipher key, different explicit cipher scheme name: with the
	// derived AES key the header still deciphers only under the same key, so
	// a fully different cipher also reports ErrWrongKey.
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC4}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Cipher: nc, Store: st}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong cipher = %v, want ErrWrongKey", err)
	}
	// Wrong order: header deciphers but disagrees.
	if _, err := Open(Options{MasterKey: master, Order: 8, Store: st}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched order = %v, want ErrConfigMismatch", err)
	}
	// Wrong substituter (different width): header deciphers but disagrees.
	sub, err := keysub.NewHMAC(master, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st, Substituter: sub}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched substituter = %v, want ErrConfigMismatch", err)
	}
	// Matching config still opens.
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st}); err != nil {
		t.Errorf("Open with matching config failed: %v", err)
	}
}

// TestLegacyCipherHeaderFailsClosed pins what is left of the removed
// random-nonce "aes-gcm" page cipher: its headers. That scheme sealed page 0
// exactly as the epoch cipher's Seal does (raw key, random nonce), so a file
// it wrote still deciphers at Open — and must then be refused as a different
// configuration, not misreported as a wrong key and never opened under the
// other nonce discipline.
func TestLegacyCipherHeaderFailsClosed(t *testing.T) {
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC6}, 32))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xC7}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=aes-gcm", DefaultOrder, sub.Name())
	sealed, err := nc.Seal(0, []byte(header))
	if err != nil {
		t.Fatal(err)
	}
	st := file.NewMem()
	if err := st.SetMeta(sealed); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Substituter: sub, Cipher: nc, Store: st})
	if !errors.Is(err, ErrConfigMismatch) || errors.Is(err, ErrWrongKey) {
		t.Fatalf("Open over a legacy-cipher header = %v, want ErrConfigMismatch", err)
	}
}

// TestStoreClosedMapsToErrClosed verifies the store-layer taxonomy surfaces
// through the façade: operations against an externally closed store report
// ErrClosed, not an anonymous failure.
func TestStoreClosedMapsToErrClosed(t *testing.T) {
	st := file.NewMem()
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC5}, 32), Store: st, CachePages: -1})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get against closed store = %v, want ErrClosed", err)
	}
}
