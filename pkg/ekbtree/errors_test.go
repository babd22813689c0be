package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
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
	if c := tr.CursorRange(nil, nil); c.First() || !errors.Is(c.Err(), ErrClosed) {
		t.Errorf("CursorRange after Close: First found an entry or Err = %v, want ErrClosed", c.Err())
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

// lyingSub is a Substituter whose keys are as long as the plaintext keys,
// whatever Width says; width -1 is what one of varying width would report.
type lyingSub struct{ width int }

func (s lyingSub) Substitute(key []byte) []byte { return bytes.Clone(key) }
func (s lyingSub) Width() int                   { return s.width }
func (s lyingSub) Name() string                 { return "lying" }

// TestSubstituterMustHaveFixedWidth: node pages hold keys of one width, so
// Open refuses a substituter whose Width is not positive, and a write whose
// substituted key is not Width bytes fails before it stages anything, with
// ErrInvalidOptions both times, instead of a commit failing at its encode.
func TestSubstituterMustHaveFixedWidth(t *testing.T) {
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0} {
		if _, err := Open(Options{Substituter: lyingSub{w}, Cipher: nc}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Open with a substituter of width %d = %v, want ErrInvalidOptions", w, err)
		}
	}
	tr := mustOpen(t, Options{Substituter: lyingSub{4}, Cipher: nc})
	defer tr.Close()
	if err := tr.Put([]byte("four"), []byte("v")); err != nil {
		t.Fatalf("Put of a 4-byte key under width 4 = %v", err)
	}
	if err := tr.Put([]byte("three"), []byte("v")); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Put of a 5-byte key under width 4 = %v, want ErrInvalidOptions", err)
	}
	if _, err := tr.Delete([]byte("abc")); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Delete of a 3-byte key under width 4 = %v, want ErrInvalidOptions", err)
	}
	b := tr.NewBatch()
	if err := b.Put([]byte("fives"), []byte("v")); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Batch.Put of a 5-byte key under width 4 = %v, want ErrInvalidOptions", err)
	}
	b.Discard()
	if v, ok, err := tr.Get([]byte("four")); err != nil || !ok || string(v) != "v" {
		t.Errorf("Get(four) = (%q, %v, %v), want the value put", v, ok, err)
	}
}

// hugeOverhead is a page cipher that, once armed, reports a ciphertext
// overhead that puts every sealed page past 4 GiB, so the page-size limit can
// be driven without allocating a 4 GiB value.
type hugeOverhead struct {
	NodeCipher
	armed atomic.Bool
}

func (c *hugeOverhead) Overhead() int {
	if c.armed.Load() {
		return math.MaxUint32
	}
	return c.NodeCipher.Overhead()
}

// TestPageOver4GiBIsRefused pins the engine's half of the page-size limit: a
// value up to node.MaxValueLen passes checkValueSize, but a page that would
// seal to more than 4 GiB fits no page store extent, so the seal refuses it
// with ErrTooLarge, whether the commit seals inline (a Put, a Delete) or on
// the parallel workers (a batch dirtying dozens of leaves). The transaction
// aborts before validation: nothing it staged becomes visible, no commit is
// counted, and the tree keeps taking writes — a large batch included.
func TestPageOver4GiBIsRefused(t *testing.T) {
	inner, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC8}, 32))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xC9}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	nc := &hugeOverhead{NodeCipher: inner}
	tr := mustOpen(t, Options{Substituter: sub, Cipher: nc})
	defer tr.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	overwrite := func() error {
		b := tr.NewBatch()
		for i := range 200 {
			if err := b.Put(key(i), []byte("w")); err != nil {
				t.Fatal(err)
			}
		}
		return b.Commit()
	}
	b := tr.NewBatch()
	for i := range 1000 {
		if err := b.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	before, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}

	nc.armed.Store(true)
	if err := tr.Put(key(1000), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put sealing a page past 4 GiB = %v, want ErrTooLarge", err)
	}
	if _, err := tr.Delete(key(0)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Delete sealing a page past 4 GiB = %v, want ErrTooLarge", err)
	}
	if err := overwrite(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Batch.Commit sealing pages past 4 GiB = %v, want ErrTooLarge", err)
	}
	nc.armed.Store(false)

	if st, err := tr.Stats(); err != nil || st.Keys != 1000 || st.Commits != before.Commits {
		t.Errorf("Stats after the refused commits = (%d keys, %d commits, %v), want 1000 and %d", st.Keys, st.Commits, err, before.Commits)
	}
	for _, i := range []int{0, 5, 199, 1000} {
		v, ok, err := tr.Get(key(i))
		if want := i < 1000; err != nil || ok != want || want && string(v) != "v" {
			t.Errorf("Get(%s) = (%q, %v, %v) after the refused commits, want v: %v", key(i), v, ok, err, want)
		}
	}
	if err := overwrite(); err != nil {
		t.Fatalf("Batch.Commit after the refused commits = %v, want the tree still writable", err)
	}
	if err := tr.Put(key(1000), []byte("v")); err != nil {
		t.Fatalf("Put after the refused commits = %v", err)
	}
	for _, i := range []int{0, 199, 200, 1000} {
		want := map[bool]string{true: "w", false: "v"}[i < 200]
		if v, ok, err := tr.Get(key(i)); err != nil || !ok || string(v) != want {
			t.Errorf("Get(%s) = (%q, %v, %v), want %q", key(i), v, ok, err, want)
		}
	}
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
		{MasterKey: master, order: 7},   // odd order
		{MasterKey: master, order: 2},   // tiny order
		{MasterKey: master, order: -10}, // negative order
	} {
		if _, err := Open(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Open(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
	}

	st := file.NewMem()
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st}); err != nil {
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
	// Wrong substituter (different width): header deciphers but disagrees.
	sub, err := keysub.NewHMAC(master, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st, Substituter: sub}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched substituter = %v, want ErrConfigMismatch", err)
	}
	// Matching config still opens.
	if _, err := Open(Options{MasterKey: master, order: 32, Store: st}); err != nil {
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
