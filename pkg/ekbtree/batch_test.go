package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// countingCipher wraps a NodeCipher and counts SealEpoch/Open calls, so tests
// can assert how many times pages are actually enciphered.
type countingCipher struct {
	cipher.NodeCipher
	seals atomic.Int64
	opens atomic.Int64
}

func (c *countingCipher) SealEpoch(id uint64, epoch uint32, counter uint64, pt []byte) ([]byte, error) {
	c.seals.Add(1)
	return c.NodeCipher.SealEpoch(id, epoch, counter, pt)
}

func (c *countingCipher) Open(id uint64, sealed []byte) ([]byte, error) {
	c.opens.Add(1)
	return c.NodeCipher.Open(id, sealed)
}

func countingTree(t *testing.T, opts Options) (*Tree, *countingCipher) {
	t.Helper()
	gcm, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0xB0}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingCipher{NodeCipher: gcm}
	opts.Cipher = cc
	if opts.Substituter == nil {
		sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xB1}, 32), 24)
		if err != nil {
			t.Fatal(err)
		}
		opts.Substituter = sub
	}
	return mustOpen(t, opts), cc
}

func TestBatchCommitApplies(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB2}, 32), Order: 8})
	defer tr.Close()
	if err := tr.Put([]byte("pre"), []byte("existing")); err != nil {
		t.Fatal(err)
	}

	b := tr.NewBatch()
	for i := 0; i < 200; i++ {
		if err := b.Put([]byte(fmt.Sprintf("bk%04d", i)), []byte(fmt.Sprintf("bv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Delete([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	// Later ops in the same batch win over earlier ones.
	if err := b.Put([]byte("bk0007"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete([]byte("bk0009")); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Len(), 203; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}

	// Nothing staged is visible before Commit.
	if _, ok, err := tr.Get([]byte("bk0000")); err != nil || ok {
		t.Fatalf("staged key visible before Commit: (%v, %v)", ok, err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("bk%04d", i)
		v, ok, err := tr.Get([]byte(k))
		switch {
		case err != nil:
			t.Fatal(err)
		case i == 9:
			if ok {
				t.Errorf("batch-deleted key %s still present", k)
			}
		case !ok:
			t.Errorf("batched key %s missing", k)
		case i == 7 && string(v) != "overwritten":
			t.Errorf("bk0007 = %q, want later write to win", v)
		}
	}
	if _, ok, _ := tr.Get([]byte("pre")); ok {
		t.Error("batch Delete of pre-existing key not applied")
	}
	if s, err := tr.Stats(); err != nil || s.Keys != 199 {
		t.Errorf("Stats = (%+v, %v), want 199 keys", s, err)
	}
}

// TestBatchSealCount is the acceptance check for batched writes: committing N
// puts in one batch must seal measurably fewer pages than N unbatched puts,
// because each touched page is sealed once at commit instead of once per
// mutation.
func TestBatchSealCount(t *testing.T) {
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

	unbatched, cc1 := countingTree(t, Options{Order: 8})
	defer unbatched.Close()
	start := cc1.seals.Load()
	for i := 0; i < n; i++ {
		if err := unbatched.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	unbatchedSeals := cc1.seals.Load() - start

	batched, cc2 := countingTree(t, Options{Order: 8})
	defer batched.Close()
	b := batched.NewBatch()
	for i := 0; i < n; i++ {
		if err := b.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	start = cc2.seals.Load()
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	batchedSeals := cc2.seals.Load() - start

	if unbatchedSeals < n {
		t.Fatalf("unbatched puts sealed %d pages, expected at least %d", unbatchedSeals, n)
	}
	if batchedSeals >= unbatchedSeals {
		t.Fatalf("batched commit sealed %d pages, unbatched %d — batching saved nothing", batchedSeals, unbatchedSeals)
	}
	if batchedSeals >= n {
		t.Errorf("batched commit sealed %d pages for %d puts, want fewer than one seal per put", batchedSeals, n)
	}

	// Both trees hold identical contents.
	for i := 0; i < n; i++ {
		if _, ok, err := batched.Get(key(i)); err != nil || !ok {
			t.Fatalf("batched tree missing %s: (%v, %v)", key(i), ok, err)
		}
	}
}

// TestBatchCleanPagesNotResealed is the acceptance check for per-page dirty
// tracking: a batch whose operations read pages but leave them unchanged —
// re-puts of identical values, deletes of absent keys — must encrypt and
// rewrite nothing at commit, and a mixed batch must seal only the pages its
// real mutation dirtied.
func TestBatchCleanPagesNotResealed(t *testing.T) {
	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	tr, cc := countingTree(t, Options{Order: 8})
	defer tr.Close()
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}

	// Pure no-op batch: identical re-puts plus deletes of absent keys.
	b := tr.NewBatch()
	for i := 0; i < n; i += 4 {
		if err := b.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := b.Delete([]byte(fmt.Sprintf("absent%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	start := cc.seals.Load()
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if sealed := cc.seals.Load() - start; sealed != 0 {
		t.Fatalf("no-op batch sealed %d pages, want 0", sealed)
	}

	// Mixed batch: many clean reads, one real mutation. Only the mutated
	// leaf (and any rebalance it causes) may be sealed — far fewer pages
	// than the batch touched.
	b2 := tr.NewBatch()
	for i := 0; i < n; i += 2 {
		if err := b2.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b2.Put(key(3), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	start = cc.seals.Load()
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	sealed := cc.seals.Load() - start
	if sealed == 0 {
		t.Fatal("mixed batch sealed nothing; the real mutation was lost")
	}
	if sealed > 4 {
		t.Fatalf("mixed batch sealed %d pages; clean pages are being re-sealed", sealed)
	}
	if v, ok, err := tr.Get(key(3)); err != nil || !ok || string(v) != "changed" {
		t.Fatalf("mutation lost: Get = (%q, %v, %v)", v, ok, err)
	}
	if v, ok, err := tr.Get(key(100)); err != nil || !ok || string(v) != "value" {
		t.Fatalf("clean key damaged: Get = (%q, %v, %v)", v, ok, err)
	}
}

// TestSingleNoOpPutSkipsCommit pins the same property outside batches: a Put
// of the value already stored must not seal or commit anything — on a
// durable backend that is two fsyncs saved.
func TestSingleNoOpPutSkipsCommit(t *testing.T) {
	tr, cc := countingTree(t, Options{Order: 8})
	defer tr.Close()
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := cc.seals.Load()
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if sealed := cc.seals.Load() - start; sealed != 0 {
		t.Fatalf("identical re-put sealed %d pages, want 0", sealed)
	}
	if err := tr.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tr.Get([]byte("k")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("real overwrite lost: (%q, %v, %v)", v, ok, err)
	}
}

// TestCacheServesGets asserts the decoded-node cache short-circuits repeated
// reads: after a Get warms the path, further Gets of the same key decipher
// nothing, while a cache-disabled tree deciphers on every Get.
func TestCacheServesGets(t *testing.T) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		cachePages := 0
		if !cached {
			name, cachePages = "disabled", -1
		}
		t.Run(name, func(t *testing.T) {
			tr, cc := countingTree(t, Options{Order: 8, CachePages: cachePages})
			defer tr.Close()
			for i := 0; i < 500; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok, err := tr.Get([]byte("k0123")); err != nil || !ok {
				t.Fatalf("warmup Get = (%v, %v)", ok, err)
			}
			before := cc.opens.Load()
			for i := 0; i < 10; i++ {
				if _, ok, err := tr.Get([]byte("k0123")); err != nil || !ok {
					t.Fatalf("Get = (%v, %v)", ok, err)
				}
			}
			opens := cc.opens.Load() - before
			if cached && opens != 0 {
				t.Errorf("cached tree deciphered %d pages on repeated Gets, want 0", opens)
			}
			if !cached && opens == 0 {
				t.Error("cache-disabled tree deciphered nothing on repeated Gets")
			}
		})
	}
}

func TestBatchSpentAndDiscard(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB3}, 32)})
	defer tr.Close()

	b := tr.NewBatch()
	if err := b.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	b.Discard()
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Error("discarded batch applied")
	}
	if !errors.Is(b.Put([]byte("k"), []byte("v")), ErrClosed) {
		t.Error("Put on discarded batch did not return ErrClosed")
	}
	if !errors.Is(b.Commit(), ErrClosed) {
		t.Error("Commit on discarded batch did not return ErrClosed")
	}

	b2 := tr.NewBatch()
	if err := b2.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(b2.Commit(), ErrClosed) {
		t.Error("second Commit did not return ErrClosed")
	}
	if !errors.Is(b2.Delete([]byte("k2")), ErrClosed) {
		t.Error("Delete on committed batch did not return ErrClosed")
	}
	if v, ok, err := tr.Get([]byte("k2")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("committed batch not applied: (%q, %v, %v)", v, ok, err)
	}
}

// TestBatchCommitThenReopen commits a batch into a shared store, reopens the
// store through a fresh Tree, and iterates it with a cursor — the
// reopen-through-the-new-API satellite.
func TestBatchCommitThenReopen(t *testing.T) {
	master := bytes.Repeat([]byte{0xB4}, 32)
	st := file.NewMem()
	tr := mustOpen(t, Options{MasterKey: master, Order: 8, Store: st})

	b := tr.NewBatch()
	const n = 150
	for i := 0; i < n; i++ {
		if err := b.Put([]byte(fmt.Sprintf("persist%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Do not Close: that would close the shared store. Drop the handle and
	// reopen the same store.
	tr2 := mustOpen(t, Options{MasterKey: master, Order: 8, Store: st})
	defer tr2.Close()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("persist%04d", i))
		if v, ok, err := tr2.Get(k); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(%s) = (%q, %v, %v)", k, v, ok, err)
		}
	}
	c := tr2.Cursor()
	defer c.Close()
	count := 0
	for ok := c.First(); ok; ok = c.Next() {
		count++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("cursor over reopened tree visited %d entries, want %d", count, n)
	}
}

func TestBatchOnClosedTree(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB5}, 32)})
	b := tr.NewBatch()
	if err := b.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(b.Commit(), ErrClosed) {
		t.Error("Commit on closed tree did not return ErrClosed")
	}
}

// TestBatchWithDeletesAndMerges drives a batch that shrinks the tree enough
// to trigger merges and root collapses while staged, then verifies structure
// and contents after commit.
func TestBatchWithDeletesAndMerges(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB6}, 32), Order: 4})
	defer tr.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	b := tr.NewBatch()
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			if err := b.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	s, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Keys != n/10 {
		t.Fatalf("Stats.Keys = %d, want %d", s.Keys, n/10)
	}
	for i := 0; i < n; i++ {
		_, ok, err := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%10 == 0; ok != want {
			t.Fatalf("after batch deletes, key %d present = %v, want %v", i, ok, want)
		}
	}
}
