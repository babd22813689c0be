package ekbtree

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB2}, 32), order: 8})
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

	unbatched, cc1 := countingTree(t, Options{order: 8})
	defer unbatched.Close()
	start := cc1.seals.Load()
	for i := 0; i < n; i++ {
		if err := unbatched.Put(key(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	unbatchedSeals := cc1.seals.Load() - start

	batched, cc2 := countingTree(t, Options{order: 8})
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
	tr, cc := countingTree(t, Options{order: 8})
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
	tr, cc := countingTree(t, Options{order: 8})
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
			tr, cc := countingTree(t, Options{order: 8, CachePages: cachePages})
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
	tr := mustOpen(t, Options{MasterKey: master, order: 8, Store: st})

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
	tr2 := mustOpen(t, Options{MasterKey: master, order: 8, Store: st})
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
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB6}, 32), order: 4})
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

// TestBatchSlabOwnership pins the ownership rules of the slab staged values
// live in (see Batch), at the default order, where the tree's node copies are
// one allocation each, and at order 64, where a full node's copy falls back
// to separate arrays:
//   - a caller rewriting its value buffer between Put and Commit changes
//     nothing that commits;
//   - every key and value a cursor hands out after a cached commit is clipped
//     (cap == len), so an append to one lands in a fresh array, never on a
//     neighbour — also after a later batch Edits the leaves holding them, and
//     in a cursor that reads them while that batch commits;
//   - Commit and Discard drop the slab and the ops, so a spent Batch pins
//     nothing.
func TestBatchSlabOwnership(t *testing.T) {
	for _, order := range []int{DefaultOrder, 64} {
		t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
			tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xB9}, 32), order: order, CachePages: 1 << 14})
			defer tr.Close()
			const n = 3000
			want := make(map[string][]byte, n)
			buf := make([]byte, 0, 2*slabChunk)
			// value is key i's value in generation gen, written into the
			// caller's one buffer; lengths vary, and one value in 500 is larger
			// than a slab chunk.
			value := func(i, gen int) []byte {
				buf = fmt.Appendf(buf[:0], "v%d-%d-", i, gen)
				pad := i % 41
				if i%500 == 7 {
					pad = slabChunk + 100
				}
				for range pad {
					buf = append(buf, byte('a'+i%26))
				}
				return buf
			}
			stage := func(b *Batch, gen int, keep func(i int) bool) {
				for i := range n {
					k := fmt.Sprintf("k%05d", i)
					var err error
					switch {
					case keep(i):
						continue
					case gen > 0 && i%7 == 0:
						delete(want, k)
						err = b.Delete([]byte(k))
					default:
						v := value(i, gen)
						want[k] = bytes.Clone(v)
						err = b.Put([]byte(k), v)
						for j := range buf { // the caller reuses its buffer at once
							buf[j] = 0xEE
						}
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			// check walks a cursor, holding every key and value to cap == len and
			// appending to each, then reads every key back.
			check := func(c *Cursor, when string) {
				seen := 0
				for ok := c.First(); ok; ok = c.Next() {
					k, v := c.Key(), c.Value()
					if cap(k) != len(k) || cap(v) != len(v) {
						t.Errorf("%s: entry %d has key cap %d len %d, value cap %d len %d", when, seen, cap(k), len(k), cap(v), len(v))
					}
					_, _ = append(k, 0xAA), append(v, 0xAA)
					seen++
				}
				if err := c.Err(); err != nil {
					t.Fatal(err)
				}
				c.Close()
				if seen != len(want) {
					t.Errorf("%s: cursor read %d entries, want %d", when, seen, len(want))
				}
				for k, w := range want {
					if v, ok, err := tr.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, w) {
						t.Fatalf("%s: Get(%s) = (%.20q, %v, %v), want %.20q", when, k, v, ok, err, w)
					}
				}
			}

			b := tr.NewBatch()
			stage(b, 0, func(int) bool { return false })
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if b.slab != nil || b.ops != nil {
				t.Errorf("a committed batch still holds %d slab bytes and %d ops", cap(b.slab), len(b.ops))
			}
			check(tr.Cursor(), "after the first commit")

			// A second batch rewrites a third of the keys and deletes every
			// seventh: the leaves holding the rest are Edited, their slab values
			// carried into the copies. A cursor pinned before it reads the old
			// version while it commits.
			old, before := tr.Cursor(), len(want)
			b = tr.NewBatch()
			stage(b, 1, func(i int) bool { return i%3 != 0 && i%7 != 0 })
			done := make(chan struct{})
			go func() {
				defer close(done)
				seen := 0
				for ok := old.First(); ok; ok = old.Next() {
					if k, v := old.Key(), old.Value(); cap(k) != len(k) || cap(v) != len(v) {
						t.Errorf("pinned cursor: entry %d is not clipped", seen)
					}
					seen++
				}
				if err := old.Err(); err != nil || seen != before {
					t.Errorf("pinned cursor read %d entries (%v), want %d", seen, err, before)
				}
				old.Close()
			}()
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			<-done
			check(tr.Cursor(), "after the second commit")

			kept := maps.Clone(want)
			d := tr.NewBatch()
			stage(d, 2, func(i int) bool { return i%5 != 0 })
			d.Discard()
			if d.slab != nil || d.ops != nil {
				t.Errorf("a discarded batch still holds %d slab bytes and %d ops", cap(d.slab), len(d.ops))
			}
			want = kept
			check(tr.Cursor(), "after a discard")
		})
	}
}

// refuseOnce is a NodeCipher that refuses one seal once armed, which fails
// the transaction sealing it before it reaches the store.
type refuseOnce struct {
	cipher.NodeCipher
	armed atomic.Bool
}

var errSealRefused = errors.New("seal refused")

func (c *refuseOnce) SealEpoch(id uint64, epoch uint32, counter uint64, pt []byte) ([]byte, error) {
	if c.armed.CompareAndSwap(true, false) {
		return nil, errSealRefused
	}
	return c.NodeCipher.SealEpoch(id, epoch, counter, pt)
}

// gatedStore is a PageStore whose next CommitPages, once a gate is set,
// reports that it entered and waits for the gate to close: the commit holds
// the write turn meanwhile, so writers queue behind it.
type gatedStore struct {
	PageStore
	gate    atomic.Pointer[chan struct{}]
	entered chan struct{}
}

func (s *gatedStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if g := s.gate.Swap(nil); g != nil {
		s.entered <- struct{}{}
		<-*g
	}
	return s.PageStore.CommitPages(writes, root, frees)
}

// queuedWriters counts the goroutines queued for an engine's write turn: those
// whose innermost frame outside the runtime is the engine's applyTxn, waiting
// on a channel to be handed a transaction or the turn.
func queuedWriters() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		hdr, body, _ := bytes.Cut(g, []byte("\n"))
		if !bytes.Contains(hdr, []byte("[chan receive")) {
			continue
		}
		for _, frame := range bytes.Split(body, []byte("\n")) {
			if bytes.HasPrefix(frame, []byte("runtime.")) || bytes.HasPrefix(frame, []byte("\t")) {
				continue
			}
			if bytes.Contains(frame, []byte("engine.(*Engine).applyTxn(")) {
				n++
			}
			break
		}
	}
	return n
}

// TestRecycledSlabIsUnreachable holds a Batch to when its slab and op slice go
// back to the tree: once Commit or Discard returns, after any replay, and not
// before. A Cursor and an engine Snapshot opened over a populated tree are
// held across 150 later batches, the cursor read half before and half after
// them, and both must read exactly the contents they pinned.
// Each round also parks one batch's commit in the store while three more
// batches queue behind it, and refuses the next seal: the turn holder after
// it seals all three as one transaction, the refusal fails that transaction
// before the store, and each batch is applied again alone from its staged ops.
// A batch that recycled its scratch before the replay would replay cleared
// ops, and under the race detector the recycled chunks are overwritten with a
// fixed pattern, so any reader left holding one races with the overwrite.
// Every value names its key and generation, so a torn or stale read shows.
func TestRecycledSlabIsUnreachable(t *testing.T) {
	gcm, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0xBA}, 32))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xBB}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	nc := &refuseOnce{NodeCipher: gcm}
	st := &gatedStore{PageStore: NewMemStore(), entered: make(chan struct{})}
	tr := mustOpen(t, Options{Store: st, Cipher: nc, Substituter: sub, CachePages: 1 << 12})
	defer tr.Close()

	const keys, rounds = 2000, 30 // five batches a round
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	value := func(i, gen int) []byte {
		v := fmt.Appendf(nil, "k%05d/g%d/", i, gen)
		return append(v, bytes.Repeat([]byte{byte('a' + (i+gen)%26)}, (i*7+gen)%90)...)
	}
	model := make(map[string]string, keys) // value by key
	// stage fills a batch with 64 ops over the keys of one residue class, so
	// batches of different classes commit in any order to the same result.
	stage := func(class, gen int) *Batch {
		b := tr.NewBatch()
		for j := range 64 {
			i := (gen*97+j*4)%keys/4*4 + class
			k := key(i)
			if (i+gen)%9 == 0 {
				if err := b.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
				continue
			}
			v := value(i, gen)
			if err := b.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		}
		return b
	}
	for gen := range 8 {
		for class := range 4 {
			if err := stage(class, gen*4+class).Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pinned := maps.Clone(model)

	cur := tr.Cursor()
	defer cur.Close()
	snap, err := tr.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	read := make(map[string]string, len(pinned))
	// take records the cursor's entry; every value starts with its key.
	take := func(v []byte) {
		k, _, ok := bytes.Cut(v, []byte("/"))
		if !ok {
			t.Fatalf("the pinned cursor reads value %.24q", v)
		}
		if _, dup := read[string(k)]; dup {
			t.Fatalf("the pinned cursor reads %s twice", k)
		}
		read[string(k)] = string(v)
	}
	ok := cur.First()
	for ; ok && len(read) < len(pinned)/2; ok = cur.Next() {
		take(cur.Value())
	}

	gen := 100
	for range rounds {
		// A plain batch, which takes the scratch the last one gave back.
		if err := stage(gen%4, gen).Commit(); err != nil {
			t.Fatal(err)
		}
		gen++
		// One batch parks in CommitPages holding the turn; three more queue.
		gate := make(chan struct{})
		st.gate.Store(&gate)
		lead := stage(0, gen)
		leadErr := make(chan error, 1)
		go func() { leadErr <- lead.Commit() }()
		<-st.entered
		queued := []*Batch{stage(1, gen+1), stage(2, gen+2), stage(3, gen+3)}
		errs := make([]error, len(queued))
		var wg sync.WaitGroup
		for i, b := range queued {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = b.Commit()
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); queuedWriters() < len(queued); {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d batches queued for the write turn", queuedWriters(), len(queued))
			}
			runtime.Gosched()
		}
		nc.armed.Store(true)
		close(gate)
		if err := <-leadErr; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// The refusal failed the three batches' one transaction, and each
		// was applied again alone: no batch saw it.
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if nc.armed.Load() {
			t.Fatal("no seal met the refusal")
		}
		gen += 4
	}

	for ; ok; ok = cur.Next() {
		take(cur.Value())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(read, pinned) {
		t.Errorf("the cursor pinned before the batches read %d entries, not the %d it pinned", len(read), len(pinned))
	}
	it := snap.Iter(nil)
	it.Seek(nil)
	n := 0
	for _, v, ok := it.Next(); ok; _, v, ok = it.Next() {
		k, _, _ := bytes.Cut(v, []byte("/"))
		if pinned[string(k)] != string(v) {
			t.Fatalf("the pinned snapshot reads %.24q for %s, want %.24q", v, k, pinned[string(k)])
		}
		n++
	}
	if err := it.Err(); err != nil || n != len(pinned) {
		t.Fatalf("the pinned snapshot reads %d entries (%v), want %d", n, err, len(pinned))
	}
	for i := range keys {
		k := key(i)
		v, ok, err := tr.Get(k)
		want, live := model[string(k)]
		if err != nil || ok != live || string(v) != want {
			t.Fatalf("Get(%s) = (%.24q, %v, %v), want %.24q", k, v, ok, err, want)
		}
	}
}
