package engine

import (
	"errors"
	"fmt"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// newEpochEngine builds an engine over the given store with an epoch AES-GCM
// cipher and the given lifecycle knobs.
func newEpochEngine(t *testing.T, st store.PageStore, budget, hard uint64, onAdvance func(uint32)) *Engine {
	t.Helper()
	ec, err := cipher.NewEpochAESGCM(make([]byte, 32))
	if err != nil {
		t.Fatalf("NewEpochAESGCM: %v", err)
	}
	return newCipherEngine(t, ec, st, budget, hard, onAdvance)
}

func newCipherEngine(t *testing.T, nc cipher.NodeCipher, st store.PageStore, budget, hard uint64, onAdvance func(uint32)) *Engine {
	t.Helper()
	g, err := New(Config{
		Store: st, Cipher: nc, Order: 8, CachePages: DefaultCachePages,
		SealBudget: budget, HardSealLimit: hard, OnEpochAdvance: onAdvance,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func epochPut(t *testing.T, g *Engine, k, v string) {
	t.Helper()
	if err := g.Apply(func(bt *btree.Tree) error {
		return bt.Put([]byte(k), []byte(v))
	}); err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
}

func TestEpochEngineRoundTrip(t *testing.T) {
	st := file.NewMem()
	g := newEpochEngine(t, st, 0, 0, nil)
	defer g.Close()
	for i := 0; i < 200; i++ {
		epochPut(t, g, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	for i := 0; i < 200; i++ {
		v, ok, err := g.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok {
			t.Fatalf("Get(key-%04d): ok=%v err=%v", i, ok, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(key-%04d) = %q", i, v)
		}
	}
	epoch, seals := g.SealState()
	if epoch != 0 || seals == 0 {
		t.Fatalf("SealState = (%d, %d), want epoch 0 with seals issued", epoch, seals)
	}
}

func TestSealMarkOutrunsIssuedCounters(t *testing.T) {
	st := file.NewMem()
	g := newEpochEngine(t, st, 0, 0, nil)
	defer g.Close()
	for i := 0; i < 50; i++ {
		epochPut(t, g, fmt.Sprintf("k%02d", i), "v")
	}
	mark, err := st.SealMark()
	if err != nil {
		t.Fatalf("SealMark: %v", err)
	}
	_, seals := g.SealState()
	if mark.Counter < seals {
		t.Fatalf("durable mark %d behind issued counters %d — crash could reissue nonces",
			mark.Counter, seals)
	}
}

// TestBudgetAdvancesEpochAndRotateDrains runs over the real cipher and over
// the null one: cipher.Plaintext takes the same allocator and rotator path,
// not a private one.
func TestBudgetAdvancesEpochAndRotateDrains(t *testing.T) {
	t.Run("aes-gcm-ctr", func(t *testing.T) {
		ec, err := cipher.NewEpochAESGCM(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		testBudgetAdvancesEpochAndRotateDrains(t, ec)
	})
	t.Run("plaintext", func(t *testing.T) { testBudgetAdvancesEpochAndRotateDrains(t, cipher.Plaintext{}) })
}

func testBudgetAdvancesEpochAndRotateDrains(t *testing.T, nc cipher.NodeCipher) {
	st := file.NewMem()
	var advances []uint32
	g := newCipherEngine(t, nc, st, 32, 0, func(e uint32) { advances = append(advances, e) })
	defer g.Close()
	// Enough single-key commits to issue well past the 32-seal budget.
	for i := 0; i < 64; i++ {
		epochPut(t, g, fmt.Sprintf("key-%04d", i), "v")
	}
	epoch, _ := g.SealState()
	if epoch == 0 {
		t.Fatalf("epoch never advanced past budget")
	}
	if len(advances) == 0 || advances[len(advances)-1] != epoch {
		t.Fatalf("OnEpochAdvance fired %v, current epoch %d", advances, epoch)
	}
	pending, err := g.PendingReseal()
	if err != nil {
		t.Fatalf("PendingReseal: %v", err)
	}
	if pending == 0 {
		t.Fatalf("expected stale pages pending re-seal after epoch advance")
	}
	// Drain: Rotate until a sweep comes back clean.
	for i := 0; ; i++ {
		done, err := g.Rotate()
		if err != nil {
			t.Fatalf("Rotate: %v", err)
		}
		if done {
			break
		}
		if i > 100 {
			t.Fatalf("rotation never converged")
		}
	}
	pending, err = g.PendingReseal()
	if err != nil {
		t.Fatalf("PendingReseal after rotation: %v", err)
	}
	if pending != 0 {
		t.Fatalf("PendingReseal = %d after full rotation, want 0", pending)
	}
	// Data survives rotation intact.
	for i := 0; i < 64; i++ {
		if _, ok, err := g.Get([]byte(fmt.Sprintf("key-%04d", i))); err != nil || !ok {
			t.Fatalf("Get(key-%04d) after rotation: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestHardBoundFailsClosed(t *testing.T) {
	st := file.NewMem()
	// Rotation disabled (budget 0) with a tiny hard limit: writes must fail
	// closed with ErrSealsExhausted once the counter is spent.
	g := newEpochEngine(t, st, 0, 8, nil)
	defer g.Close()
	var lastErr error
	for i := 0; i < 64; i++ {
		lastErr = g.Apply(func(bt *btree.Tree) error {
			return bt.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
		})
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrSealsExhausted) {
		t.Fatalf("want ErrSealsExhausted, got %v", lastErr)
	}
	// Reads keep working after the write path fails closed.
	if _, _, err := g.Get([]byte("key-0000")); err != nil {
		t.Fatalf("Get after exhaustion: %v", err)
	}
}

func TestAdvanceEpochForcesRotationTarget(t *testing.T) {
	st := file.NewMem()
	g := newEpochEngine(t, st, 0, 0, nil)
	defer g.Close()
	for i := 0; i < 20; i++ {
		epochPut(t, g, fmt.Sprintf("k%02d", i), "v")
	}
	if err := g.AdvanceEpoch(); err != nil {
		t.Fatalf("AdvanceEpoch: %v", err)
	}
	epoch, seals := g.SealState()
	if epoch != 1 || seals != 0 {
		t.Fatalf("SealState after AdvanceEpoch = (%d, %d), want (1, 0)", epoch, seals)
	}
	pending, err := g.PendingReseal()
	if err != nil {
		t.Fatalf("PendingReseal: %v", err)
	}
	if pending == 0 {
		t.Fatalf("no pages pending re-seal after forced advance")
	}
	for round := 0; ; round++ {
		done, err := g.Rotate()
		if err != nil {
			t.Fatalf("Rotate: %v", err)
		}
		if done {
			break
		}
		if round == 10 { // a quiet tree converges in two
			t.Fatal("rotation found stale pages after 10 re-seal sweeps")
		}
	}
	if pending, _ = g.PendingReseal(); pending != 0 {
		t.Fatalf("PendingReseal = %d after rotation", pending)
	}
}

func TestCounterMonotonicAcrossReopen(t *testing.T) {
	st := file.NewMem()
	g := newEpochEngine(t, st, 0, 0, nil)
	for i := 0; i < 10; i++ {
		epochPut(t, g, fmt.Sprintf("k%02d", i), "v")
	}
	markBefore, err := st.SealMark()
	if err != nil {
		t.Fatalf("SealMark: %v", err)
	}
	// Simulate reopen without Close (fail-stop): a second engine over the same
	// store must resume issuance at or past the durable mark.
	g2 := newEpochEngine(t, st, 0, 0, nil)
	defer g2.Close()
	if g2.sa.next < markBefore.Counter {
		t.Fatalf("reopened allocator resumes at %d, below durable mark %d",
			g2.sa.next, markBefore.Counter)
	}
}

// TestTamperedPageFailsClosed: a page that fails authentication must come
// back from the shared read path as an error and nothing else — no node, and
// no cache entry a later reader could be served from — now that Open
// deciphers over the very buffer the store handed out.
func TestTamperedPageFailsClosed(t *testing.T) {
	st := file.NewMem()
	g := newEpochEngine(t, st, 0, 0, nil)
	defer g.Close()
	for i := 0; i < 200; i++ {
		epochPut(t, g, fmt.Sprintf("key-%04d", i), "v")
	}
	root, err := st.Root()
	if err != nil {
		t.Fatal(err)
	}
	page, err := st.ReadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	page[len(page)/2] ^= 0x01
	if err := st.CommitPages(map[uint64][]byte{root: page}, root, nil); err != nil {
		t.Fatal(err)
	}
	g.io.invalidate()

	for attempt := 0; attempt < 2; attempt++ {
		n, err := g.io.ReadShared(root)
		if n != nil || !errors.Is(err, cipher.ErrOpen) {
			t.Fatalf("ReadShared(tampered root) = (%v, %v), want (nil, ErrOpen)", n, err)
		}
		if pages := g.io.cacheStats().Pages; pages != 0 {
			t.Fatalf("cache holds %d pages after a rejected read", pages)
		}
	}
	if _, _, err := g.Get([]byte("key-0000")); err == nil {
		t.Fatal("Get through a tampered root succeeded")
	}
}

// TestStaleScanAfterInPlaceOpens: the rotator's stale scan reads each page's
// key epoch from its view, never from the store. Cold, every view is built
// by a read miss, which takes the epoch from the nonce prefix before it
// deciphers the page in place; warm, the scan is served from the cache, whose
// views the commits that sealed the pages built. Either way the scan must
// count every page once the epoch advances, and none once rotation has
// re-sealed them all, and it reads a page from the store only on a miss.
func TestStaleScanAfterInPlaceOpens(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(t *testing.T) {
			g := newEpochEngine(t, file.NewMem(), 0, 0, nil)
			defer g.Close()
			for i := 0; i < 200; i++ {
				epochPut(t, g, fmt.Sprintf("key-%04d", i), "v")
			}
			stats, err := g.Stats() // every page read once
			if err != nil {
				t.Fatal(err)
			}
			scan := func(want int) {
				t.Helper()
				if !warm {
					g.io.invalidate()
				}
				misses := g.io.cacheStats().Misses
				stale, err := g.staleScan(g.sa.currentEpoch())
				if err != nil || len(stale) != want {
					t.Fatalf("staleScan = (%d pages, %v), want %d of the %d pages", len(stale), err, want, stats.Nodes)
				}
				wantMisses := uint64(stats.Nodes)
				if warm {
					wantMisses = 0
				}
				if got := g.io.cacheStats().Misses - misses; got != wantMisses {
					t.Fatalf("the scan missed %d times, want %d", got, wantMisses)
				}
			}
			if err := g.AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
			scan(stats.Nodes)
			for round := 0; ; round++ {
				done, err := g.Rotate()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				if round == 10 { // a quiet tree converges in two
					t.Fatal("rotation found stale pages after 10 re-seal sweeps")
				}
			}
			scan(0)
			if err := g.AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
			if pending, err := g.PendingReseal(); err != nil || pending != stats.Nodes {
				t.Fatalf("PendingReseal = (%d, %v), want every one of the %d pages", pending, err, stats.Nodes)
			}
		})
	}
}
