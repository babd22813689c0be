package ekbtree

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/cipher"
)

// nonceRecorder wraps the epoch cipher and records every (epoch, counter)
// nonce it is asked to seal with, across every tree generation that shares
// the recorder. Counter-derived nonces are only safe if no pair is EVER
// reissued — not within one process, not across a clean close, not across a
// crash — so a single duplicate anywhere in a test's whole multi-generation
// history is a finding. (Page 0 goes through the random-nonce
// header path in Seal and is deliberately outside the counter scheme.)
type nonceRecorder struct {
	inner *cipher.EpochAESGCM

	mu   sync.Mutex
	seen map[[12]byte]struct{}
	dups []string
}

func newNonceRecorder(t *testing.T, key []byte) *nonceRecorder {
	t.Helper()
	inner, err := cipher.NewEpochAESGCM(key)
	if err != nil {
		t.Fatal(err)
	}
	return &nonceRecorder{inner: inner, seen: make(map[[12]byte]struct{})}
}

func (r *nonceRecorder) SealEpoch(pageID uint64, epoch uint32, counter uint64, pt []byte) ([]byte, error) {
	var nonce [12]byte
	nonce[0] = byte(epoch >> 24)
	nonce[1] = byte(epoch >> 16)
	nonce[2] = byte(epoch >> 8)
	nonce[3] = byte(epoch)
	for i := 0; i < 8; i++ {
		nonce[4+i] = byte(counter >> (56 - 8*i))
	}
	r.mu.Lock()
	if _, dup := r.seen[nonce]; dup {
		r.dups = append(r.dups, fmt.Sprintf("epoch=%d counter=%#x page=%d", epoch, counter, pageID))
	}
	r.seen[nonce] = struct{}{}
	r.mu.Unlock()
	return r.inner.SealEpoch(pageID, epoch, counter, pt)
}

func (r *nonceRecorder) Seal(pageID uint64, pt []byte) ([]byte, error) {
	return r.inner.Seal(pageID, pt)
}
func (r *nonceRecorder) Open(pageID uint64, sealed []byte) ([]byte, error) {
	return r.inner.Open(pageID, sealed)
}
func (r *nonceRecorder) SealedEpoch(sealed []byte) (uint32, bool) { return r.inner.SealedEpoch(sealed) }
func (r *nonceRecorder) Overhead() int                            { return r.inner.Overhead() }
func (r *nonceRecorder) Name() string                             { return r.inner.Name() }

func (r *nonceRecorder) report(t *testing.T) (uniques int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.dups {
		t.Errorf("reissued nonce: %s", d)
	}
	return len(r.seen)
}

// waitRotationDrained polls Stats until no pages are pending re-seal.
func waitRotationDrained(t *testing.T, tr *Tree) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if s.PagesPendingReseal == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotation never drained: %d pages pending at epoch %d", s.PagesPendingReseal, s.CipherEpoch)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSealCounterDurabilityAcrossGenerations is the durability proof for the
// seal-counter high-water mark: a tree lives through several generations —
// clean closes, and for the file backend a fail-stop crash image taken while
// the previous generation still held unflushed state — under a budget small
// enough that epochs advance and the background rotator re-seals pages the
// whole time. A shared nonceRecorder observes every (epoch, counter) sealed
// across all generations and must never see a pair twice: the
// durable mark is reserved ahead of issue, so no crash point can make a
// reopened tree re-walk nonces its predecessor already burned.
func TestSealCounterDurabilityAcrossGenerations(t *testing.T) {
	for _, tc := range []struct {
		name string
		file bool
	}{
		{"mem", false},
		{"file", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := newNonceRecorder(t, bytes.Repeat([]byte{0xA7}, 32))
			sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xA8}, 32), 24)
			if err != nil {
				t.Fatal(err)
			}
			var path string
			var memStore PageStore
			if tc.file {
				path = filepath.Join(t.TempDir(), "gen.ekb")
			} else {
				memStore = NewMemStore()
			}
			open := func(p string) *Tree {
				t.Helper()
				opts := Options{
					Substituter: sub,
					Cipher:      rec,
					order:       8,
					SealBudget:  16, // tiny: every generation crosses epochs
				}
				if tc.file {
					opts.Path = p
				} else {
					opts.Store = memStore
				}
				tr, err := Open(opts)
				if err != nil {
					t.Fatalf("open %s: %v", p, err)
				}
				return tr
			}
			put := func(tr *Tree, lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i++ {
					if err := tr.Put([]byte(fmt.Sprintf("gen-key-%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(tr *Tree, hi int, tag string) {
				t.Helper()
				if got := scanAll(t, tr); len(got) != hi {
					t.Fatalf("%s: %d entries, want %d", tag, len(got), hi)
				}
				for i := 0; i < hi; i++ {
					k := fmt.Sprintf("gen-key-%04d", i)
					v, ok, err := tr.Get([]byte(k))
					if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
						t.Fatalf("%s: Get(%s) = (%q, %v, %v)", tag, k, v, ok, err)
					}
				}
			}
			// Stats.Seals counts within the CURRENT epoch (counters restart
			// at zero when the epoch advances), so the cross-generation
			// monotonicity that matters is the epoch itself; counter reuse
			// within an epoch is what the recorder catches.
			epochOf := func(tr *Tree) uint32 {
				t.Helper()
				s, err := tr.Stats()
				if err != nil {
					t.Fatal(err)
				}
				return s.CipherEpoch
			}

			// endGen ends a generation. File trees close cleanly (Path
			// stores are per-open); mem trees are ABANDONED with their
			// rotator parked — Close would close the shared store under the
			// next generation, and abandonment is the sharper test anyway:
			// a fail-stop process death persists no goodbye.
			endGen := func(tr *Tree) {
				t.Helper()
				if tc.file {
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Generation 1: fresh tree, enough writes to advance epochs and
			// keep the rotator busy, then die mid-rotation history.
			tr := open(path)
			put(tr, 0, 60)
			waitRotationDrained(t, tr)
			epoch1 := epochOf(tr)
			if epoch1 == 0 {
				t.Fatal("budget 16 never advanced the epoch after 60 puts")
			}
			endGen(tr)

			// Generation 2: reopen. The durable epoch must not have
			// regressed, and new seals must keep extending the same history.
			tr = open(path)
			check(tr, 60, "gen2")
			if e := epochOf(tr); e < epoch1 {
				t.Fatalf("cipher epoch regressed across clean close: %d -> %d", epoch1, e)
			}
			put(tr, 60, 120)
			waitRotationDrained(t, tr)
			epoch2 := epochOf(tr)

			if !tc.file {
				// A page file in memory can't be imaged; the abandoned
				// generations above are the whole story. The last tree may
				// close for real — nothing reopens the store after it.
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Fail-stop: image the page file while generation 2 is still
				// open — the moment of death — then abandon it. The image's
				// pre-reserved mark must cover every counter generation 2 ever
				// issued, even ones whose commits the crash threw away.
				crash := filepath.Join(filepath.Dir(path), "crash.ekb")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(crash, b, 0o600); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil { // after the image: the "crash" already happened
					t.Fatal(err)
				}

				// Generation 3 rises from the crash image.
				tr = open(crash)
				check(tr, 120, "gen3 (crash image)")
				if e := epochOf(tr); e < epoch2 {
					t.Fatalf("crash image's cipher epoch regressed: %d -> %d", epoch2, e)
				}
				put(tr, 120, 180)
				waitRotationDrained(t, tr)
				check(tr, 180, "gen3 after writes")
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// The verdict: across every generation, epoch advance, and
			// background re-seal, no (epoch, counter) nonce was issued twice.
			// Every Put seals at least its leaf page, so the recorder must
			// have witnessed at least one nonce per committed key.
			totalPuts := 120
			if tc.file {
				totalPuts = 180
			}
			if n := rec.report(t); n < totalPuts {
				t.Fatalf("recorder saw only %d seals across %d puts plus rotation", n, totalPuts)
			}
		})
	}
}
