package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// rotFaultFile wraps a real file and fails permanently at the Nth write or
// sync, optionally persisting a torn prefix of the failing write — the same
// crash model the file store's own commit-atomicity sweep uses, here pointed
// at rotation's re-seal commits.
type rotFaultFile struct {
	f         *os.File
	mu        sync.Mutex
	remaining int // ops until injection; negative = unlimited
	torn      int // bytes of the failing write to persist anyway
	dead      bool
}

func (ff *rotFaultFile) ReadAt(p []byte, off int64) (int, error) { return ff.f.ReadAt(p, off) }

func (ff *rotFaultFile) step() bool {
	if ff.dead {
		return false
	}
	if ff.remaining == 0 {
		ff.dead = true
		return false
	}
	if ff.remaining > 0 {
		ff.remaining--
	}
	return true
}

func (ff *rotFaultFile) WriteAt(p []byte, off int64) (int, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if !ff.step() {
		n := ff.torn
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			ff.f.WriteAt(p[:n], off)
			ff.torn = 0 // only the first failing write tears
		}
		return n, fmt.Errorf("injected rotation write fault")
	}
	return ff.f.WriteAt(p, off)
}

func (ff *rotFaultFile) Sync() error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if !ff.step() {
		return fmt.Errorf("injected rotation sync fault")
	}
	return ff.f.Sync()
}

func (ff *rotFaultFile) Close() error { return ff.f.Close() }

// Truncate is not a counted fault point.
func (ff *rotFaultFile) Truncate(size int64) error { return ff.f.Truncate(size) }

func (ff *rotFaultFile) fired() bool {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.dead
}

// TestRotationCommitAtomicityUnderFaults is the crash-consistency proof for
// background re-seal rotation: with the store failing at every possible write
// and sync during a rotation sweep — with and without a torn trailing write —
// reopening the file always yields a fully readable tree with the exact same
// logical content (rotation never changes content, only seals), the durable
// seal mark never regresses, and a retried rotation converges to zero pending
// pages. Rotation commits are ordinary shadow-paged OCC commits; this pins
// that no byte-level crash point inside one breaks that story.
func TestRotationCommitAtomicityUnderFaults(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ekb")
	key := make([]byte, 32)
	newCipher := func() *cipher.EpochAESGCM {
		ec, err := cipher.NewEpochAESGCM(key)
		if err != nil {
			t.Fatal(err)
		}
		return ec
	}

	// Pre-state: a tree whose pages are all sealed under epoch 0, with the
	// allocator already advanced to epoch 1 — everything is pending re-seal.
	const nKeys = 24
	keyAt := func(i int) []byte { return []byte(fmt.Sprintf("rot-key-%04d", i)) }
	valAt := func(i int) []byte { return []byte(fmt.Sprintf("rot-val-%d", i)) }
	{
		st, err := file.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Store: st, Cipher: newCipher(), Order: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nKeys; i++ {
			i := i
			if err := g.Apply(func(bt *btree.Tree) error { return bt.Put(keyAt(i), valAt(i)) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
		pending, err := g.PendingReseal()
		if err != nil {
			t.Fatal(err)
		}
		if pending == 0 {
			t.Fatal("pre-state has no pages pending re-seal")
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	preMark := func() uint64 {
		st, err := file.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := st.SealMark()
		if err != nil {
			t.Fatal(err)
		}
		if m.Epoch != 1 {
			t.Fatalf("pre-state epoch %d, want 1", m.Epoch)
		}
		return m.Counter
	}()

	checkContent := func(g *Engine, tag string) {
		t.Helper()
		for i := 0; i < nKeys; i++ {
			v, ok, err := g.Get(keyAt(i))
			if err != nil || !ok || string(v) != string(valAt(i)) {
				t.Fatalf("%s: Get(%s) = (%q, %v, %v)", tag, keyAt(i), v, ok, err)
			}
		}
	}

	copyFile := func(src, dst string) {
		t.Helper()
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	for _, torn := range []int{0, 1, 7} {
		for n := 0; ; n++ {
			tag := fmt.Sprintf("torn=%d n=%d", torn, n)
			work := filepath.Join(dir, fmt.Sprintf("work-%d-%d.ekb", torn, n))
			copyFile(base, work)
			rf, err := os.OpenFile(work, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			ff := &rotFaultFile{f: rf, remaining: n, torn: torn}
			fst, err := file.OpenWith(ff)
			if err != nil {
				t.Fatalf("%s: open with fault file: %v", tag, err)
			}
			g, err := New(Config{Store: fst, Cipher: newCipher(), Order: 8})
			if err != nil {
				t.Fatalf("%s: engine over fault store: %v", tag, err)
			}
			var rerr error
			for {
				done, err := g.Rotate()
				if err != nil {
					rerr = err
					break
				}
				if done {
					break
				}
			}
			fired := ff.fired()
			g.Close() // may fail on a dead store; the file state is what matters

			// Reopen the survivor: the tree must be fully readable with the
			// original content, the durable mark must not have regressed, and
			// a retried rotation must converge.
			re, err := file.Open(work)
			if err != nil {
				t.Fatalf("%s: reopen after injected fault: %v", tag, err)
			}
			mark, err := re.SealMark()
			if err != nil {
				t.Fatal(err)
			}
			if mark.Epoch < 1 || (mark.Epoch == 1 && mark.Counter < preMark) {
				t.Fatalf("%s: durable seal mark regressed to (%d, %d) from (1, %d) — reopen could reissue nonces",
					tag, mark.Epoch, mark.Counter, preMark)
			}
			g2, err := New(Config{Store: re, Cipher: newCipher(), Order: 8})
			if err != nil {
				t.Fatalf("%s: engine over survivor: %v", tag, err)
			}
			checkContent(g2, tag)
			for {
				done, err := g2.Rotate()
				if err != nil {
					t.Fatalf("%s: retried rotation: %v", tag, err)
				}
				if done {
					break
				}
			}
			if pending, err := g2.PendingReseal(); err != nil || pending != 0 {
				t.Fatalf("%s: retried rotation left %d pending (err %v)", tag, pending, err)
			}
			checkContent(g2, tag+" post-retry")
			if err := g2.Close(); err != nil {
				t.Fatal(err)
			}
			os.Remove(work)

			if !fired {
				if rerr != nil {
					t.Fatalf("%s: rotation failed with no fault fired: %v", tag, rerr)
				}
				break // n exceeded the sweep's op count: full coverage for this torn setting
			}
		}
	}
}
