package engine

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestRotationCommitAtomicityUnderFaults is the crash-consistency proof for
// background re-seal rotation: with the store failing at every possible write
// and sync during a rotation sweep — with and without a torn trailing write,
// as process death and as power loss — reopening the file always yields a
// fully readable tree with the exact same logical content (rotation never
// changes content, only seals), the durable seal mark never regresses, and a
// retried rotation converges to zero pending pages. Rotation commits are
// ordinary shadow-paged OCC commits; this pins that no byte-level crash point
// inside one breaks that story.
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
		st, err := file.OpenConfig(base, file.Config{})
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
		st, err := file.OpenConfig(base, file.Config{})
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

	// Torn 24 is half a meta slot: the tear that damages one, which the
	// few-byte tears — all inside a slot's zero high txid bytes — never do.
	faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, 1, 7, 24}, Lose: []int{faulttest.KeepAll, 0, 1, 2}},
		func(f *faulttest.File) error {
			fst, err := file.OpenWithConfig(f, file.Config{})
			if err != nil {
				t.Fatalf("%s: open with fault file: %v", f, err)
			}
			g, err := New(Config{Store: fst, Cipher: newCipher(), Order: 8})
			if err != nil {
				t.Fatalf("%s: engine over fault store: %v", f, err)
			}
			defer g.Close() // may fail on a dead store; the file state is what matters
			for {
				done, err := g.Rotate()
				if err != nil || done {
					return err
				}
			}
		},
		func(tag, work string, fired bool, rerr error) {
			// Reopen the survivor: the tree must be fully readable with the
			// original content, the durable mark must not have regressed, and
			// a retried rotation must converge.
			re, err := file.OpenConfig(work, file.Config{})
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
			if !fired && rerr != nil {
				t.Fatalf("%s: rotation failed with no fault fired: %v", tag, rerr)
			}
		})
}
