package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// asyncConfig never flushes on its own account: only Sync and Close do.
var asyncConfig = file.Config{Durability: file.Async, MaxUnflushed: 1 << 30}

// TestSealReservationDoesNotFlush: a seal-counter reservation records a mark
// with the store and nothing more. An Async tree whose commits cross several
// reservations writes nothing to its file until Sync, and the mark that Sync
// makes durable covers every counter the tree issued.
func TestSealReservationDoesNotFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async.ekb")
	st, err := file.OpenConfig(path, asyncConfig)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Store: st, Cipher: cipher.Plaintext{}, Order: 8})
	if err != nil {
		t.Fatal(err)
	}
	txid := st.Txid()
	var issued uint64
	for i := 0; issued <= 2*sealReserveChunk; i++ {
		epochPut(t, g, fmt.Sprintf("key-%06d", i), "v")
		_, issued = g.SealState()
	}
	if got := st.Txid(); got != txid {
		t.Fatalf("the store flushed %d times while %d counters were reserved and issued; want none before Sync", got-txid, issued)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if st.Txid() == txid {
		t.Fatal("Sync flushed nothing")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := file.OpenConfig(path, file.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if mark, err := re.SealMark(); err != nil || mark.Counter < issued {
		t.Fatalf("reopened mark = (%+v, %v), below the %d counters issued", mark, err, issued)
	}
}

// pageRecorder is cipher.Plaintext that keeps a copy of every page it seals.
type pageRecorder struct {
	cipher.Plaintext
	mu    sync.Mutex
	pages [][]byte
}

func (r *pageRecorder) SealEpoch(pageID uint64, epoch uint32, counter uint64, pt []byte) ([]byte, error) {
	out, err := r.Plaintext.SealEpoch(pageID, epoch, counter, pt)
	r.mu.Lock()
	r.pages = append(r.pages, bytes.Clone(out))
	r.mu.Unlock()
	return out, err
}

// TestSealMarkPrecedesPagesUnderFaults crashes the Sync of a group that raises
// the seal mark — fresh counters in the base's epoch, then a new epoch — at
// every write and sync, torn and whole, as process death and as power loss.
// The null cipher writes each page's epoch‖counter in the clear, so the image
// itself says which nonces reached the platter, wherever they landed: in live
// extents or in ones the surviving directory lists as free. The reopened mark
// must lie above every one of them, or the next generation reissues it.
func TestSealMarkPrecedesPagesUnderFaults(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.ekb")
	{
		st, err := file.OpenConfig(base, file.Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Store: st, Cipher: cipher.Plaintext{}, Order: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			epochPut(t, g, fmt.Sprintf("base-epoch-%04d", i), "v")
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A page counts as reached when its first nonceSeen bytes are in the image:
	// the nonce and as much of the node again, so that no run of directory
	// bytes can pass for one. The torn=nonceSeen variant leaves exactly that.
	const nonceSeen = 24
	var rec *pageRecorder
	put := func(g *Engine, prefix string, n int) error {
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("%s-%04d", prefix, i))
			if err := g.Apply(func(bt *btree.Tree) error { return bt.Put(k, []byte("run")) }); err != nil {
				return err
			}
		}
		return nil
	}
	faulttest.Sweep(t, base, faulttest.Plan{Torn: []int{0, nonceSeen}, Lose: []int{faulttest.KeepAll, 0, 1, 2}},
		func(f *faulttest.File) error {
			rec = &pageRecorder{}
			st, err := file.OpenWithConfig(f, asyncConfig)
			if err != nil {
				t.Fatalf("%s: open: %v", f, err)
			}
			g, err := New(Config{Store: st, Cipher: rec, Order: 8})
			if err != nil {
				t.Fatalf("%s: engine: %v", f, err)
			}
			defer g.Close() // fails on a dead store; the image is what is judged
			if err := put(g, "same-epoch", 12); err != nil {
				return err
			}
			if err := g.AdvanceEpoch(); err != nil {
				return err
			}
			if err := put(g, "next-epoch", 12); err != nil {
				return err
			}
			return g.Sync()
		},
		func(tag, path string, fired bool, runErr error) {
			if !fired && runErr != nil {
				t.Fatalf("%s: no fault was reached, yet the run failed: %v", tag, runErr)
			}
			st, err := file.OpenConfig(path, file.Config{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", tag, err)
			}
			mark, err := st.SealMark()
			st.Close()
			if err != nil {
				t.Fatal(err)
			}
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reached := 0
			for _, p := range rec.pages {
				if !bytes.Contains(image, p[:min(len(p), nonceSeen)]) {
					continue
				}
				reached++
				epoch, counter := binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint64(p[4:12])
				if !markAhead(mark, store.SealMark{Epoch: epoch, Counter: counter}) {
					t.Fatalf("%s: a page sealed at (%d, %d) is in the image, but the reopened mark is (%d, %d)",
						tag, epoch, counter, mark.Epoch, mark.Counter)
				}
			}
			if !fired && reached == 0 {
				t.Fatalf("%s: the synced run left none of its %d sealed pages in the image", tag, len(rec.pages))
			}
		})
}

// markAhead reports whether mark lies strictly above the nonce at: a later
// epoch, or a higher counter in the same one.
func markAhead(mark, at store.SealMark) bool {
	return mark.Epoch > at.Epoch || mark.Epoch == at.Epoch && mark.Counter > at.Counter
}
