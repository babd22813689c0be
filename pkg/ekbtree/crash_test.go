package ekbtree

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"testing"

	"github.com/paper-repro/ekbtree/internal/faulttest"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestTreeCrashAtEveryFileOp crashes a whole tree — key substitution, the
// turn holder's commit, seal-counter reservation (a SetSealMark the next
// flush makes durable ahead of its pages), group commit, the background
// rotator — at every write and sync its page file sees, as process death and
// as power loss with only the newest two unsynced writes surviving. The tree runs over a
// Full-durability file store, so every call that returned nil is durable: the
// reopened tree must hold exactly what the acknowledged calls built, or that
// plus the one call the crash interrupted; the durable seal mark must not fall
// behind the base's, nor behind the last epoch the crashed generation
// reported; and across the base, the crashed and the reopened generation no
// (epoch, counter) nonce may be issued twice.
func TestTreeCrashAtEveryFileOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		sub  func(secret []byte) (Substituter, error)
	}{
		{"hmac", func(secret []byte) (Substituter, error) { return NewHMACSubstituter(secret, 24) }},
		{"bucketed64", func(secret []byte) (Substituter, error) { return NewBucketedSubstituter(secret, 24, 64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := tc.sub(bytes.Repeat([]byte{0xC8}, 32))
			if err != nil {
				t.Fatal(err)
			}
			cipherKey := bytes.Repeat([]byte{0xC7}, 32)
			// The budget is tiny so that commits cross epochs by themselves,
			// besides the forced advance among the steps.
			open := func(st store.PageStore, rec *nonceRecorder) (*Tree, error) {
				return Open(Options{Substituter: sub, Cipher: rec, order: 8, SealBudget: 16, Store: st})
			}
			const universe = 40
			keyAt := func(i int) []byte { return []byte(fmt.Sprintf("crash-key-%04d", i)) }
			content := func(tag string, tr *Tree) map[string]string {
				got := make(map[string]string)
				for i := 0; i < universe; i++ {
					v, ok, err := tr.Get(keyAt(i))
					if err != nil {
						t.Fatalf("%s: Get(%s): %v", tag, keyAt(i), err)
					}
					if ok {
						got[string(keyAt(i))] = string(v)
					}
				}
				if n := len(scanAll(t, tr)); n != len(got) {
					t.Fatalf("%s: a scan finds %d entries, Get finds %d", tag, n, len(got))
				}
				return got
			}

			// The calls under test, one commit each, with what each does to
			// the expected content.
			type step struct {
				model func(m map[string]string)
				do    func(tr *Tree) error
			}
			put := func(i int, v string) step {
				return step{
					func(m map[string]string) { m[string(keyAt(i))] = v },
					func(tr *Tree) error { return tr.Put(keyAt(i), []byte(v)) },
				}
			}
			steps := []step{
				put(30, "fresh-30"),
				put(3, "overwritten-3"),
				{func(m map[string]string) {
					for i := 31; i < 36; i++ {
						m[string(keyAt(i))] = "batched"
					}
					for i := 0; i < 24; i += 4 {
						delete(m, string(keyAt(i)))
					}
				}, func(tr *Tree) error {
					b := tr.NewBatch()
					for i := 31; i < 36; i++ {
						if err := b.Put(keyAt(i), []byte("batched")); err != nil {
							return err
						}
					}
					for i := 0; i < 24; i += 4 {
						if err := b.Delete(keyAt(i)); err != nil {
							return err
						}
					}
					return b.Commit()
				}},
				{func(m map[string]string) { delete(m, string(keyAt(5))) },
					func(tr *Tree) error { _, err := tr.Delete(keyAt(5)); return err }},
				{func(map[string]string) {}, (*Tree).AdvanceEpoch},
				put(36, "new-epoch-36"),
				put(7, "new-epoch-7"),
				put(37, "new-epoch-37"),
			}

			// Base: a tree some epochs old, closed with nothing left to re-seal.
			base := filepath.Join(t.TempDir(), "base.ekb")
			baseRec := newNonceRecorder(t, cipherKey)
			bst, err := file.OpenConfig(base, file.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := open(bst, baseRec)
			if err != nil {
				t.Fatal(err)
			}
			models := []map[string]string{{}} // models[i]: the content after i steps
			for i := 0; i < 30; i++ {
				v := fmt.Sprintf("base-%d", i)
				models[0][string(keyAt(i))] = v
				if err := tr.Put(keyAt(i), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			waitRotationDrained(t, tr)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				m := maps.Clone(models[len(models)-1])
				s.model(m)
				models = append(models, m)
			}
			bst, err = file.OpenConfig(base, file.Config{})
			if err != nil {
				t.Fatal(err)
			}
			baseMark, err := bst.SealMark()
			bst.Close()
			if err != nil || baseMark.Epoch == 0 {
				t.Fatalf("base seal mark = (%+v, %v), want an epoch past 0", baseMark, err)
			}

			// One crashed generation's record, written by run and read by check.
			var (
				rec   *nonceRecorder
				acked int    // steps that returned nil
				epoch uint32 // the newest cipher epoch a Stats call reported
			)
			faulttest.Sweep(t, base, faulttest.Plan{Lose: []int{faulttest.KeepAll, 2}},
				func(f *faulttest.File) error {
					rec = newNonceRecorder(t, cipherKey)
					maps.Copy(rec.seen, baseRec.seen)
					acked, epoch = 0, baseMark.Epoch
					st, err := file.OpenWithConfig(f, file.Config{})
					if err != nil {
						return err
					}
					tr, err := open(st, rec)
					if err != nil {
						st.Close()
						return err
					}
					defer tr.Close()
					for _, s := range steps {
						if err := s.do(tr); err != nil {
							return err
						}
						acked++
						stats, err := tr.Stats()
						if err != nil {
							return err
						}
						epoch = stats.CipherEpoch
					}
					return nil
				},
				func(tag, path string, fired bool, runErr error) {
					if !fired && (runErr != nil || acked != len(steps)) {
						t.Fatalf("%s: no fault was reached, yet %d of %d steps ran: %v", tag, acked, len(steps), runErr)
					}
					st, err := file.OpenConfig(path, file.Config{})
					if err != nil {
						t.Fatalf("%s: reopen the page file: %v", tag, err)
					}
					mark, err := st.SealMark()
					if err != nil {
						t.Fatal(err)
					}
					if mark.Epoch < epoch || (mark.Epoch == baseMark.Epoch && mark.Counter < baseMark.Counter) {
						t.Fatalf("%s: durable seal mark regressed to (%d, %d): the base's was (%d, %d) and epoch %d had been reported",
							tag, mark.Epoch, mark.Counter, baseMark.Epoch, baseMark.Counter, epoch)
					}
					re, err := open(st, rec)
					if err != nil {
						t.Fatalf("%s: reopen the tree: %v", tag, err)
					}
					// Every acknowledged step is there; the one the crash
					// interrupted is there whole or not at all.
					got := content(tag, re)
					if !maps.Equal(got, models[acked]) && (acked == len(steps) || !maps.Equal(got, models[acked+1])) {
						t.Fatalf("%s: after %d acknowledged steps the reopened tree holds\n%v\nwant\n%v\nor that and step %d",
							tag, acked, got, models[acked], acked+1)
					}
					// The reopened generation seals too: fresh pages, a forced
					// epoch and whatever the rotator gets to before Close.
					for i := 38; i < universe; i++ {
						if err := re.Put(keyAt(i), []byte("reopened")); err != nil {
							t.Fatalf("%s: Put in the reopened tree: %v", tag, err)
						}
					}
					if err := re.AdvanceEpoch(); err != nil {
						t.Fatalf("%s: AdvanceEpoch in the reopened tree: %v", tag, err)
					}
					if err := re.Put(keyAt(1), []byte("reopened")); err != nil {
						t.Fatalf("%s: Put in the reopened tree: %v", tag, err)
					}
					if err := re.Close(); err != nil {
						t.Fatalf("%s: close the reopened tree: %v", tag, err)
					}
					if len(rec.dups) > 0 {
						t.Fatalf("%s: nonces issued twice across the crash: %v", tag, rec.dups)
					}
				})
		})
	}
}
