package ekbtree

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

func legacyKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func legacyVal(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }

// writeLegacyFullTree lays down the page file a tree written with the
// removed full-key option (or before prefix coding existed) consists of: a
// header with no " enc=prefix" token, sealed by the real cipher, and every
// node page encoded node.FormatFull by an engine configured the way Open
// configures it. The header string is spelled out here, not shared with
// checkHeader, so that this test pins the bytes old files actually carry.
// Keys [0, n) go in as 64-key commits, then every 7th is deleted, so the
// legacy pages have been through splits and merges. It returns the model:
// substituted key -> value.
func writeLegacyFullTree(t *testing.T, opts Options, n int) map[string]string {
	t.Helper()
	order, sub, nc, cachePages, err := opts.validate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := file.OpenConfig(opts.Path, file.Config{Durability: opts.Durability})
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s", order, sub.Name(), nc.Name())
	sealed, err := nc.Seal(metaPageID, []byte(header))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta(sealed); err != nil {
		t.Fatal(err)
	}
	g, err := engine.New(engine.Config{
		Store: st, Cipher: nc, Order: order, CachePages: cachePages, NodeFormat: node.FormatFull,
		SealBudget: DefaultSealBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	// commit applies keys [lo, hi) (only every 7th when del) as one commit.
	commit := func(lo, hi int, del bool) {
		err := g.Apply(func(bt *btree.Tree) error {
			for i := lo; i < hi; i++ {
				if del && i%7 != 0 {
					continue
				}
				sk := sub.Substitute(legacyKey(i))
				var err error
				if del {
					_, err = bt.Delete(sk)
				} else {
					err = bt.Put(sk, legacyVal(i))
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			sk := string(sub.Substitute(legacyKey(i)))
			switch {
			case !del:
				model[sk] = string(legacyVal(i))
			case i%7 == 0:
				delete(model, sk)
			}
		}
	}
	for lo := 0; lo < n; lo += 64 {
		commit(lo, min(lo+64, n), false)
	}
	for lo := 0; lo < n; lo += 448 {
		commit(lo, min(lo+448, n), true)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return model
}

// modelDigest is the digest a full scan of a tree holding model must produce:
// every entry in ascending substituted-key order.
func modelDigest(model map[string]string) (int, [sha256.Size]byte) {
	sks := make([]string, 0, len(model))
	for sk := range model {
		sks = append(sks, sk)
	}
	sort.Strings(sks)
	h := sha256.New()
	for _, sk := range sks {
		fmt.Fprintf(h, "%d:%s%d:%s", len(sk), sk, len(model[sk]), model[sk])
	}
	return len(sks), [sha256.Size]byte(h.Sum(nil))
}

func scanDigest(t *testing.T, tr *Tree) (int, [sha256.Size]byte) {
	t.Helper()
	n, h := 0, sha256.New()
	if err := walk(tr.Cursor(), func(sk, v []byte) bool {
		fmt.Fprintf(h, "%d:%s%d:%s", len(sk), sk, len(v), v)
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n, [sha256.Size]byte(h.Sum(nil))
}

// pageFormats counts, per node format, the live pages of the (closed) tree at
// opts, walking its file from the root with the tree's own cipher.
func pageFormats(t *testing.T, opts Options) map[node.Format]int {
	t.Helper()
	_, _, nc, _, err := opts.validate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := file.OpenConfig(opts.Path, file.Config{Durability: opts.Durability})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	root, err := st.Root()
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[node.Format]int)
	if root == store.NoRoot {
		return counts
	}
	for stack := []uint64{root}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sealed, err := st.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		page, err := nc.Open(id, sealed)
		if err != nil {
			t.Fatal(err)
		}
		counts[node.FormatOf(page)]++
		n, err := node.DecodeInPlace(page)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Leaf {
			for i := range n.Len() + 1 {
				stack = append(stack, n.Child(i))
			}
		}
	}
	return counts
}

// TestLegacyFullFormatFileOpens: a page file holding full-key pages under a
// token-less header — what the removed full-key option wrote — needs no option
// to open. It reads back and scans exactly, takes a batch that splits and
// merges nodes among the old pages, survives a reopen holding pages of both
// forms, and once an epoch advance has had every page re-sealed holds prefix
// pages only. The header check still fails closed on everything else.
func TestLegacyFullFormatFileOpens(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bucketed bool
	}{
		{"hmac", false},
		{"bucketed64", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "legacy.ekb")
			opts := Options{MasterKey: bytes.Repeat([]byte{0x55}, 32), Path: path}
			if tc.bucketed {
				opts = prefixFriendlyOpts(t, path)
			}
			opts.order = 8 // small nodes: a few thousand keys make a deep tree
			const n = 3000
			model := writeLegacyFullTree(t, opts, n)
			if got := pageFormats(t, opts); got[node.FormatPrefix] != 0 || got[node.FormatFull] < n/8 {
				t.Fatalf("legacy helper wrote pages %v, want full-format only", got)
			}

			wrongKey := opts
			wrongKey.MasterKey = bytes.Repeat([]byte{0x56}, 32)
			if _, err := Open(wrongKey); !errors.Is(err, ErrWrongKey) {
				t.Fatalf("Open with the wrong master key = %v, want ErrWrongKey", err)
			}

			check := func(tr *Tree, when string) {
				t.Helper()
				wantN, want := modelDigest(model)
				if gotN, got := scanDigest(t, tr); gotN != wantN || got != want {
					t.Fatalf("%s: scan of %d entries digests %x, want %d entries and %x", when, gotN, got, wantN, want)
				}
			}
			tr := mustOpen(t, opts)
			for i := 0; i < n; i++ {
				v, ok, err := tr.Get(legacyKey(i))
				if err != nil || ok != (i%7 != 0) || (ok && !bytes.Equal(v, legacyVal(i))) {
					t.Fatalf("Get(%d) from the legacy file = (%q, %v, %v)", i, v, ok, err)
				}
			}
			check(tr, "legacy file")

			// One batch over the old pages: new keys split leaves, and deleting
			// two of every three old keys merges them.
			b := tr.NewBatch()
			for i := n; i < n+2000; i++ {
				if err := b.Put(legacyKey(i), legacyVal(i)); err != nil {
					t.Fatal(err)
				}
				model[string(tr.sub.Substitute(legacyKey(i)))] = string(legacyVal(i))
			}
			for i := 0; i < n; i++ {
				if i%3 == 0 {
					continue
				}
				if err := b.Delete(legacyKey(i)); err != nil {
					t.Fatal(err)
				}
				delete(model, string(tr.sub.Substitute(legacyKey(i))))
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			check(tr, "after the batch")
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			mixed := pageFormats(t, opts)
			if mixed[node.FormatPrefix] == 0 {
				t.Fatalf("the batch rewrote no page in prefix form: %v", mixed)
			}

			tr = mustOpen(t, opts)
			check(tr, "reopened with pages of both forms")
			if err := tr.AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
			waitRotationDrained(t, tr)
			check(tr, "after the re-seal")
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if got := pageFormats(t, opts); got[node.FormatFull] != 0 || got[node.FormatPrefix] == 0 {
				t.Fatalf("pages after AdvanceEpoch and a drained re-seal: %v (were %v), want prefix only", got, mixed)
			}
		})
	}

	// A header that deciphers but is neither the token-less nor the prefix
	// form is a mismatch, as it always was.
	master := bytes.Repeat([]byte{0x55}, 32)
	_, sub, nc, _, err := Options{MasterKey: master}.validate()
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	header := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s enc=full", DefaultOrder, sub.Name(), nc.Name())
	sealed, err := nc.Seal(metaPageID, []byte(header))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Store: st}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("Open over an unknown header token = %v, want ErrConfigMismatch", err)
	}
}
