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
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

func legacyKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func legacyVal(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }

// writeLegacyFullTree lays down the page files a tree written with the
// removed full-key option (or before prefix coding existed) consists of: per
// shard a header with no " enc=prefix" token, sealed by the real cipher, and
// every node page encoded node.FormatFull by an engine configured the way
// Open configures it. The header string is spelled out here, not shared with
// checkHeader, so that this test pins the bytes old files actually carry.
// Keys [0, n) go in as 64-key commits, then every 7th is deleted, so the
// legacy pages have been through splits and merges. It returns the model:
// substituted key -> value.
func writeLegacyFullTree(t *testing.T, opts Options, n int) map[string]string {
	t.Helper()
	order, sub, nc, cachePages, shards, err := opts.validate()
	if err != nil {
		t.Fatal(err)
	}
	router, err := keysub.NewShardRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*engine.Engine, shards)
	for i := range engines {
		st, err := openShardStore(opts, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		header := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s", order, sub.Name(), nc.Name())
		if shards > 1 {
			header += fmt.Sprintf(" shards=%d/%d", i, shards)
		}
		sealed, err := nc.Seal(metaPageID, []byte(header))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SetMeta(sealed); err != nil {
			t.Fatal(err)
		}
		engines[i], err = engine.New(engine.Config{
			Store: st, Cipher: nc, Order: order, CachePages: cachePages, NodeFormat: node.FormatFull,
			SealBudget: DefaultSealBudget, CounterBase: uint64(i) << 56,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	model := make(map[string]string)
	// commit applies keys [lo, hi) (only every 7th when del) as one commit per
	// shard they route to.
	commit := func(lo, hi int, del bool) {
		perShard := make([][][]byte, shards)
		vals := make(map[string][]byte)
		for i := lo; i < hi; i++ {
			if del && i%7 != 0 {
				continue
			}
			sk := sub.Substitute(legacyKey(i))
			s := router.Route(sk)
			perShard[s] = append(perShard[s], sk)
			if del {
				delete(model, string(sk))
			} else {
				vals[string(sk)] = legacyVal(i)
				model[string(sk)] = string(legacyVal(i))
			}
		}
		for s, sks := range perShard {
			if len(sks) == 0 {
				continue
			}
			err := engines[s].Apply(func(bt *btree.Tree) error {
				for _, sk := range sks {
					var err error
					if del {
						_, err = bt.Delete(sk)
					} else {
						err = bt.Put(sk, vals[string(sk)])
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
		}
	}
	for lo := 0; lo < n; lo += 64 {
		commit(lo, min(lo+64, n), false)
	}
	for lo := 0; lo < n; lo += 448 {
		commit(lo, min(lo+448, n), true)
	}
	for _, g := range engines {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
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
	if err := tr.Scan(func(sk, v []byte) bool {
		fmt.Fprintf(h, "%d:%s%d:%s", len(sk), sk, len(v), v)
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n, [sha256.Size]byte(h.Sum(nil))
}

// pageFormats counts, per node format, the live pages of the (closed) tree at
// opts, walking every shard's file from its root with the tree's own cipher.
func pageFormats(t *testing.T, opts Options) map[node.Format]int {
	t.Helper()
	_, _, nc, _, shards, err := opts.validate()
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[node.Format]int)
	for i := 0; i < shards; i++ {
		st, err := openShardStore(opts, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		root, err := st.Root()
		if err != nil {
			t.Fatal(err)
		}
		if root == store.NoRoot {
			continue
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
		shards   int
	}{
		{"hmac-1shard", false, 1},
		{"hmac-3shards", false, 3},
		{"bucketed64-1shard", true, 1},
		{"bucketed64-3shards", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "legacy.ekb")
			opts := Options{MasterKey: bytes.Repeat([]byte{0x55}, 32), Path: path, Shards: tc.shards}
			if tc.bucketed {
				opts = prefixFriendlyOpts(t, path, tc.shards)
			}
			opts.Order = 8 // small nodes: a few thousand keys make a deep tree
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
			otherOrder := opts
			otherOrder.Order = 16
			if _, err := Open(otherOrder); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("Open with another order = %v, want ErrConfigMismatch", err)
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
	_, sub, nc, _, _, err := Options{MasterKey: master}.validate()
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
