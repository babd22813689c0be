package ekbtree

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/keysub"
)

// recordingSub passes on what the real substituter returns and records every
// result, so a test can tell whether the tree keeps any of them.
type recordingSub struct {
	keysub.Substituter
	mu  sync.Mutex
	got [][]byte
}

func (s *recordingSub) record(results ...[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range results {
		if len(r) > 0 {
			s.got = append(s.got, r)
		}
	}
}

func (s *recordingSub) Substitute(key []byte) []byte {
	r := s.Substituter.Substitute(key)
	s.record(r)
	return r
}

// recordingRangeSub is a recordingSub over a RangeSubstituter, keeping the
// capability so that the tree takes its bucket bounds.
type recordingRangeSub struct {
	*recordingSub
	rs keysub.RangeSubstituter
}

func (s recordingRangeSub) SubstituteRange(from, to []byte) (lo, hi []byte) {
	lo, hi = s.rs.SubstituteRange(from, to)
	s.record(lo, hi)
	return lo, hi
}

// span is the address range of a slice's backing bytes, up to its capacity.
type span struct{ lo, hi uintptr }

func spanOf(p []byte) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return span{lo, lo + uintptr(cap(p))}
}

// spans returns the recorded results' spans, sorted; results never overlap
// (TestResultsNeverOverlap in internal/keysub), so their ends sort too.
func (s *recordingSub) spans() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]span, len(s.got))
	for i, r := range s.got {
		out[i] = spanOf(r)
	}
	slices.SortFunc(out, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	return out
}

// inside reports whether any byte of p lies inside one of the sorted spans.
func inside(spans []span, p []byte) bool {
	if len(p) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	hi := lo + uintptr(len(p))
	// The spans are disjoint, so only the last one starting at or before lo
	// and the first one starting after it can reach p.
	i, _ := slices.BinarySearchFunc(spans, lo, func(s span, at uintptr) int { return cmp.Compare(s.lo, at) })
	for _, j := range []int{i - 1, i} {
		if j >= 0 && j < len(spans) && spans[j].lo < hi && lo < spans[j].hi {
			return true
		}
	}
	return false
}

// TestSubstitutionResultsAreNotKept pins the façade's side of the Substituter
// contract: a result may share its chunk with other results, so the tree keeps
// none of them. A recording wrapper keeps every result the real substituter
// hands out while Put, Delete, Batch Put/Delete/Commit, Get and CursorRange/
// Seek run over an HMAC tree and a bucketed one, at the default order and at
// 64; afterwards, and after a batch that Edits the leaves, no key or value a
// cursor reaches may lie inside a recorded result. A Put that stored its
// substituted key, or a batch that staged it, as it came would keep alive
// the chunk it was cut from, and every result cut beside it.
func TestSubstitutionResultsAreNotKept(t *testing.T) {
	secret := bytes.Repeat([]byte{0xC3}, 32)
	hm, err := keysub.NewHMAC(secret, 24)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := keysub.NewBucketed(hm, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []int{DefaultOrder, 64} {
		for _, inner := range []keysub.Substituter{hm, bk} {
			t.Run(fmt.Sprintf("order=%d/%s", order, inner.Name()), func(t *testing.T) {
				rec := &recordingSub{Substituter: inner}
				var sub keysub.Substituter = rec
				if rs, ok := inner.(keysub.RangeSubstituter); ok {
					sub = recordingRangeSub{rec, rs}
				}
				tr := mustOpen(t, Options{Substituter: sub, MasterKey: secret, Order: order, CachePages: 1 << 14})
				defer tr.Close()
				const n = 2000
				key := func(i int) []byte { return fmt.Appendf(nil, "k%05d", i) }
				value := func(i, gen int) []byte { return fmt.Appendf(nil, "v%d-%d-%s", i, gen, bytes.Repeat([]byte{'x'}, i%37)) }
				want := make(map[string][]byte, n)
				put := func(i, gen int) {
					want[string(key(i))] = value(i, gen)
					if err := tr.Put(key(i), value(i, gen)); err != nil {
						t.Fatal(err)
					}
				}
				stage := func(gen int, keep func(i int) bool) {
					b := tr.NewBatch()
					for i := range n {
						switch {
						case keep(i):
						case gen > 0 && i%7 == 0:
							delete(want, string(key(i)))
							if err := b.Delete(key(i)); err != nil {
								t.Fatal(err)
							}
						default:
							want[string(key(i))] = value(i, gen)
							if err := b.Put(key(i), value(i, gen)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := b.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				// check reads every key back and walks a range cursor, seeking it
				// to a middle key, then a whole-tree cursor: no key or value it
				// reaches may lie inside a result the substituter handed out.
				check := func(when string) {
					for k, w := range want {
						if v, ok, err := tr.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, w) {
							t.Fatalf("%s: Get(%s) = (%q, %v, %v), want %q", when, k, v, ok, err, w)
						}
					}
					rc := tr.CursorRange(key(n/4), key(3*n/4))
					for ok := rc.Seek(key(n / 2)); ok; ok = rc.Next() {
					}
					if err := rc.Err(); err != nil {
						t.Fatal(err)
					}
					rc.Close()
					spans := rec.spans()
					c := tr.Cursor()
					defer c.Close()
					seen := 0
					for ok := c.First(); ok; ok = c.Next() {
						if inside(spans, c.Key()) || inside(spans, c.Value()) {
							t.Fatalf("%s: entry %d (key %x) lies inside a substitution result", when, seen, c.Key())
						}
						seen++
					}
					if err := c.Err(); err != nil || seen != len(want) {
						t.Fatalf("%s: cursor read %d entries (%v), want %d", when, seen, err, len(want))
					}
				}

				for i := 0; i < n; i += 2 {
					put(i, 0)
				}
				stage(0, func(i int) bool { return i%2 == 0 })
				for i := 0; i < n; i += 11 {
					delete(want, string(key(i)))
					if _, err := tr.Delete(key(i)); err != nil {
						t.Fatal(err)
					}
				}
				check("after Put, Batch.Put and Delete")
				// Rewrite a third of the keys and delete every seventh in one
				// batch: the leaves holding the rest are Edited, their entries
				// carried into the copies.
				stage(1, func(i int) bool { return i%3 != 0 && i%7 != 0 })
				put(5, 2)
				check("after a batch that Edits the leaves")
			})
		}
	}
}
