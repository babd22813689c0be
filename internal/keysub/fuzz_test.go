package keysub

import (
	"bytes"
	"testing"
)

// fuzzSubs builds the substituters the fuzz targets exercise: a plain PRF
// and bucketed wrappers at byte-aligned and odd prefix widths.
func fuzzSubs(tb testing.TB) (*HMAC, *Bucketed, *Bucketed) {
	tb.Helper()
	h, err := NewHMAC(bytes.Repeat([]byte{0x5A}, 32), 16)
	if err != nil {
		tb.Fatal(err)
	}
	b16, err := NewBucketed(h, 16)
	if err != nil {
		tb.Fatal(err)
	}
	b13, err := NewBucketed(h, 13) // odd width: trailing bits of the prefix byte masked
	if err != nil {
		tb.Fatal(err)
	}
	return h, b16, b13
}

// FuzzSubstituteRoundTrip checks every substituter's core contracts on
// arbitrary keys: determinism (equal keys substitute equally — the property
// that makes lookups after reopen work), declared width, no aliasing of the
// input, and the bucketed substituter's order law (keys in distinct buckets
// keep plaintext order).
func FuzzSubstituteRoundTrip(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte(""), []byte("a"))
	f.Add([]byte("user:0001"), []byte("user:0002"))
	f.Add([]byte{0xFF, 0xFF}, []byte{0x00})
	f.Add(bytes.Repeat([]byte{0x41}, 100), []byte{0x41})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		h, b16, b13 := fuzzSubs(t)
		for _, sub := range []Substituter{h, b16, b13} {
			sa := sub.Substitute(a)
			if w := sub.Width(); w >= 0 && len(sa) != w {
				t.Fatalf("%s: Substitute returned %d bytes, Width says %d", sub.Name(), len(sa), w)
			}
			if again := sub.Substitute(a); !bytes.Equal(sa, again) {
				t.Fatalf("%s: substitution not deterministic", sub.Name())
			}
			// No aliasing: clobbering the input must not change the output.
			ac := append([]byte(nil), a...)
			saved := append([]byte(nil), sub.Substitute(ac)...)
			for i := range ac {
				ac[i] ^= 0xFF
			}
			if !bytes.Equal(saved, sub.Substitute(a)) {
				t.Fatalf("%s: substituted key aliases the input", sub.Name())
			}
			sb := sub.Substitute(b)
			if bytes.Equal(a, b) != bytes.Equal(sa, sb) {
				t.Fatalf("%s: equality not preserved (collision or nondeterminism)", sub.Name())
			}
		}
		// Bucketed order law: distinct buckets compare in plaintext order.
		for _, bk := range []*Bucketed{b16, b13} {
			pa, pb := bk.Substitute(a)[:bk.prefixLen], bk.Substitute(b)[:bk.prefixLen]
			if !bytes.Equal(pa, pb) {
				wantLess := bytes.Compare(a, b) < 0
				gotLess := bytes.Compare(bk.Substitute(a), bk.Substitute(b)) < 0
				if wantLess != gotLess {
					t.Fatalf("%s: cross-bucket order broken for %x vs %x", bk.Name(), a, b)
				}
			}
		}
	})
}

// FuzzSubstituteRange checks the range substituter's superset law on
// arbitrary bounds and probe keys: every key inside the plaintext range
// [from, to) must substitute INTO the substituted range [lo, hi) — range
// scans may over-approximate (whole boundary buckets) but never drop a key.
func FuzzSubstituteRange(f *testing.F) {
	f.Add([]byte("a"), []byte("q"), []byte("m"))
	f.Add([]byte(nil), []byte{0xFF, 0xFF, 0xFF, 0xFF}, []byte{0x10})
	f.Add([]byte{0x00}, []byte(nil), []byte{0x80, 0x01})
	f.Add([]byte{0xFF}, []byte{0xFF, 0x00}, []byte{0xFF, 0x00})

	f.Fuzz(func(t *testing.T, from, to, key []byte) {
		_, b16, b13 := fuzzSubs(t)
		for _, bk := range []*Bucketed{b16, b13} {
			// Interpret nil as the unbounded side, as the façade does.
			lo, hi := bk.SubstituteRange(from, to)
			inPlain := (from == nil || bytes.Compare(key, from) >= 0) &&
				(to == nil || bytes.Compare(key, to) < 0)
			if !inPlain {
				return
			}
			sk := bk.Substitute(key)
			if lo != nil && bytes.Compare(sk, lo) < 0 {
				t.Fatalf("%s: key %x in [%x, %x) substitutes below lo", bk.Name(), key, from, to)
			}
			if hi != nil && bytes.Compare(sk, hi) >= 0 {
				t.Fatalf("%s: key %x in [%x, %x) substitutes at or above hi", bk.Name(), key, from, to)
			}
		}
	})
}
