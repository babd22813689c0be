// Package keysub implements search-key substitution: a keyed mapping from
// plaintext search keys to substituted search keys, following Hardjono &
// Seberry (VLDB 1990). The B-tree layers above index and traverse exclusively
// on substituted keys, so an adversary holding the index pages never sees a
// plaintext key.
//
// Two substituters are provided:
//
//   - HMAC: a pure PRF (HMAC-SHA256 truncated to a configurable width).
//     Substituted keys are pseudorandom, so the tree ordering leaks nothing
//     about plaintext ordering, but range scans over plaintext order are
//     impossible.
//   - Bucketed: an order-preserving-at-bucket-granularity variant that
//     prefixes the PRF output with the leading bits of the plaintext key.
//     Keys falling in distinct buckets keep their relative order, enabling
//     coarse range scans at the cost of leaking the bucket prefix.
package keysub

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// Substituter maps a plaintext search key to a substituted search key.
// Implementations must be deterministic (equal keys map to equal substitutes)
// and injective with overwhelming probability.
type Substituter interface {
	// Substitute returns the substituted key. The result is a fresh buffer
	// owned by the caller and never aliases the input.
	Substitute(key []byte) []byte
	// Width returns the length in bytes of substituted keys, or -1 if the
	// width varies with the input.
	Width() int
	// Name identifies the scheme, e.g. for diagnostics and persistence.
	Name() string
}

// RangeSubstituter is implemented by substituters whose substituted-key
// order is coarsely related to plaintext order, so a plaintext range can be
// mapped to a substituted range covering it.
type RangeSubstituter interface {
	Substituter
	// SubstituteRange maps plaintext bounds [from, to) to substituted-key
	// bounds [lo, hi) whose coverage is a superset of the plaintext range:
	// every key in [from, to) substitutes into [lo, hi), possibly along with
	// other keys sharing a boundary bucket. A nil bound stays nil
	// (unbounded).
	SubstituteRange(from, to []byte) (lo, hi []byte)
}

// MinWidth and MaxWidth bound the truncation width of the HMAC substituter.
const (
	MinWidth = 8
	MaxWidth = sha256.Size
)

// HMAC substitutes keys via HMAC-SHA256 truncated to a fixed width. The keyed
// hash states are built once and recycled through a pool: every operation of
// the tree starts with a substitution, and constructing an HMAC per key costs
// two extra SHA-256 compressions and five allocations.
type HMAC struct {
	width int
	macs  sync.Pool // of hash.Hash keyed with the secret, always in reset state
}

// NewHMAC returns an HMAC substituter keyed with secret, producing
// width-byte substituted keys. Width must be in [MinWidth, MaxWidth].
func NewHMAC(secret []byte, width int) (*HMAC, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("keysub: empty secret")
	}
	if width < MinWidth || width > MaxWidth {
		return nil, fmt.Errorf("keysub: width %d out of range [%d, %d]", width, MinWidth, MaxWidth)
	}
	secret = append([]byte(nil), secret...)
	h := &HMAC{width: width}
	h.macs.New = func() any { return hmac.New(sha256.New, secret) }
	return h, nil
}

func (h *HMAC) Substitute(key []byte) []byte {
	return h.appendSubstitute(make([]byte, 0, sha256.Size), key)
}

// appendSubstitute appends key's substitute to dst, which must have
// sha256.Size bytes of spare capacity for the untruncated sum, and clips the
// result's capacity to its length.
func (h *HMAC) appendSubstitute(dst, key []byte) []byte {
	mac := h.macs.Get().(hash.Hash)
	mac.Write(key)
	sum := mac.Sum(dst)
	// Reset restores the keyed pads from their marshaled state (two
	// compressions a call instead of four) and leaves nothing of key behind
	// in the pooled state.
	mac.Reset()
	h.macs.Put(mac)
	n := len(dst) + h.width
	return sum[:n:n]
}

func (h *HMAC) Width() int { return h.width }

func (h *HMAC) Name() string { return fmt.Sprintf("hmac-sha256/%d", h.width) }

// Bucketed wraps the HMAC substituter and prepends a bucket prefix taken from
// the leading PrefixBits bits of the plaintext key. Because the prefix is a
// monotone function of the key, substituted keys in different buckets compare
// in plaintext order, while keys within a bucket fall back to the inner
// substituter's (pseudorandom) order.
type Bucketed struct {
	inner      *HMAC
	prefixBits int
	prefixLen  int
}

// NewBucketed returns a bucketed substituter with 2^prefixBits buckets.
// prefixBits must be in [1, 64] and a multiple of 8 is recommended; odd bit
// counts zero the trailing bits of the final prefix byte.
func NewBucketed(inner *HMAC, prefixBits int) (*Bucketed, error) {
	if inner == nil {
		return nil, fmt.Errorf("keysub: nil inner substituter")
	}
	if prefixBits < 1 || prefixBits > 64 {
		return nil, fmt.Errorf("keysub: prefixBits %d out of range [1, 64]", prefixBits)
	}
	return &Bucketed{inner: inner, prefixBits: prefixBits, prefixLen: (prefixBits + 7) / 8}, nil
}

// Substitute writes the bucket prefix and the inner substitute into one
// buffer.
func (b *Bucketed) Substitute(key []byte) []byte {
	out := make([]byte, b.prefixLen, b.prefixLen+sha256.Size)
	b.putPrefix(out, key)
	return b.inner.appendSubstitute(out, key)
}

// putPrefix writes key's bucket prefix, its leading prefixBits bits, into the
// zeroed prefixLen bytes of p. Shorter keys stay zero-padded, which keeps the
// mapping monotone (a prefix sorts before its extensions).
func (b *Bucketed) putPrefix(p, key []byte) {
	copy(p, key)
	if rem := b.prefixBits % 8; rem != 0 {
		p[b.prefixLen-1] &= byte(0xFF << (8 - rem))
	}
}

// SubstituteRange implements RangeSubstituter: lo is from's bare bucket
// prefix (sorting at or before every substituted key in that bucket), and hi
// is to's bucket prefix plus one (sorting after every substituted key in
// to's bucket). The result covers whole boundary buckets — a superset of the
// plaintext range, never a pseudorandom sample of it. Both bounds are cut
// from one buffer, each clipped to its own capacity.
func (b *Bucketed) SubstituteRange(from, to []byte) (lo, hi []byte) {
	if from == nil && to == nil {
		return nil, nil
	}
	n := b.prefixLen
	buf := make([]byte, 2*n)
	if from != nil {
		lo = buf[:n:n]
		b.putPrefix(lo, from)
	}
	if to != nil {
		hi = buf[n:]
		b.putPrefix(hi, to)
		for i := n - 1; i >= 0; i-- {
			hi[i]++
			if hi[i] != 0 {
				return lo, hi
			}
		}
		hi = nil // to's bucket is the last one: unbounded above
	}
	return lo, hi
}

func (b *Bucketed) Width() int { return b.prefixLen + b.inner.Width() }

func (b *Bucketed) Name() string {
	return fmt.Sprintf("bucketed/%dbit+%s", b.prefixBits, b.inner.Name())
}
