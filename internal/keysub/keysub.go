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
	// Substitute returns the substituted key. The result is the caller's: it
	// never aliases the input and no later call writes its bytes. It may
	// share a backing array with other results, clipped so that appending to
	// one cannot reach another, so a caller that keeps many results should
	// copy them rather than pin the arrays they were cut from.
	Substitute(key []byte) []byte
	// Width returns the length in bytes of every substituted key. It must
	// be positive: a tree stores its keys in fixed-width node pages, so its
	// Open refuses a substituter whose Width is not, and a write whose
	// substituted key is of another length fails.
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
	// (unbounded). The bounds are owned as Substitute's results are.
	SubstituteRange(from, to []byte) (lo, hi []byte)
}

// MinWidth and MaxWidth bound the truncation width of the HMAC substituter.
const (
	MinWidth = 8
	MaxWidth = sha256.Size
)

// HMAC substitutes keys via HMAC-SHA256 truncated to a fixed width. Every
// operation of the tree starts with a substitution, so the per-call state is
// pooled: a keyed hash, built once (constructing an HMAC per key costs two
// extra SHA-256 compressions and five allocations), and a chunk of subChunk
// bytes that results are cut from, each clipped to its own length. A result
// thus costs no allocation of its own; a chunk is made when the one in hand
// runs short, and a keyed hash only when the garbage collector empties the
// pool. A pooled chunk holds substituted keys and the spare tail of the last
// sum, never a plaintext key.
type HMAC struct {
	width int
	pool  sync.Pool // of *subState
}

// subChunk is the size of the chunks substitution results are cut from: 170
// of the benchmark's 24-byte keys. A chunk lives as long as any result cut
// from it, so callers that keep results copy them (see Substituter).
const subChunk = 4096

// subState is one pooled substitution state. Between the pool's Get and Put
// it belongs to one goroutine, and a result cut from buf is never cut again,
// so results handed out from one state never overlap.
type subState struct {
	mac hash.Hash // keyed with the secret, always in reset state
	buf []byte    // the unused tail of the current chunk
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
	h.pool.New = func() any { return &subState{mac: hmac.New(sha256.New, secret)} }
	return h, nil
}

// take returns the next n bytes of the state's chunk, zeroed, with room
// behind them for extra more bytes the caller may write but not keep. When
// the chunk runs short it is left to the results already cut from it and a
// fresh one is made: the one place this package makes a buffer.
func (s *subState) take(n, extra int) []byte {
	if len(s.buf) < n+extra {
		s.buf = make([]byte, subChunk)
	}
	p := s.buf[:n]
	clear(p)
	return p
}

// cut hands out p, a prefix of the chunk's tail that take returned and the
// caller filled, clipped to its length, and moves the tail past it.
func (s *subState) cut(p []byte) []byte {
	n := len(p)
	s.buf = s.buf[n:]
	return p[:n:n]
}

func (h *HMAC) Substitute(key []byte) []byte {
	s := h.pool.Get().(*subState)
	out := s.cut(h.appendSum(s, s.take(0, sha256.Size), key))
	h.pool.Put(s)
	return out
}

// appendSum appends key's substitute to dst, which must have sha256.Size
// bytes of spare capacity for the untruncated sum; the bytes past the width
// stay in the chunk's tail, for the next result to overwrite.
func (h *HMAC) appendSum(s *subState, dst, key []byte) []byte {
	s.mac.Write(key)
	sum := s.mac.Sum(dst)
	// Reset restores the keyed pads from their marshaled state (two
	// compressions a call instead of four) and leaves nothing of key behind
	// in the pooled state.
	s.mac.Reset()
	return sum[:len(dst)+h.width]
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
// result, cut from the inner substituter's chunk.
func (b *Bucketed) Substitute(key []byte) []byte {
	h := b.inner
	s := h.pool.Get().(*subState)
	out := s.take(b.prefixLen, sha256.Size)
	b.putPrefix(out, key)
	out = s.cut(h.appendSum(s, out, key))
	h.pool.Put(s)
	return out
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
// from the inner substituter's chunk, each clipped to its own length.
func (b *Bucketed) SubstituteRange(from, to []byte) (lo, hi []byte) {
	if from == nil && to == nil {
		return nil, nil
	}
	h := b.inner
	s := h.pool.Get().(*subState)
	if from != nil {
		lo = s.take(b.prefixLen, 0)
		b.putPrefix(lo, from)
		lo = s.cut(lo)
	}
	if to != nil {
		hi = s.take(b.prefixLen, 0)
		b.putPrefix(hi, to)
		i := len(hi) - 1
		for ; i >= 0; i-- {
			if hi[i]++; hi[i] != 0 {
				break
			}
		}
		if i >= 0 {
			hi = s.cut(hi)
		} else {
			hi = nil // to's bucket is the last one: unbounded above
		}
	}
	h.pool.Put(s)
	return lo, hi
}

func (b *Bucketed) Width() int { return b.prefixLen + b.inner.Width() }

func (b *Bucketed) Name() string {
	return fmt.Sprintf("bucketed/%dbit+%s", b.prefixBits, b.inner.Name())
}
