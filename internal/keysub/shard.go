package keysub

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ShardRouter range-partitions the SUBSTITUTED key space across n shards.
// It never sees plaintext: routing reads only the substituted key, so the
// shard boundary leaks nothing the substituted keys themselves do not.
//
// The partition is order-preserving: if substituted key a < b
// (lexicographically), then Route(a) <= Route(b). With a bucketed
// substituter — order-preserving at bucket granularity by construction —
// this means plaintext ranges map to contiguous shard runs, so a range scan
// touches only the shards its bucket interval spans. With a pure-PRF
// substituter the substituted keys are uniform, which makes the same router
// an even hash partitioner instead; both properties fall out of one rule.
//
// Routing interprets the first 8 bytes of the substituted key (zero-padded
// on the right) as a big-endian uint64 u and assigns shard
// floor(u * n / 2^64) — n equal slices of the 64-bit prefix space, computed
// with a widening multiply, no division or modulo bias. Keys sharing an
// 8-byte prefix always land together, which preserves ordering exactly.
type ShardRouter struct {
	n uint64
}

// NewShardRouter returns a router over n >= 1 shards.
func NewShardRouter(n int) (*ShardRouter, error) {
	if n < 1 {
		return nil, fmt.Errorf("keysub: shard count %d must be >= 1", n)
	}
	return &ShardRouter{n: uint64(n)}, nil
}

// prefix64 reads the first 8 bytes of sk as a big-endian uint64, zero-padding
// short keys on the right so prefix order equals lexicographic order for the
// bytes considered.
func prefix64(sk []byte) uint64 {
	if len(sk) >= 8 {
		return binary.BigEndian.Uint64(sk)
	}
	var buf [8]byte
	copy(buf[:], sk)
	return binary.BigEndian.Uint64(buf[:])
}

// Route returns the shard index in [0, n) that owns substituted key sk.
func (r *ShardRouter) Route(sk []byte) int {
	hi, _ := bits.Mul64(prefix64(sk), r.n)
	return int(hi)
}

// RouteRange returns the inclusive shard interval [lo, hi] that a scan over
// substituted keys in [from, to) must visit. A nil from is unbounded below
// (shard 0); a nil to is unbounded above (shard n-1). The interval is a
// superset: boundary shards may also hold keys outside the range, which the
// scan's own bounds filter out.
func (r *ShardRouter) RouteRange(from, to []byte) (lo, hi int) {
	lo = 0
	if from != nil {
		lo = r.Route(from)
	}
	hi = int(r.n) - 1
	if to != nil {
		hi = r.Route(to)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
