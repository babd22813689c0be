package main

import (
	"encoding/binary"
	"math/rand"
)

// Everything the program under test sees is derived from -seed here: keys,
// values and the order of operations. The tree receives only the generated
// bytes; the checker recomputes what it expects from (seed, index, version)
// and so keeps no copy of the data.

const (
	keyLen   = 16
	valueLen = 100
	// absentBit marks an index that is never inserted: the same key
	// construction, a disjoint index range.
	absentBit = uint64(1) << 62
	// bucketSpace is the number of prefixes a 16-bit bucketed substituter
	// distinguishes; scan-range spreads its buckets evenly across them.
	bucketSpace = 1 << 16
)

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler, used so
// that checking a value costs nanoseconds rather than an HMAC.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keygen builds the plaintext keys of one run.
type keygen struct {
	seed uint64
	// buckets > 0 lays keys out as bucket(2) | scramble(6) | index(8), index
	// i falling in bucket i % buckets; otherwise scramble(8) | index(8).
	buckets int
}

// key writes the key of index i into dst (keyLen bytes) and returns it.
func (g keygen) key(dst []byte, i uint64) []byte {
	dst = dst[:keyLen]
	binary.BigEndian.PutUint64(dst, mix64(g.seed^mix64(i)))
	if g.buckets > 0 {
		b := i % uint64(g.buckets)
		binary.BigEndian.PutUint16(dst, uint16(b*uint64(bucketSpace/g.buckets)))
	}
	binary.BigEndian.PutUint64(dst[8:], i)
	return dst
}

// bucketSize is how many of the indices [0, n) fall in bucket b.
func (g keygen) bucketSize(n, b uint64) uint64 {
	size := n / uint64(g.buckets)
	if b < n%uint64(g.buckets) {
		size++
	}
	return size
}

// fillValue writes the value of (index, version) into dst (valueLen bytes):
// index(8) | version(4) | a splitmix stream keyed by seed, index and version.
func fillValue(dst []byte, seed, index uint64, version uint32) []byte {
	dst = dst[:valueLen]
	binary.BigEndian.PutUint64(dst, index)
	binary.BigEndian.PutUint32(dst[8:], version)
	s := mix64(seed ^ mix64(index) ^ uint64(version)<<32)
	var w [8]byte
	for off := 12; off < valueLen; off += 8 {
		s = mix64(s)
		binary.LittleEndian.PutUint64(w[:], s)
		copy(dst[off:], w[:])
	}
	return dst
}

// checkValue reports whether v is the value of (index, version). A negative
// version accepts whatever version v itself carries, which still pins the
// bytes to the seed and the index (used where another client owns the key).
func checkValue(v []byte, seed, index uint64, version int64) bool {
	if len(v) != valueLen || binary.BigEndian.Uint64(v) != index {
		return false
	}
	got := binary.BigEndian.Uint32(v[8:])
	if version >= 0 && uint32(version) != got {
		return false
	}
	var want [valueLen]byte
	fillValue(want[:], seed, index, got)
	return string(want[:]) == string(v)
}

// clientRand is the one math/rand stream a client draws its operations from.
func clientRand(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed ^ uint64(client+1)*0x51ed27))))
}
