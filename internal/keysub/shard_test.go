package keysub

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestNewShardRouterRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewShardRouter(n); err == nil {
			t.Errorf("NewShardRouter(%d) = nil error, want rejection", n)
		}
	}
	r, err := NewShardRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.RouteRange(nil, nil); lo != 0 || hi != 0 {
		t.Fatalf("RouteRange(nil, nil) = [%d, %d] over one shard, want [0, 0]", lo, hi)
	}
}

func TestRouteSingleShardIsAlwaysZero(t *testing.T) {
	r, err := NewShardRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range [][]byte{nil, {}, {0x00}, {0xFF}, bytes.Repeat([]byte{0xFF}, 16)} {
		if got := r.Route(sk); got != 0 {
			t.Errorf("Route(%x) = %d with one shard, want 0", sk, got)
		}
	}
}

// TestRouteBounds: every key routes into [0, n), including the extremes of
// the prefix space and keys shorter than 8 bytes.
func TestRouteBounds(t *testing.T) {
	keys := [][]byte{
		nil, {}, {0x00}, {0x7F}, {0x80}, {0xFF},
		bytes.Repeat([]byte{0x00}, 8), bytes.Repeat([]byte{0xFF}, 8),
		bytes.Repeat([]byte{0xFF}, 24), {0xFF, 0xFF, 0xFF},
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16, 255} {
		r, err := NewShardRouter(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sk := range keys {
			got := r.Route(sk)
			if got < 0 || got >= n {
				t.Errorf("n=%d: Route(%x) = %d out of [0, %d)", n, sk, got, n)
			}
		}
		if got := r.Route(bytes.Repeat([]byte{0x00}, 8)); got != 0 {
			t.Errorf("n=%d: lowest key routes to %d, want 0", n, got)
		}
		if got := r.Route(bytes.Repeat([]byte{0xFF}, 24)); got != n-1 {
			t.Errorf("n=%d: highest key routes to %d, want %d", n, got, n-1)
		}
	}
}

// TestRouteOrderPreserving: sorting random substituted keys sorts their shard
// assignments — the load-bearing property behind contiguous-range scans.
func TestRouteOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 3, 5, 8, 64} {
		r, err := NewShardRouter(n)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([][]byte, 4096)
		for i := range keys {
			k := make([]byte, 1+rng.Intn(24))
			rng.Read(k)
			keys[i] = k
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		prev := 0
		for _, k := range keys {
			sh := r.Route(k)
			if sh < prev {
				t.Fatalf("n=%d: order violated: key %x routes to %d after shard %d", n, k, sh, prev)
			}
			prev = sh
		}
	}
}

// TestRouteSharedPrefixSticksTogether: keys sharing an 8-byte prefix land on
// the same shard — longer suffixes never split them.
func TestRouteSharedPrefixSticksTogether(t *testing.T) {
	r, err := NewShardRouter(7)
	if err != nil {
		t.Fatal(err)
	}
	base := []byte{0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x07, 0x18}
	want := r.Route(base)
	for _, suffix := range [][]byte{{}, {0x00}, {0xFF}, bytes.Repeat([]byte{0x55}, 16)} {
		k := append(append([]byte(nil), base...), suffix...)
		if got := r.Route(k); got != want {
			t.Errorf("Route(%x) = %d, want %d (same 8-byte prefix)", k, got, want)
		}
	}
}

// TestRouteEvenSpread: uniform random prefixes spread close to evenly — the
// widening-multiply assignment has no modulo bias.
func TestRouteEvenSpread(t *testing.T) {
	const n, samples = 4, 40000
	r, err := NewShardRouter(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, n)
	k := make([]byte, 12)
	for i := 0; i < samples; i++ {
		rng.Read(k)
		counts[r.Route(k)]++
	}
	want := samples / n
	for sh, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("shard %d holds %d of %d uniform keys, want ~%d (+/-20%%)", sh, c, samples, want)
		}
	}
}

func TestRouteRange(t *testing.T) {
	r, err := NewShardRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	full := func(b byte) []byte { return bytes.Repeat([]byte{b}, 8) }
	for _, tc := range []struct {
		from, to []byte
		lo, hi   int
	}{
		{nil, nil, 0, 3},
		{full(0x00), nil, 0, 3},
		{nil, full(0x3F), 0, 0},
		{full(0x40), full(0x7F), 1, 1},
		{full(0x40), full(0xC0), 1, 3},
		{full(0x00), full(0xFF), 0, 3},
		// Inverted bounds clamp rather than produce an empty interval.
		{full(0xC0), full(0x10), 3, 3},
	} {
		lo, hi := r.RouteRange(tc.from, tc.to)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("RouteRange(%x, %x) = [%d, %d], want [%d, %d]", tc.from, tc.to, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestRouteRangeCoversAllKeys: for random ranges, every key inside the range
// routes to a shard within RouteRange's interval — the superset contract.
func TestRouteRangeCoversAllKeys(t *testing.T) {
	r, err := NewShardRouter(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		from := make([]byte, 8)
		to := make([]byte, 8)
		rng.Read(from)
		rng.Read(to)
		if bytes.Compare(from, to) > 0 {
			from, to = to, from
		}
		lo, hi := r.RouteRange(from, to)
		for i := 0; i < 50; i++ {
			k := make([]byte, 8)
			rng.Read(k)
			if bytes.Compare(k, from) < 0 || bytes.Compare(k, to) >= 0 {
				continue
			}
			if sh := r.Route(k); sh < lo || sh > hi {
				t.Fatalf("key %x in [%x, %x) routes to shard %d outside [%d, %d]",
					k, from, to, sh, lo, hi)
			}
		}
	}
}

// TestRouteBucketedSubstituterContiguity ties the router to the substituter
// it is designed for: under a bucketed substituter, plaintext keys in
// DISTINCT buckets route to shards in plaintext order (within one bucket the
// inner PRF scrambles order, so only cross-bucket order is promised). This
// is what makes a plaintext range scan touch a contiguous shard run.
func TestRouteBucketedSubstituterContiguity(t *testing.T) {
	inner, err := NewHMAC(bytes.Repeat([]byte{0x0B}, 32), 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewBucketed(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewShardRouter(3)
	if err != nil {
		t.Fatal(err)
	}
	// Keys whose leading two bytes (the bucket prefix) follow plaintext
	// order; per-bucket shard minima must be monotone across buckets.
	type bk struct {
		bucket string
		shard  int
	}
	var seq []bk
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%04d-key", i)
		seq = append(seq, bk{k[:2], r.Route(sub.Substitute([]byte(k)))})
	}
	for i := 1; i < len(seq); i++ {
		for j := 0; j < i; j++ {
			if seq[j].bucket != seq[i].bucket && seq[j].shard > seq[i].shard {
				t.Fatalf("bucket %q key routes to shard %d after bucket %q's shard %d; cross-bucket routing not monotone",
					seq[i].bucket, seq[i].shard, seq[j].bucket, seq[j].shard)
			}
		}
	}
}
