package keysub

import (
	"bytes"
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/israce"
)

// The golden vectors were generated by the per-call hmac.New implementation
// this package shipped through PR 12. Substituted keys are what page files
// index on, so any drift here orphans every stored key.
var goldenSecret = []byte("ekbtree golden-vector secret 01")

func goldenKeys() [][]byte {
	long := make([]byte, 100)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return [][]byte{{}, []byte("a"), []byte("alice"), []byte("user:0000000042"), {0xFF, 0xFE, 0x00, 0x01, 0x80}, long}
}

// goldenHMAC holds the untruncated HMAC-SHA256 of each golden key; narrower
// widths are prefixes of it.
var goldenHMAC = []string{
	"a8c3b0175f1bad9b5399048db3f12f22848592be87c5abd9281194199c47f483",
	"2891c3825a4900d9f3c6c06c4901f85557391c05543023ede686c804b15e3167",
	"a6bca7a6ccc0fd05dd3285e164c80887619bc5890e08b813b2719270647bb29b",
	"6d3e844f9a429775db73826cdc5de34f30f950e8fe366227cd5eb469e2747d72",
	"06766eaed70757ed4ad7795677af49582c6b346f0c791b7ea5a624123f39eafb",
	"4c6671e5f53aae646d1fa5efb12b8ac6a2e7c3bfa163883b74874bc7ea68e5ce",
}

func TestHMACGoldenVectors(t *testing.T) {
	for _, width := range []int{8, 24, 32} {
		h, err := NewHMAC(goldenSecret, width)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range goldenKeys() {
			if got, want := hex.EncodeToString(h.Substitute(k)), goldenHMAC[i][:2*width]; got != want {
				t.Errorf("width %d key %x: got %s, want %s", width, k, got, want)
			}
		}
	}
}

func TestBucketedGoldenVectors(t *testing.T) {
	inner, err := NewHMAC(goldenSecret, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		bits     int
		prefixes []string // per golden key; the 24-byte PRF output follows
		lo, hi   string   // SubstituteRange("alice", "bob")
	}{
		{8, []string{"00", "61", "61", "75", "ff", "00"}, "61", "63"},
		{13, []string{"0000", "6100", "6168", "7570", "fff8", "0000"}, "6168", "6269"},
		{16, []string{"0000", "6100", "616c", "7573", "fffe", "0007"}, "616c", "6270"},
	} {
		b, err := NewBucketed(inner, g.bits)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range goldenKeys() {
			if got, want := hex.EncodeToString(b.Substitute(k)), g.prefixes[i]+goldenHMAC[i][:48]; got != want {
				t.Errorf("%d bits key %x: got %s, want %s", g.bits, k, got, want)
			}
		}
		lo, hi := b.SubstituteRange([]byte("alice"), []byte("bob"))
		if hex.EncodeToString(lo) != g.lo || hex.EncodeToString(hi) != g.hi {
			t.Errorf("%d bits: SubstituteRange(alice, bob) = (%x, %x), want (%s, %s)", g.bits, lo, hi, g.lo, g.hi)
		}
		// The bounds share one buffer; growing lo must not reach into hi.
		if _ = append(lo, 0xEE); hex.EncodeToString(hi) != g.hi {
			t.Errorf("%d bits: appending to lo clobbered hi", g.bits)
		}
	}
	// A 13-bit prefix's last bucket is fff8; its bound is fff9, not a wrap.
	b13, _ := NewBucketed(inner, 13)
	if lo, hi := b13.SubstituteRange(nil, []byte{0xFF, 0xFF, 0xFF}); lo != nil || !bytes.Equal(hi, []byte{0xFF, 0xF9}) {
		t.Errorf("13 bits: SubstituteRange(nil, ffffff) = (%x, %x), want (nil, fff9)", lo, hi)
	}
}

// TestHMACPoolConcurrent hammers one substituter from several goroutines
// with keys of every length from 0 to past two SHA-256 blocks and checks
// each result against a fresh hmac.New: a pooled state that kept anything of
// its previous key would show as a mismatch. Run under -race.
func TestHMACPoolConcurrent(t *testing.T) {
	const goroutines, perG = 8, 10_000
	secret := bytes.Repeat([]byte{0x5A}, 32)
	h, err := NewHMAC(secret, 24)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := NewBucketed(h, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8+150)
			for i := 0; i < perG; i++ {
				// Distinct per (goroutine, i); length varies with i.
				binary.BigEndian.PutUint32(buf, uint32(g))
				binary.BigEndian.PutUint32(buf[4:], uint32(i))
				key := buf[:8+(i*7+g)%150]
				if i%100 == 0 {
					key = key[:i/100%8] // short and empty keys too
				}
				ref := hmac.New(sha256.New, secret)
				ref.Write(key)
				want := ref.Sum(nil)[:24]
				if got := h.Substitute(key); !bytes.Equal(got, want) {
					t.Errorf("goroutine %d key %d (%d bytes): got %x, want %x", g, i, len(key), got, want)
					return
				}
				if got := bk.Substitute(key); !bytes.Equal(got[2:], want) {
					t.Errorf("goroutine %d key %d: bucketed PRF part %x, want %x", g, i, got[2:], want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSubstituteAllocs guards the chunked substitution: a result costs no
// allocation of its own, and a chunk's worth of calls (subChunk bytes of
// results) costs at most the one chunk it fills, for Substitute and for
// SubstituteRange's two bounds.
func TestSubstituteAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	h, b16, _ := fuzzSubs(t)
	key := []byte("user:0000000042")
	for _, tt := range []struct {
		name string
		size int // result bytes a call cuts from the chunk
		call func()
	}{
		{h.Name(), h.Width(), func() { h.Substitute(key) }},
		{b16.Name(), b16.Width(), func() { b16.Substitute(key) }},
		{"SubstituteRange", 2 * b16.prefixLen, func() { b16.SubstituteRange(key, key) }},
	} {
		tt.call() // fill the pool
		if n := testing.AllocsPerRun(200, tt.call); n != 0 {
			t.Errorf("%s: a call allocates %.2f times on average, want 0", tt.name, n)
		}
		chunk := func() {
			for range subChunk / tt.size {
				tt.call()
			}
		}
		if n := testing.AllocsPerRun(20, chunk); n > 1 {
			t.Errorf("%s: a chunk's worth of calls allocates %.0f times, want <= 1", tt.name, n)
		}
	}
}

// TestResultsNeverOverlap checks the chunk's ownership rule from several
// goroutines at once: every result, Substitute's of both substituters and
// SubstituteRange's bounds, is clipped (cap == len), no two share a byte, and
// none changes after it is handed out. Run under -race, which also sees a
// chunk written by two goroutines.
func TestResultsNeverOverlap(t *testing.T) {
	h, b16, _ := fuzzSubs(t)
	const goroutines, perG = 4, 2000
	results := make([][][]byte, goroutines)
	keyOf := func(g, i int) []byte {
		key := make([]byte, 8)
		binary.BigEndian.PutUint32(key, uint32(g))
		binary.BigEndian.PutUint32(key[4:], uint32(i))
		return key
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				key := keyOf(g, i)
				lo, hi := b16.SubstituteRange(key, key)
				results[g] = append(results[g], h.Substitute(key), b16.Substitute(key), lo, hi)
			}
		}()
	}
	wg.Wait()

	type span struct {
		lo, hi uintptr
	}
	var spans []span
	for g, own := range results {
		for j, r := range own {
			if len(r) == 0 || cap(r) != len(r) {
				t.Fatalf("goroutine %d result %d: len %d cap %d, want a clipped non-empty result", g, j, len(r), cap(r))
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(r)))
			spans = append(spans, span{lo, lo + uintptr(len(r))})
			key := keyOf(g, j/4)
			rlo, rhi := b16.SubstituteRange(key, key)
			if fresh := [][]byte{h.Substitute(key), b16.Substitute(key), rlo, rhi}[j%4]; !bytes.Equal(r, fresh) {
				t.Fatalf("goroutine %d result %d changed after it was handed out: %x, want %x", g, j, r, fresh)
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two results overlap: [%#x, %#x) and [%#x, %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}
