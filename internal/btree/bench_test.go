package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func benchKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 16)
		binary.BigEndian.PutUint64(keys[i], rng.Uint64())
		binary.BigEndian.PutUint64(keys[i][8:], uint64(i))
	}
	return keys
}

// BenchmarkPutGet measures one Put of a fresh key followed by one Get, the
// core mixed workload, over a pre-populated tree of 10k keys.
func BenchmarkPutGet(b *testing.B) {
	for _, degree := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("t=%d", degree), func(b *testing.B) {
			st := newMemNodes()
			tr, err := New(st, degree)
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(10_000 + b.N)
			value := make([]byte, 64)
			for _, k := range keys[:10_000] {
				if err := tr.Put(k, value); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[10_000+i]
				if err := tr.Put(k, value); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := Lookup(st, st.root, k); err != nil || !ok {
					b.Fatalf("Get = (%v, %v)", ok, err)
				}
			}
		})
	}
}

// BenchmarkGet measures point lookups in a 100k-key tree.
func BenchmarkGet(b *testing.B) {
	st := newMemNodes()
	tr, err := New(st, 16)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(100_000)
	value := make([]byte, 64)
	for _, k := range keys {
		if err := tr.Put(k, value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := Lookup(st, st.root, keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
}
