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

// BenchmarkDeleteChurn measures one Delete of a random live key followed by
// one Put of a fresh key, at a constant 50k keys, so every case of the delete
// rule (fill, rotate, merge, predecessor) and the insert rule runs in
// proportion. writes/op counts NodeStore.Write calls per Delete+Put; pages is
// the live page count at the end.
func BenchmarkDeleteChurn(b *testing.B) {
	const size = 50_000
	st := &countWrites{memNodes: newMemNodes()}
	tr, err := New(st, 16)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(size + b.N)
	value := make([]byte, 64)
	for _, k := range keys[:size] {
		if err := tr.Put(k, value); err != nil {
			b.Fatal(err)
		}
	}
	// live holds the tree's keys; each op deletes a random one and puts a
	// fresh key in its place.
	live := append([][]byte(nil), keys[:size]...)
	rng := rand.New(rand.NewSource(7))
	st.writes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(size)
		if ok, err := tr.Delete(live[j]); err != nil || !ok {
			b.Fatalf("Delete = (%v, %v)", ok, err)
		}
		live[j] = keys[size+i]
		if err := tr.Put(live[j], value); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(len(st.pages)), "pages")
}
