package keysub

import "testing"

var benchSink []byte

func benchSubstitute(b *testing.B, sub Substituter) {
	key := []byte("user:0000000042!") // 16 bytes, the benchmark workloads' key size
	b.ReportAllocs()
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		benchSink = sub.Substitute(key)
	}
}

func BenchmarkSubstituteHMAC(b *testing.B) {
	h, _, _ := fuzzSubs(b)
	benchSubstitute(b, h)
}

func BenchmarkSubstituteBucketed(b *testing.B) {
	_, b16, _ := fuzzSubs(b)
	benchSubstitute(b, b16)
}

func BenchmarkSubstituteRange(b *testing.B) {
	_, b16, _ := fuzzSubs(b)
	from, to := []byte("user:0000000042!"), []byte("user:0000000099!")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink, _ = b16.SubstituteRange(from, to)
	}
}
