package cipher

import (
	"bytes"
	"fmt"
	"testing"
)

var benchPageSizes = []int{1 << 10, 4 << 10, 16 << 10}

func BenchmarkSealEpoch(b *testing.B) {
	c, err := NewEpochAESGCM(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchPageSizes {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			pt := make([]byte, size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := c.SealEpoch(7, 1, uint64(i), pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen includes the copy that hands Open a buffer it may consume,
// standing in for the store read that precedes every real open.
func BenchmarkOpen(b *testing.B) {
	c, err := NewEpochAESGCM(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchPageSizes {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			sealed, err := c.SealEpoch(7, 1, 1, make([]byte, size))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, len(sealed))
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				copy(buf, sealed)
				if _, err := c.Open(7, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
