package node

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// benchNode is a full default-order leaf as the benchmark workloads make
// them: 31 entries, 24-byte substituted keys sharing a 2-byte bucket prefix,
// 100-byte values.
func benchNode() *Node {
	n := &Node{Leaf: true}
	for i := 0; i < 31; i++ {
		k := make([]byte, 24)
		k[0], k[1] = 0x61, 0x6c
		binary.BigEndian.PutUint64(k[2:], uint64(i)*0x9E3779B97F4A7C15)
		n.Keys = append(n.Keys, k)
		n.Values = append(n.Values, make([]byte, 100))
	}
	return n
}

var (
	benchPage []byte
	benchOut  *Node
)

func BenchmarkEncode(b *testing.B) {
	n := benchNode()
	for _, f := range []Format{FormatFull, FormatPrefix} {
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n.EncodedSizeFormat(f)))
			for i := 0; i < b.N; i++ {
				benchPage, _ = n.EncodeFormat(f)
			}
		})
		b.Run(fmt.Sprintf("%s/append", f), func(b *testing.B) {
			var scratch []byte
			b.ReportAllocs()
			b.SetBytes(int64(n.EncodedSizeFormat(f)))
			for i := 0; i < b.N; i++ {
				scratch, _ = n.AppendEncodeFormat(scratch[:0], f)
			}
			benchPage = scratch
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	n := benchNode()
	for _, f := range []Format{FormatFull, FormatPrefix} {
		b.Run(f.String(), func(b *testing.B) {
			page, err := n.EncodeFormat(f)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(page)))
			for i := 0; i < b.N; i++ {
				if benchOut, err = Decode(page); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeInPlace is the engine's miss path. The decoder consumes its
// page, so every iteration refills one scratch buffer first; that copy is
// inside the timing and allocates nothing, so the gap to BenchmarkDecode — a
// page-sized allocation and a materialised node — is the price of the copying
// entry.
func BenchmarkDecodeInPlace(b *testing.B) {
	n := benchNode()
	for _, f := range []Format{FormatFull, FormatPrefix} {
		b.Run(f.String(), func(b *testing.B) {
			page, err := n.EncodeFormat(f)
			if err != nil {
				b.Fatal(err)
			}
			scratch := make([]byte, len(page))
			b.ReportAllocs()
			b.SetBytes(int64(len(page)))
			for i := 0; i < b.N; i++ {
				copy(scratch, page)
				if benchOut, err = DecodeInPlace(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearch probes every key of the node in turn, as a materialised
// node and as the view a read miss makes of its page.
func BenchmarkSearch(b *testing.B) {
	n := benchNode()
	page, err := n.EncodeFormat(FormatPrefix)
	if err != nil {
		b.Fatal(err)
	}
	view, err := DecodeInPlace(page)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    *Node
	}{{"materialised", n}, {"view", view}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.n.Search(n.Keys[i%len(n.Keys)])
			}
		})
	}
}
