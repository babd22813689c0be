package node

import (
	"bytes"
	"testing"
)

// fuzzCanonical is the shared body of both decode fuzz targets: Decode must
// never panic; when it accepts a page, the codec must be canonical —
// re-encoding the decoded node in the page's own format reproduces the input
// byte-for-byte — and the decoded node must satisfy the structural
// invariants Encode enforces and must not alias the input buffer.
//
// Both decode paths run on every input, each over its own copy: DecodeInPlace
// over a buffer with poisoned spare capacity behind the page, and
// Block.Decode over a block's room holding the page with poisoned bytes after
// it, as a deciphered page is followed by its tag. Each view is held to
// Decode's materialised node: the same verdict, the same key, value and child
// at every index, the same Search answer for every key and for each key with
// its last byte one up and one down, and the same page when re-encoded. Every
// slice a view hands out must lie within its page or its side buffer, so an
// accessor that read past the page fails here even where the bytes it read
// happened to agree.
func fuzzCanonical(t *testing.T, page []byte) {
	const tail = 16
	buf := append(make([]byte, 0, len(page)+tail), page...)
	poison(buf[len(buf):cap(buf)])
	inPlace, inPlaceErr := DecodeInPlace(buf)
	blk := NewBlock(len(page) + tail)
	room := blk.Page()
	copy(room, page)
	poison(room[len(page):])
	inBlock, inBlockErr := blk.Decode(room[:len(page)], 0)

	n, err := Decode(page)
	views := []struct {
		name string
		view *Node
		err  error
		page []byte
	}{
		{"DecodeInPlace", inPlace, inPlaceErr, buf[:len(page):len(page)]},
		{"Block.Decode", inBlock, inBlockErr, room[:len(page):len(page)]},
	}
	for _, v := range views {
		if (err == nil) != (v.err == nil) {
			t.Fatalf("Decode = %v but %s of a copy = %v", err, v.name, v.err)
		}
	}
	if err != nil {
		return
	}
	for _, v := range views {
		checkView(t, v.name, v.view, v.page, n)
	}
	if len(n.Keys) != len(n.Values) {
		t.Fatalf("decoded %d keys but %d values", len(n.Keys), len(n.Values))
	}
	if n.Leaf && len(n.Children) != 0 {
		t.Fatalf("decoded leaf with %d children", len(n.Children))
	}
	if !n.Leaf && len(n.Children) != len(n.Keys)+1 {
		t.Fatalf("decoded internal node with %d keys but %d children", len(n.Keys), len(n.Children))
	}
	format := FormatOf(page)
	reenc, err := n.EncodeFormat(format)
	if err != nil {
		t.Fatalf("re-encode of decoded node failed: %v", err)
	}
	if !bytes.Equal(reenc, page) {
		t.Fatalf("codec not canonical (format %v):\n in  %x\n out %x", format, page, reenc)
	}
	for _, v := range views {
		if viewEnc, err := v.view.EncodeFormat(format); err != nil || !bytes.Equal(viewEnc, page) {
			t.Fatalf("re-encoding the %s view = (%x, %v), want the page %x", v.name, viewEnc, err, page)
		}
	}
	if got := n.EncodedSizeFormat(format); got != len(page) {
		t.Fatalf("EncodedSizeFormat(%v) = %d, page is %d bytes", format, got, len(page))
	}
	// The decoded node must not alias the page: clobber the input and
	// re-encode again.
	for i := range page {
		page[i] ^= 0xFF
	}
	reenc2, err := n.EncodeFormat(format)
	if err != nil {
		t.Fatalf("re-encode after input clobber failed: %v", err)
	}
	if !bytes.Equal(reenc, reenc2) {
		t.Fatal("decoded node aliases the input page")
	}
}

// poison fills b with a byte no test page relies on.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// checkView holds a view, decoded by the named path over inPage, to Decode's
// materialised node n of the same page.
func checkView(t *testing.T, name string, view *Node, inPage []byte, n *Node) {
	t.Helper()
	if !nodesEqual(view, n) {
		t.Fatalf("the %s view differs from Decode's node:\n got %+v\nwant %+v", name, view.Materialize(), n)
	}
	for i := range view.Len() {
		if k := view.Key(i); !within(k, inPage) && !within(k, view.side) {
			t.Fatalf("key %d of the %s view lies outside the page and its side buffer", i, name)
		}
		if !within(view.Value(i), inPage) {
			t.Fatalf("value %d of the %s view lies outside the page", i, name)
		}
	}
	if !view.Leaf && view.kids+8*(view.Len()+1) != len(inPage) {
		t.Fatalf("the %s view reads %d children from offset %d of a %d-byte page", name, view.Len()+1, view.kids, len(inPage))
	}
	for i := range n.Len() {
		k := n.Key(i)
		probes := [][]byte{k}
		if last := len(k) - 1; last >= 0 {
			up, down := bytes.Clone(k), bytes.Clone(k)
			up[last]++
			down[last]--
			probes = append(probes, up, down)
		}
		for _, p := range probes {
			vi, veq := view.Search(p)
			if mi, meq := n.Search(p); vi != mi || veq != meq {
				t.Fatalf("Search(%x) = (%d, %v) on the %s view, (%d, %v) on Decode's node", p, vi, veq, name, mi, meq)
			}
		}
	}
}

// FuzzDecode throws arbitrary bytes at the page decoder, seeded with
// full-format pages (plus the checked-in corpus under
// testdata/fuzz/FuzzDecode).
func FuzzDecode(f *testing.F) {
	seeds := []*Node{
		{Leaf: true},
		{Leaf: true, Keys: [][]byte{{0x01}}, Values: [][]byte{{0xAA, 0xBB}}},
		{Leaf: true, Keys: [][]byte{{}, {0x00}, {0x00, 0x01}}, Values: [][]byte{{}, {}, {0xFF}}},
		{
			Leaf:     false,
			Keys:     [][]byte{[]byte("m")},
			Values:   [][]byte{[]byte("v")},
			Children: []uint64{3, 9},
		},
		{
			Leaf:     false,
			Keys:     [][]byte{bytes.Repeat([]byte{0x7F}, 24), bytes.Repeat([]byte{0x80}, 24)},
			Values:   [][]byte{bytes.Repeat([]byte{0x01}, 64), {}},
			Children: []uint64{1, 1 << 40, ^uint64(0)},
		},
	}
	for _, n := range seeds {
		page, err := n.EncodeFormat(FormatFull)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	f.Add([]byte{})
	f.Add([]byte{0xEB, 0x01, 0x00, 0x00, 0x00})

	f.Fuzz(fuzzCanonical)
}

// FuzzDecodePrefixTruncated aims the same canonicality harness at the
// prefix-truncated format: seeds are prefix-encoded internal and leaf nodes
// whose keys share long prefixes (the shape substituted separator keys
// take), plus hand-built near-misses — over-truncation (shared beyond the
// previous key), under-truncation (a suffix that still matches the previous
// key), and an unknown flag bit — all of which Decode must reject. The
// checked-in corpus lives under testdata/fuzz/FuzzDecodePrefixTruncated.
func FuzzDecodePrefixTruncated(f *testing.F) {
	seeds := []*Node{
		{Leaf: true},
		{
			Leaf:     false,
			Keys:     [][]byte{[]byte("bucket00-aaa"), []byte("bucket00-abc"), []byte("bucket01-a")},
			Values:   [][]byte{[]byte("s0"), {}, []byte("s2")},
			Children: []uint64{1, 2, 3, ^uint64(0)},
		},
		{
			Leaf:   true,
			Keys:   [][]byte{{}, {0x00}, {0x00, 0x00}, {0x00, 0x01}},
			Values: [][]byte{{}, {0xA0}, {0xA1}, {0xA2}},
		},
		{
			Leaf: false,
			Keys: [][]byte{
				bytes.Repeat([]byte{0x42}, 24),
				append(bytes.Repeat([]byte{0x42}, 23), 0x43),
			},
			Values:   [][]byte{[]byte("sep-a"), []byte("sep-b")},
			Children: []uint64{10, 11, 1 << 50},
		},
		// Adjacent identical prefixes but shrinking keys: shared can equal
		// the whole next key (empty suffix).
		{
			Leaf:   true,
			Keys:   [][]byte{[]byte("prefix-long"), []byte("prefix-longer")},
			Values: [][]byte{{0x01}, {0x02}},
		},
	}
	for _, n := range seeds {
		page, err := n.EncodeFormat(FormatPrefix)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	// Near-misses, from a valid two-key prefix page: keys "ab", "ac" encode
	// as (0,2,"ab"), (1,1,"c").
	valid, err := (&Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("ab"), []byte("ac")},
		Values: [][]byte{{}, {}},
	}).EncodeFormat(FormatPrefix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	overShared := append([]byte(nil), valid...)
	overShared[headerSize+4+2] = 0x00
	overShared[headerSize+4+2+1] = 0x03 // shared=3 > len("ab")
	f.Add(overShared)
	underShared := append([]byte(nil), valid...)
	underShared[headerSize+4+2+3+1] = 'b' // suffix "b" still matches prev[1]
	f.Add(underShared)
	unknownFlag := append([]byte(nil), valid...)
	unknownFlag[2] |= 1 << 5
	f.Add(unknownFlag)

	f.Fuzz(fuzzCanonical)
}
