package node

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/paper-repro/ekbtree/internal/israce"
)

// fuzzCanonical is the shared body of the decode fuzz targets: Decode must
// never panic; when it accepts a page, the codec must be canonical —
// re-encoding the decoded node in the page's own format reproduces the input
// byte-for-byte — and the decoded node must satisfy the structural
// invariants Encode enforces and must not alias the input buffer.
//
// Both in-place paths run on every input, each over its own copy:
// DecodeInPlace over a buffer with poisoned spare capacity behind the page,
// and Block.Decode over a block's room holding the page with poisoned bytes
// after it, as a deciphered page is followed by its tag. DecodeInPlace must
// give Decode's verdict, and so must Block.Decode on a version-2 page, while
// it refuses every version-1 page (the engine transcodes those). Each node
// they make is held to Decode's materialised node: the same key, value and
// child at every index, the same Search answer for every key and for each key
// with its last byte one up and one down, and the same page when re-encoded.
// Every value, and every key not rebuilt from a prefix record, must lie
// within the page, so an accessor that read past the page fails here even
// where the bytes it read happened to agree.
func fuzzCanonical(t *testing.T, page []byte) {
	const tail = 16
	format := FormatOf(page)
	buf := append(make([]byte, 0, len(page)+tail), page...)
	poison(buf[len(buf):cap(buf)])
	inPlace, inPlaceErr := DecodeInPlace(buf)
	blk := NewBlock(len(page) + tail)
	room := blk.Page()
	copy(room, page)
	poison(room[len(page):])
	inBlock, inBlockErr := blk.Decode(room[:len(page)], 0)

	n, err := Decode(page)
	if (err == nil) != (inPlaceErr == nil) {
		t.Fatalf("Decode = %v but DecodeInPlace of a copy = %v", err, inPlaceErr)
	}
	if format == FormatStride && (err == nil) != (inBlockErr == nil) {
		t.Fatalf("Decode = %v but Block.Decode of a copy = %v", err, inBlockErr)
	}
	if format != FormatStride && inBlockErr == nil {
		t.Fatalf("Block.Decode accepted a %v page", format)
	}
	if err != nil {
		return
	}
	checkView(t, "DecodeInPlace", inPlace, buf[:len(page):len(page)], n, format)
	if format == FormatStride {
		checkView(t, "Block.Decode", inBlock, room[:len(page):len(page)], n, format)
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
	reenc, err := n.EncodeFormat(format)
	if err != nil {
		t.Fatalf("re-encode of decoded node failed: %v", err)
	}
	if !bytes.Equal(reenc, page) {
		t.Fatalf("codec not canonical (format %v):\n in  %x\n out %x", format, page, reenc)
	}
	if viewEnc, err := inPlace.EncodeFormat(format); err != nil || !bytes.Equal(viewEnc, page) {
		t.Fatalf("re-encoding DecodeInPlace's node = (%x, %v), want the page %x", viewEnc, err, page)
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

// checkView holds a node, decoded in place by the named path over inPage, to
// Decode's materialised node n of the same page.
func checkView(t *testing.T, name string, view *Node, inPage []byte, n *Node, format Format) {
	t.Helper()
	if !nodesEqual(view, n) {
		t.Fatalf("the %s node differs from Decode's node:\n got %+v\nwant %+v", name, view.Materialize(), n)
	}
	for i := range view.Len() {
		if format != FormatPrefix && !within(view.Key(i), inPage) {
			t.Fatalf("key %d of the %s node lies outside the page", i, name)
		}
		if !within(view.Value(i), inPage) {
			t.Fatalf("value %d of the %s node lies outside the page", i, name)
		}
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
				t.Fatalf("Search(%x) = (%d, %v) on the %s node, (%d, %v) on Decode's node", p, vi, veq, name, mi, meq)
			}
		}
	}
}

// wellFormedV2 is the version-2 layout checked by hand, apart from the
// decoder: the header, nkeys keys of width bytes (width 0 when there are
// none), nkeys value ends that never run backwards and end exactly where the
// values do, and the children of an index node.
func wellFormedV2(p []byte) bool {
	if len(p) < strideHeader || p[0] != magic || p[1] != version || p[2]&^flagLeaf != 0 {
		return false
	}
	nkeys, width := int(binary.BigEndian.Uint16(p[3:])), int(binary.BigEndian.Uint16(p[5:]))
	if nkeys == 0 && width != 0 {
		return false
	}
	rest := p[strideHeader:]
	if len(rest) < nkeys*width+4*nkeys {
		return false
	}
	ends := rest[nkeys*width : nkeys*width+4*nkeys]
	values := rest[nkeys*width+4*nkeys:]
	if p[2]&flagLeaf == 0 {
		kids := 8 * (nkeys + 1)
		if len(values) < kids {
			return false
		}
		values = values[:len(values)-kids]
	}
	last := uint32(0)
	for i := range nkeys {
		end := binary.BigEndian.Uint32(ends[4*i:])
		if end < last {
			return false
		}
		last = end
	}
	return uint64(last) == uint64(len(values))
}

// FuzzDecode throws arbitrary bytes at the page decoder, seeded with
// version-1 full-format pages, the parser an older file's pages are
// transcoded with (plus the checked-in corpus under testdata/fuzz/FuzzDecode).
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
	f.Add([]byte{0xEB, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00}) // 65535 keys in 9 bytes

	f.Fuzz(fuzzCanonical)
}

// FuzzDecodePrefixTruncated aims the same canonicality harness at the
// version-1 prefix-truncated format, the one every file written before
// version 2 holds: seeds are prefix-encoded internal and leaf nodes
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
	// 65535 keys, the first with a 65535-byte suffix, in 9 bytes: refused
	// before a key arena is sized by either figure.
	f.Add([]byte{magic, versionV1, flagLeaf | flagPrefix, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF})

	f.Fuzz(fuzzCanonical)
}

// FuzzDecodeV2 aims the harness at version-2 pages and holds the decoder to
// the layout itself: a page is accepted exactly when wellFormedV2 accepts it,
// so one whose value ends overrun the page, run backwards or leave bytes
// after the last value is refused, and decoding into a Block allocates
// nothing, accepted or not. Seeds are stride pages of leaves and index nodes,
// plus a near-miss of each kind, an empty page claiming a width, and an
// unknown flag bit.
func FuzzDecodeV2(f *testing.F) {
	seeds := []*Node{
		{Leaf: true},
		{Children: []uint64{7}},
		{Leaf: true, Keys: [][]byte{{0x01}}, Values: [][]byte{{0xAA, 0xBB}}},
		{Leaf: true, Keys: [][]byte{{0x00, 0x00}, {0x00, 0x01}, {0xFF, 0x10}}, Values: [][]byte{{}, bytes.Repeat([]byte{0xBB}, 40), {}}},
		{
			Keys:     [][]byte{bytes.Repeat([]byte{0x7F}, 24), bytes.Repeat([]byte{0x80}, 24)},
			Values:   [][]byte{bytes.Repeat([]byte{0x01}, 64), {}},
			Children: []uint64{1, 1 << 40, ^uint64(0)},
		},
	}
	for _, n := range seeds {
		page, err := n.EncodeFormat(FormatStride)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	// Near-misses, from a valid two-key leaf: keys "ab", "ac", values "x",
	// "yz", so the ends at [11, 19) read 1 and 3 and three value bytes follow.
	valid, err := (&Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("ab"), []byte("ac")},
		Values: [][]byte{[]byte("x"), []byte("yz")},
	}).EncodeFormat(FormatStride)
	if err != nil {
		f.Fatal(err)
	}
	mut := func(edit func(p []byte) []byte) []byte { return edit(bytes.Clone(valid)) }
	f.Add(mut(func(p []byte) []byte { p[18] = 4; return p }))        // the last end overruns the page
	f.Add(mut(func(p []byte) []byte { p[14] = 4; return p }))        // the ends run backwards
	f.Add(mut(func(p []byte) []byte { return append(p, 0x00) }))     // a byte after the last value
	f.Add(mut(func(p []byte) []byte { p[2] |= 1 << 3; return p }))   // an unknown flag bit
	f.Add([]byte{magic, version, flagLeaf, 0x00, 0x00, 0x00, 0x18})  // no keys, but a width
	f.Add(mut(func(p []byte) []byte { p[1] = versionV1; return p })) // a stride page as version 1

	f.Fuzz(func(t *testing.T, page []byte) {
		if FormatOf(page) == FormatStride && len(page) <= blockClasses[len(blockClasses)-1].room && !israce.Enabled {
			blk := NewBlock(len(page))
			copy(blk.Page(), page)
			_, err := blk.Decode(blk.Page(), 0)
			if want := wellFormedV2(page); (err == nil) != want {
				t.Fatalf("Block.Decode = %v, but the page is well formed: %v", err, want)
			}
			if n := testing.AllocsPerRun(1, func() { blk.Decode(blk.Page(), 0) }); n != 0 {
				t.Fatalf("Block.Decode allocates %.0f times", n)
			}
		}
		fuzzCanonical(t, page)
	})
}
