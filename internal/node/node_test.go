package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/keysub"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		n    *Node
	}{
		{"empty leaf", &Node{Leaf: true}},
		{"single-entry leaf", &Node{
			Leaf:   true,
			Keys:   [][]byte{[]byte("k1")},
			Values: [][]byte{[]byte("v1")},
		}},
		{"leaf with empty key and value", &Node{
			Leaf:   true,
			Keys:   [][]byte{{}, []byte("k")},
			Values: [][]byte{{}, {}},
		}},
		{"internal node", &Node{
			Keys:     [][]byte{[]byte("b"), []byte("d")},
			Values:   [][]byte{[]byte("vb"), []byte("vd")},
			Children: []uint64{1, 2, 3},
		}},
		{"binary keys", &Node{
			Leaf:   true,
			Keys:   [][]byte{{0x00}, {0x00, 0x00}, {0xFF, 0x10}},
			Values: [][]byte{{0xAA}, bytes.Repeat([]byte{0xBB}, 300), {}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			page, err := tt.n.EncodeFormat(FormatFull)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != tt.n.EncodedSizeFormat(FormatFull) {
				t.Errorf("len(page) = %d, EncodedSize = %d", len(page), tt.n.EncodedSizeFormat(FormatFull))
			}
			got, err := Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.n)
			}
		})
	}
}

// nodesEqual compares two nodes entry by entry through the accessors, so a
// view and a materialised node holding the same entries are equal.
func nodesEqual(a, b *Node) bool {
	if a.Leaf != b.Leaf || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !bytes.Equal(a.Key(i), b.Key(i)) || !bytes.Equal(a.Value(i), b.Value(i)) {
			return false
		}
	}
	if !a.Leaf {
		for i := range a.Len() + 1 {
			if a.Child(i) != b.Child(i) {
				return false
			}
		}
	}
	return true
}

// TestEncodeRejectsMalformedNodes: a node that has no page in a format is
// refused with an error and no page, in every format — and in version 2, a
// node whose keys differ in length.
func TestEncodeRejectsMalformedNodes(t *testing.T) {
	tests := []struct {
		name       string
		n          *Node
		strideOnly bool
	}{
		{"keys/values mismatch", &Node{Leaf: true, Keys: [][]byte{[]byte("k")}}, false},
		{"leaf with children", &Node{Leaf: true, Children: []uint64{1}}, false},
		{"internal children mismatch", &Node{
			Keys: [][]byte{[]byte("k")}, Values: [][]byte{[]byte("v")}, Children: []uint64{1},
		}, false},
		{"oversized key", &Node{
			Leaf: true, Keys: [][]byte{make([]byte, MaxKeyLen+1)}, Values: [][]byte{{}},
		}, false},
		{"keys of two widths", &Node{
			Leaf: true, Keys: [][]byte{[]byte("ab"), []byte("abc")}, Values: [][]byte{{}, {}},
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, f := range []Format{FormatStride, FormatPrefix, FormatFull} {
				page, err := tt.n.AppendEncodeFormat(nil, f)
				if refused := err != nil && page == nil; refused != (f == FormatStride || !tt.strideOnly) {
					t.Errorf("%v: Encode = (%x, %v)", f, page, err)
				}
			}
		})
	}
}

func TestDecodeRejectsMalformedPages(t *testing.T) {
	valid, err := (&Node{
		Keys:     [][]byte{[]byte("key")},
		Values:   [][]byte{[]byte("value")},
		Children: []uint64{1, 2},
	}).EncodeFormat(FormatFull)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		page []byte
	}{
		{"nil", nil},
		{"short", []byte{magic, version}},
		{"bad magic", append([]byte{0x00}, valid[1:]...)},
		{"bad version", append([]byte{magic, 0x99}, valid[2:]...)},
		{"truncated keys", valid[:7]},
		{"truncated children", valid[:len(valid)-3]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.page); !errors.Is(err, ErrDecode) {
				t.Errorf("Decode = %v, want ErrDecode", err)
			}
		})
	}
}

// TestDecodeSizesByThePage: a version-1 header that claims more keys than
// its page has room for is refused before anything is sized by the claim,
// and a prefix page's key arena is sized by the page, never by the first
// suffix length alone. A 9-byte page claiming 65535 keys with a 65535-byte
// first suffix once asked for a 4 GiB arena.
func TestDecodeSizesByThePage(t *testing.T) {
	for _, tt := range []struct {
		name string
		page []byte
	}{
		{"prefix", []byte{magic, versionV1, flagLeaf | flagPrefix, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF}},
		{"full", []byte{magic, versionV1, flagLeaf, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00}},
		{"one key, long first suffix", []byte{magic, versionV1, flagLeaf | flagPrefix, 0x00, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(tt.page)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrDecode) {
				t.Errorf("Decode = %v, want ErrDecode", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
				t.Errorf("Decode of a %d-byte page allocated %d bytes", len(tt.page), got)
			}
		})
	}
}

func TestDecodeDoesNotAliasPage(t *testing.T) {
	n := &Node{Leaf: true, Keys: [][]byte{[]byte("key")}, Values: [][]byte{[]byte("val")}}
	page, err := n.EncodeFormat(FormatFull)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		page[i] = 0xFF
	}
	if !bytes.Equal(got.Keys[0], []byte("key")) || !bytes.Equal(got.Values[0], []byte("val")) {
		t.Error("decoded node aliases the page buffer")
	}
}

// TestPrefixFormatRoundTrip proves the prefix-truncated format is a lossless
// re-encoding: every node round-trips through FormatPrefix, the page carries
// the prefix flag, and for the prefix-sharing key shapes the substituter
// produces it is strictly smaller than the full format.
func TestPrefixFormatRoundTrip(t *testing.T) {
	shared := &Node{
		Keys: [][]byte{
			[]byte("bucket0017-user-000041"),
			[]byte("bucket0017-user-000389"),
			[]byte("bucket0017-user-001022"),
			[]byte("bucket0018-user-000007"),
		},
		Values:   [][]byte{{0x01}, {0x02}, {0x03}, {0x04}},
		Children: []uint64{1, 2, 3, 4, 5},
	}
	tests := []struct {
		name        string
		n           *Node
		wantSmaller bool
	}{
		{"empty leaf", &Node{Leaf: true}, false},
		{"shared-prefix internal", shared, true},
		{"disjoint keys", &Node{
			Leaf:   true,
			Keys:   [][]byte{{0x00}, {0x80}, {0xFF}},
			Values: [][]byte{{}, {}, {}},
		}, false},
		// Short shared prefixes lose to the extra 2B/key of record overhead;
		// the format must still round-trip, it just isn't smaller.
		{"empty-suffix key", &Node{
			Leaf:   true,
			Keys:   [][]byte{[]byte("abc"), []byte("abcd")},
			Values: [][]byte{{}, {}},
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			page, err := tt.n.EncodeFormat(FormatPrefix)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != tt.n.EncodedSizeFormat(FormatPrefix) {
				t.Errorf("len(page) = %d, EncodedSizeFormat = %d", len(page), tt.n.EncodedSizeFormat(FormatPrefix))
			}
			if FormatOf(page) != FormatPrefix {
				t.Error("prefix page not flagged as FormatPrefix")
			}
			full, err := tt.n.EncodeFormat(FormatFull)
			if err != nil {
				t.Fatal(err)
			}
			if FormatOf(full) != FormatFull {
				t.Error("full page not reported as FormatFull")
			}
			if tt.wantSmaller && len(page) >= len(full) {
				t.Errorf("prefix page %dB not smaller than full page %dB", len(page), len(full))
			}
			got, err := Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.n)
			}
		})
	}
}

// TestStrideEncodingDensity is the density claim behind the one format the
// tree writes, made where the encoders still meet: the full leaves of a
// 4 000-key tree, 100-byte values, under the two substituters the benchmark
// uses — HMAC at 24 bytes, and the 16-bit bucketed scheme over it with the
// benchmark's key shape (a 16-bit bucket, then random bytes) — take no more
// bytes as version-2 pages than as prefix-coded version-1 pages. A prefix
// record pays four bytes of header to save the bytes a key shares with its
// left neighbour, which random tokens rarely make up. The trade goes the
// other way under a 64-bit bucket over sequential user IDs, whose
// neighbours share their 8-byte bucket prefix; no benchmark workload and no
// ekbtreed tenant has such keys, and the test logs what it costs.
func TestStrideEncodingDensity(t *testing.T) {
	inner, err := keysub.NewHMAC(bytes.Repeat([]byte{0x55}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	bucketed := func(bits int) keysub.Substituter {
		t.Helper()
		sub, err := keysub.NewBucketed(inner, bits)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	random := func(i int) []byte {
		k := binary.BigEndian.AppendUint16(nil, uint16(i%16)<<12)
		return binary.BigEndian.AppendUint64(k, uint64(i)*0x9E3779B97F4A7C15)
	}
	sequential := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	for _, tc := range []struct {
		name  string
		sub   keysub.Substituter
		key   func(int) []byte
		trade bool // the stated trade: prefix pages are denser
	}{
		{"hmac-24", inner, random, false},
		{"bucketed-16", bucketed(16), random, false},
		{"bucketed-64, sequential IDs", bucketed(64), sequential, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys, perLeaf = 4000, 31 // a full leaf at the default order
			type entry struct{ k, v []byte }
			entries := make([]entry, keys)
			for i := range entries {
				entries[i] = entry{tc.sub.Substitute(tc.key(i)), make([]byte, 100)}
			}
			sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
			var prefix, stride int
			for lo := 0; lo < len(entries); lo += perLeaf {
				leaf := &Node{Leaf: true}
				for _, e := range entries[lo:min(lo+perLeaf, len(entries))] {
					leaf.Keys, leaf.Values = append(leaf.Keys, e.k), append(leaf.Values, e.v)
				}
				page, err := leaf.EncodeFormat(FormatStride)
				if err != nil || len(page) != leaf.EncodedSizeFormat(FormatStride) {
					t.Fatalf("stride page of %d bytes, EncodedSizeFormat %d: %v", len(page), leaf.EncodedSizeFormat(FormatStride), err)
				}
				stride += len(page)
				prefix += leaf.EncodedSizeFormat(FormatPrefix)
			}
			perKey := float64(stride-prefix) / keys
			t.Logf("leaf bytes: prefix=%d stride=%d (%+.2f B a key)", prefix, stride, perKey)
			if !tc.trade && stride > prefix {
				t.Fatalf("stride leaves take %d bytes, prefix leaves %d: want stride <= prefix", stride, prefix)
			}
			if tc.trade && stride <= prefix {
				t.Errorf("the wide-bucket case is no longer a trade (stride %d <= prefix %d): update the README", stride, prefix)
			}
		})
	}
}

// TestPrefixDecodeRejectsNonCanonical pins the fail-closed rules of the
// prefix format: over-truncation (shared reaching past the previous key),
// under-truncation (a suffix whose first byte the encoder would have
// shared), a nonzero shared on the first key, a reconstructed key past
// MaxKeyLen, and unknown flag bits must all return ErrDecode.
func TestPrefixDecodeRejectsNonCanonical(t *testing.T) {
	// Keys "ab","ac" encode as header, (0,2,"ab"), (1,1,"c"), then values.
	valid, err := (&Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("ab"), []byte("ac")},
		Values: [][]byte{{}, {}},
	}).EncodeFormat(FormatPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("baseline page rejected: %v", err)
	}
	mut := func(idx int, b byte) []byte {
		p := append([]byte(nil), valid...)
		p[idx] = b
		return p
	}
	tests := []struct {
		name string
		page []byte
	}{
		{"over-truncated", mut(headerSize+7, 3)},     // key2 shared=3 > len("ab")
		{"under-truncated", mut(headerSize+10, 'b')}, // key2 suffix "b" matches prev[1]
		{"first key shared", mut(headerSize+1, 1)},
		{"unknown flag bit", mut(2, valid[2]|1<<5)},
		{"truncated suffix", valid[:len(valid)-9]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.page); !errors.Is(err, ErrDecode) {
				t.Errorf("Decode = %v, want ErrDecode", err)
			}
		})
	}

	t.Run("reconstructed key too long", func(t *testing.T) {
		// Two max-length suffix records whose sum exceeds MaxKeyLen.
		var p []byte
		p = append(p, magic, version, flagLeaf|flagPrefix, 0x00, 0x02)
		p = append(p, 0x00, 0x00, 0xFF, 0xFF)
		p = append(p, bytes.Repeat([]byte{0xAA}, MaxKeyLen)...)
		p = append(p, 0xFF, 0xFF, 0x00, 0x01, 0xBB)
		p = append(p, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00) // two empty values
		if _, err := Decode(p); !errors.Is(err, ErrDecode) {
			t.Errorf("Decode = %v, want ErrDecode", err)
		}
	})
}

// TestPrefixDecodeArenaIsolation verifies the reconstructed keys are
// capacity-clipped slices of one arena: appending to any decoded key must
// not clobber its neighbors, and none of them may alias the input page.
func TestPrefixDecodeArenaIsolation(t *testing.T) {
	n := &Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("shared-a"), []byte("shared-b"), []byte("shared-c")},
		Values: [][]byte{[]byte("v1"), []byte("v2"), []byte("v3")},
	}
	page, err := n.EncodeFormat(FormatPrefix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		page[i] = 0xFF
	}
	for i := range got.Keys {
		got.Keys[i] = append(got.Keys[i], 0xEE)
		got.Values[i] = append(got.Values[i], 0xEE)
	}
	for i, want := range n.Keys {
		if !bytes.Equal(got.Keys[i][:len(want)], want) {
			t.Errorf("key %d corrupted after neighbor appends: %q", i, got.Keys[i])
		}
	}
	for i, want := range n.Values {
		if !bytes.Equal(got.Values[i][:len(want)], want) {
			t.Errorf("value %d corrupted after neighbor appends: %q", i, got.Values[i])
		}
	}
}

func TestSearch(t *testing.T) {
	n := &Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("b"), []byte("d"), []byte("f")},
		Values: [][]byte{nil, nil, nil},
	}
	tests := []struct {
		key    string
		wantI  int
		wantEq bool
	}{
		{"a", 0, false},
		{"b", 0, true},
		{"c", 1, false},
		{"d", 1, true},
		{"f", 2, true},
		{"g", 3, false},
	}
	for _, tt := range tests {
		i, eq := n.Search([]byte(tt.key))
		if i != tt.wantI || eq != tt.wantEq {
			t.Errorf("Search(%q) = (%d, %v), want (%d, %v)", tt.key, i, eq, tt.wantI, tt.wantEq)
		}
	}
}

// TestSearchMatchesReference checks the hand-rolled binary search against
// sort.Search for every present and absent key of nodes of every size up to
// well past a default-order node's 31 keys, the empty node included, on the
// materialised node, on its view and on the nodes its version-1 pages decode
// to.
func TestSearchMatchesReference(t *testing.T) {
	for size := 0; size <= 70; size++ {
		n := &Node{Leaf: true}
		for i := 0; i < size; i++ {
			n.Keys = append(n.Keys, []byte{byte(2*i + 1)}) // odd bytes: even ones are absent
			n.Values = append(n.Values, nil)
		}
		forms := []*Node{n}
		for _, f := range []Format{FormatStride, FormatFull, FormatPrefix} {
			page, err := n.EncodeFormat(f)
			if err != nil {
				t.Fatal(err)
			}
			view, err := DecodeInPlace(page)
			if err != nil {
				t.Fatal(err)
			}
			forms = append(forms, view)
		}
		for probe := 0; probe <= 2*size+1; probe++ {
			key := []byte{byte(probe)}
			wantI := sort.Search(size, func(i int) bool { return bytes.Compare(n.Keys[i], key) >= 0 })
			wantEq := wantI < size && bytes.Equal(n.Keys[wantI], key)
			for form, m := range forms {
				if i, eq := m.Search(key); i != wantI || eq != wantEq {
					t.Fatalf("size %d, form %d: Search(%d) = (%d, %v), want (%d, %v)", size, form, probe, i, eq, wantI, wantEq)
				}
			}
		}
	}
}

// TestDecodeHeaderIsolation: Keys and Values share one backing array, so
// growing Keys — what an insert into a decoded node does — must reallocate
// rather than overwrite Values[0].
func TestDecodeHeaderIsolation(t *testing.T) {
	n := &Node{Leaf: true, Keys: [][]byte{[]byte("a"), []byte("b")}, Values: [][]byte{[]byte("v1"), []byte("v2")}}
	for _, f := range []Format{FormatStride, FormatFull, FormatPrefix} {
		page, err := n.EncodeFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(page)
		if err != nil {
			t.Fatal(err)
		}
		got.Keys = append(got.Keys, []byte("clobber"))
		if !bytes.Equal(got.Values[0], []byte("v1")) {
			t.Errorf("%s: appending to Keys overwrote Values[0] = %q", f, got.Values[0])
		}
	}
}

// TestAppendEncodeFormat: encoding after existing bytes and into a reused
// scratch both yield exactly EncodeFormat's page.
func TestAppendEncodeFormat(t *testing.T) {
	n := &Node{
		Keys:     [][]byte{[]byte("shared-b"), []byte("shared-d")},
		Values:   [][]byte{[]byte("vb"), []byte("vd")},
		Children: []uint64{1, 2, 3},
	}
	for _, f := range []Format{FormatStride, FormatFull, FormatPrefix} {
		want, err := n.EncodeFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.AppendEncodeFormat([]byte("head"), f)
		if err != nil || !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Errorf("%s: append after a prefix = (%x, %v)", f, got, err)
		}
		scratch := make([]byte, 0, 4*len(want))
		for i := 0; i < 2; i++ {
			got, err = n.AppendEncodeFormat(scratch[:0], f)
			if err != nil || !bytes.Equal(got, want) || &got[0] != &scratch[:1][0] {
				t.Errorf("%s: reuse %d = (%x, %v), want the page written into the scratch", f, i, got, err)
			}
		}
	}
}

// within reports whether s lies inside buf's backing array (an empty s lies
// anywhere).
func within(s, buf []byte) bool {
	if len(s) == 0 {
		return true
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		if &buf[i] == &s[0] {
			return len(s) <= len(buf)-i
		}
	}
	return false
}

// TestDecodeInPlace pins the in-place contract for both versions. A
// version-2 page is the node: a view whose Keys, Values and Children stay
// empty and whose keys and values lie in the page, at one allocation, and
// none beyond the block's when read into a Block. A version-1 page becomes a
// materialised node, the parser the engine transcodes with: its values and
// whole keys lie in the page and its prefix keys in one arena, at one
// allocation for the node and its arrays (three past a copy's room) and one
// for the arena, sized for keys of one width (keys of varying widths regrow
// it, here twice); Block.Decode refuses it. Every slice is clipped so an append
// never reaches a neighbor, and re-encoding the node or its materialised copy
// reproduces the original bytes, compared against a saved copy.
func TestDecodeInPlace(t *testing.T) {
	build := func(leaf bool, keys []string) *Node {
		n := &Node{Leaf: leaf}
		for _, k := range keys {
			n.Keys = append(n.Keys, []byte(k))
			n.Values = append(n.Values, []byte("value-of-"+k))
		}
		if !leaf {
			for i := 0; i <= len(n.Keys); i++ {
				n.Children = append(n.Children, uint64(100+i))
			}
		}
		return n
	}
	// Keys as a prefix page's neighbours share 0-4 bytes.
	short := func(leaf bool) *Node {
		return build(leaf, []string{"", "a", "ab-1", "ab-2", "abc-x", "abc-y", "b", "bucket"})
	}
	// Keys of one width, as substitution makes them.
	fixed := func(leaf bool) *Node {
		return build(leaf, []string{"aa-001", "aa-002", "ab-000", "b0-117", "b1-000", "zz-999"})
	}
	// A 64-bit bucketed prefix: every key but the first shares eight bytes or
	// more with its predecessor.
	wide := &Node{Leaf: true}
	for i := 0; i < 12; i++ {
		k := append(bytes.Repeat([]byte{0xB7}, 8), byte(i/4), byte(i), 0x01)
		wide.Keys = append(wide.Keys, k)
		wide.Values = append(wide.Values, []byte{byte(i), byte(i)})
	}
	// An index node of an order-64 tree, full: more entries than a copy's
	// room.
	big := &Node{Children: []uint64{1 << 40}}
	for i := 0; i < 2*nodeRoom-1; i++ {
		big.Keys = append(big.Keys, []byte{byte(i), 'k'})
		big.Values = append(big.Values, []byte{byte(i)})
		big.Children = append(big.Children, uint64(i)<<20)
	}

	tests := []struct {
		name   string
		n      *Node
		f      Format
		allocs float64 // DecodeInPlace's count, exactly
	}{
		{"stride leaf", fixed(true), FormatStride, 1},
		{"stride index", fixed(false), FormatStride, 1},
		{"stride index, more keys than a copy's room", big, FormatStride, 1},
		{"full leaf", short(true), FormatFull, 1},
		{"full index", short(false), FormatFull, 1},
		{"prefix leaf", short(true), FormatPrefix, 4},
		{"prefix index", short(false), FormatPrefix, 4},
		{"prefix leaf, keys of one width", fixed(true), FormatPrefix, 2},
		{"prefix leaf, wide shared prefix", wide, FormatPrefix, 2},
		{"prefix index, more keys than a copy's room", big, FormatPrefix, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			saved, err := tt.n.EncodeFormat(tt.f)
			if err != nil {
				t.Fatal(err)
			}
			if FormatOf(saved) != tt.f {
				t.Fatalf("FormatOf = %v, want %v", FormatOf(saved), tt.f)
			}
			page := bytes.Clone(saved)
			got, err := DecodeInPlace(page)
			if err != nil {
				t.Fatal(err)
			}
			view := tt.f == FormatStride
			if (got.Keys == nil && got.Values == nil && got.Children == nil) != view {
				t.Fatalf("DecodeInPlace of a %v page filled the materialised fields: %d keys, %d values, %d children", tt.f, len(got.Keys), len(got.Values), len(got.Children))
			}
			if !nodesEqual(got, tt.n) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Materialize(), tt.n)
			}
			for i := range got.Len() {
				// A prefix key is rebuilt outside the page, every other key lies
				// in it, and so does every value.
				if inPage := within(got.Key(i), page); inPage == (tt.f == FormatPrefix && len(got.Key(i)) > 0) {
					t.Errorf("key %d lies in the page: %v", i, inPage)
				}
				if !within(got.Value(i), page) {
					t.Errorf("value %d was copied out of the page", i)
				}
			}
			reenc, err := got.EncodeFormat(tt.f)
			if err != nil || !bytes.Equal(reenc, saved) {
				t.Errorf("re-encoding the decoded node = (%x, %v)\nwant %x", reenc, err, saved)
			}
			for i := range got.Len() {
				_ = append(got.Key(i), 0xEE)
				_ = append(got.Value(i), 0xEE)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("an append to a key or value of the decoded node reached a neighbor")
			}

			// The materialised copy is the node's entries in the exported
			// fields, and editing it leaves the node alone.
			m := got.Materialize()
			if len(m.Keys) != len(tt.n.Keys) || len(m.Values) != len(tt.n.Values) || len(m.Children) != len(tt.n.Children) || !nodesEqual(m, tt.n) {
				t.Fatalf("Materialize = %+v, want %+v", m, tt.n)
			}
			if reenc, err := m.EncodeFormat(tt.f); err != nil || !bytes.Equal(reenc, saved) {
				t.Errorf("re-encoding the materialised copy = (%x, %v)\nwant %x", reenc, err, saved)
			}
			m.Keys = append(m.Keys[:0], []byte("edited"))
			m.Values = m.Values[:1]
			m.Values[0] = nil
			if !m.Leaf {
				m.Children = append(m.Children[:0], 7, 7)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("editing the materialised copy changed the decoded node")
			}

			// Each measured run decodes into a buffer that already exists.
			// Decode pays the copy on top, and for a view Materialize's
			// allocations (see TestMaterializeAllocs).
			scratch := make([]byte, len(saved))
			inPlace := testing.AllocsPerRun(100, func() {
				copy(scratch, saved)
				if _, err := DecodeInPlace(scratch); err != nil {
					t.Fatal(err)
				}
			})
			copying := testing.AllocsPerRun(100, func() {
				if _, err := Decode(saved); err != nil {
					t.Fatal(err)
				}
			})
			want := inPlace + 1
			if view {
				want += materializeAllocs(tt.n)
			}
			if inPlace != tt.allocs || copying != want {
				t.Errorf("DecodeInPlace allocates %.0f times (want %.0f), Decode %.0f (want %.0f)", inPlace, tt.allocs, copying, want)
			}
			// Read into a Block, a version-2 page costs the block and nothing
			// for the view; a version-1 page is refused there.
			inBlock := testing.AllocsPerRun(100, func() {
				b := NewBlock(len(saved))
				copy(b.Page(), saved)
				v, err := b.Decode(b.Page(), 0)
				if view && (err != nil || !nodesEqual(v, tt.n)) || !view && !errors.Is(err, ErrDecode) {
					t.Fatalf("Block.Decode of a %v page = (%+v, %v)", tt.f, v, err)
				}
			})
			if inBlock != 1 {
				t.Errorf("a page read into a Block allocates %.0f times with the block, want 1", inBlock)
			}
		})
	}
}

// materializeAllocs is what Materialize costs for n: one allocation while n
// and the entry it has room to gain fit nodeRoom (a full node at the default
// order, 31 keys, does), else the node, its header array and, in an index
// node, its child array.
func materializeAllocs(n *Node) float64 {
	switch {
	case n.Len()+1 <= nodeRoom:
		return 1
	case n.Leaf:
		return 2
	}
	return 3
}

// TestMaterializeAllocs pins Materialize and New at one allocation for a leaf
// and an index node of up to 31 keys, a full node at the default order, and
// at the separate node, header and child arrays for a full node of an order-64
// tree. Whatever the form, Keys and Values must have the promised room and be
// cut so that growing either never reaches the other.
func TestMaterializeAllocs(t *testing.T) {
	build := func(leaf bool, keys int) *Node {
		n := &Node{Leaf: leaf}
		for i := range keys {
			n.Keys = append(n.Keys, []byte{byte(i >> 8), byte(i)})
			n.Values = append(n.Values, []byte{byte(i)})
		}
		if !leaf {
			for i := range keys + 1 {
				n.Children = append(n.Children, uint64(i+1))
			}
		}
		return n
	}
	for _, tt := range []struct {
		name   string
		leaf   bool
		keys   int
		allocs float64
	}{
		{"empty leaf", true, 0, 1},
		{"leaf, 1 key", true, 1, 1},
		{"leaf, 31 keys", true, 31, 1},
		{"index, 1 key", false, 1, 1},
		{"index, 31 keys", false, 31, 1},
		{"leaf, order 64 full", true, 63, 2},
		{"index, order 64 full", false, 63, 3},
	} {
		t.Run(tt.name, func(t *testing.T) {
			src := build(tt.leaf, tt.keys)
			page, err := src.EncodeFormat(FormatStride)
			if err != nil {
				t.Fatal(err)
			}
			view, err := DecodeInPlace(page)
			if err != nil {
				t.Fatal(err)
			}
			check := func(how string, m *Node) {
				t.Helper()
				if !nodesEqual(m, src) || m.Leaf != tt.leaf {
					t.Fatalf("%s = %+v, want %+v", how, m, src)
				}
				if cap(m.Keys) <= tt.keys || cap(m.Values) <= tt.keys || !tt.leaf && cap(m.Children) <= tt.keys+1 {
					t.Errorf("%s left no room: caps %d/%d/%d for %d keys", how, cap(m.Keys), cap(m.Values), cap(m.Children), tt.keys)
				}
				// Fill Keys to capacity and one past; Values must not move.
				vals, room := slices.Clone(m.Values), cap(m.Keys)
				for len(m.Keys) <= room {
					m.Keys = append(m.Keys, []byte("grown"))
				}
				if !slices.EqualFunc(vals, m.Values, bytes.Equal) {
					t.Errorf("%s: growing Keys past its room overwrote Values", how)
				}
			}
			// A reused copy is rebuilt in place for nothing while its room
			// holds the node; past that, the copy costs what Materialize's does.
			reused := 0.0
			if tt.keys >= nodeRoom {
				reused = tt.allocs
			}
			for _, from := range []*Node{src, view} {
				if n := testing.AllocsPerRun(100, func() { from.Materialize() }); n != tt.allocs {
					t.Errorf("Materialize allocates %.0f times, want %.0f", n, tt.allocs)
				}
				if n := materializeAllocs(from); n != tt.allocs {
					t.Fatalf("materializeAllocs = %.0f, want %.0f", n, tt.allocs)
				}
				check("Materialize", from.Materialize())
				spare := New(tt.leaf, 1)
				if n := testing.AllocsPerRun(100, func() { spare.Reset(); from.MaterializeInto(spare) }); n != reused {
					t.Errorf("materialising into a reused copy allocates %.0f times, want %.0f", n, reused)
				}
				spare.Reset()
				check("MaterializeInto", from.MaterializeInto(spare))
			}
			if n := testing.AllocsPerRun(100, func() { New(tt.leaf, tt.keys+1) }); n != tt.allocs {
				t.Errorf("New allocates %.0f times, want %.0f", n, tt.allocs)
			}
		})
	}
}

// TestBlocksFillSizeClasses: every block class is one object that fills a
// runtime size class exactly, its room being what the node and the runtime's
// object header leave of the class, so a block wastes nothing inside its
// class and never spills into the next. The classes ascend, from the first
// class over 512 bytes, and NewBlock hands out a capacity-clipped room of the
// page's size in a block up to the largest class and a plain buffer past it.
// A Node's class, room and epoch sit in the padding after Leaf, and a view's
// header fields in 8 bytes after its page, so on a 64-bit platform the node,
// and with it every block's overhead beside the runtime's header, is 112
// bytes: the room of every class is 432 bytes more than when a view carried a
// 32-row offset table, 384 bytes of it the table.
func TestBlocksFillSizeClasses(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 112 {
		t.Errorf("a Node is %d bytes, want 112", size)
	}
	if first := blockClasses[0].room + int(blockOverhead); first != 576 {
		t.Errorf("the smallest block fills the %d-byte class, want 576, the first over 512 bytes", first)
	}
	const count = 64
	keep := make([]*Node, count)
	for i, c := range blockClasses {
		if i > 0 && c.room <= blockClasses[i-1].room {
			t.Fatalf("block class %d has room %d after room %d", i, c.room, blockClasses[i-1].room)
		}
		if n := testing.AllocsPerRun(10, func() { c.alloc() }); n != 1 {
			t.Fatalf("a block with %d bytes of room allocates %.0f times", c.room, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := range keep {
			keep[j], _ = c.alloc()
		}
		runtime.ReadMemStats(&after)
		// TotalAlloc counts each object at its size class; anything else
		// allocating in between adds far less than a class step to the mean.
		class := uint64(c.room) + uint64(blockOverhead)
		if per := (after.TotalAlloc - before.TotalAlloc) / count; per < class || per >= class+64 {
			t.Errorf("a block with %d bytes of room takes %d bytes, want the %d-byte size class", c.room, per, class)
		}
	}
	largest := blockClasses[len(blockClasses)-1].room
	for _, size := range []int{0, 1, blockClasses[0].room, blockClasses[0].room + 1, largest, largest + 1} {
		b := NewBlock(size)
		if len(b.Page()) != size || cap(b.Page()) != size {
			t.Errorf("NewBlock(%d).Page() has len %d, cap %d", size, len(b.Page()), cap(b.Page()))
		}
		if (b.shell != nil) != (size <= largest) {
			t.Errorf("NewBlock(%d) in a block: %v", size, b.shell != nil)
		}
	}
}

// TestBlocksRecycle: a block given back to a Blocks free list is the next
// block of its class, and the view decoded in it again is exactly the new
// page, of another width and key count than the old one, and it reports the
// epoch its Decode was given, not the old view's. The list takes a view's
// block once, never a materialised node's or a plain buffer's, and takes back
// a block that holds no view (Release) as the next of its class too.
func TestBlocksRecycle(t *testing.T) {
	leaf := func(value string, keys ...string) *Node {
		n := New(true, len(keys))
		for _, k := range keys {
			n.Keys, n.Values = append(n.Keys, []byte(k)), append(n.Values, []byte(value))
		}
		return n
	}
	// The values put both pages in one block class.
	wide := leaf("vvvvvvvvvv", "bucket-0001", "bucket-0002", "bucket-0003", "bucket-0004", "bucket-0005", "bucket-0006")
	narrow := leaf("vvvvvvvvvvvvvvvvvvvv", "a-01", "b-02", "c-03", "d-04", "e-05")
	decode := func(f *Blocks, n *Node, epoch uint32) *Node {
		t.Helper()
		page, err := n.EncodeFormat(FormatStride)
		if err != nil {
			t.Fatal(err)
		}
		b := f.Block(len(page))
		copy(b.Page(), page)
		v, err := b.Decode(b.Page(), epoch)
		if err != nil || !nodesEqual(v, n) {
			t.Fatalf("Block.Decode = (%+v, %v), want %+v", v, err, n)
		}
		if got := v.SealedEpoch(); got != epoch {
			t.Fatalf("the view reports epoch %d, want %d", got, epoch)
		}
		return v
	}
	pw, _ := wide.EncodeFormat(FormatStride)
	pn, _ := narrow.EncodeFormat(FormatStride)
	if cw, cn := classFor(len(pw)), classFor(len(pn)); cw < 0 || cw != cn {
		t.Fatalf("the two pages are in block classes %d and %d; the test needs one class", cw, cn)
	}

	var f Blocks
	v := decode(&f, wide, 7)
	if !f.Recycle(v) || f.Recycle(v) {
		t.Fatal("the list must take a view's block once")
	}
	if again := decode(&f, narrow, 3); again != v || f.Reused() != 1 {
		t.Fatalf("the next block of the class is a new one (reused %d)", f.Reused())
	}
	if f.Recycle(wide) {
		t.Error("the list took a materialised node")
	}
	if got := wide.SealedEpoch(); got != 0 {
		t.Errorf("a materialised node reports epoch %d", got)
	}
	unused := f.Block(len(pw))
	f.Release(unused)
	if again := f.Block(len(pw)); again.shell != unused.shell || f.Reused() != 2 {
		t.Fatalf("a released block is not the next of its class (reused %d)", f.Reused())
	}
	big := f.Block(blockClasses[len(blockClasses)-1].room + 1)
	if big.shell != nil {
		t.Fatal("a page larger than every class got a block")
	}
	bigView, err := big.Decode(big.Page()[:copy(big.Page(), pw)], 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := bigView.SealedEpoch(); got != 5 {
		t.Errorf("a view in a buffer of its own reports epoch %d, want 5", got)
	}
	if f.Recycle(bigView) {
		t.Error("the list took a view with a buffer of its own")
	}
	f.Release(big)
}

// TestMaterializeIntoRebuildsInPlace: a copy New made is emptied by Reset —
// its slices cut to nothing and the arrays they were cut from cleared, so it
// keeps no key or value alive — and MaterializeInto rebuilds it in place as
// the copy of another node: a leaf in either room, an index node only in an
// index node's. Anything else gets a new copy and leaves the spare as it
// was; Reset refuses a view and a node whose arrays are separate. Editing the
// rebuilt copy leaves its source alone, and the rebuilt copy holds nothing of
// the node it was before.
func TestMaterializeIntoRebuildsInPlace(t *testing.T) {
	leaf := New(true, 3)
	for _, k := range []string{"a", "b", "c"} {
		leaf.Keys, leaf.Values = append(leaf.Keys, []byte(k)), append(leaf.Values, []byte("v"+k))
	}
	index := New(false, 2)
	index.Keys, index.Values = append(index.Keys, []byte("m"), []byte("t")), append(index.Values, nil, nil)
	index.Children = append(index.Children, 1, 2, 3)
	viewOf := func(n *Node) *Node {
		page, err := n.EncodeFormat(FormatStride)
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecodeInPlace(page)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	emptied := func(c *Node) bool {
		for _, h := range (*leafRoom)(unsafe.Pointer(c)).hdrs {
			if h != nil {
				return false
			}
		}
		return len(c.Keys) == 0 && len(c.Values) == 0 && len(c.Children) == 0
	}
	for _, tt := range []struct {
		name      string
		spareLeaf bool
		from      *Node
		inPlace   bool
	}{
		{"leaf into a leaf's room", true, leaf, true},
		{"leaf into an index node's room", false, leaf, true},
		{"index node into an index node's room", false, index, true},
		{"index node into a leaf's room", true, index, false},
	} {
		for _, from := range []*Node{tt.from, viewOf(tt.from)} {
			// The spare was a full copy of the other form before its Reset.
			spare := New(tt.spareLeaf, 1)
			if tt.spareLeaf {
				spare.Keys, spare.Values = append(spare.Keys, []byte("old")), append(spare.Values, []byte("old"))
			} else {
				spare.Keys, spare.Values = append(spare.Keys, []byte("old")), append(spare.Values, nil)
				spare.Children = append(spare.Children, 8, 9)
			}
			if !spare.Reset() || !emptied(spare) {
				t.Fatalf("%s: Reset left %+v", tt.name, spare)
			}
			c := from.MaterializeInto(spare)
			if (c == spare) != tt.inPlace {
				t.Fatalf("%s: rebuilt in place: %v, want %v", tt.name, c == spare, tt.inPlace)
			}
			if !tt.inPlace && !emptied(spare) {
				t.Errorf("%s: a spare that did not fit was changed", tt.name)
			}
			if !nodesEqual(c, tt.from) || len(c.Keys) != tt.from.Len() || len(c.Values) != tt.from.Len() {
				t.Fatalf("%s: MaterializeInto = %+v, want %+v", tt.name, c, tt.from)
			}
			c.Keys[0], c.Values[0] = []byte("edited"), nil
			if !c.Leaf {
				c.Children[0] = 77
			}
			if nodesEqual(from, c) || !nodesEqual(from, tt.from) {
				t.Errorf("%s: editing the copy changed its source", tt.name)
			}
		}
	}
	if viewOf(leaf).Reset() {
		t.Error("Reset took a view")
	}
	if New(true, nodeRoom+1).Reset() {
		t.Error("Reset took a node whose arrays are separate")
	}
}
