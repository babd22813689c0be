// Package node defines the in-memory B-tree node and its binary page
// encoding. Nodes hold only substituted search keys (see internal/keysub) —
// plaintext keys never reach this layer — and are serialized to a compact
// binary page that the cipher layer seals before it touches the store.
//
// Page layout (all integers big-endian):
//
//	magic    byte    0xEB
//	version  byte    0x01
//	flags    byte    bit0 = leaf, bit1 = prefix-truncated keys
//	nkeys    uint16
//	keys     full:   nkeys × (uint16 len, bytes)
//	         prefix: nkeys × (uint16 shared, uint16 suffixLen, suffix bytes)
//	values   nkeys × (uint32 len, bytes)
//	children (nkeys+1) × uint64   (internal nodes only)
//
// In prefix form each key stores only the bytes after its longest common
// prefix with the PREVIOUS key on the page. Substituted keys in one node
// share long bucket prefixes (the substitution is order-preserving), so this
// is real density: fatter fanout, shallower trees, fewer seals per lookup.
// The truncation is canonical — shared must be exactly the longest common
// prefix, so every accepted page re-encodes byte-for-byte — and a decoder
// that predates the flag rejects prefix pages outright (unknown flag bit),
// never misreading them.
//
// Prefix is the one form the tree writes. Full pages are what a file written
// before prefix coding existed (or with the full-key option, since removed)
// holds, so the decoder keeps reading them — each page by its own flag byte,
// which is why one file may hold both forms while commits and re-seals
// rewrite the old pages — and the full encoder stays as the reference the
// tests build such pages with.
//
// There is one decoder, DecodeInPlace, and the page it is handed IS the node
// it returns: keys and values are views into the deciphered buffer, not copies
// in a second arena, so a fetched block costs one buffer on its way from the
// store to a searchable node. Whoever calls it gives the buffer up. Decode is
// the same decoder over a clone, for a caller that must keep its page.
package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

const (
	magic   = 0xEB
	version = 0x01

	flagLeaf   = 1 << 0
	flagPrefix = 1 << 1

	headerSize    = 5 // magic + version + flags + nkeys
	prefixHdrSize = 4 // a prefix key record's (shared, suffixLen) header

	// MaxKeyLen and MaxValueLen bound entry sizes as encodable limits.
	MaxKeyLen   = 1<<16 - 1
	MaxValueLen = 1<<32 - 1
)

// ErrDecode is returned when a page does not decode to a valid node.
var ErrDecode = errors.New("node: malformed page")

// Format names an on-page key encoding. FormatPrefix, the one the tree
// writes, is the zero value; the decoder accepts both, dispatching on each
// page's flag byte (the package comment says why full pages still exist).
type Format byte

const (
	// FormatPrefix stores each key as (shared, suffix) against the previous
	// key on the page.
	FormatPrefix Format = iota
	// FormatFull stores every key whole — the original page layout, which
	// old files still hold. The write path never encodes it; its encoder is
	// the reference the tests build such pages with.
	FormatFull
)

func (f Format) String() string {
	switch f {
	case FormatPrefix:
		return "prefix"
	case FormatFull:
		return "full"
	}
	return fmt.Sprintf("Format(%d)", byte(f))
}

// FormatOf reports which key encoding a page uses, from its flag byte. It
// does not validate the page; malformed pages still fail to decode.
func FormatOf(page []byte) Format {
	if len(page) >= headerSize && page[2]&flagPrefix != 0 {
		return FormatPrefix
	}
	return FormatFull
}

// Node is a B-tree node. For a node with n keys, leaves have n values and no
// children; internal nodes have n values (the payloads of their separator
// keys) and n+1 children.
type Node struct {
	Leaf     bool
	Keys     [][]byte // substituted search keys, strictly increasing
	Values   [][]byte
	Children []uint64 // page IDs; empty iff Leaf
}

// Search returns the index of the first key >= key, and whether that key is
// an exact match. Keys are strictly increasing, so the binary search may stop
// at the first equal probe; it is written out because every level of every
// descent runs it, and sort.Search pays a closure call a probe.
func (n *Node) Search(key []byte) (int, bool) {
	lo, hi := 0, len(n.Keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(n.Keys[mid], key); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// EncodedSizeFormat returns the exact size in bytes of EncodeFormat(f)'s
// output.
func (n *Node) EncodedSizeFormat(f Format) int {
	size := headerSize
	if f == FormatPrefix {
		var prev []byte
		for _, k := range n.Keys {
			size += prefixHdrSize + len(k) - commonPrefixLen(prev, k)
			prev = k
		}
	} else {
		for _, k := range n.Keys {
			size += 2 + len(k)
		}
	}
	for _, v := range n.Values {
		size += 4 + len(v)
	}
	if !n.Leaf {
		size += 8 * len(n.Children)
	}
	return size
}

// EncodeFormat serializes the node to a fresh page buffer in the given
// format.
func (n *Node) EncodeFormat(f Format) ([]byte, error) {
	return n.AppendEncodeFormat(nil, f)
}

// AppendEncodeFormat appends the node's page in the given format to dst and
// returns the extended buffer, so a caller sealing page after page can encode
// into one reused scratch. dst is grown at most once, up front.
func (n *Node) AppendEncodeFormat(dst []byte, f Format) ([]byte, error) {
	if f != FormatFull && f != FormatPrefix {
		return nil, fmt.Errorf("node: unknown format %d", byte(f))
	}
	if len(n.Values) != len(n.Keys) {
		return nil, fmt.Errorf("node: %d keys but %d values", len(n.Keys), len(n.Values))
	}
	if n.Leaf && len(n.Children) != 0 {
		return nil, fmt.Errorf("node: leaf with %d children", len(n.Children))
	}
	if !n.Leaf && len(n.Children) != len(n.Keys)+1 {
		return nil, fmt.Errorf("node: internal node with %d keys but %d children", len(n.Keys), len(n.Children))
	}
	if len(n.Keys) > 1<<16-1 {
		return nil, fmt.Errorf("node: too many keys: %d", len(n.Keys))
	}
	buf := slices.Grow(dst, n.EncodedSizeFormat(f))
	flags := byte(0)
	if n.Leaf {
		flags |= flagLeaf
	}
	if f == FormatPrefix {
		flags |= flagPrefix
	}
	buf = append(buf, magic, version, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.Keys)))
	var prev []byte
	for _, k := range n.Keys {
		if len(k) > MaxKeyLen {
			return nil, fmt.Errorf("node: key too long: %d", len(k))
		}
		if f == FormatPrefix {
			shared := commonPrefixLen(prev, k)
			buf = binary.BigEndian.AppendUint16(buf, uint16(shared))
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)-shared))
			buf = append(buf, k[shared:]...)
			prev = k
		} else {
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
		}
	}
	for _, v := range n.Values {
		if int64(len(v)) > MaxValueLen {
			return nil, fmt.Errorf("node: value too long: %d", len(v))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	if !n.Leaf {
		for _, c := range n.Children {
			buf = binary.BigEndian.AppendUint64(buf, c)
		}
	}
	return buf, nil
}

// DecodeInPlace parses a page produced by EncodeFormat, dispatching on the
// page's flag byte, and ADOPTS the buffer: the page is the node. Values
// and full-format keys are views into it, and a prefix-coded key that shares
// at most four bytes with its predecessor is rebuilt over its own four-byte
// (shared, suffixLen) record header, so it too lies in the page. Only keys
// that share more — wide bucket prefixes — are rebuilt in one side buffer,
// sized exactly by the pre-scan. Every key and value slice is
// capacity-clipped, so appending to one can never clobber its neighbors.
//
// Ownership: the caller hands the page over and must neither read nor write
// it afterwards. The node pins the whole buffer for as long as any of its
// key or value slices is reachable (clones that share those slices included).
// A rejected page's buffer is worth nothing — record headers may already have
// been overwritten — and nobody retains it.
//
// Prefix pages are held to canonical truncation: shared must be exactly the
// longest common prefix with the reconstructed previous key. Over-sharing
// (shared longer than the previous key) and under-sharing (a suffix whose
// first byte still matches the previous key at that position) both reject,
// so an accepted page re-encodes byte-for-byte in its own format.
func DecodeInPlace(page []byte) (*Node, error) {
	if len(page) < headerSize || page[0] != magic || page[1] != version {
		return nil, ErrDecode
	}
	flags := page[2]
	if flags&^byte(flagLeaf|flagPrefix) != 0 {
		// Unknown flag bits: reject rather than silently dropping them, so
		// every accepted page re-encodes byte-identically (canonical codec).
		return nil, ErrDecode
	}
	prefix := flags&flagPrefix != 0
	nkeys := int(binary.BigEndian.Uint16(page[3:5]))
	n := &Node{Leaf: flags&flagLeaf != 0}
	rest := page[headerSize:]

	// Pre-scan the prefix records (cheap: skips suffix bytes). It front-loads
	// the length arithmetic, leaving the decode loop free of bounds failures,
	// and sizes the side buffer for the keys that cannot be rebuilt in place.
	var side []byte
	if prefix {
		sideCap, prevLen := 0, 0
		scan := rest
		for i := 0; i < nkeys; i++ {
			if len(scan) < prefixHdrSize {
				return nil, ErrDecode
			}
			shared := int(binary.BigEndian.Uint16(scan))
			slen := int(binary.BigEndian.Uint16(scan[2:]))
			scan = scan[prefixHdrSize:]
			if len(scan) < slen || shared > prevLen || (i == 0 && shared != 0) {
				return nil, ErrDecode
			}
			prevLen = shared + slen
			if prevLen > MaxKeyLen {
				// Reconstructed key would exceed the encodable bound.
				return nil, ErrDecode
			}
			if shared > prefixHdrSize {
				sideCap += prevLen
			}
			scan = scan[slen:]
		}
		if sideCap > 0 {
			side = make([]byte, 0, sideCap)
		}
	}

	// Key and value headers share one backing array; each half is clipped to
	// its own capacity, so an append to Keys reallocates rather than running
	// into Values.
	hdrs := make([][]byte, 2*nkeys)
	n.Keys, n.Values = hdrs[:nkeys:nkeys], hdrs[nkeys:]
	var prev []byte
	for i := range n.Keys {
		if prefix {
			// Bounds were proven by the pre-scan; only canonicality remains.
			shared := int(binary.BigEndian.Uint16(rest))
			slen := int(binary.BigEndian.Uint16(rest[2:]))
			end := prefixHdrSize + slen
			suffix := rest[prefixHdrSize:end]
			if shared < len(prev) && slen > 0 && suffix[0] == prev[shared] {
				// Under-truncated: the canonical encoder would have shared
				// one more byte.
				return nil, ErrDecode
			}
			if shared <= prefixHdrSize {
				// The shared bytes fit in the record header just parsed: the
				// key is rebuilt where it lies. prev ends before this record,
				// so the copy never overlaps its source.
				start := prefixHdrSize - shared
				copy(rest[start:prefixHdrSize], prev[:shared])
				n.Keys[i] = rest[start:end:end]
			} else {
				start := len(side)
				side = append(side, prev[:shared]...)
				side = append(side, suffix...)
				n.Keys[i] = side[start:len(side):len(side)]
			}
			rest = rest[end:]
		} else {
			if len(rest) < 2 {
				return nil, ErrDecode
			}
			klen := int(binary.BigEndian.Uint16(rest))
			rest = rest[2:]
			if len(rest) < klen {
				return nil, ErrDecode
			}
			n.Keys[i] = rest[:klen:klen]
			rest = rest[klen:]
		}
		prev = n.Keys[i]
	}
	for i := range n.Values {
		if len(rest) < 4 {
			return nil, ErrDecode
		}
		// Compare as uint64 so a length >= 2^31 returns ErrDecode on 32-bit
		// platforms instead of panicking on a negative slice bound.
		vlen32 := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(vlen32) {
			return nil, ErrDecode
		}
		n.Values[i] = rest[:vlen32:vlen32]
		rest = rest[vlen32:]
	}
	if !n.Leaf {
		nchildren := nkeys + 1
		if len(rest) < 8*nchildren {
			return nil, ErrDecode
		}
		n.Children = make([]uint64, nchildren)
		for i := range n.Children {
			n.Children[i] = binary.BigEndian.Uint64(rest)
			rest = rest[8:]
		}
	}
	if len(rest) != 0 {
		return nil, ErrDecode
	}
	return n, nil
}

// Decode is DecodeInPlace over a private copy of the page: the returned node
// owns fresh buffers and does not alias the page, which stays the caller's,
// untouched, whether or not it decodes. It costs one page-sized allocation
// and copy more than DecodeInPlace; a caller that owns its buffer (the
// engine's read path does) should hand it over instead.
func Decode(page []byte) (*Node, error) {
	return DecodeInPlace(bytes.Clone(page))
}
