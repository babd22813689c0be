// Package node defines the in-memory B-tree node and its binary page
// encoding. Nodes hold only substituted search keys (see internal/keysub) —
// plaintext keys never reach this layer — and are serialized to a compact
// binary page that the cipher layer seals before it touches the store.
//
// Page layout, version 2, the one the tree writes (all integers big-endian):
//
//	magic    byte    0xEB
//	version  byte    0x02
//	flags    byte    bit0 = leaf
//	nkeys    uint16
//	width    uint16  every key's length (0 on a page with no keys)
//	keys     nkeys × width bytes, one stride array
//	ends     nkeys × uint32: where value i ends in the value area (value i
//	         starts where value i-1 ends, value 0 at 0)
//	values   the value area, every value back to back
//	children (nkeys+1) × uint64   (internal nodes only)
//
// Substitution makes every search key a token of one width
// (keysub.Substituter.Width), so key i is simply the width bytes at i ×
// width: the page IS the node. A read-only view answers Len, Key, Value,
// Child and Search by arithmetic on the page and four header fields, and
// decoding a page only validates it (lengths, value ends that never run
// backwards and end exactly at the value area's end, no unknown flag), so an
// accepted page re-encodes byte for byte. The encoder refuses a node whose
// keys differ in length.
//
// Version 1 is what files written before version 2 hold, and they are read
// forever: magic, 0x01, flags (bit0 leaf, bit1 prefix), nkeys, then keys as
// nkeys × (uint16 len, bytes) — or, prefix-truncated, nkeys × (uint16 shared,
// uint16 suffixLen, suffix) against the previous key, canonically — values as
// nkeys × (uint32 len, bytes), and children as above. Its parser builds a
// materialised node, which the engine re-encodes as version 2 (transcoding on
// read), so every node it caches is a view and commits and re-seals convert
// a file page by page. The version-1 encoders stay as the reference the
// tests and the benchmark's replay build such pages with. A decoder that
// predates version 2 rejects its pages (unknown version), never misreading
// them.
//
// A Node takes one of two forms: the tree builds and edits materialised
// nodes, whose entries sit in the exported Keys, Values and Children slices,
// and a view leaves them empty. A fetched page costs one allocation at most
// on its way to a view: a block holds the view and room for the page, sized
// to fill one of the runtime's size classes; the page is read and deciphered
// in that room, and Block.Decode makes the view there. Blocks come from a
// free list (Blocks), which allocates one only when it has none of the
// page's class, and go back to it from views nothing can read any more.
// Materialize turns any node into a private, mutable copy; every
// materialised node comes from New, which at the default order allocates the
// node and its arrays as one object, and MaterializeInto rebuilds a copy
// nothing reads any more (Reset) in place.
package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/israce"
)

const (
	magic     = 0xEB
	versionV1 = 0x01 // length-prefixed keys, whole or prefix-truncated
	version   = 0x02 // a stride array of fixed-width keys

	flagLeaf   = 1 << 0
	flagPrefix = 1 << 1 // version 1 only

	headerSize    = 5 // version 1: magic + version + flags + nkeys
	strideHeader  = 7 // version 2: version 1's header + width
	prefixHdrSize = 4 // a prefix key record's (shared, suffixLen) header

	// MaxKeyLen and MaxValueLen bound entry sizes as encodable limits.
	MaxKeyLen   = 1<<16 - 1
	MaxValueLen = 1<<32 - 1
)

// ErrDecode is returned when a page does not decode to a valid node.
var ErrDecode = errors.New("node: malformed page")

// Format names a page encoding. FormatStride, version 2 and the one the tree
// writes, is the zero value; the version-1 forms are what older files hold
// (see the package comment).
type Format byte

const (
	// FormatStride is version 2: fixed-width keys in one stride array.
	FormatStride Format = iota
	// FormatPrefix is version 1 with each key stored as (shared, suffix)
	// against the previous key on the page: what files written before
	// version 2 hold.
	FormatPrefix
	// FormatFull is version 1 with every key stored whole: what files
	// written before prefix coding hold.
	FormatFull
)

func (f Format) String() string {
	switch f {
	case FormatStride:
		return "stride"
	case FormatPrefix:
		return "prefix"
	case FormatFull:
		return "full"
	}
	return fmt.Sprintf("Format(%d)", byte(f))
}

// FormatOf reports which encoding a page uses, from its version and flag
// bytes. It does not validate the page; malformed pages still fail to decode.
func FormatOf(page []byte) Format {
	switch {
	case len(page) >= 2 && page[1] == version:
		return FormatStride
	case len(page) >= headerSize && page[2]&flagPrefix != 0:
		return FormatPrefix
	}
	return FormatFull
}

// Node is a B-tree node. For a node with n keys, leaves have n values and no
// children; internal nodes have n values (the payloads of their separator
// keys) and n+1 children.
//
// A materialised node holds its entries in Keys, Values and Children. A view
// (see DecodeInPlace) leaves all three empty and is read through Len, Key,
// Value, Child and Search, which answer for either form; code that may be
// handed a view reads a node only through them.
type Node struct {
	Leaf bool
	// Where the node lives, in the padding after Leaf: class is one more
	// than the index of the block class a view was decoded in (see Blocks),
	// 0 for any node not in a block; room is the object New cut a
	// materialised node's arrays from (see MaterializeInto), noRoom for any
	// other node; epoch is the key epoch a view's page was sealed under (see
	// Block.Decode), 0 in a materialised node.
	class    uint8
	room     roomKind
	epoch    uint32
	Keys     [][]byte // substituted search keys, strictly increasing
	Values   [][]byte
	Children []uint64 // page IDs; empty iff Leaf

	// A view's page, nil in a materialised node, and what its header says:
	// nkeys keys of width bytes from strideHeader on, the value area at vals,
	// its nkeys ends just before it.
	page  []byte
	nkeys uint16
	width uint16
	vals  uint32
}

// Block is a page's way from the store to a view in one allocation: a node
// and room for the page. The caller reads the sealed page into Page,
// deciphers it there, and hands what that yields to Decode, once. The view
// then owns the block, until its holder gives it back to a free list
// (Blocks.Recycle) for another page. A page too large for the biggest block
// gets a buffer of its own, and Decode then allocates the node: a second
// allocation, and nothing is recycled.
type Block struct {
	shell *Node // nil when the page has a buffer of its own
	page  []byte
	class uint8 // Node.class of the view Decode builds
}

// pageBlock is a node followed by its page's room, R a byte array.
type pageBlock[R any] struct {
	Node
	room R
}

// blockClass is one block size: its room in bytes, its allocator, and the
// room of a node it allocated.
type blockClass struct {
	room   int
	alloc  func() (*Node, []byte)
	roomOf func(*Node) []byte
}

// class returns the block class whose room is R.
func class[R any]() blockClass {
	var r R
	roomOf := func(n *Node) []byte {
		b := (*pageBlock[R])(unsafe.Pointer(n))
		return unsafe.Slice((*byte)(unsafe.Pointer(&b.room)), unsafe.Sizeof(b.room))
	}
	return blockClass{int(unsafe.Sizeof(r)), func() (*Node, []byte) {
		b := new(pageBlock[R])
		return &b.Node, roomOf(&b.Node)
	}, roomOf}
}

// blockOverhead is what a block spends beyond its room: the node, and the
// eight-byte header the runtime keeps inside every object over 512 bytes
// that holds pointers.
const blockOverhead = 8 + unsafe.Sizeof(Node{})

// blockClasses are the blocks by size, each filling one of the runtime's size
// classes exactly (the class less blockOverhead is its room): every class
// from the smallest over 512 bytes (below that the runtime keeps no object
// header, and no page worth a block is so small) up to 8 KiB, so a block
// wastes no more than the gap to the next class, as a plain buffer of the
// page's size would. TestBlocksFillSizeClasses holds them to it.
var blockClasses = [...]blockClass{
	class[[576 - blockOverhead]byte](),
	class[[640 - blockOverhead]byte](),
	class[[704 - blockOverhead]byte](),
	class[[768 - blockOverhead]byte](),
	class[[896 - blockOverhead]byte](),
	class[[1024 - blockOverhead]byte](),
	class[[1152 - blockOverhead]byte](),
	class[[1280 - blockOverhead]byte](),
	class[[1408 - blockOverhead]byte](),
	class[[1536 - blockOverhead]byte](),
	class[[1792 - blockOverhead]byte](),
	class[[2048 - blockOverhead]byte](),
	class[[2304 - blockOverhead]byte](),
	class[[2688 - blockOverhead]byte](),
	class[[3072 - blockOverhead]byte](),
	class[[3200 - blockOverhead]byte](),
	class[[3456 - blockOverhead]byte](),
	class[[4096 - blockOverhead]byte](),
	class[[4864 - blockOverhead]byte](),
	class[[5376 - blockOverhead]byte](),
	class[[6144 - blockOverhead]byte](),
	class[[6528 - blockOverhead]byte](),
	class[[6784 - blockOverhead]byte](),
	class[[6912 - blockOverhead]byte](),
	class[[8192 - blockOverhead]byte](),
}

// NewBlock returns a new block with room for a page of size bytes: the
// smallest block class that holds it, or for a page larger than every class,
// a plain buffer. A read path takes its blocks from a Blocks free list
// instead, which calls this only when it has none to give.
func NewBlock(size int) Block {
	c := classFor(size)
	if c < 0 {
		return Block{page: make([]byte, size)}
	}
	shell, room := blockClasses[c].alloc()
	return Block{shell: shell, page: room[:size:size], class: uint8(c + 1)}
}

// classFor returns the index of the smallest block class with room for size
// bytes, or -1 for a page larger than every class.
func classFor(size int) int {
	for i, c := range blockClasses {
		if size <= c.room {
			return i
		}
	}
	return -1
}

// Page returns the room the page is read into: size bytes, capacity-clipped.
func (b Block) Page() []byte { return b.page }

// Decode makes the view of a version-2 page in the block: page is what
// deciphering Page in place left of it, sealed under key epoch epoch, and the
// view pins the whole block. It only validates the page, and allocates
// nothing; a version-1 page is refused (ErrDecode), its reader transcoding it
// first (see the package comment). A cipher that returned a buffer of its own
// instead still decodes correctly, only with the block's room spent for
// nothing.
func (b Block) Decode(page []byte, epoch uint32) (*Node, error) {
	n, err := decodeStride(b.shell, page)
	if err == nil {
		n.class, n.epoch = b.class, epoch
	}
	return n, err
}

// SealedEpoch returns the epoch Block.Decode was given for view n, else 0.
func (n *Node) SealedEpoch() uint32 { return n.epoch }

// Blocks is a free list of blocks, one list per block class, and its zero
// value is empty: a read miss takes its block here (Block), and a view that
// nothing can read any more gives its block back (Recycle), so a cache that
// evicts as often as it misses allocates nothing in the steady state. It
// keeps every block: a class gains a new block only when its list is empty,
// so the list never holds more of a class than were in use at once, which
// the holders of the views (the engine's cache and limbo) bound. A page
// larger than every class has a plain buffer, never recycled. Safe for
// concurrent use.
type Blocks struct {
	mu     sync.Mutex
	free   [len(blockClasses)][]*Node
	reused uint64
}

// Block returns a block with room for a page of size bytes, as NewBlock
// does, but takes a free block of the page's class when there is one. A
// recycled block's node is cleared; its room is not, the caller reading the
// page over it.
func (f *Blocks) Block(size int) Block {
	c := classFor(size)
	if c < 0 {
		return NewBlock(size)
	}
	f.mu.Lock()
	l := f.free[c]
	if len(l) == 0 {
		f.mu.Unlock()
		return NewBlock(size)
	}
	shell := l[len(l)-1]
	l[len(l)-1] = nil
	f.free[c] = l[:len(l)-1]
	f.reused++
	f.mu.Unlock()
	*shell = Node{}
	return Block{shell: shell, page: blockClasses[c].roomOf(shell)[:size:size], class: uint8(c + 1)}
}

// Reused returns how many blocks Block has taken from the list rather than
// allocated.
func (f *Blocks) Reused() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reused
}

// Recycle gives view n's block back to the free list, and reports whether
// the list took it. It refuses a node that is not a view in a block and a
// view already given back.
//
// The caller guarantees that nothing reads n, its page, or any key or value
// slice cut from it, ever again: from here on the block is the next Block
// caller's, who reads another page over it. Under the race detector the room
// is first overwritten with a fixed pattern, so a reader the caller missed
// reads garbage, and races with the write, rather than reading the next
// page's bytes unnoticed.
func (f *Blocks) Recycle(n *Node) bool {
	if n.class == 0 {
		return false
	}
	c := int(n.class - 1)
	n.class = 0
	f.put(c, n)
	return true
}

// Release gives back a block that holds no view: one whose page nothing
// reads any more, because Decode refused it or its reader transcoded it into
// another block. A plain buffer is left to the collector.
func (f *Blocks) Release(b Block) {
	if b.shell != nil {
		f.put(int(b.class-1), b.shell)
	}
}

// put adds the block whose node is shell, of class c, to the free list.
func (f *Blocks) put(c int, shell *Node) {
	if israce.Enabled {
		room := blockClasses[c].roomOf(shell)
		for i := range room {
			room[i] = 0xA5
		}
	}
	f.mu.Lock()
	f.free[c] = append(f.free[c], shell)
	f.mu.Unlock()
}

// Recyclable reports whether n is a view in a block: one Recycle would take,
// given room.
func (n *Node) Recyclable() bool { return n.class != 0 }

// Len returns the number of keys.
func (n *Node) Len() int {
	if n.page == nil {
		return len(n.Keys)
	}
	return int(n.nkeys)
}

// Key returns key i. A view's keys are capacity-clipped, so appending to one
// can never clobber its neighbors; nobody may write into one.
func (n *Node) Key(i int) []byte {
	if n.page == nil {
		return n.Keys[i]
	}
	w := int(n.width)
	keys := n.page[strideHeader : strideHeader+int(n.nkeys)*w]
	return keys[i*w : (i+1)*w : (i+1)*w]
}

// Value returns value i, capacity-clipped in a view like Key.
func (n *Node) Value(i int) []byte {
	if n.page == nil {
		return n.Values[i]
	}
	ends, vals := n.page[int(n.vals)-4*int(n.nkeys):n.vals], n.page[n.vals:]
	end, start := binary.BigEndian.Uint32(ends[4*i:]), uint32(0)
	if i > 0 {
		start = binary.BigEndian.Uint32(ends[4*i-4:])
	}
	return vals[start:end:end]
}

// Child returns the page ID of child i, for i in [0, Len()] of an index node.
func (n *Node) Child(i int) uint64 {
	if n.page == nil {
		return n.Children[i]
	}
	if n.Leaf {
		panic("node: a leaf has no children")
	}
	kids := n.page[len(n.page)-8*(int(n.nkeys)+1):]
	return binary.BigEndian.Uint64(kids[8*i:])
}

// leafRoom and indexRoom are a materialised node and the arrays its slices
// are cut from, allocated as one object: room for nodeRoom entries, so a full
// node at the default order plus the one entry a split or insert adds.
type leafRoom struct {
	Node
	hdrs [2 * nodeRoom][]byte // Keys, then Values
}

type indexRoom struct {
	leafRoom
	kids [nodeRoom + 1]uint64
}

// nodeRoom is the entry count a materialised node carries inside its own
// allocation (see New). A full node at the default order (31 keys) fits, with
// room for the one entry a materialised node may gain; a node with more keys
// takes further allocations for its arrays.
const nodeRoom = 32

// CopyBytes is the most a node New allocated with its arrays takes: what
// one copy kept for reuse holds.
const CopyBytes = int(unsafe.Sizeof(indexRoom{}))

// roomKind names the object a materialised node was allocated in.
type roomKind uint8

const (
	noRoom  roomKind = iota // a view, or a node whose arrays are separate
	inLeaf                  // a leafRoom
	inIndex                 // an indexRoom, which holds a leaf as well
)

// cut cuts n's empty Keys, Values and (in an index node) Children from the
// arrays of its room, which must hold them, and returns n.
func (n *Node) cut() *Node {
	r := (*leafRoom)(unsafe.Pointer(n))
	n.Keys, n.Values = r.hdrs[:0:nodeRoom], r.hdrs[nodeRoom:nodeRoom:2*nodeRoom]
	n.Children = nil
	if !n.Leaf && n.room == inIndex {
		n.Children = (*indexRoom)(unsafe.Pointer(n)).kids[:0]
	}
	return n
}

// New returns an empty materialised node with room for n entries (and, in an
// index node, n+1 children) before any of its slices regrows. Keys and Values
// are cut from one array, each clipped to its own capacity so growing one
// never runs into the other. For n up to nodeRoom the node and its arrays are
// one allocation sized for nodeRoom, whatever n is; a larger n (a tree of a
// larger order) takes the node, the header array and the child array
// separately. Every node the tree builds comes from here.
func New(leaf bool, n int) *Node {
	if n > nodeRoom {
		hdrs := make([][]byte, 2*n)
		c := &Node{Leaf: leaf, Keys: hdrs[:0:n], Values: hdrs[n : n : 2*n]}
		if !leaf {
			c.Children = make([]uint64, 0, n+1)
		}
		return c
	}
	var c *Node
	if leaf {
		c = &new(leafRoom).Node
		c.room = inLeaf
	} else {
		c = &new(indexRoom).Node
		c.room = inIndex
	}
	c.Leaf = leaf
	return c.cut()
}

// Materialize returns a private, mutable copy of n, view or not, built by New
// with room for one more entry: fresh Keys, Values and (in an index node)
// Children slices over the same key and value bytes, which stay read-only.
// At the default order that is one allocation. n itself is not touched.
func (n *Node) Materialize() *Node { return n.MaterializeInto(nil) }

// Reset empties n, a materialised node nothing reads any more, for
// MaterializeInto to rebuild, and reports whether it can: whether New
// allocated n together with its arrays. It clears those arrays, so that a
// node kept for reuse keeps no key or value alive.
func (n *Node) Reset() bool {
	if n.room == noRoom {
		return false
	}
	clear((*leafRoom)(unsafe.Pointer(n)).hdrs[:])
	n.cut()
	return true
}

// MaterializeInto is Materialize rebuilding c, a node Reset emptied, as the
// copy when its room holds n with one entry to spare: a leaf's copy fits
// either room, an index node's only an index node's. It then allocates
// nothing; otherwise, and for a nil c, it allocates the copy as Materialize
// does, and c is left as it was.
func (n *Node) MaterializeInto(c *Node) *Node {
	k := n.Len()
	if c == nil || c.room == noRoom || k >= nodeRoom || !n.Leaf && c.room != inIndex {
		c = New(n.Leaf, k+1)
	} else {
		c.Leaf = n.Leaf
		c.cut()
	}
	c.Keys, c.Values = c.Keys[:k], c.Values[:k]
	for i := range k {
		c.Keys[i], c.Values[i] = n.Key(i), n.Value(i)
	}
	if !n.Leaf {
		c.Children = c.Children[:k+1]
		for i := range c.Children {
			c.Children[i] = n.Child(i)
		}
	}
	return c
}

// Search returns the index of the first key >= key, and whether that key is
// an exact match. Keys are strictly increasing, so the binary search may stop
// at the first equal probe; it is written out because every level of every
// descent runs it, and sort.Search pays a closure call a probe. A view's
// probe is a slice of its stride array.
func (n *Node) Search(key []byte) (int, bool) {
	if n.page == nil {
		return search(n.Keys, key)
	}
	w := int(n.width)
	keys := n.page[strideHeader : strideHeader+int(n.nkeys)*w]
	lo, hi := 0, int(n.nkeys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := mid * w
		switch c := bytes.Compare(keys[off:off+w], key); {
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

// search is Search over a materialised node's keys.
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(keys[mid], key); {
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
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// EncodedSizeFormat returns the exact size in bytes of EncodeFormat(f)'s
// output (for FormatStride, when the keys are of one width).
func (n *Node) EncodedSizeFormat(f Format) int {
	if f == FormatStride && n.page != nil {
		return len(n.page)
	}
	nkeys := n.Len()
	size := headerSize + 4*nkeys
	if f == FormatStride {
		size = strideHeader + 4*nkeys
		if nkeys > 0 {
			size += nkeys * len(n.Key(0))
		}
	}
	var prev []byte
	for i := range nkeys {
		switch k := n.Key(i); f {
		case FormatPrefix:
			size += prefixHdrSize + len(k) - commonPrefixLen(prev, k)
			prev = k
		case FormatFull:
			size += 2 + len(k)
		}
		size += len(n.Value(i))
	}
	if !n.Leaf {
		size += 8 * (nkeys + 1)
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
// into one reused scratch. dst is grown at most once, up front. A view
// encodes as well as a materialised node does; in FormatStride its page is
// the encoding, copied as it is. A node that has no page in the format — in
// FormatStride, one whose keys differ in length or whose values overflow the
// 32-bit ends — is refused with an error before anything is written.
func (n *Node) AppendEncodeFormat(dst []byte, f Format) ([]byte, error) {
	if f != FormatStride && f != FormatFull && f != FormatPrefix {
		return nil, fmt.Errorf("node: unknown format %d", byte(f))
	}
	if n.page != nil && f == FormatStride {
		return append(dst, n.page...), nil
	}
	if n.page == nil {
		// A view is well-formed by construction; a materialised node holds
		// whatever its caller put in it.
		if len(n.Values) != len(n.Keys) {
			return nil, fmt.Errorf("node: %d keys but %d values", len(n.Keys), len(n.Values))
		}
		if n.Leaf && len(n.Children) != 0 {
			return nil, fmt.Errorf("node: leaf with %d children", len(n.Children))
		}
		if !n.Leaf && len(n.Children) != len(n.Keys)+1 {
			return nil, fmt.Errorf("node: internal node with %d keys but %d children", len(n.Keys), len(n.Children))
		}
	}
	nkeys := n.Len()
	if nkeys > 1<<16-1 {
		return nil, fmt.Errorf("node: too many keys: %d", nkeys)
	}
	width, area := 0, uint64(0)
	if nkeys > 0 {
		width = len(n.Key(0))
	}
	for i := range nkeys {
		switch k, v := n.Key(i), n.Value(i); {
		case len(k) > MaxKeyLen:
			return nil, fmt.Errorf("node: key too long: %d", len(k))
		case f == FormatStride && len(k) != width:
			return nil, fmt.Errorf("node: key %d is %d bytes where key 0 is %d: a page holds keys of one width", i, len(k), width)
		case int64(len(v)) > MaxValueLen:
			return nil, fmt.Errorf("node: value too long: %d", len(v))
		default:
			area += uint64(len(v))
		}
	}
	if f == FormatStride && area > math.MaxUint32 {
		return nil, fmt.Errorf("node: values of more than %d bytes", uint64(math.MaxUint32))
	}
	buf := slices.Grow(dst, n.EncodedSizeFormat(f))
	flags := byte(0)
	if n.Leaf {
		flags |= flagLeaf
	}
	switch f {
	case FormatStride:
		buf = append(buf, magic, version, flags, byte(nkeys>>8), byte(nkeys), byte(width>>8), byte(width))
	case FormatPrefix:
		buf = append(buf, magic, versionV1, flags|flagPrefix, byte(nkeys>>8), byte(nkeys))
	default:
		buf = append(buf, magic, versionV1, flags, byte(nkeys>>8), byte(nkeys))
	}
	var prev []byte
	for i := range nkeys {
		k := n.Key(i)
		switch f {
		case FormatPrefix:
			shared := commonPrefixLen(prev, k)
			buf = binary.BigEndian.AppendUint16(buf, uint16(shared))
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)-shared))
			k, prev = k[shared:], k
		case FormatFull:
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		}
		buf = append(buf, k...)
	}
	end := uint32(0)
	for i := range nkeys {
		if v := n.Value(i); f == FormatStride {
			end += uint32(len(v))
			buf = binary.BigEndian.AppendUint32(buf, end)
		} else {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
			buf = append(buf, v...)
		}
	}
	for i := range nkeys {
		if f == FormatStride { // the values follow all the ends
			buf = append(buf, n.Value(i)...)
		}
	}
	if !n.Leaf {
		for i := range nkeys + 1 {
			buf = binary.BigEndian.AppendUint64(buf, n.Child(i))
		}
	}
	return buf, nil
}

// DecodeInPlace parses a page produced by EncodeFormat and ADOPTS the buffer:
// the caller must neither read nor write it afterwards, and the node pins it
// while the node or any key or value slice taken from it is reachable (a view
// built in a block is given back with Blocks.Recycle). A version-2 page
// becomes a read-only view of it, one allocation (none in a Block). A
// version-1 page becomes a materialised node whose values and whole keys lie
// in the page and whose prefix keys are rebuilt in one arena: the parser the
// engine transcodes an older file's pages with. Either way an accepted page
// re-encodes byte for byte in its own format: prefix pages are held to exact
// truncation, shared being the longest common prefix with the previous key.
// A page of 4 GiB or more, which no page store can hold, is rejected too.
func DecodeInPlace(page []byte) (*Node, error) {
	if FormatOf(page) == FormatStride {
		return decodeStride(nil, page)
	}
	return decodeV1(page)
}

// decodeStride validates a version-2 page and makes the view of it in n, or
// in an allocation of its own when n is nil (and the page is valid).
func decodeStride(n *Node, page []byte) (*Node, error) {
	if len(page) < strideHeader || page[0] != magic || page[1] != version || page[2]&^flagLeaf != 0 ||
		uint64(len(page)) > math.MaxUint32 {
		return nil, ErrDecode
	}
	leaf := page[2]&flagLeaf != 0
	nkeys := int(binary.BigEndian.Uint16(page[3:]))
	width := int(binary.BigEndian.Uint16(page[5:]))
	if nkeys == 0 && width != 0 {
		// The encoder writes width 0 on an empty page, so anything else
		// would not re-encode byte for byte.
		return nil, ErrDecode
	}
	// At most 65535 keys of 65535 bytes: the sums fit an int64.
	ends := int64(strideHeader) + int64(nkeys)*int64(width)
	vals := ends + 4*int64(nkeys)
	fixed := vals
	if !leaf {
		fixed += 8 * int64(nkeys+1)
	}
	if int64(len(page)) < fixed {
		return nil, ErrDecode
	}
	area := uint64(int64(len(page)) - fixed)
	prev := uint32(0)
	for off := int(ends); off < int(vals); off += 4 {
		end := binary.BigEndian.Uint32(page[off:])
		if end < prev {
			return nil, ErrDecode
		}
		prev = end
	}
	if uint64(prev) != area {
		return nil, ErrDecode
	}
	if n == nil {
		n = new(Node)
	}
	n.Leaf, n.page = leaf, page
	n.nkeys, n.width, n.vals = uint16(nkeys), uint16(width), uint32(vals)
	return n, nil
}

// decodeV1 parses a version-1 page, full or prefix-truncated, into a
// materialised node (see DecodeInPlace).
func decodeV1(page []byte) (*Node, error) {
	if len(page) < headerSize || page[0] != magic || page[1] != versionV1 || uint64(len(page)) > math.MaxUint32 {
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
	// Every key record takes its header and every value its 4-byte length,
	// so a page too short for nkeys of them is refused before anything is
	// sized by nkeys.
	keyHdr := 2
	if prefix {
		keyHdr = prefixHdrSize
	}
	if nkeys > (len(page)-headerSize)/(keyHdr+4) {
		return nil, ErrDecode
	}
	n := New(flags&flagLeaf != 0, nkeys)
	// Prefix keys are rebuilt one after another in arena, sized for keys of
	// the first one's width but at most twice the page (append grows it past
	// that for keys that share more); each key's slot in Keys holds arena up
	// to its end until the last, when they are cut from wherever arena ended
	// up.
	var arena, prev []byte
	if prefix && nkeys > 0 {
		// In int64, so that the product cannot overflow a 32-bit int.
		first := int64(binary.BigEndian.Uint16(page[headerSize+2:]))
		arena = make([]byte, 0, min(int64(nkeys)*first, 2*int64(len(page)), math.MaxInt))
	}
	off := headerSize
	for range nkeys {
		if prefix {
			if len(page)-off < prefixHdrSize {
				return nil, ErrDecode
			}
			shared := int(binary.BigEndian.Uint16(page[off:]))
			slen := int(binary.BigEndian.Uint16(page[off+2:]))
			off += prefixHdrSize
			if len(page)-off < slen || shared > len(prev) || shared+slen > MaxKeyLen {
				// Over-truncated (shared beyond the previous key, the first
				// key's included), or a key past the encodable bound.
				return nil, ErrDecode
			}
			suffix := page[off : off+slen]
			if shared < len(prev) && slen > 0 && suffix[0] == prev[shared] {
				// Under-truncated: the canonical encoder would have shared
				// one more byte.
				return nil, ErrDecode
			}
			start := len(arena)
			arena = append(append(arena, prev[:shared]...), suffix...)
			prev = arena[start:]
			n.Keys = append(n.Keys, arena)
			off += slen
			continue
		}
		if len(page)-off < 2 || len(page)-off-2 < int(binary.BigEndian.Uint16(page[off:])) {
			return nil, ErrDecode
		}
		end := off + 2 + int(binary.BigEndian.Uint16(page[off:]))
		n.Keys = append(n.Keys, page[off+2:end:end])
		off = end
	}
	if prefix {
		start := 0
		for i, k := range n.Keys {
			end := len(k)
			n.Keys[i], start = arena[start:end:end], end
		}
	}
	for range nkeys {
		// Compare as uint64 so a length >= 2^31 returns ErrDecode on 32-bit
		// platforms instead of panicking on a negative slice bound.
		if len(page)-off < 4 || uint64(len(page)-off-4) < uint64(binary.BigEndian.Uint32(page[off:])) {
			return nil, ErrDecode
		}
		end := off + 4 + int(binary.BigEndian.Uint32(page[off:]))
		n.Values = append(n.Values, page[off+4:end:end])
		off = end
	}
	if !n.Leaf {
		if len(page)-off != 8*(nkeys+1) {
			return nil, ErrDecode
		}
		for ; off < len(page); off += 8 {
			n.Children = append(n.Children, binary.BigEndian.Uint64(page[off:]))
		}
	}
	if off != len(page) {
		return nil, ErrDecode
	}
	return n, nil
}

// Decode is DecodeInPlace over a private copy of the page, materialised: the
// node holds its entries in Keys, Values and Children and does not alias the
// page, which stays the caller's, untouched. A caller that owns its buffer
// and only reads the node should hand the buffer over instead.
func Decode(page []byte) (*Node, error) {
	n, err := DecodeInPlace(bytes.Clone(page))
	if err != nil || n.page == nil {
		return n, err
	}
	return n.Materialize(), nil
}
