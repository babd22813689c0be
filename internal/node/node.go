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
// A Node takes one of two forms. The tree builds and edits materialised
// nodes, whose entries sit in the exported Keys, Values and Children slices.
// There is one decoder, and the page it is handed IS the node it returns: a
// read-only view that answers Len, Key, Value, Child and Search from the
// deciphered page itself and an offset table kept in the node's own
// allocation, with the three slices left empty. A fetched page costs one
// allocation at most on its way from the store to a searchable node: a block
// holds the view, its offset table and room for the page together, sized to
// fill one of the runtime's size classes, the page is read and deciphered in
// that room, and Block.Decode builds the view there. A read path takes its
// blocks from a Blocks free list, which allocates one (NewBlock) only when it
// has none of the page's class, and whose blocks come back from views that
// nothing can read any more (Blocks.Recycle). DecodeInPlace is the same
// decoder over a buffer the caller already holds, at one allocation beside
// it; children are read from the page bytes when asked for. Whoever hands a
// page to the decoder gives the buffer up. Materialize turns any node
// into a private, mutable copy, and Decode is the decoder over a clone,
// materialised, for a caller that must keep its page. Every materialised node
// comes from New, which at the default order allocates the node and its
// arrays as one object, so a copy costs one allocation too, and none when
// MaterializeInto rebuilds a copy nothing reads any more (Reset) in place.
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

	// A view's state; page is nil in a materialised node.
	page []byte  // the deciphered page, its keys rebuilt in place
	side []byte  // keys that share more than prefixHdrSize bytes with the previous key
	ents []entry // where entry i's key and value lie
	kids int     // offset of the child array in page; len(page) in a leaf
}

// entry is a view's offset-table row for one key and its value.
type entry struct {
	key    uint32 // offset of the key in page, or in side when inSide
	val    uint32 // offset of the value in page; its uint32 length precedes it
	klen   uint16
	inSide bool
}

// viewRoom is the entry count a node carries inside its own allocation: a
// view's offset table, and a materialised node's header and child arrays (see
// New). A full node at the default order (31 keys) fits, with room for the
// one entry a materialised node may gain; a node with more keys takes further
// allocations for its arrays.
const viewRoom = 32

// viewShell is a view and its offset table, allocated as one object.
type viewShell struct {
	Node
	tab [viewRoom]entry
}

// newView returns a view with an offset table of nkeys rows, built in v when
// v is not nil and in a fresh allocation otherwise. A table of more than
// viewRoom rows is allocated beside the node.
func newView(v *viewShell, nkeys int) (*Node, []entry) {
	switch {
	case nkeys <= viewRoom:
		if v == nil {
			v = new(viewShell)
		}
		return &v.Node, v.tab[:nkeys:nkeys]
	case v == nil:
		return new(Node), make([]entry, nkeys)
	default:
		return &v.Node, make([]entry, nkeys)
	}
}

// Block is a page's way from the store to a view in one allocation: a view
// shell, its offset table and room for the page. The caller reads the sealed
// page into Page, deciphers it there, and hands what that yields to Decode,
// once. The view then owns the block, until its holder gives it back to a
// free list (Blocks.Recycle) for another page. A page too large for the
// biggest block gets a buffer of its own, and Decode is then DecodeInPlace
// over it: the node is a second allocation, and nothing is recycled.
type Block struct {
	shell *viewShell // nil when the page has a buffer of its own
	page  []byte
	class uint8 // Node.class of the view Decode builds
}

// pageBlock is a view shell followed by its page's room, R a byte array.
type pageBlock[R any] struct {
	viewShell
	room R
}

// blockClass is one block size: its room in bytes, its allocator, and the
// room of a shell it allocated.
type blockClass struct {
	room   int
	alloc  func() (*viewShell, []byte)
	roomOf func(*viewShell) []byte
}

// class returns the block class whose room is R.
func class[R any]() blockClass {
	var r R
	roomOf := func(v *viewShell) []byte {
		b := (*pageBlock[R])(unsafe.Pointer(v))
		return unsafe.Slice((*byte)(unsafe.Pointer(&b.room)), unsafe.Sizeof(b.room))
	}
	return blockClass{int(unsafe.Sizeof(r)), func() (*viewShell, []byte) {
		b := new(pageBlock[R])
		return &b.viewShell, roomOf(&b.viewShell)
	}, roomOf}
}

// blockOverhead is what a block spends beyond its room: the view shell, and
// the eight-byte header the runtime keeps inside every object over 512 bytes
// that holds pointers.
const blockOverhead = 8 + unsafe.Sizeof(viewShell{})

// blockClasses are the blocks by size, each filling one of the runtime's size
// classes exactly (the class less blockOverhead is its room): every class
// from the smallest with room for an empty page up to 8 KiB, so a block
// wastes no more than the gap to the next class, as a plain buffer of the
// page's size would. TestBlocksFillSizeClasses holds them to it.
var blockClasses = [...]blockClass{
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

// Decode is DecodeInPlace building the view in the block: page is what
// deciphering Page in place left of it, sealed under key epoch epoch, and
// the view pins the whole block. A cipher that returned a buffer of its own
// instead still decodes correctly, only with the block's room spent for
// nothing.
func (b Block) Decode(page []byte, epoch uint32) (*Node, error) {
	n, err := decodeView(b.shell, page)
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
	free   [len(blockClasses)][]*viewShell
	reused uint64
}

// Block returns a block with room for a page of size bytes, as NewBlock
// does, but takes a free block of the page's class when there is one. A
// recycled block's view shell is cleared, since the decoder relies on a
// zeroed offset table; its room is not, the caller reading the page over it.
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
	*shell = viewShell{}
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
// The caller guarantees that nothing reads n, its page or side buffer, or
// any key or value slice cut from them, ever again: from here on the block
// is the next Block caller's, who reads another page over it. Under the
// race detector the room and the offset table are first overwritten with a
// fixed pattern, so a reader the caller missed reads garbage, and races with
// the write, rather than reading the next page's bytes unnoticed.
func (f *Blocks) Recycle(n *Node) bool {
	if n.class == 0 {
		return false
	}
	c := int(n.class - 1)
	n.class = 0
	// n is the Node at the head of its shell: the block was allocated as a
	// pageBlock, whose first field the shell is.
	shell := (*viewShell)(unsafe.Pointer(n))
	if israce.Enabled {
		poisonBlock(shell, blockClasses[c].roomOf(shell))
	}
	f.mu.Lock()
	f.free[c] = append(f.free[c], shell)
	f.mu.Unlock()
	return true
}

// poisonBlock overwrites a recycled block's room and offset table with a fixed
// pattern that decodes to nothing: every offset lies past any page, and
// every key claims the side buffer.
func poisonBlock(shell *viewShell, room []byte) {
	for i := range room {
		room[i] = 0xA5
	}
	for i := range shell.tab {
		shell.tab[i] = entry{key: 0xA5A5A5A5, val: 0xA5A5A5A5, klen: 0xA5A5, inSide: true}
	}
}

// Recyclable reports whether n is a view in a block: one Recycle would take,
// given room.
func (n *Node) Recyclable() bool { return n.class != 0 }

// Len returns the number of keys.
func (n *Node) Len() int {
	if n.page == nil {
		return len(n.Keys)
	}
	return len(n.ents)
}

// Key returns key i. A view's keys are capacity-clipped, so appending to one
// can never clobber its neighbors; nobody may write into one.
func (n *Node) Key(i int) []byte {
	if n.page == nil {
		return n.Keys[i]
	}
	e := &n.ents[i]
	buf := n.page
	if e.inSide {
		buf = n.side
	}
	end := e.key + uint32(e.klen)
	return buf[e.key:end:end]
}

// Value returns value i, capacity-clipped in a view like Key.
func (n *Node) Value(i int) []byte {
	if n.page == nil {
		return n.Values[i]
	}
	off := n.ents[i].val
	end := off + binary.BigEndian.Uint32(n.page[off-4:])
	return n.page[off:end:end]
}

// Child returns the page ID of child i, for i in [0, Len()] of an index node.
func (n *Node) Child(i int) uint64 {
	if n.page == nil {
		return n.Children[i]
	}
	return binary.BigEndian.Uint64(n.page[n.kids+8*i:])
}

// leafRoom and indexRoom are a materialised node and the arrays its slices
// are cut from, allocated as one object: room for viewRoom entries, so a full
// node at the default order plus the one entry a split or insert adds.
type leafRoom struct {
	Node
	hdrs [2 * viewRoom][]byte // Keys, then Values
}

type indexRoom struct {
	leafRoom
	kids [viewRoom + 1]uint64
}

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
	n.Keys, n.Values = r.hdrs[:0:viewRoom], r.hdrs[viewRoom:viewRoom:2*viewRoom]
	n.Children = nil
	if !n.Leaf && n.room == inIndex {
		n.Children = (*indexRoom)(unsafe.Pointer(n)).kids[:0]
	}
	return n
}

// New returns an empty materialised node with room for n entries (and, in an
// index node, n+1 children) before any of its slices regrows. Keys and Values
// are cut from one array, each clipped to its own capacity so growing one
// never runs into the other. For n up to viewRoom the node and its arrays are
// one allocation sized for viewRoom, whatever n is; a larger n (a tree of a
// larger order) takes the node, the header array and the child array
// separately. Every node the tree builds comes from here.
func New(leaf bool, n int) *Node {
	if n > viewRoom {
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
	if c == nil || c.room == noRoom || k >= viewRoom || !n.Leaf && c.room != inIndex {
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
// descent runs it, and sort.Search pays a closure call a probe.
func (n *Node) Search(key []byte) (int, bool) {
	lo, hi := 0, n.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(n.Key(mid), key); {
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
	var prev []byte
	for i := range n.Len() {
		k := n.Key(i)
		if f == FormatPrefix {
			size += prefixHdrSize + len(k) - commonPrefixLen(prev, k)
			prev = k
		} else {
			size += 2 + len(k)
		}
		size += 4 + len(n.Value(i))
	}
	if !n.Leaf {
		size += 8 * (n.Len() + 1)
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
// encodes as well as a materialised node does.
func (n *Node) AppendEncodeFormat(dst []byte, f Format) ([]byte, error) {
	if f != FormatFull && f != FormatPrefix {
		return nil, fmt.Errorf("node: unknown format %d", byte(f))
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
	buf := slices.Grow(dst, n.EncodedSizeFormat(f))
	flags := byte(0)
	if n.Leaf {
		flags |= flagLeaf
	}
	if f == FormatPrefix {
		flags |= flagPrefix
	}
	buf = append(buf, magic, version, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(nkeys))
	var prev []byte
	for i := range nkeys {
		k := n.Key(i)
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
	for i := range nkeys {
		v := n.Value(i)
		if int64(len(v)) > MaxValueLen {
			return nil, fmt.Errorf("node: value too long: %d", len(v))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	if !n.Leaf {
		for i := range nkeys + 1 {
			buf = binary.BigEndian.AppendUint64(buf, n.Child(i))
		}
	}
	return buf, nil
}

// DecodeInPlace parses a page produced by EncodeFormat, dispatching on the
// page's flag byte, and ADOPTS the buffer: the page is the node. It returns a
// read-only view (see Node) whose one allocation holds the node and, for up to
// viewRoom keys, its offset table; read into a Block, the same page decodes
// with no allocation beyond the block's. Values and full-format keys lie in
// the page where they were written, and a prefix-coded key that shares at most
// four bytes with its predecessor is rebuilt over its own four-byte (shared,
// suffixLen) record header, so it too lies in the page. Only keys that share
// more — wide bucket prefixes — are rebuilt in one side buffer, sized exactly
// by the pre-scan: the one further allocation a page can cost.
//
// Ownership: the caller hands the page over and must neither read nor write
// it afterwards. The view pins the whole buffer for as long as it, or any key
// or value slice taken from it (materialised copies included), is reachable.
// A view built in a block (Block.Decode) is the exception: whoever holds it
// may give the block back to a free list (Blocks.Recycle) once nothing reads
// the view or any slice taken from it. A rejected page's
// buffer is worth nothing — record headers may already have been overwritten
// — and nobody retains it.
//
// Prefix pages are held to canonical truncation: shared must be exactly the
// longest common prefix with the reconstructed previous key. Over-sharing
// (shared longer than the previous key) and under-sharing (a suffix whose
// first byte still matches the previous key at that position) both reject,
// so an accepted page re-encodes byte-for-byte in its own format. A page of
// 4 GiB or more, which no page store can hold, is rejected too: the offset
// table is 32-bit.
func DecodeInPlace(page []byte) (*Node, error) { return decodeView(nil, page) }

// decodeView is the decoder behind DecodeInPlace and Block.Decode: it builds
// the view in shell, or in an allocation of its own when shell is nil.
func decodeView(shell *viewShell, page []byte) (*Node, error) {
	if len(page) < headerSize || page[0] != magic || page[1] != version || uint64(len(page)) > math.MaxUint32 {
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

	// Pre-scan the prefix records (cheap: skips suffix bytes). It front-loads
	// the length arithmetic, leaving the decode loop free of bounds failures,
	// and sizes the side buffer for the keys that cannot be rebuilt in place.
	// The side buffer is at most 65535 keys of 65535 bytes, so its offsets fit
	// the table's 32 bits.
	var side []byte
	if prefix {
		sideCap, prevLen := 0, 0
		scan := page[headerSize:]
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

	n, ents := newView(shell, nkeys)
	n.Leaf = flags&flagLeaf != 0
	n.page, n.ents = page, ents
	off := headerSize
	var prev []byte
	for i := range ents {
		e := &ents[i]
		if prefix {
			// Bounds were proven by the pre-scan; only canonicality remains.
			shared := int(binary.BigEndian.Uint16(page[off:]))
			slen := int(binary.BigEndian.Uint16(page[off+2:]))
			end := off + prefixHdrSize + slen
			suffix := page[off+prefixHdrSize : end]
			if shared < len(prev) && slen > 0 && suffix[0] == prev[shared] {
				// Under-truncated: the canonical encoder would have shared
				// one more byte.
				return nil, ErrDecode
			}
			if shared <= prefixHdrSize {
				// The shared bytes fit in the record header just parsed: the
				// key is rebuilt where it lies. prev ends before this record,
				// so the copy never overlaps its source.
				start := off + prefixHdrSize - shared
				copy(page[start:], prev[:shared])
				e.key = uint32(start)
			} else {
				// side never outgrows the capacity the pre-scan gave it, so
				// earlier keys' bytes stay where the table says they are.
				e.key, e.inSide = uint32(len(side)), true
				side = append(side, prev[:shared]...)
				side = append(side, suffix...)
				n.side = side
			}
			e.klen = uint16(shared + slen)
			off = end
		} else {
			if len(page)-off < 2 {
				return nil, ErrDecode
			}
			klen := int(binary.BigEndian.Uint16(page[off:]))
			off += 2
			if len(page)-off < klen {
				return nil, ErrDecode
			}
			e.key, e.klen = uint32(off), uint16(klen)
			off += klen
		}
		prev = n.Key(i)
	}
	for i := range ents {
		if len(page)-off < 4 {
			return nil, ErrDecode
		}
		// Compare as uint64 so a length >= 2^31 returns ErrDecode on 32-bit
		// platforms instead of panicking on a negative slice bound.
		vlen := binary.BigEndian.Uint32(page[off:])
		off += 4
		if uint64(len(page)-off) < uint64(vlen) {
			return nil, ErrDecode
		}
		ents[i].val = uint32(off)
		off += int(vlen)
	}
	rest := len(page) - off
	n.kids = len(page)
	if !n.Leaf {
		n.kids = off
		rest -= 8 * (nkeys + 1)
	}
	if rest != 0 {
		return nil, ErrDecode
	}
	return n, nil
}

// Decode is DecodeInPlace over a private copy of the page, materialised: the
// returned node owns fresh buffers, holds its entries in Keys, Values and
// Children, and does not alias the page, which stays the caller's, untouched,
// whether or not it decodes. It costs the copy and Materialize's allocations
// more than DecodeInPlace; a caller that owns its buffer and only reads the
// node (the engine's read path) should hand the buffer over instead.
func Decode(page []byte) (*Node, error) {
	v, err := DecodeInPlace(bytes.Clone(page))
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}
