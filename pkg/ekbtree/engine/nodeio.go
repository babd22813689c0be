package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// DefaultCachePages is the default capacity of the decoded-node cache.
const DefaultCachePages = 256

// CacheStats counts decoded-node cache traffic since the tree was opened.
// The json tags are part of ekbtree.Stats' wire shape.
type CacheStats struct {
	// Hits is the number of node reads served from memory (the cache or a
	// batch's staged set) without touching the store.
	Hits uint64 `json:"hits"`
	// Misses is the number of node reads that went to the store and paid the
	// read → decipher → decode round trip.
	Misses uint64 `json:"misses"`
	// Evictions is the number of decoded nodes dropped by the clock
	// replacement policy (a two-bit reference count per page, index nodes
	// weighted over leaves) to make room.
	Evictions uint64 `json:"evictions"`
	// Pages is the number of decoded nodes currently cached.
	Pages int `json:"pages"`
}

// nodeIO is the page codec between the engine and its PageStore + NodeCipher:
// seal encodes then enciphers a node for a commit, ReadShared opens then
// decodes one, so the store only ever holds enciphered pages. It is not a
// btree.NodeStore — writeTxn is the only writer and *epoch the only reader.
// A fetched page is deciphered and decoded where it lies, and a miss costs at
// most one allocation: the store tells the page's length, the free list
// (node.Blocks) hands out a block with room for it, the store reads the page
// into that room, and the deciphered page becomes a read-only view there
// (node.Block.Decode, which only validates a version-2 page). A version-1
// page, from a file written before version 2, is transcoded into a second
// block on the way, so the cache holds views of version-2 pages only. It is
// the engine's one page read: a view records the key epoch its page was
// sealed under, so the rotator's scan reads no page.
//
// On top of the codec it keeps a bounded cache of decoded nodes with clock
// eviction over small reference counts (see cacheSlot), shared by every
// concurrent writer transaction and every lock-free epoch reader. Cached
// nodes are IMMUTABLE views: the transactional write path (writeTxn) hands
// the btree layer the cached node itself to read, and a materialised copy —
// made in Edit, with the pristine original recorded as the page's pre-image —
// to mutate, so readers may share cached nodes without copying or locking
// beyond the cache's own short mutex sections. A page read from the store is
// cached as its view; a page a commit sealed, if the cache held it when
// sealing began, as a view of what the seal encoded (seal), installed by
// promoteTxn before the commit's epoch is published. A writer's copies never
// leave its transaction: the workspace rebuilds them in place for the next
// one (writeTxn.Edit).
//
// Who may hold a view's bytes, and so when its block may be read over again:
//   - the cache, until the view leaves it (evicted, replaced or dropped);
//   - a reader, only while it holds a pin: a Get until it has copied its
//     value, a Snapshot (and every key and value its iterator returned) until
//     Close;
//   - a writer, only while it holds its base pin: its transaction's records
//     and its materialised copies, which keep slices into the views it read
//     and are emptied when the transaction ends (endTxn), before the pin is
//     released;
//   - the undo overlay of an epoch, while a pin older than it remains, and
//     for good if the store failed the epoch's commit.
//
// A view that leaves the cache goes to the limbo (retire), and from there to
// the free list only at a release that leaves the engine with no pins
// (recycle): by then every reader and writer that could have found it in the
// cache is gone, and no undo overlay is reachable from any pin. After a
// failed commit nothing is recycled: that epoch's overlay stays reachable
// from every pin of current.
//
// Locking: the ring, gen and the limbo are guarded by mu and touched only in
// short critical sections — never across store I/O or cipher work. The
// traffic counters are atomics, so counting a read never takes mu.
type nodeIO struct {
	st store.PageStore
	nc cipher.NodeCipher
	// fmt is the page format every seal encodes with (Config.NodeFormat:
	// version 2, but for the tests and the benchmark replay that build
	// version-1 pages). A read transcodes a version-1 page into a view of its
	// version-2 form, so a store holding older pages is read as it is and
	// converts page by page as commits and re-seals rewrite it.
	fmt node.Format

	mu       sync.Mutex
	cacheIdx map[uint64]int // page ID -> slot index; nil disables the cache
	slots    []cacheSlot    // clock ring, grows up to maxCache
	hand     int
	maxCache int
	// gen counts cache install points (commit promotions and invalidations).
	// A reader that fetched a page outside mu inserts it only if gen is
	// unchanged, so a slow reader can never clobber a newer version a commit
	// promoted in the meantime.
	gen uint64

	// blocks is the free list every view takes its block from, bounded by
	// the cache and the limbo (see node.Blocks). limbo holds the views that
	// left the cache until they can be recycled, at most cap(limbo); a view
	// retired to a full limbo is left to the garbage collector. retiring
	// reports a non-empty limbo without mu, so a release that finds it empty
	// takes no further lock.
	blocks   node.Blocks
	limbo    []cacheSlot
	retiring atomic.Bool

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheSlot is one clock-ring entry: an immutable view of a page, read from
// the store or sealed by a commit, plus its reference count, which is what
// the page is worth to the hand. The hand takes
// one from every slot it passes and evicts the first it finds at zero. A leaf
// starts at zero and earns one per reference, up to maxRef, so a leaf read
// once is the first to go and a hot one outlives several sweeps; an index
// node starts at maxRef and returns to it on every reference, because every
// descent below it needs it again and a miss on it is paid by all of them. An
// index node nobody references still counts down and leaves, so a hot leaf
// keeps its slot in a cache smaller than the index (under leaves-first it
// would not).
type cacheSlot struct {
	id  uint64
	n   *node.Node
	ref uint8
}

// maxRef is the ceiling of a slot's reference count (two bits).
const maxRef = 3

// fresh is the count a node enters the ring with.
func fresh(n *node.Node) uint8 {
	if n.Leaf {
		return 0
	}
	return maxRef
}

// touch records one reference to the slot's node.
func (s *cacheSlot) touch() {
	if !s.n.Leaf {
		s.ref = maxRef
	} else if s.ref < maxRef {
		s.ref++
	}
}

func newNodeIO(st store.PageStore, nc cipher.NodeCipher, maxCache int) *nodeIO {
	io := &nodeIO{st: st, nc: nc, maxCache: maxCache}
	if maxCache > 0 {
		io.cacheIdx = make(map[uint64]int, maxCache)
		io.slots = make([]cacheSlot, 0, maxCache)
		// The floor keeps recycling going under a cache of a few pages,
		// whose every Get evicts the whole descent.
		io.limbo = make([]cacheSlot, 0, max(64, maxCache/4))
	}
	return io
}

// ReadShared returns the decoded node for id from the cache or the store. It
// is the shared read path used by lock-free epoch readers (via epoch.Read)
// and by the writer as its fetch primitive; the returned node is immutable
// and may be concurrently shared. The cache mutex is held only around map
// operations, never across the store read or the decipher.
func (io *nodeIO) ReadShared(id uint64) (*node.Node, error) {
	io.mu.Lock()
	n, ok := io.cacheGet(id)
	g0 := io.gen
	io.mu.Unlock()
	if ok {
		io.hits.Add(1)
		return n, nil
	}
	io.misses.Add(1)

	n, err := io.fetch(id)
	if err != nil {
		return nil, err
	}
	io.mu.Lock()
	// Install only if no commit promoted newer versions since the fetch
	// began; a stale insert would resurrect a superseded page version for
	// current-epoch readers.
	if io.gen == g0 {
		io.cacheInsert(id, n)
	}
	io.mu.Unlock()
	return n, nil
}

// fetch reads, deciphers and decodes page id in one node.Block from the free
// list. The block is sized by the store's answer to a length query; when a
// commit changed the page's length before the read, the read answers the new
// length instead, and the page is read again into a block of that size. A
// version-1 page, which only a file written before version 2 holds, is
// transcoded (see transcode), so that every view is of a version-2 page.
func (io *nodeIO) fetch(id uint64) (*node.Node, error) {
	size, err := io.st.ReadPageInto(id, nil)
	if err != nil {
		return nil, err
	}
	for {
		b := io.blocks.Block(size)
		got, err := io.st.ReadPageInto(id, b.Page())
		if err != nil {
			return nil, err
		}
		if got != size {
			size = got
			continue
		}
		// The store copied the page into the block, which is this call's
		// alone, so Open deciphers it in place and the view is built around
		// it; the view is never written again, by this reader or any other
		// that shares it, until recycle gives the block back. Open consumes
		// the page, so the view's epoch is read from its nonce first.
		epoch, _ := io.nc.SealedEpoch(b.Page())
		pt, err := io.nc.Open(id, b.Page())
		if err != nil {
			return nil, err
		}
		if node.FormatOf(pt) != node.FormatStride {
			return io.transcode(id, b, pt, epoch)
		}
		return b.Decode(pt, epoch)
	}
}

// transcode makes the view of version-1 page id, deciphered in block b as
// pt: it parses the page into a materialised node, encodes that node as
// version 2 into a second block from the free list and decodes the view
// there, with the page's sealed epoch, and gives b back. The file keeps the
// version-1 page until a commit or a re-seal rewrites it; until then every
// miss on it pays the parse, the node and its key arena, where a version-2
// miss pays nothing beyond its block.
func (io *nodeIO) transcode(id uint64, b node.Block, pt []byte, epoch uint32) (*node.Node, error) {
	defer io.blocks.Release(b)
	m, err := node.DecodeInPlace(pt)
	if err != nil {
		return nil, err
	}
	v := io.blocks.Block(m.EncodedSizeFormat(node.FormatStride))
	page, err := m.AppendEncodeFormat(v.Page()[:0], node.FormatStride)
	if err != nil {
		io.blocks.Release(v)
		return nil, fmt.Errorf("%w: page %d has no version-2 form: %v", node.ErrDecode, id, err)
	}
	return v.Decode(page, epoch)
}

// countHit records a node read served from a transaction's page table.
func (io *nodeIO) countHit() { io.hits.Add(1) }

// retire puts page id's view n, which has just left the cache, in the limbo,
// unless n is no recyclable view (a view in a buffer of its own) or the limbo
// is full. Callers hold io.mu.
func (io *nodeIO) retire(id uint64, n *node.Node) {
	if !n.Recyclable() || len(io.limbo) == cap(io.limbo) {
		return
	}
	io.limbo = append(io.limbo, cacheSlot{id: id, n: n})
	io.retiring.Store(true)
}

// recycle gives every view in the limbo back to the free list, except one the
// cache holds again. Its one caller is the release that leaves the engine
// with no pins, once no store commit has failed, which holds es.mu so that no
// pin can start: every reader that found one of these views in the cache has
// released its pin, every writer has emptied its transaction before releasing
// its base, and that release drops current's undo overlay while every older
// one is reachable from no pin, so nothing else can hold one. (A failed
// commit's epoch stays linked after current, and its overlay with it; see
// epochs.release.)
func (io *nodeIO) recycle() {
	if !io.retiring.Load() {
		return
	}
	io.mu.Lock()
	for i, r := range io.limbo {
		if idx, ok := io.cacheIdx[r.id]; !ok || io.slots[idx].n != r.n {
			io.blocks.Recycle(r.n)
		}
		io.limbo[i] = cacheSlot{}
	}
	io.limbo = io.limbo[:0]
	io.retiring.Store(false)
	io.mu.Unlock()
}

// encodeScratch recycles the plaintext page buffers of the commit path: a
// seal copies the encoded page into the ciphertext it returns, so the encoding
// itself can live in one reused buffer per sealing goroutine.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// seal encodes and seals one node into a store-ready page under the
// engine-allocated (epoch, counter) nonce; callers guarantee the pair is never
// reused. A page that would seal to more than 4 GiB — a leaf holding a value
// near node.MaxValueLen — is refused with ErrTooLarge before the cipher sees
// it: no page store extent can hold it, nor the decoder read it back. With
// view set, seal also returns the page as the cache keeps it: the version-2
// encoding, copied into a block from the free list and decoded there, as a
// read miss of the page would decode it. Decoding it only validates the
// page.
func (io *nodeIO) seal(id uint64, n *node.Node, epoch uint32, counter uint64, view bool) ([]byte, *node.Node, error) {
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	pt, err := n.AppendEncodeFormat((*scratch)[:0], io.fmt)
	if err != nil {
		return nil, nil, err
	}
	*scratch = pt
	if size := uint64(len(pt)) + uint64(io.nc.Overhead()); size > math.MaxUint32 {
		return nil, nil, fmt.Errorf("%w: page %d would seal to %d bytes, limit %d", ErrTooLarge, id, size, uint64(math.MaxUint32))
	}
	page, err := io.nc.SealEpoch(id, epoch, counter, pt)
	if err != nil || !view {
		return page, nil, err
	}
	if io.fmt != node.FormatStride {
		// A version-1 page: the view is of the page a read would transcode
		// it to.
		if pt, err = n.AppendEncodeFormat(pt[:0], node.FormatStride); err != nil {
			return page, nil, err
		}
		*scratch = pt
	}
	b := io.blocks.Block(len(pt))
	v, err := b.Decode(b.Page()[:copy(b.Page(), pt)], epoch)
	return page, v, err
}

// cached reports, for each page in ids, whether the cache holds it, in held,
// under one io.mu section.
func (io *nodeIO) cached(ids []uint64, held []bool) {
	io.mu.Lock()
	for i, id := range ids {
		_, held[i] = io.cacheIdx[id]
	}
	io.mu.Unlock()
}

// cacheGet returns a cached decoded node and counts the reference, which is
// what keeps it ahead of the clock hand. Callers hold io.mu.
func (io *nodeIO) cacheGet(id uint64) (*node.Node, bool) {
	idx, ok := io.cacheIdx[id]
	if !ok {
		return nil, false
	}
	io.slots[idx].touch()
	return io.slots[idx].n, true
}

// cacheInsert stores a decoded node; for a page already cached that is one
// more reference to it. When the ring is full the clock hand sweeps forward,
// taking one from every reference count it passes, and replaces the first
// page it finds at zero — referenced pages survive in proportion to their
// count, cold ones go. A node that leaves the ring, evicted or replaced, is
// retired. Callers hold io.mu.
func (io *nodeIO) cacheInsert(id uint64, n *node.Node) {
	if io.cacheIdx == nil {
		return
	}
	if idx, ok := io.cacheIdx[id]; ok {
		if old := io.slots[idx].n; old != n {
			io.retire(id, old)
		}
		io.slots[idx].n = n
		io.slots[idx].touch()
		return
	}
	if len(io.slots) < io.maxCache {
		io.cacheIdx[id] = len(io.slots)
		io.slots = append(io.slots, cacheSlot{id: id, n: n, ref: fresh(n)})
		return
	}
	for io.slots[io.hand].ref > 0 {
		io.slots[io.hand].ref--
		io.hand = (io.hand + 1) % len(io.slots)
	}
	delete(io.cacheIdx, io.slots[io.hand].id)
	io.retire(io.slots[io.hand].id, io.slots[io.hand].n)
	io.evictions.Add(1)
	io.slots[io.hand] = cacheSlot{id: id, n: n, ref: fresh(n)}
	io.cacheIdx[id] = io.hand
	io.hand = (io.hand + 1) % len(io.slots)
}

// cacheDelete drops a page from the ring by swapping the last slot into its
// place, and retires its node. Callers hold io.mu.
func (io *nodeIO) cacheDelete(id uint64) {
	idx, ok := io.cacheIdx[id]
	if !ok {
		return
	}
	io.retire(id, io.slots[idx].n)
	last := len(io.slots) - 1
	if idx != last {
		io.slots[idx] = io.slots[last]
		io.cacheIdx[io.slots[idx].id] = idx
	}
	io.slots = io.slots[:last]
	delete(io.cacheIdx, id)
	if io.hand >= len(io.slots) {
		io.hand = 0
	}
}

// cacheStats snapshots the cache counters.
func (io *nodeIO) cacheStats() CacheStats {
	io.mu.Lock()
	defer io.mu.Unlock()
	return CacheStats{
		Hits:      io.hits.Load(),
		Misses:    io.misses.Load(),
		Evictions: io.evictions.Load(),
		Pages:     len(io.slots),
	}
}

// invalidate empties the decoded-node cache. The façade calls it on Close;
// tests use it to force reads back through the store.
func (io *nodeIO) invalidate() {
	io.mu.Lock()
	defer io.mu.Unlock()
	io.gen++
	io.cacheReset()
}

// cacheReset drops every cached node, keeping the counters. Callers hold
// io.mu.
func (io *nodeIO) cacheReset() {
	if io.cacheIdx == nil {
		return
	}
	io.cacheIdx = make(map[uint64]int, io.maxCache)
	io.slots = io.slots[:0]
	io.hand = 0
}

// promoteTxn installs a committed transaction's pages as the cache's current
// versions: freed pages (no node) leave the cache; a dirty page goes in as
// the view its seal built, or leaves if the cache did not hold it when
// sealing began (no view), which also drops an old version a reader inserted
// since; the shared node of a page the transaction only read goes in (the
// turn guarantees no other commit came between the transaction's base and its
// own, so it is still current; for a page already cached this counts as one
// more reference); and a private copy the transaction never wrote leaves the
// cache as it is. The install-point generation advances so no in-flight
// reader can insert a superseded version fetched before the commit. The
// caller publishes the epoch AFTER this returns (both under the epoch mutex),
// so a reader can never pin the new epoch and still find pre-commit content
// in the cache. A failed transaction never gets here — the shared cache was
// never touched, so nothing needs invalidating.
func (io *nodeIO) promoteTxn(tx *writeTxn) {
	io.mu.Lock()
	io.gen++
	for id, p := range tx.pages {
		switch {
		case p.private: // a dirty page's view goes in below
		case p.n == nil:
			io.cacheDelete(id)
		default:
			io.cacheInsert(id, p.n)
		}
	}
	for i, id := range tx.dirty {
		if v := tx.views[i]; v != nil {
			io.cacheInsert(id, v)
		} else {
			io.cacheDelete(id)
		}
	}
	io.mu.Unlock()
}
