package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/pagebuf"
	"github.com/paper-repro/ekbtree/internal/store"
)

// writeTxn is the turn holder's private workspace, implementing
// btree.NodeStore and btree.Editor over a base epoch pinned at transaction
// start — the newest published, which no other commit can supersede while
// the turn is held. Every page the mutation consults resolves as of that base
// (via the epoch overlay). The shared cache and all pinned epochs stay
// untouched until the commit is finalized.
//
// Everything the transaction knows is in one table, pages: one txPage record
// per page it has touched. The two sets a commit hands the store are read off
// it: the dirty records, sealed once each into writes, and the freed records.
// The pre-images of both go to the new epoch's undo overlay.
//
// root is the transaction's root pointer: the base epoch's until SetRoot moves
// it.
//
// A writeTxn is used by one goroutine at a time: the holder's, or a queued
// writer's while the holder waits for it (see turn.runOn). The engine recycles
// it (beginTxn/endTxn), so nothing may keep a reference to its maps, slices or
// copies past the commit.
type writeTxn struct {
	io     *nodeIO
	sa     *sealAlloc
	base   *epoch
	root   uint64
	pages  map[uint64]txPage
	writes map[uint64][]byte // the sealed write-set handed to the store
	// dirty and frees are seal's scratch: the IDs of the write-set (page
	// dirty[i] seals under counter start+i) and of the free-set.
	dirty, frees []uint64
	// held and views are sealDirty's, by index into dirty: whether the cache
	// held the page when sealing began, and if so the view of what its seal
	// encoded, for promoteTxn to cache.
	held  []bool
	views []*node.Node
	// sealed, sw and sealer are sealDirty's: the page each sealer sealed, by
	// index into dirty, the state the sealers share, and sealWorker bound to
	// this workspace once, so starting a helper allocates no closure.
	sealed [][]byte
	sw     sealWork
	sealer func()
	// bt is Engine.Apply's B-tree over this workspace, built once.
	bt *btree.Tree
	// spare holds the copies of the last commit, leaves then index nodes,
	// emptied (node.Node.Reset) for Edit to rebuild in place: at most as many
	// of each as that commit made.
	spare [2][]*node.Node
	peak  int // the most pages the maps have held
}

// sealWork is what sealDirty's workers share: the nonce block, the next index
// into dirty to seal, and the first error.
type sealWork struct {
	epoch uint32
	start uint64
	next  atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
}

// txPage is everything a transaction knows about one page.
//
// n is what the page holds now: the base epoch's shared, immutable node while
// the page is only read (so no page is fetched twice), the transaction's own
// materialised copy once private, nil once freed (or alloc'd and not yet
// written). pre is
// the base epoch's content, captured when the transaction first Edits, Writes
// or Frees the page and bound for the new epoch's undo overlay; it stays nil
// for a fresh page and for one the base epoch has no record of, which was
// never reachable from it. dirty marks a page to seal and hand to the store,
// freed one to release, fresh one whose ID this transaction alloc'd. A fresh
// page that is freed leaves the table: it never existed anywhere.
type txPage struct {
	n, pre                       *node.Node
	private, dirty, freed, fresh bool
}

func newWriteTxn() *writeTxn {
	tx := &writeTxn{pages: make(map[uint64]txPage), writes: make(map[uint64][]byte)}
	tx.sealer = tx.sealWorker
	return tx
}

// A finished transaction's workspace is recycled only if it touched at most
// workspaceKeep pages and at least 1/workspaceSlack of the most its maps ever
// held: Go maps never shrink and clear() walks their capacity, so maps a bulk
// commit grew are dropped, not re-cleared by every small commit after it.
const (
	workspaceKeep  = 1024
	workspaceSlack = 16
)

// beginTxn returns an empty transaction over base, reusing the last commit's
// workspace unless it was too large to keep.
func (g *Engine) beginTxn(base *epoch) *writeTxn {
	tx := g.ws
	g.ws = nil
	if tx == nil {
		tx = newWriteTxn()
	}
	tx.io, tx.sa, tx.base, tx.root = base.io, g.sa, base, base.root
	return tx
}

// endTxn empties a finished (committed or failed) transaction's workspace and
// keeps it for the next one, its private copies included (keepCopies). It
// runs before the transaction's base pin is released: from then on no copy
// holds a slice of any view, so the views the transaction read may be
// recycled.
func (g *Engine) endTxn(tx *writeTxn) {
	n := len(tx.pages)
	tx.peak = max(tx.peak, n)
	if n > workspaceKeep || n*workspaceSlack < tx.peak {
		return
	}
	tx.keepCopies()
	clear(tx.pages)
	clear(tx.writes)
	clear(tx.views)
	tx.base = nil
	g.ws = tx
}

// keepCopies empties every private copy in the page table and adds the ones
// Edit can rebuild to the spare lists, which it then cuts to the number of
// leaves and index nodes the transaction made: a list never outgrows one
// commit's copies, and so never workspaceKeep. A copy is private to its one
// record, so none is kept twice.
func (tx *writeTxn) keepCopies() {
	var made [2]int
	for _, p := range tx.pages {
		if !p.private {
			continue
		}
		k := kind(p.n)
		made[k]++
		if p.n.Reset() {
			tx.spare[k] = append(tx.spare[k], p.n)
		}
	}
	for k, l := range tx.spare {
		if len(l) > made[k] {
			clear(l[made[k]:])
			tx.spare[k] = l[:made[k]]
		}
	}
}

// kind indexes spare: 0 for a leaf, 1 for an index node.
func kind(n *node.Node) int {
	if n.Leaf {
		return 0
	}
	return 1
}

// errGone is what reading a page the transaction freed, or alloc'd and has not
// written, answers.
func errGone(id uint64) error {
	return fmt.Errorf("%w: page %d is not live in this transaction", store.ErrNotFound, id)
}

// Read serves id's record: the private copy if the page was Edited, else the
// base epoch's shared node (fetched on first touch), not to be altered.
func (tx *writeTxn) Read(id uint64) (*node.Node, error) {
	if p, ok := tx.pages[id]; ok {
		if p.n == nil {
			return nil, errGone(id)
		}
		tx.io.countHit()
		return p.n, nil
	}
	n, err := tx.base.Read(id)
	if err != nil {
		return nil, err
	}
	tx.pages[id] = txPage{n: n}
	return n, nil
}

// change returns id's record ready to be changed: fetched from the base epoch
// if the transaction has not met the page (a page the base has no record of
// comes back empty), and with the base content captured as the pre-image if
// this is the first change. The caller stores the record back.
func (tx *writeTxn) change(id uint64) (txPage, error) {
	p, ok := tx.pages[id]
	if !ok {
		n, err := tx.base.Read(id)
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			return p, err
		}
		p.n = n
	}
	if !p.private && !p.freed && !p.fresh {
		p.pre = p.n
	}
	return p, nil
}

// Edit returns the transaction's private copy of id: the first call
// materialises the shared node, view or not, into Keys, Values and Children
// the btree layer may change — rebuilding a spare copy of the last commit's
// in place when there is one — and the shared node becomes the page's
// pre-image; later Reads and Edits get the same copy.
func (tx *writeTxn) Edit(id uint64) (*node.Node, error) {
	p, err := tx.change(id)
	if err != nil {
		return nil, err
	}
	if p.n == nil {
		return nil, errGone(id)
	}
	if !p.private {
		var c *node.Node
		if k := kind(p.n); len(tx.spare[k]) > 0 {
			l := tx.spare[k]
			c, l[len(l)-1] = l[len(l)-1], nil
			tx.spare[k] = l[:len(l)-1]
		}
		p.n, p.private = p.n.MaterializeInto(c), true
		tx.pages[id] = p
	}
	return p.n, nil
}

// Write stages n — the node Edit(id) returned or one the caller built, never
// one from Read — as the new content of id. A page freed earlier in the same
// transaction is live again: leaving it freed would make the commit write it
// and then release it, dangling every reference to it.
func (tx *writeTxn) Write(id uint64, n *node.Node) error {
	p, err := tx.change(id)
	if err != nil {
		return err
	}
	p.n, p.private, p.dirty, p.freed = n, true, true, false
	tx.pages[id] = p
	return nil
}

func (tx *writeTxn) Alloc() (uint64, error) {
	id, err := tx.io.st.Alloc()
	if err == nil {
		tx.pages[id] = txPage{fresh: true}
	}
	return id, err
}

func (tx *writeTxn) Free(id uint64) error {
	p, err := tx.change(id)
	if err != nil {
		return err
	}
	if p.fresh {
		delete(tx.pages, id)
		return nil
	}
	tx.pages[id] = txPage{pre: p.pre, freed: true}
	return nil
}

// Root returns the transaction's view of the root pointer: the base epoch's
// unless SetRoot moved it.
func (tx *writeTxn) Root() (uint64, error) { return tx.root, nil }

func (tx *writeTxn) SetRoot(id uint64) error {
	tx.root = id
	return nil
}

// seal seals each DIRTY page exactly once, into writes, and returns the
// epoch the commit would create — its root and the pre-images of every page
// it rewrote or freed (undo) — for the holder to link; pages the transaction
// only read are never re-enciphered or rewritten. It returns (nil, nil) for a no-op transaction
// (nothing dirtied, freed, or re-rooted): the caller skips the store round
// trip entirely. seal touches no shared state beyond the (stateless) cipher,
// so concurrent epoch readers and other transactions are unaffected.
func (tx *writeTxn) seal() (*epoch, error) {
	tx.dirty, tx.frees = tx.dirty[:0], tx.frees[:0]
	for id, p := range tx.pages {
		if p.dirty {
			tx.dirty = append(tx.dirty, id)
		} else if p.freed {
			tx.frees = append(tx.frees, id)
		}
	}
	if len(tx.dirty) == 0 && len(tx.frees) == 0 && tx.root == tx.base.root {
		return nil, nil
	}
	// One contiguous counter block covers the whole commit: page i seals with
	// nonce (epoch, start+i). The allocation itself records the reservation
	// (see sealAlloc.take) before any of them touches the cipher.
	keyEpoch, start, err := tx.sa.take(len(tx.dirty))
	if err != nil {
		return nil, err
	}
	if err := tx.sealDirty(keyEpoch, start); err != nil {
		return nil, err
	}
	undo := make([]undoPage, 0, len(tx.dirty)+len(tx.frees))
	for _, ids := range [2][]uint64{tx.dirty, tx.frees} {
		for _, id := range ids {
			if pre := tx.pages[id].pre; pre != nil {
				undo = append(undo, undoPage{id, pre})
			}
		}
	}
	slices.SortFunc(undo, func(a, b undoPage) int { return undoOrder(a, b.id) })
	return &epoch{io: tx.io, root: tx.root, undo: undo}, nil
}

// sealParallelMin is the dirty-page count below which fanning seals out
// across goroutines costs more than it saves (a page seal is a few µs of
// encode + AES-GCM; a goroutine handoff is about one).
const sealParallelMin = 8

// sealDirty encodes and seals the dirty pages into writes: page dirty[i] seals
// under nonce (epoch, start+i) — counters bind to indices, not goroutines, so
// any number of sealers issues exactly the same nonces. Seals are independent
// pure-CPU work over a stateless cipher, so the caller runs sealWorker itself,
// and a large commit (on more than one CPU) adds helpers, up to GOMAXPROCS
// sealers in all, pulling page indices from a shared counter. The scratch
// lives in the recycled workspace. A page the cache holds when sealing begins
// also gets a view of its encoding, into views, for the cache to keep; one it
// does not hold gets none, so a commit that writes more pages than the cache
// keeps decodes none of them. If a seal fails, the pages and views the
// others made, which nothing else has seen, go back to pagebuf and the free
// list.
func (tx *writeTxn) sealDirty(epoch uint32, start uint64) error {
	sw := &tx.sw
	sw.epoch, sw.start = epoch, start
	n := len(tx.dirty)
	tx.held = slices.Grow(tx.held[:0], n)[:n]
	tx.views = slices.Grow(tx.views[:0], n)[:n]
	tx.sealed = slices.Grow(tx.sealed[:0], n)[:n]
	tx.io.cached(tx.dirty, tx.held)
	sw.next.Store(0)
	sealers := 1
	if n >= sealParallelMin {
		sealers = min(runtime.GOMAXPROCS(0), n)
	}
	sw.wg.Add(sealers)
	for range sealers - 1 {
		go tx.sealer()
	}
	tx.sealWorker()
	sw.wg.Wait()
	err := sw.err
	sw.err = nil
	for i, id := range tx.dirty {
		if err == nil {
			tx.writes[id] = tx.sealed[i]
			continue
		}
		pagebuf.Put(tx.sealed[i])
		if v := tx.views[i]; v != nil {
			tx.io.blocks.Recycle(v)
		}
	}
	clear(tx.sealed) // the store owns the pages now; the workspace must not pin them
	return err
}

// sealWorker seals pages for sealDirty until none is left or one fails: page
// dirty[i] under its nonce into sealed[i], and its view, if any, into views[i].
func (tx *writeTxn) sealWorker() {
	sw := &tx.sw
	defer sw.wg.Done()
	for {
		i := int(sw.next.Add(1)) - 1
		if i >= len(tx.dirty) {
			return
		}
		id := tx.dirty[i]
		page, v, err := tx.io.seal(id, tx.pages[id].n, sw.epoch, sw.start+uint64(i), tx.held[i])
		tx.sealed[i], tx.views[i] = page, v
		if err != nil {
			sw.mu.Lock()
			if sw.err == nil {
				sw.err = err
			}
			sw.mu.Unlock()
			return
		}
	}
}
