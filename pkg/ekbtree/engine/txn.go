package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// writeTxn is one optimistic writer's private workspace, implementing
// btree.NodeStore over a base epoch pinned at transaction start. Every page
// the mutation consults resolves as of that base (via the epoch overlay), so
// the mutation always sees one consistent tree version no matter what commits
// concurrently — conflicts surface only at validation, never as torn reads
// mid-descent.
//
// The transaction is copy-on-write and records:
//
//   - reads: every page ID whose content (or absence) the mutation observed.
//     The btree layer reads every page before writing or freeing it, so this
//     doubles as a superset of the non-fresh write-set — the invariant
//     optimistic validation relies on (see epochs.validateAndPrepare).
//   - staged: every page touched — the base epoch's shared, immutable node
//     while only read (so no page is fetched twice), a private clone once
//     Edited, dirty once Written. The shared cache and all pinned epochs stay
//     untouched until the commit is finalized.
//   - prev: pristine pre-images of the pages Edited, Written or Freed,
//     harvested into the new epoch's undo overlay.
//   - fresh/freed: pages born in, respectively released by, this transaction.
//   - pendingRoot: a deferred root flip; a commit that changes the root must
//     take the exclusive commit gate (see Tree.applyCommit).
//   - writes: the sealed pages handed to the store at commit.
//
// A writeTxn is single-goroutine; concurrency happens between transactions,
// not within one. The engine recycles it (beginTxn/endTxn), so nothing may
// keep a reference to its maps past the commit.
type writeTxn struct {
	io          *nodeIO
	sa          *sealAlloc
	base        *epoch
	baseRoot    uint64
	staged      map[uint64]stagedNode
	prev        map[uint64]*node.Node
	reads       map[uint64]struct{}
	fresh       map[uint64]bool
	freed       map[uint64]bool
	writes      map[uint64][]byte
	pendingRoot *uint64
}

// stagedNode is one page a transaction has touched: private marks n as its
// own copy, free to mutate (else n is the base epoch's shared node), dirty
// that it wrote the page; clean entries are skipped at commit.
type stagedNode struct {
	n       *node.Node
	private bool
	dirty   bool
}

func newWriteTxn() *writeTxn {
	return &writeTxn{
		staged: make(map[uint64]stagedNode),
		prev:   make(map[uint64]*node.Node),
		reads:  make(map[uint64]struct{}),
		fresh:  make(map[uint64]bool),
		freed:  make(map[uint64]bool),
		writes: make(map[uint64][]byte),
	}
}

// workspaceKeep is the most pages a transaction may touch and still have its
// workspace recycled: Go maps never shrink and clear() walks their capacity,
// so a bulk load's maps are dropped, not re-cleared by every commit after it.
const workspaceKeep = 1024

// beginTxn returns an empty transaction over base, reusing the last commit's
// workspace unless a concurrent commit holds it.
func (g *Engine) beginTxn(base *epoch) *writeTxn {
	tx := g.ws.Swap(nil)
	if tx == nil {
		tx = newWriteTxn()
	}
	tx.io, tx.sa, tx.base, tx.baseRoot = base.io, g.sa, base, base.root
	return tx
}

// endTxn empties a finished (committed, conflicted or failed) transaction's
// workspace and keeps it for the next one.
func (g *Engine) endTxn(tx *writeTxn) {
	if len(tx.reads)+len(tx.fresh) > workspaceKeep {
		return
	}
	clear(tx.staged)
	clear(tx.prev)
	clear(tx.reads)
	clear(tx.fresh)
	clear(tx.freed)
	clear(tx.writes)
	tx.base, tx.pendingRoot = nil, nil
	g.ws.Store(tx)
}

// readBase fetches id as of the transaction's base epoch and records it in
// the read-set.
func (tx *writeTxn) readBase(id uint64) (*node.Node, error) {
	tx.reads[id] = struct{}{}
	return tx.base.Read(id)
}

// Read serves the staged node: the private copy if the page was Edited, else
// the base epoch's shared node (fetched on first touch), not to be altered.
func (tx *writeTxn) Read(id uint64) (*node.Node, error) {
	if sn, ok := tx.staged[id]; ok {
		tx.io.countHit()
		return sn.n, nil
	}
	n, err := tx.readBase(id)
	if err != nil {
		return nil, err
	}
	tx.staged[id] = stagedNode{n: n}
	return n, nil
}

// Edit returns the transaction's private copy of id: the first call clones the
// shared node, which becomes the page's pre-image; later Reads and Edits get
// the same copy.
func (tx *writeTxn) Edit(id uint64) (*node.Node, error) {
	sn, ok := tx.staged[id]
	if !ok {
		var err error
		if sn.n, err = tx.readBase(id); err != nil {
			return nil, err
		}
	}
	if !sn.private {
		tx.prev[id] = sn.n
		sn.n, sn.private = cloneNode(sn.n), true
		tx.staged[id] = sn
	}
	return sn.n, nil
}

// capturePreImage records the base-epoch content of id as its pre-image
// before the transaction overwrites or frees it, if one can exist: pages the
// transaction alloc'd have none, and a page the base epoch has no record of
// was never reachable from it.
func (tx *writeTxn) capturePreImage(id uint64) error {
	if tx.fresh[id] {
		return nil
	}
	if _, ok := tx.prev[id]; ok {
		return nil
	}
	if sn, ok := tx.staged[id]; ok && !sn.private {
		tx.prev[id] = sn.n
		return nil
	}
	n, err := tx.readBase(id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil
		}
		return err
	}
	tx.prev[id] = n
	return nil
}

// Write stages n — the node Edit(id) returned or one the caller built, never
// one from Read — as the new content of id.
func (tx *writeTxn) Write(id uint64, n *node.Node) error {
	// The btree layer always reads a page before writing it, so the
	// pre-image is normally captured already; the explicit capture guards
	// direct writeTxn use (tests) and future write paths — and keeps the
	// writes-within-read-set invariant validation depends on.
	if err := tx.capturePreImage(id); err != nil {
		return err
	}
	tx.staged[id] = stagedNode{n: n, private: true, dirty: true}
	// A page freed earlier in the same transaction and now re-staged is live
	// again; leaving it in freed would make commit write it and then
	// immediately release it, dangling every reference to it.
	delete(tx.freed, id)
	return nil
}

func (tx *writeTxn) Alloc() (uint64, error) {
	id, err := tx.io.st.Alloc()
	if err == nil {
		tx.fresh[id] = true
	}
	return id, err
}

func (tx *writeTxn) Free(id uint64) error {
	if err := tx.capturePreImage(id); err != nil {
		return err
	}
	delete(tx.staged, id)
	if tx.fresh[id] {
		// Born and freed within the transaction: it never existed anywhere.
		delete(tx.fresh, id)
		return nil
	}
	tx.freed[id] = true
	return nil
}

// Root returns the transaction's view of the root pointer: the deferred flip
// if one is staged, else the BASE epoch's root — never the store's live root,
// which a concurrent commit may have advanced past the base.
func (tx *writeTxn) Root() (uint64, error) {
	if tx.pendingRoot != nil {
		return *tx.pendingRoot, nil
	}
	return tx.baseRoot, nil
}

func (tx *writeTxn) SetRoot(id uint64) error {
	tx.pendingRoot = &id
	return nil
}

// commitSet is one transaction's harvested commit: the sealed write-set (the
// transaction's recycled writes map), the new root, the freed page IDs, the
// undo overlay (pre-images of every rewritten or freed page) for the epoch
// this commit creates, and the touched set (written + freed page IDs) that
// later validations intersect read-sets against.
type commitSet struct {
	writes  map[uint64][]byte
	frees   []uint64
	root    uint64
	undo    map[uint64]*node.Node
	touched []uint64
}

// seal seals each DIRTY staged page exactly once and harvests the
// transaction's commit set; pages the transaction only read are never
// re-enciphered or rewritten. It returns (nil, nil) for a no-op transaction
// (nothing dirtied, freed, or re-rooted): the caller skips the store round
// trip entirely. seal touches no shared state beyond the (stateless) cipher,
// so concurrent epoch readers and other transactions are unaffected.
func (tx *writeTxn) seal() (*commitSet, error) {
	dirty := make([]uint64, 0, len(tx.staged))
	for id, sn := range tx.staged {
		if sn.dirty {
			dirty = append(dirty, id)
		}
	}
	if len(dirty) == 0 && len(tx.freed) == 0 && tx.pendingRoot == nil {
		return nil, nil
	}
	cs := &commitSet{writes: tx.writes}
	// One contiguous counter block covers the whole commit: page i seals with
	// nonce (epoch, start+i). The allocation itself durably reserves the
	// counters (see sealAlloc.take) before any of them touches the cipher.
	epoch, start, err := tx.sa.take(len(dirty))
	if err != nil {
		return nil, err
	}
	if err := tx.sealDirty(dirty, cs.writes, epoch, start); err != nil {
		return nil, err
	}
	cs.root = tx.baseRoot
	if tx.pendingRoot != nil {
		cs.root = *tx.pendingRoot
	}
	cs.frees = make([]uint64, 0, len(tx.freed))
	for id := range tx.freed {
		cs.frees = append(cs.frees, id)
	}
	cs.undo = make(map[uint64]*node.Node, len(dirty)+len(cs.frees))
	for _, id := range dirty {
		if p, ok := tx.prev[id]; ok {
			cs.undo[id] = p
		}
	}
	for _, id := range cs.frees {
		if p, ok := tx.prev[id]; ok {
			cs.undo[id] = p
		}
	}
	cs.touched = append(dirty, cs.frees...)
	return cs, nil
}

// sealParallelMin is the dirty-page count below which fanning seals out
// across goroutines costs more than it saves (a page seal is a few µs of
// encode + AES-GCM; a goroutine handoff is about one).
const sealParallelMin = 8

// sealDirty encodes and seals the staged dirty pages into out: page ids[i]
// seals under nonce (epoch, start+i) — counters bind to indices, not goroutines, so the parallel path issues
// exactly the same nonces as the inline one. Seals are independent pure-CPU
// work over a stateless cipher, so large commits fan out across up to
// GOMAXPROCS worker goroutines pulling page indices from a shared counter;
// small commits (or single-proc runs) seal inline.
func (tx *writeTxn) sealDirty(ids []uint64, out map[uint64][]byte, epoch uint32, start uint64) error {
	sealOne := func(i int) ([]byte, error) {
		return tx.io.seal(ids[i], tx.staged[ids[i]].n, epoch, start+uint64(i))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	if len(ids) < sealParallelMin || workers < 2 {
		for i, id := range ids {
			page, err := sealOne(i)
			if err != nil {
				return err
			}
			out[id] = page
		}
		return nil
	}
	pages := make([][]byte, len(ids))
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		sealErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				page, err := sealOne(i)
				if err != nil {
					errOnce.Do(func() { sealErr = err })
					return
				}
				pages[i] = page
			}
		}()
	}
	wg.Wait()
	if sealErr != nil {
		return sealErr
	}
	for i, id := range ids {
		out[id] = pages[i]
	}
	return nil
}
