package engine

import (
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/internal/node"
)

// epoch is one version of the tree. Readers pin an epoch and then resolve
// every page they touch as of that version, without any tree-level lock: the
// epoch carries the root page ID of its version, and each LATER epoch carries
// the decoded pre-images (undo) of every page the commit that created it
// rewrote or freed. A reader at epoch E resolving page id walks the chain
// E.next, E.next.next, ...: the FIRST epoch whose undo holds id recorded id's
// content as it stood at E (it was the first commit after E to touch the
// page); if no epoch after E touched id, the page's current content (cache or
// store) is still E's content.
//
// Epochs form a singly-linked chain, oldest to newest, published via atomic
// next pointers so readers walk it without locks. An epoch's seq, root and
// undo map are immutable from the moment it is linked (a commit builds the
// epoch in writeTxn.seal and link numbers it); refs are guarded by the owning
// epochs mutex. A linked epoch is pending until its commit finalizes, and then
// published — or, if the store failed it, pending for good: its undo overlay
// hides from older readers whatever the store applied of it.
type epoch struct {
	io   *nodeIO // the engine's shared page reader; what Read falls through to
	seq  uint64
	root uint64
	// undo holds the pre-images of the pages that the commit CREATING this
	// epoch rewrote or freed — i.e. those pages' content in every epoch older
	// than this one. It is reclaimed (nilled) only after no reader pinned to
	// an older epoch can remain (see epochs.reclaimLocked), so readers never
	// observe the write.
	undo map[uint64]*node.Node
	next atomic.Pointer[epoch]
	refs int // pinning readers; guarded by epochs.mu
}

// lookupUndo resolves page id as of this epoch against the undo overlays of
// every later epoch, returning nil if no later commit touched the page (so
// the current cache/store content is already this epoch's content). Safe to
// call without locks: the chain is published through atomic next pointers and
// undo maps are immutable while reachable from a pinned epoch.
func (e *epoch) lookupUndo(id uint64) *node.Node {
	for f := e.next.Load(); f != nil; f = f.next.Load() {
		if n, ok := f.undo[id]; ok {
			return n
		}
	}
	return nil
}

// Read resolves page id as of this epoch, implementing btree.Reader; a pinned
// *epoch is handed to the btree layer as is. The fetch-then-overlay order is
// load-bearing: the overlay is consulted FIRST (a hit needs no fetch), but on
// a miss the shared fetch runs and the overlay is checked AGAIN before the
// fetched node is trusted. A commit links its undo overlay before it touches
// the store, so if the fetch observed post-commit state the re-check is
// guaranteed to see the overlay entry (the store's and cache's internal locks
// provide the happens-before edge), and the superseded fetch is discarded.
func (e *epoch) Read(id uint64) (*node.Node, error) {
	if n := e.lookupUndo(id); n != nil {
		return n, nil
	}
	n, err := e.io.ReadShared(id)
	if un := e.lookupUndo(id); un != nil {
		// A commit rewrote or freed the page mid-read; the undo overlay holds
		// this epoch's version (and explains an ErrNotFound fetch: the page
		// was freed by a newer epoch).
		return un, nil
	}
	return n, err
}

// epochs manages the epoch chain for one Tree: pinning, linking,
// publication, and reclamation. The mutex guards only the chain bookkeeping
// (refs, pins, head, current, err); it is never held across I/O, so pinning
// and releasing are O(1) pauses even while a commit is flushing. Only the
// turn holder links and finalizes, so at most one epoch is ever pending, the
// one after current, and publication order is chain order.
type epochs struct {
	mu sync.Mutex
	// pins counts the pins held on every epoch: readers, snapshots and the
	// turn holder's base. A release that brings it to zero is the moment the
	// cache's retired views can be recycled (see nodeIO.recycle).
	pins int
	// err is the first CommitPages error, and it stops the engine's writers
	// for good, as the file store stops itself: the store may have applied
	// the failed commit, so its epoch is never published, and link refuses
	// every later commit with err. Readers go on at current until the store
	// is reopened, and the cache recycles no block (see release).
	err     error
	current *epoch // newest PUBLISHED epoch; what new readers pin
	head    *epoch // oldest epoch that may still have pinned readers
	closed  atomic.Bool
	// published is current's seq. Epochs publish in seq order and none after
	// a failure, so it also counts the commits published since open, and an
	// epoch's seq is the count when it was published. Read lock-free by
	// Snapshot.Age and, as Stats.Commits, by Stats.
	published atomic.Uint64
}

// newEpochs seeds the chain with the store's current root as epoch 0.
func newEpochs(io *nodeIO, root uint64) *epochs {
	e := &epoch{io: io, seq: 0, root: root}
	return &epochs{current: e, head: e}
}

// pin takes a reference on the current epoch and returns it. Every pin must
// be paired with exactly one release; until then the epoch's version stays
// fully readable and its superseded pre-images stay in memory.
func (es *epochs) pin() (*epoch, error) {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.closed.Load() {
		return nil, ErrClosed
	}
	e := es.current
	e.refs++
	es.pins++
	return e, nil
}

// release drops a pin and reclaims any epochs no reader can need anymore. The
// release that leaves the engine with no pins also recycles the views the
// cache retired, under es.mu, so that no pin can start while it does — unless
// a store commit has failed: the failed epoch stays linked after current, so
// its undo overlay, which holds views the cache held, is never dropped, and
// none of those views may ever be read over.
func (es *epochs) release(e *epoch) {
	es.mu.Lock()
	defer es.mu.Unlock()
	e.refs--
	es.pins--
	es.reclaimLocked()
	if es.pins == 0 && es.err == nil {
		e.io.recycle()
	}
}

// link numbers e and appends it to the chain after current. The turn holder
// links its epoch BEFORE the store observes any of the commit's writes or
// frees: from that moment, readers pinned to older epochs depend on the undo
// overlay to keep resolving superseded pages. The epoch becomes visible to
// overlay walks immediately but is not pinnable until finalized. Once a store
// commit has failed, link refuses every commit with that first error (see
// epochs.err); once the engine is closing, with ErrClosed.
func (es *epochs) link(e *epoch) error {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.err != nil {
		return es.err
	}
	if es.closed.Load() {
		return ErrClosed
	}
	e.seq = es.current.seq + 1
	es.current.next.Store(e)
	return nil
}

// finalize resolves the linked epoch e once the store has answered its commit
// with err. On success it publishes e: it promotes tx's pages into the cache
// (which must complete before any reader can pin the new epoch) and flips
// current, and the happens-before edge through es.mu guarantees readers
// pinning from now on find the promoted cache. Otherwise e stays linked and
// unpublished, and err stops the engine's writers.
func (es *epochs) finalize(e *epoch, tx *writeTxn, err error) error {
	es.mu.Lock()
	defer es.mu.Unlock()
	if err != nil {
		es.err = err
		return err
	}
	e.io.promoteTxn(tx)
	es.published.Store(e.seq)
	es.current = e
	es.reclaimLocked()
	return nil
}

// reclaimLocked advances head past epochs with no pinned readers and drops
// undo overlays that no remaining reader can reach: an epoch's undo is only
// ever read by pins STRICTLY OLDER than it, so once head has advanced to an
// epoch, that epoch's own undo (and everything before it) is garbage. Callers
// hold es.mu; the happens-before edge through it guarantees no reader is
// still walking a map this nils.
func (es *epochs) reclaimLocked() {
	for es.head != es.current && es.head.refs == 0 {
		next := es.head.next.Load()
		es.head.undo = nil
		es.head = next
	}
	es.head.undo = nil
}

// close marks the chain closed, reporting whether this call was the one that
// closed it. Pins already held stay valid for chain walks; subsequent pins
// fail with ErrClosed.
func (es *epochs) close() bool {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.closed.Load() {
		return false
	}
	es.closed.Store(true)
	return true
}

// isClosed reports whether the tree is closed, without blocking behind the
// chain mutex.
func (es *epochs) isClosed() bool {
	return es.closed.Load()
}
