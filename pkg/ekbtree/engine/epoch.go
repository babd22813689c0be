package engine

import (
	"cmp"
	"slices"
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
// next pointers so readers walk it without locks; nothing points back into
// it, so an epoch older than current is reachable only from the pins that
// hold it (see epochs.release). An epoch's seq, root and undo map are
// immutable from the moment it is linked (a commit builds the epoch in
// writeTxn.seal and link numbers it), but for current's undo, which release
// drops. A linked epoch is pending until its commit finalizes, and then
// published — or, if the store failed it, pending for good: its undo overlay
// hides from older readers whatever the store applied of it.
type epoch struct {
	io   *nodeIO // the engine's shared page reader; what Read falls through to
	seq  uint64
	root uint64
	// undo holds the pre-images of the pages that the commit CREATING this
	// epoch rewrote or freed — i.e. those pages' content in every epoch older
	// than this one, and so read only by pins older than this one — sorted by
	// page ID.
	undo []undoPage
	next atomic.Pointer[epoch]
}

// undoPage is one pre-image of an undo overlay: page id's content before the
// commit that created the overlay's epoch.
type undoPage struct {
	id uint64
	n  *node.Node
}

// lookupUndo resolves page id as of this epoch against the undo overlays of
// every later epoch, returning nil if no later commit touched the page (so
// the current cache/store content is already this epoch's content). Safe to
// call without locks: the chain is published through atomic next pointers and
// undo overlays are immutable while reachable from a pinned epoch.
func (e *epoch) lookupUndo(id uint64) *node.Node {
	for f := e.next.Load(); f != nil; f = f.next.Load() {
		if i, ok := slices.BinarySearchFunc(f.undo, id, undoOrder); ok {
			return f.undo[i].n
		}
	}
	return nil
}

// undoOrder orders an undo overlay by page ID.
func undoOrder(u undoPage, id uint64) int { return cmp.Compare(u.id, id) }

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

// epochs manages the epoch chain for one Tree: pinning, linking, publication,
// and the one moment that reclaims. The mutex guards pins and err and orders
// every flip of current against pins; it is never held across I/O, so
// pinning and releasing are O(1) pauses even while a commit is flushing. Only
// the turn holder links and finalizes, so at most one epoch is ever pending,
// the one after current, and publication order is chain order.
type epochs struct {
	mu sync.Mutex
	// pins counts the pins held on every epoch: readers, snapshots and the
	// turn holder's base. The release that brings it to zero is the one moment
	// that reclaims (see release).
	pins int
	// err is the first CommitPages error, and it stops the engine's writers
	// for good, as the file store stops itself: the store may have applied
	// the failed commit, so its epoch is never published, and link refuses
	// every later commit with err. Readers go on at current until the store
	// is reopened, and the cache recycles no block (see release).
	err error
	// current is the newest PUBLISHED epoch, what new readers pin; it is
	// stored under mu. Epochs publish in seq order and none after a failure,
	// so current's seq counts the commits published since open, and an
	// epoch's seq is the count when it was published: Snapshot.Age and
	// Commits read it lock-free.
	current atomic.Pointer[epoch]
	closed  atomic.Bool
}

// newEpochs seeds the chain with the store's current root as epoch 0.
func newEpochs(io *nodeIO, root uint64) *epochs {
	es := &epochs{}
	es.current.Store(&epoch{io: io, seq: 0, root: root})
	return es
}

// pin counts one more pin and returns the current epoch. Every pin must be
// paired with exactly one release; until then the epoch's version stays
// fully readable and its superseded pre-images stay in memory.
func (es *epochs) pin() (*epoch, error) {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.closed.Load() {
		return nil, ErrClosed
	}
	es.pins++
	return es.current.Load(), nil
}

// release drops a pin. The release that leaves the engine with no pins is the
// one moment that reclaims, and it holds es.mu so that no pin can start
// meanwhile. No pin older than current remains and no new pin reads current's
// undo overlay, so it drops that overlay; every older epoch was reachable only
// from the pins now released, so the garbage collector takes it with its
// overlay. And it recycles the views the cache retired — unless a store
// commit has failed: the failed epoch stays linked after current, so its undo
// overlay, which holds views the cache held, stays reachable from every pin
// of current, and none of those views may ever be read over.
func (es *epochs) release() {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.pins--; es.pins > 0 {
		return
	}
	e := es.current.Load()
	e.undo = nil
	if es.err == nil {
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
	cur := es.current.Load()
	e.seq = cur.seq + 1
	cur.next.Store(e)
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
	es.current.Store(e)
	return nil
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
