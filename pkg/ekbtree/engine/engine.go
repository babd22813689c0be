package engine

import (
	"slices"
	"sync"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// Config assembles a tree's layers. The caller (the façade) has already
// validated the pieces and verified the store's sealed header; the engine
// takes them as-is. The store is the engine's to close.
type Config struct {
	// Store is the tree's page store, already header-checked.
	Store store.PageStore
	// Cipher seals and opens the tree's pages; the engine allocates the
	// collision-free (epoch, counter) nonce of every seal, under the
	// lifecycle fields below.
	Cipher cipher.NodeCipher
	// Order is the B-tree order (maximum children per node); validated even
	// and >= 4 by the caller.
	Order int
	// CachePages caps the decoded-node cache; 0 disables it.
	CachePages int
	// NodeFormat is the page format every node is encoded with before
	// sealing. The zero value, node.FormatPrefix, is what the façade passes
	// for every tree; node.FormatFull is set only by tests that build the
	// pages of a legacy file. Reads dispatch on each page's flag byte, so
	// whatever form the store already holds is read as it is and rewritten
	// in this one.
	NodeFormat node.Format

	// SealBudget is the soft per-epoch seal budget: once an epoch has issued
	// this many counters, the next commit advances to a fresh key epoch (and
	// OnEpochAdvance fires, typically scheduling rotation). 0 disables
	// budget-driven advances — epochs then move only via AdvanceEpoch.
	SealBudget uint64
	// HardSealLimit is the fail-closed bound: a commit that would push the
	// current epoch's counter past it fails with ErrSealsExhausted. 0 means
	// DefaultHardSealLimit; values above 2^56 are clamped (see
	// maxCounterSpace).
	HardSealLimit uint64
	// OnEpochAdvance, when set, is called (outside engine locks) each time
	// the key epoch advances, with the new epoch. The façade points it at
	// its background rotator.
	OnEpochAdvance func(epoch uint32)
}

// Engine is one enciphered B-tree: the epoch-based snapshot chain, the write
// turn, and the decoded-node cache over one page store. It speaks substituted
// keys only. All methods are safe for concurrent use. See the pkg/ekbtree
// Tree doc comment for the full concurrency model; the façade's description
// IS this engine's behavior.
type Engine struct {
	turn turn // admits one writer at a time (see applyTxn); Close takes it too
	st   store.PageStore
	io   *nodeIO
	es   *epochs
	sa   *sealAlloc
	deg  int // btree minimum degree (order/2)

	// ws is the turn holder's: the transaction workspace the last commit
	// left behind, nil while a commit is using it. Only beginTxn and endTxn
	// touch it, both under the turn.
	ws *writeTxn
}

// New builds an engine over cfg's store, seeding the epoch chain from the
// store's current root. It performs no header validation — that is the
// façade's job, before the store is handed over.
func New(cfg Config) (*Engine, error) {
	root, err := cfg.Store.Root()
	if err != nil {
		return nil, MapErr(err)
	}
	sa, err := newSealAlloc(cfg.Store, cfg.SealBudget, cfg.HardSealLimit, cfg.OnEpochAdvance)
	if err != nil {
		return nil, MapErr(err)
	}
	io := newNodeIO(cfg.Store, cfg.Cipher, cfg.CachePages)
	io.fmt = cfg.NodeFormat
	g := &Engine{st: cfg.Store, io: io, es: newEpochs(io, root), sa: sa, deg: cfg.Order / 2}
	g.turn.free.L = &g.turn.mu
	g.turn.back = make(chan struct{}, 1)
	return g, nil
}

// turn is the engine's write turn. One writer holds it at a time, from
// pinning its base epoch to publishing its commit, so every transaction
// builds on the newest published epoch and there is nothing to validate: only
// one engine commit is ever in flight. A writer that finds the turn held
// queues. The holder takes whatever queued while it ran its own mutation
// into the same transaction, and then hands the turn to the first writer that
// queued after that; the others sleep on.
type turn struct {
	mu    sync.Mutex
	free  sync.Cond // broadcast when the turn falls free; Close waits on it
	held  bool
	queue []*waiter // writers waiting for the turn, in arrival order
	// taken and back are the holder's: the queue it took into its
	// transaction (taken and queue trade backing arrays, so queuing allocates
	// no slices), and where a queued writer signals that its mutation ran.
	taken []*waiter
	back  chan struct{}
}

// waiter is one queued writer. Its mutation runs on its own goroutine: the
// closure is the caller's, and handing it to another goroutine would move it
// to the heap for every writer, queued or not. The holder sends it, through
// wake, a transaction to run its mutation on (tx, the error coming back in
// err), the turn (lead), or its result (err).
type waiter struct {
	wake chan struct{}
	tx   *writeTxn
	lead bool
	err  error
}

// Apply runs one mutation (a single op or a whole batch) as a transaction on
// the newest published epoch under the write turn, sharing it with
// any mutations queued alongside; each caller still gets its own result.
// apply may run twice: if a shared transaction fails before reaching the
// store, each mutation in it runs again alone. It must not call back into the
// same engine, whose turn is held while it runs. Store errors are never
// retried: the first one stops the engine's writers (see epochs.err), and it
// is what this and every later mutation returns.
func (g *Engine) Apply(apply func(bt *btree.Tree) error) error {
	return g.applyTxn(func(tx *writeTxn) error {
		if tx.bt == nil {
			bt, err := btree.New(tx, g.deg)
			if err != nil {
				return err
			}
			tx.bt = bt // bound to the workspace, which outlives the transaction
		}
		return apply(tx.bt)
	})
}

// applyTxn is Apply at the transaction level: it waits for the turn and runs
// work under it. The rotator's re-seal commits enter here directly — they
// restage pages without a btree view. A writer that finds the turn free
// allocates nothing for it; one that queues allocates its waiter.
func (g *Engine) applyTxn(work func(tx *writeTxn) error) error {
	if g.es.isClosed() {
		return ErrClosed
	}
	t := &g.turn
	t.mu.Lock()
	if t.held {
		w := &waiter{wake: make(chan struct{}, 1)}
		t.queue = append(t.queue, w)
		t.mu.Unlock()
		// Run the mutation on each transaction the holder hands over, until
		// handed the turn or a result.
		for <-w.wake; w.tx != nil; <-w.wake {
			w.err = work(w.tx)
			w.tx = nil
			t.back <- struct{}{}
		}
		if !w.lead {
			return MapErr(w.err)
		}
	} else {
		t.held = true
		t.mu.Unlock()
	}
	err := g.hold(work)
	t.pass()
	return MapErr(err)
}

// hold runs the turn holder's own mutation and every mutation queued behind
// it as one transaction, and hands each queued writer its result. If that
// transaction fails before reaching the store — one of the mutations fails,
// or a seal refuses — each mutation is committed again alone, so every
// caller gets its own result. An error from the store, or from an engine the
// store or Close has stopped, is every caller's.
func (g *Engine) hold(own func(tx *writeTxn) error) error {
	queued, shared, err := g.commit(own, true)
	alone := err != nil && !shared && len(queued) > 0
	if alone {
		_, _, err = g.commit(own, false)
	}
	for i, w := range queued {
		if alone {
			_, _, w.err = g.commit(func(tx *writeTxn) error { return g.turn.runOn(w, tx) }, false)
		} else {
			w.err = err
		}
		w.wake <- struct{}{}
		queued[i] = nil
	}
	return err
}

// commit is one transaction under the turn:
//
//  1. pin the current epoch, the newest published, as the base;
//  2. run own, then (if combine) every mutation that queued while it ran. They
//     read the base epoch's shared nodes and clone only the pages they change
//     (writeTxn.Edit), so the cache and all pinned epochs stay untouched;
//  3. seal each dirty page once and build the new epoch: the new root and the
//     pre-images of every page written or freed;
//  4. link the epoch BEFORE the store sees the commit, so readers pinned to
//     older epochs keep resolving superseded pages from memory;
//  5. the store applies the whole set atomically (CommitPages) with no epoch
//     lock held, so Gets and cursors proceed;
//  6. the views of the sealed pages the cache held, and the shared nodes the
//     transaction read, are promoted into the cache and the epoch published.
//
// It returns the queued writers it took, and whether err is the engine's —
// from link or the store — rather than a mutation's. On a store error
// nothing is published, and the epoch stays linked, its undo overlay hiding
// whatever the store applied (see epochs.finalize).
func (g *Engine) commit(own func(tx *writeTxn) error, combine bool) (queued []*waiter, shared bool, err error) {
	base, err := g.es.pin()
	if err != nil {
		return nil, false, err
	}
	defer g.es.release()
	tx := g.beginTxn(base)
	defer g.endTxn(tx)
	if err := own(tx); err != nil {
		return nil, false, err
	}
	if combine {
		t := &g.turn
		t.mu.Lock()
		t.taken, t.queue = t.queue, t.taken[:0]
		t.mu.Unlock()
		queued = t.taken
		for _, w := range queued {
			if err := t.runOn(w, tx); err != nil {
				return queued, false, err
			}
		}
	}
	// A nil epoch is a no-op (nothing dirtied, freed, or re-rooted): it needs
	// no store round trip.
	e, err := tx.seal()
	if err != nil || e == nil {
		return queued, false, err
	}
	if err := g.es.link(e); err != nil {
		return queued, true, err
	}
	if err := g.es.finalize(e, tx, g.st.CommitPages(tx.writes, e.root, tx.frees)); err != nil {
		return queued, true, err
	}
	return queued, true, nil
}

// runOn runs queued writer w's mutation on the holder's transaction tx, on
// w's goroutine, and returns its error.
func (t *turn) runOn(w *waiter, tx *writeTxn) error {
	w.tx = tx
	w.wake <- struct{}{}
	<-t.back
	return w.err
}

// pass hands the turn to the first queued writer, or frees it.
func (t *turn) pass() {
	t.mu.Lock()
	if len(t.queue) == 0 {
		t.held = false
		t.mu.Unlock()
		t.free.Broadcast()
		return
	}
	w := t.queue[0]
	t.queue = slices.Delete(t.queue, 0, 1)
	t.mu.Unlock()
	w.lead = true
	w.wake <- struct{}{}
}

// Get returns the value stored under substituted key sk, as a fresh copy the
// caller owns. It pins the current epoch and reads lock-free: it never waits
// for writers, including an in-flight batch commit.
func (g *Engine) Get(sk []byte) ([]byte, bool, error) {
	e, err := g.es.pin()
	if err != nil {
		return nil, false, err
	}
	defer g.es.release()
	v, ok, err := btree.Lookup(e, e.root, sk)
	if err != nil {
		return nil, false, MapErr(err)
	}
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Snapshot is a pinned epoch: a frozen, fully readable version of the tree.
// It is a value handle — the façade's cursor keeps one inline — so
// close it through one variable, never through copies. It holds superseded
// pre-images in memory until closed, so callers bound its lifetime (see Age).
// Safe for use by one goroutine at a time.
type Snapshot struct {
	g      *Engine
	e      *epoch
	closed bool
}

// Snapshot pins the current epoch and returns it as a read handle. Every
// snapshot must be closed exactly once.
func (g *Engine) Snapshot() (Snapshot, error) {
	e, err := g.es.pin()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{g: g, e: e}, nil
}

// Age reports how many commits have published since this snapshot was
// pinned — the measure a MaxEpochAge bound cuts off. Lock-free.
func (s *Snapshot) Age() uint64 {
	return s.g.Commits() - s.e.seq
}

// Iter returns an in-order iterator over the snapshot, stopping before
// exclusive upper bound hi (nil = unbounded). Position it with Seek before
// the first Next. The iterator is only valid until the snapshot is closed;
// the key/value slices its Next returns are read-only views into the
// snapshot's node set, and its Err is an internal-layer error for the caller
// to pass through MapErr.
func (s *Snapshot) Iter(hi []byte) btree.Iter {
	return *btree.NewIter(s.e, s.e.root, hi)
}

// Close releases the pin. Closing twice is a no-op.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.g.es.release()
}

// Stats reports the tree's shape, cache counters, commit counter, cipher
// lifecycle and footprint. The shape walk is O(nodes) and runs against a
// pinned epoch, so it observes one consistent version and never blocks (or
// is blocked by) writers.
func (g *Engine) Stats() (Stats, error) {
	e, err := g.es.pin()
	if err != nil {
		return Stats{}, err
	}
	defer g.es.release()
	s, err := btree.StatsIn(e, e.root)
	if err != nil {
		return Stats{}, MapErr(err)
	}
	out := Stats{
		Keys: s.Keys, Nodes: s.Nodes, Height: s.Height,
		Cache:   g.io.cacheStats(),
		Commits: g.Commits(),
	}
	out.CipherEpoch, out.Seals = g.SealState()
	if out.PagesPendingReseal, err = g.PendingReseal(); err != nil {
		return Stats{}, MapErr(err)
	}
	out.FileBytes, out.LiveBytes = g.Space()
	return out, nil
}

// Commits reports how many commits have published since open. Lock-free.
func (g *Engine) Commits() uint64 { return g.es.current.Load().seq }

// Space reports the store's physical footprint; zeros once closed.
func (g *Engine) Space() (fileBytes, liveBytes int64) {
	if g.es.isClosed() {
		return 0, 0
	}
	return g.st.Space()
}

// Vacuum compacts the backing store toward target bytes. It runs
// concurrently with reads and writes — relocations ride the store's ordinary
// commit pipeline — and never changes tree contents.
func (g *Engine) Vacuum(target int64) error {
	if g.es.isClosed() {
		return ErrClosed
	}
	return MapErr(g.st.Vacuum(target))
}

// Sync blocks until every write acknowledged before the call is durable on
// the backing store. May run concurrently with both readers and writers.
func (g *Engine) Sync() error {
	if g.es.isClosed() {
		return ErrClosed
	}
	return MapErr(g.st.Sync())
}

// Closed reports whether Close has been called, without blocking behind any
// engine lock.
func (g *Engine) Closed() bool { return g.es.isClosed() }

// Close releases the underlying store. After Close every method returns
// ErrClosed; closing twice returns ErrClosed as well. Close does not wait for
// in-flight readers: a Get or iterator step racing Close either completes
// normally or fails with ErrClosed.
func (g *Engine) Close() error {
	if !g.es.close() {
		return ErrClosed
	}
	// Taking the turn once it falls free waits out the commit in flight, so no
	// writer is mid-CommitPages when the store goes away. A closed chain links
	// nothing, so every writer queued now gets ErrClosed.
	t := &g.turn
	t.mu.Lock()
	for t.held {
		t.free.Wait()
	}
	t.held = true
	t.mu.Unlock()
	defer t.pass()
	g.io.invalidate()
	return MapErr(g.st.Close())
}
