package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// Config assembles one shard's layers. The caller (the façade) has already
// validated the pieces and verified the store's sealed header; the engine
// takes them as-is. The store is the engine's to close.
type Config struct {
	// Store is the shard's page store, already header-checked.
	Store store.PageStore
	// Cipher seals and opens this shard's pages; the engine allocates the
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
	// DefaultHardSealLimit; values above 2^56 are clamped (the counter's top
	// byte carries the shard tag).
	HardSealLimit uint64
	// CounterBase is ORed into every issued counter; the façade passes
	// shardIndex<<56 so shards sharing one derived key can never collide in
	// nonce space.
	CounterBase uint64
	// OnEpochAdvance, when set, is called (outside engine locks) each time
	// the key epoch advances, with the new epoch. The façade points it at
	// its background rotator.
	OnEpochAdvance func(epoch uint32)
}

// Engine is one single-shard enciphered B-tree: the epoch-based snapshot
// chain, the optimistic commit pipeline, and the decoded-node cache over one
// page store. It speaks substituted keys only. All methods are safe for
// concurrent use. See the pkg/ekbtree Tree doc comment for the full
// concurrency model; the façade's description IS this engine's behavior,
// one shard at a time.
type Engine struct {
	// gate is the commit gate: optimistic writers hold it SHARED for the
	// whole pin → mutate → validate → CommitPages → publish span (so their
	// store commits overlap and coalesce); the fairness fallback takes it
	// EXCLUSIVELY, draining all in-flight commits first. sync.RWMutex blocks
	// new readers once a writer waits, so the exclusive path cannot starve.
	// Close takes it exclusively too.
	gate sync.RWMutex
	st   store.PageStore
	io   *nodeIO
	es   *epochs
	sa   *sealAlloc
	deg  int // btree minimum degree (order/2)

	// ws is the transaction workspace the last commit left behind, nil while
	// a commit is using it (see beginTxn).
	ws atomic.Pointer[writeTxn]

	// Commit-pipeline counters, surfaced through Stats.
	commits   atomic.Uint64 // successfully published epochs
	conflicts atomic.Uint64 // failed optimistic validations, each one re-execution
}

// New builds an engine over cfg's store, seeding the epoch chain from the
// store's current root. It performs no header validation — that is the
// façade's job, before the store is handed over.
func New(cfg Config) (*Engine, error) {
	root, err := cfg.Store.Root()
	if err != nil {
		return nil, MapErr(err)
	}
	sa, err := newSealAlloc(cfg.Store, cfg.SealBudget, cfg.HardSealLimit,
		cfg.CounterBase, cfg.OnEpochAdvance)
	if err != nil {
		return nil, MapErr(err)
	}
	io := newNodeIO(cfg.Store, cfg.Cipher, cfg.CachePages)
	io.fmt = cfg.NodeFormat
	return &Engine{st: cfg.Store, io: io, es: newEpochs(io, root), sa: sa, deg: cfg.Order / 2}, nil
}

// maxOptimisticAttempts bounds how many times a mutation retries
// optimistically before falling back to the exclusive commit gate. The
// exclusive pass drains every in-flight commit first, so it cannot conflict:
// every mutation completes within maxOptimisticAttempts+1
// re-executions — the engine's fairness bound.
const maxOptimisticAttempts = 4

// commitBackoff is the bounded exponential backoff before optimistic retry
// number attempt (1-based): 8µs, 16µs, 32µs, ... capped at 128µs. Long
// enough for the conflicting commit wave to publish, short against even a
// grouped-durability flush.
func commitBackoff(attempt int) time.Duration {
	d := time.Duration(8<<uint(attempt-1)) * time.Microsecond
	if d > 128*time.Microsecond {
		d = 128 * time.Microsecond
	}
	return d
}

// Apply runs one mutation (a single op or a whole batch) through the
// optimistic commit pipeline until it either commits, proves a no-op, or hits
// a real error. Each attempt re-executes apply from scratch against a fresh
// transaction over the then-current epoch, so retried work is always built on
// consistent state; see tryCommit for one attempt's shape. Conflicts are
// invisible to callers — no error surfaces, the retry happens inside the
// call. Store errors are never retried: the first one stops the shard's
// writers (see epochs.err), and it is what this and every later mutation
// returns.
func (g *Engine) Apply(apply func(bt *btree.Tree) error) error {
	return g.applyTxn(func(tx *writeTxn) error {
		bt, err := btree.New(tx, g.deg)
		if err != nil {
			return err
		}
		return apply(bt)
	})
}

// applyTxn is the transaction-level commit loop under Apply: it runs work
// against a fresh writeTxn per attempt with the same retry/escalation policy.
// The rotator's re-seal commits enter here directly — they restage pages
// without a btree view.
func (g *Engine) applyTxn(work func(tx *writeTxn) error) error {
	for attempt := 1; ; attempt++ {
		err := g.tryCommit(work, attempt > maxOptimisticAttempts)
		if err != errConflict {
			return MapErr(err)
		}
		g.conflicts.Add(1)
		time.Sleep(commitBackoff(attempt))
	}
}

// tryCommit is one optimistic (or exclusive) commit attempt:
//
//  1. under the commit gate — shared for optimistic attempts, so concurrent
//     commits overlap in the store; exclusive for the fairness fallback —
//     pin the current epoch as the transaction's base;
//  2. apply reads pages as of the base epoch — the shared, immutable nodes,
//     entered in the transaction's page table — and clones only the pages it
//     changes (writeTxn.Edit); the table's non-fresh records are the
//     page-level read-set (the shared cache and all pinned epochs stay
//     untouched);
//  3. seal seals each dirty page once (fanning out across GOMAXPROCS workers
//     for large commits) and builds the provisional epoch: the new root and
//     the pre-images and IDs of every page written or freed;
//  4. validateAndPrepare checks the read-set against every commit linked
//     since the base and links the provisional epoch into the chain BEFORE
//     the store sees the commit, so readers pinned to older epochs keep
//     resolving superseded pages from memory;
//  5. the store applies the whole set atomically (CommitPages), taking the
//     sealed buffers as its own — no engine mutex or epoch lock is held
//     across this I/O, so concurrent Gets, cursors, and other committing
//     writers all proceed. A commit that leaves the root alone passes
//     store.KeepRoot rather than restating its base root, so it cannot undo
//     a root move the store applies before it;
//  6. in chain order, the table's nodes are promoted into the shared cache
//     and the epoch is published for new readers to pin.
//
// On a store error nothing is published: the clones are dropped, the cache
// still holds the pre-commit versions, and the provisional epoch stays linked,
// its undo overlay hiding whatever the store applied; the shard's writers stop
// (see epochs.finalize).
func (g *Engine) tryCommit(work func(tx *writeTxn) error, exclusive bool) error {
	if exclusive {
		g.gate.Lock()
		defer g.gate.Unlock()
	} else {
		g.gate.RLock()
		defer g.gate.RUnlock()
	}
	base, err := g.es.pin()
	if err != nil {
		return err
	}
	defer g.es.release(base)
	tx := g.beginTxn(base)
	defer g.endTxn(tx)
	if err := work(tx); err != nil {
		return err
	}
	// A nil epoch is a no-op (nothing dirtied, freed, or re-rooted): it needs
	// no store round trip and no validation, since with no writes the
	// operation is serializable at its base epoch — a consistent point inside
	// the call's window.
	e, err := tx.seal()
	if err != nil || e == nil {
		return err
	}
	if err := g.es.validateAndPrepare(tx, e); err != nil {
		return err
	}
	root := e.root
	if root == base.root {
		root = store.KeepRoot
	}
	if err := g.es.finalize(e, tx, g.st.CommitPages(tx.writes, root, tx.frees)); err != nil {
		return err
	}
	g.commits.Add(1)
	return nil
}

// Get returns the value stored under substituted key sk, as a fresh copy the
// caller owns. It pins the current epoch and reads lock-free: it never waits
// for writers, including an in-flight batch commit.
func (g *Engine) Get(sk []byte) ([]byte, bool, error) {
	e, err := g.es.pin()
	if err != nil {
		return nil, false, err
	}
	defer g.es.release(e)
	v, ok, err := btree.Lookup(e, e.root, sk)
	if err != nil {
		return nil, false, MapErr(err)
	}
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Snapshot is a pinned epoch: a frozen, fully readable version of one shard.
// It is a value handle — the façade's cursor keeps one per shard inline — so
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
	return s.g.es.published.Load() - s.e.seq
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
	s.g.es.release(s.e)
}

// Stats reports the shard's shape, cache counters, and commit-pipeline
// counters, as one shard of a tree: Shards is 1 and Retries equals
// Conflicts, so Stats.Add sums shards into the tree's figures. The shape walk
// is O(nodes) and runs against a pinned epoch, so it observes one consistent
// version and never blocks (or is blocked by) writers.
func (g *Engine) Stats() (Stats, error) {
	e, err := g.es.pin()
	if err != nil {
		return Stats{}, err
	}
	defer g.es.release(e)
	s, err := btree.StatsIn(e, e.root)
	if err != nil {
		return Stats{}, MapErr(err)
	}
	out := Stats{
		Keys: s.Keys, Nodes: s.Nodes, Height: s.Height,
		Cache:     g.io.cacheStats(),
		Commits:   g.commits.Load(),
		Conflicts: g.conflicts.Load(),
		Shards:    1,
	}
	out.Retries = out.Conflicts
	out.CipherEpoch, out.Seals = g.SealState()
	if out.PagesPendingReseal, err = g.PendingReseal(); err != nil {
		return Stats{}, MapErr(err)
	}
	out.FileBytes, out.LiveBytes = g.Space()
	return out, nil
}

// Space reports the shard's physical footprint; zeros once closed.
func (g *Engine) Space() (fileBytes, liveBytes int64) {
	if g.es.isClosed() {
		return 0, 0
	}
	return g.st.Space()
}

// Vacuum compacts the shard's backing store toward target bytes. It runs
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
	// The exclusive gate drains every in-flight commit before the chain
	// closes, so no writer is mid-CommitPages when the store goes away.
	g.gate.Lock()
	defer g.gate.Unlock()
	if !g.es.close() {
		return ErrClosed
	}
	g.io.invalidate()
	return MapErr(g.st.Close())
}
