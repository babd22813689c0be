// Package ekbtree is the public façade over the enciphered-B-tree engine,
// reproducing the architecture of Hardjono & Seberry, "Search Key
// Substitution in the Encipherment of B-Trees" (VLDB 1990).
//
// The system is layered; plaintext search keys exist only above the façade:
//
//	caller ── plaintext key, value
//	   │
//	pkg/ekbtree        façade: substitute keys and range bounds, validate
//	   │
//	internal/keysub    key substitution (HMAC PRF / bucketed order-preserving)
//	   │
//	pkg/ekbtree/engine epoch snapshots, one write turn, decoded-node cache
//	   │
//	internal/btree     B-tree over substituted keys only
//	   │
//	internal/node      node <-> page binary encoding
//	   │
//	internal/cipher    page encipherment (AES-GCM)
//	   │
//	internal/store     page store: sealed pages only
//
// # Byte-slice ownership
//
// Every []byte argument to a façade method (keys, values, bounds) is treated
// as read-only for the duration of the call and is copied before anything the
// engine retains; callers keep ownership and may reuse or mutate their
// buffers as soon as the call returns. Get returns a fresh copy the caller
// owns outright. Cursor.Key and Cursor.Value are zero-copy READ-ONLY views
// into the cursor's pinned snapshot: they stay valid until the cursor is
// closed, must never be mutated, and should be copied if retained longer —
// see the Cursor type for the full contract.
//
// # Errors
//
// Façade methods return nil or an error matching one of the package's
// sentinel errors (ErrClosed, ErrTooLarge, ErrWrongKey, ErrConfigMismatch,
// ErrCorrupt, ErrInvalidOptions, ErrSnapshotTooOld) under errors.Is,
// with one exception: a mutation the page store fails returns the store's own
// error, and so does every later mutation (see Tree).
package ekbtree

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/pagebuf"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// CacheStats describes decoded-node cache traffic; see engine.CacheStats.
type CacheStats = engine.CacheStats

// Stats describes the tree: shape, cache traffic, commit-pipeline and
// cipher-lifecycle counters, and footprint; see engine.Stats.
type Stats = engine.Stats

// deriveKey computes a labeled subkey of master, so the substitution secret
// and the encipherment key are cryptographically independent.
func deriveKey(master []byte, label string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// checkUnsharded refuses a Path that holds the page files of a range-sharded
// tree, which an earlier version wrote as Path+".shard<i>" and left Path
// itself uncreated: opening it would initialize a fresh, empty tree beside
// the data. A sharded file passed as Path itself is refused by checkHeader.
func checkUnsharded(path string) error {
	if _, err := os.Stat(path + ".shard0"); err == nil {
		return fmt.Errorf("%w: %s.shard0 holds shard 0 of a range-sharded tree, which no longer opens", ErrConfigMismatch, path)
	}
	return nil
}

// Tree is an enciphered B-tree. All methods are safe for concurrent use.
//
// # Concurrency model
//
// Readers never block behind writers. Every mutation (Put, Delete,
// Batch.Commit) builds its new pages as private copies, commits them to the
// store, and atomically publishes a new EPOCH — a root pointer plus the
// pre-images of every page the commit superseded. Get, Stats, and Cursor pin
// the current epoch (an O(1) count of pins), read lock-free against that
// epoch's immutable node set, and release the pin when done; a Get issued
// while a batch commit is flushing completes from the previous epoch without
// waiting for the flush. A superseded epoch is reachable only from the pins
// that hold it, so the garbage collector takes it and its pre-images once
// they are released; the cache's evicted blocks are reused only at a moment
// when no pin is held at all.
//
// Writers take TURNS: one writer holds the write turn from pinning the
// newest published epoch to publishing its commit, so its transaction never
// races another and nothing needs validating or retrying. A mutation reads
// the shared nodes of the epoch it pinned, clones only the pages it changes,
// and keeps one record per touched page — the write-set, the frees and the
// pre-images are all read off that one table — then hands the sealed
// write-set to the store's atomic CommitPages and publishes. A writer that
// finds the turn held queues, and the holder takes every mutation queued
// behind it into its own transaction: they run in arrival order, seal each
// page once, and reach the store as one commit, which is how concurrent
// writers still share a Full-mode fsync. Every caller keeps its own result:
// if the shared transaction fails before reaching the store (one mutation's
// error, or a page too large to seal), each mutation in it is applied again
// alone, on fresh state.
//
// Store errors, by contrast, are never retried. The store may have applied a
// commit it failed (a file store's flush failure fails every commit the flush
// coalesced), so the first store error stops the tree's writes for as long
// as it is open: the failed commit stays invisible, and it and every later
// mutation return that error. Reads go on serving the last published state;
// reopening the tree recovers what the store made durable.
type Tree struct {
	sub keysub.Substituter
	eng *engine.Engine
	// maxEpochAge bounds cursor snapshot age; 0 = unbounded. See
	// Options.MaxEpochAge.
	maxEpochAge uint64
	// scratch is the staging memory the tree lends its next Batch; nil while
	// a batch holds it (see Batch).
	scratch atomic.Pointer[batchScratch]

	// The maintenance loop's plumbing (see maintain). kick holds at most one
	// pending kick — a round rotates to convergence per kick, so kicks absorb
	// rather than queue.
	kick     chan struct{}
	stop     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
}

// Open builds a tree from opts. Reopening an existing store requires the same
// substituter and cipher keys it was written with: a wrong cipher key fails
// with ErrWrongKey, a mismatched scheme, a header with no usable order, or a
// Path that holds a range-sharded tree, with ErrConfigMismatch, and a
// structurally damaged file (Path backend) with ErrCorrupt. Recovery of an
// interrupted commit needs no replay: the file store's shadow-paged commit
// leaves the last durable state directly readable.
func Open(opts Options) (*Tree, error) {
	order, sub, nc, cachePages, err := opts.validate()
	if err != nil {
		return nil, engine.MapErr(err)
	}
	// Stores opened here (Path or default) are ours to close on failure; a
	// caller-provided Store stays the caller's to manage.
	st := opts.Store
	switch {
	case st != nil:
	case opts.Path != "":
		if err := checkUnsharded(opts.Path); err != nil {
			return nil, err
		}
		if st, err = file.OpenConfig(opts.Path, file.Config{Durability: opts.Durability}); err != nil {
			return nil, engine.MapErr(err)
		}
	default:
		st = file.NewMem()
	}
	fail := func(err error) (*Tree, error) {
		if opts.Store == nil {
			st.Close()
		}
		return nil, engine.MapErr(err)
	}
	if order, err = checkHeader(st, nc, sub, order); err != nil {
		return fail(err)
	}
	var sealBudget uint64 // stays 0 (no budget-driven advance) for a negative SealBudget
	switch {
	case opts.SealBudget > 0:
		sealBudget = uint64(opts.SealBudget)
	case opts.SealBudget == 0:
		sealBudget = DefaultSealBudget
	}
	// The kick channel must exist before the engine can fire OnEpochAdvance.
	t := &Tree{
		sub: sub, maxEpochAge: uint64(opts.MaxEpochAge),
		kick: make(chan struct{}, 1), stop: make(chan struct{}), stopped: make(chan struct{}),
	}
	t.eng, err = engine.New(engine.Config{
		Store: st, Cipher: nc, Order: order, CachePages: cachePages, NodeFormat: node.FormatPrefix,
		SealBudget: sealBudget, HardSealLimit: opts.SealHardLimit,
		OnEpochAdvance: func(uint32) { t.kickMaintain() },
	})
	if err != nil {
		return fail(err)
	}
	go t.maintain(opts.AutoVacuum)
	// An initial kick drains any epochs a previous run advanced but never
	// finished re-sealing (e.g. a crash mid-rotation).
	t.kickMaintain()
	return t, nil
}

// AdvanceEpoch forces the tree onto a fresh key epoch immediately,
// regardless of the seal budget, and schedules the background rotator to
// re-seal the superseded epochs' pages (the engine's OnEpochAdvance hook kicks
// it, as for a budget-driven advance). This is the operator-driven "rotate
// now": the new epoch's durable reservation is on disk when the call
// returns — in every durability mode, so the call is also a Sync — while the
// re-sealing itself proceeds in the background (watch
// Stats.PagesPendingReseal drain to zero).
func (t *Tree) AdvanceEpoch() error {
	if err := t.eng.AdvanceEpoch(); err != nil {
		return err
	}
	return t.Sync()
}

// metaPageID is the pseudo page ID binding the sealed header; real page IDs
// from Alloc are always greater.
const metaPageID = store.NoRoot

// encPrefixToken is the header suffix a fresh store is given. It dates from
// when the node format was a per-tree choice and full-key trees recorded no
// token; it is still written so that a build from that time opens a new file
// with the prefix decoder or refuses it, never misreads it.
const encPrefixToken = " enc=prefix"

// checkHeader validates an existing store's engine header against the opened
// configuration and returns the order it records, which the tree opens at; a
// fresh store is given a header at newOrder. The header is sealed with the
// node cipher, so opening an existing store with the wrong key fails here,
// fast and closed, instead of on the first Get. A header with no order a tree
// can have (none, odd, below 4), or a shard file's " shards=<i>/<n>" suffix
// from an earlier, range-sharded version, is a mismatch.
//
// An existing header is accepted with or without the prefix token: a file
// without it was written in the full-key page format, before prefix coding or
// with the option that once selected it. Nothing has to be decided from that,
// because the node decoder reads each page by its own flag byte; the header
// is left as it is while the pages convert as they are rewritten.
func checkHeader(st store.PageStore, nc cipher.NodeCipher, sub keysub.Substituter, newOrder int) (int, error) {
	base := func(n int) string {
		return fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s", n, sub.Name(), nc.Name())
	}
	meta, err := st.Meta()
	if err != nil {
		return 0, err
	}
	if len(meta) == 0 {
		sealed, err := nc.Seal(metaPageID, []byte(base(newOrder)+encPrefixToken))
		if err != nil {
			return 0, err
		}
		err = st.SetMeta(sealed) // which copies it
		pagebuf.Put(sealed)
		return newOrder, err
	}
	got, err := nc.Open(metaPageID, meta)
	if err != nil {
		return 0, fmt.Errorf("%w: cannot open store header: %v", ErrWrongKey, err)
	}
	var order int
	if _, err := fmt.Sscanf(string(got), "ekbtree/1 order=%d", &order); err != nil || order < 4 || order%2 != 0 {
		return 0, fmt.Errorf("%w: store header %q records no order a tree can have", ErrConfigMismatch, got)
	}
	// The header rebuilt from its order also refuses any other spelling of it.
	if h, want := string(got), base(order); h != want && h != want+encPrefixToken {
		return 0, fmt.Errorf("%w: store was written with %q, opened with %q", ErrConfigMismatch, got, want)
	}
	return order, nil
}

// substituteKey maps a plaintext key to its substituted form, validating
// that it fits the page encoding. The result is used in place: a Substituter
// may cut it from a chunk shared with other results (HMAC does), so what the
// tree keeps of it, a Put's or a staged op's key, is copied first
// (appendEntry), and a Get or a Delete only reads it.
func (t *Tree) substituteKey(key []byte) ([]byte, error) {
	sk := t.sub.Substitute(key)
	if len(sk) > node.MaxKeyLen {
		return nil, fmt.Errorf("%w: substituted key is %d bytes, limit %d", ErrTooLarge, len(sk), node.MaxKeyLen)
	}
	return sk, nil
}

// appendEntry appends sk and value to dst, which must have room for both, and
// returns dst grown by them and the two copies, each clipped to its own length
// so that an append to one cannot reach the other or a neighbour. An empty
// value comes back nil.
func appendEntry(dst, sk, value []byte) (grown, k, v []byte) {
	start, mid := len(dst), len(dst)+len(sk)
	dst = append(append(dst, sk...), value...)
	if end := len(dst); end > mid {
		v = dst[mid:end:end]
	}
	return dst, dst[start:mid:mid], v
}

// checkValueSize validates that a value fits the page encoding.
func checkValueSize(value []byte) error {
	if int64(len(value)) > node.MaxValueLen {
		return fmt.Errorf("%w: value is %d bytes, limit %d", ErrTooLarge, len(value), int64(node.MaxValueLen))
	}
	return nil
}

// Put stores value under key, replacing any existing value. Both slices are
// copied, the substituted key and the value into one allocation; the caller
// keeps ownership. Every page the operation touches is staged decoded, then
// the whole set is handed to the store's atomic CommitPages and
// published as one epoch, so even a multi-page split is all-or-nothing for
// readers and durable backends alike.
func (t *Tree) Put(key, value []byte) error {
	sk, err := t.substituteKey(key)
	if err != nil {
		return err
	}
	if err := checkValueSize(value); err != nil {
		return err
	}
	_, k, v := appendEntry(make([]byte, 0, len(sk)+len(value)), sk, value)
	return t.eng.Apply(func(bt *btree.Tree) error { return bt.Put(k, v) })
}

// Get returns the value stored under key. The returned slice is a fresh copy
// owned by the caller. Get pins the current epoch and reads lock-free: it
// never waits for writers, including an in-flight batch commit.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.eng.Get(t.sub.Substitute(key))
}

// Delete removes key, reporting whether it was present. Like Put, it commits
// through the staged pipeline: merges and root collapses publish atomically
// or not at all.
func (t *Tree) Delete(key []byte) (bool, error) {
	sk, err := t.substituteKey(key)
	if err != nil {
		return false, err
	}
	var deleted bool
	err = t.eng.Apply(func(bt *btree.Tree) error {
		var err error
		deleted, err = bt.Delete(sk)
		return err
	})
	if err != nil {
		return false, err
	}
	return deleted, nil
}

// Stats reports tree shape, cache counters, commit-pipeline and
// cipher-lifecycle counters, and footprint. The shape walk is O(nodes) and
// runs against a pinned epoch, so it observes one consistent version of the
// tree and never blocks (or is blocked by) writers. The counters are
// monotonic for the lifetime of the handle.
func (t *Tree) Stats() (Stats, error) {
	return t.eng.Stats()
}

// Space reports the physical footprint alone: the FileBytes and LiveBytes
// that Stats reports, from two counters the store keeps as it flushes — O(1),
// whatever the tree's size: no page read, no cache traffic, no walk of a page
// map — so a monitor may poll it. Zeros for a closed tree.
func (t *Tree) Space() (fileBytes, liveBytes int64) {
	return t.eng.Space()
}

// Vacuum compacts the backing store down toward target bytes: live page
// extents relocate toward the front of the file and the tail is physically
// truncated, until the footprint is at or below target or no batch can
// improve it further (0 compacts as far as the layout allows). Every
// relocation batch rides the ordinary shadow-paged commit pipeline, so vacuum
// runs concurrently with reads and writes, never changes tree contents, and a
// crash at any byte of it leaves a normal pre-or-post-batch state — no
// recovery protocol, and re-running Vacuum after a crash simply converges.
//
// Every commit's flush already packs about as many bytes as it writes this
// way, so a tree under steady writes stays within about one flush of its live
// bytes. Vacuum is for what writes leave: garbage no later flush paid down,
// such as a large delete, and holes smaller than every page behind them,
// which only its lift rounds clear.
func (t *Tree) Vacuum(target int64) error {
	if target < 0 {
		return fmt.Errorf("%w: negative vacuum target", ErrInvalidOptions)
	}
	return t.eng.Vacuum(target)
}

// Sync blocks until every write acknowledged before the call is durable on
// the backing store. It is the durability barrier for DurabilityAsync (and an
// early flush for DurabilityGrouped); for DurabilityFull or an idle store it
// returns immediately. A tree without a Path runs at DurabilityAsync over a
// page file in memory, which Sync brings up to date. Sync may run
// concurrently with both readers and writers.
func (t *Tree) Sync() error {
	return t.eng.Sync()
}

// Close releases the underlying store. After Close every method of the tree
// (and any open Cursor on it) returns ErrClosed; closing twice returns
// ErrClosed as well. Close does not wait for in-flight readers: a Get or
// cursor step racing Close either completes normally or fails with
// ErrClosed.
func (t *Tree) Close() error {
	// The maintenance loop goes first, so no re-seal commit or vacuum pass is
	// mid-flight when the store closes underneath it.
	t.stopMaintain()
	return t.eng.Close()
}
