// Package ekbtree is the public façade over the enciphered-B-tree engine,
// reproducing the architecture of Hardjono & Seberry, "Search Key
// Substitution in the Encipherment of B-Trees" (VLDB 1990).
//
// The system is layered; plaintext search keys exist only above the façade:
//
//	caller ── plaintext key, value
//	   │
//	pkg/ekbtree        façade: substitute keys, route to shards, chain cursors
//	   │
//	internal/keysub    key substitution (HMAC PRF / bucketed order-preserving)
//	   │               + ShardRouter: substituted-key range → shard index
//	   │
//	pkg/ekbtree/engine single-shard core: epoch snapshots, OCC commit
//	   │               pipeline, decoded-node cache — one engine per shard
//	   │
//	internal/btree     B-tree over substituted keys only
//	   │
//	internal/node      node <-> page binary encoding
//	   │
//	internal/cipher    page encipherment (AES-GCM)
//	   │
//	internal/store     page store: sealed pages only
//
// # Sharding
//
// With Options.Shards = N > 1 the façade range-partitions the SUBSTITUTED
// key space across N fully independent engines, each over its own page file
// (one committer and one fsync stream per shard). Routing happens after
// substitution, so plaintext never crosses the shard boundary, and because
// the bucketed substituter is order-preserving the partition is too: range
// scans touch only the shards their bucket interval spans, and a Cursor
// reading those shards one after another yields one globally ordered stream.
// Put/Get/Delete route to exactly one shard and keep their single-tree
// semantics. Batch.Commit fans out as one OCC commit PER SHARD, running in
// parallel: each shard's slice of the batch is atomic and publishes as one
// epoch on that shard, but the batch is NOT atomic across shards — a reader
// may observe shard A's slice before shard B's lands, and an error on one
// shard does not roll back the others.
// Each shard's header seals the (index, total) shard layout, so reopening
// with a different Shards value fails closed with ErrConfigMismatch.
// Shards=1 (the default) produces byte-identical files to previous versions.
//
// # Byte-slice ownership
//
// Every []byte argument to a façade method (keys, values, bounds) is treated
// as read-only for the duration of the call and is copied before anything the
// engine retains; callers keep ownership and may reuse or mutate their
// buffers as soon as the call returns. Get returns a fresh copy the caller
// owns outright. Cursor.Key, Cursor.Value, and the slices passed to Scan
// callbacks are zero-copy READ-ONLY views into the cursor's pinned snapshot:
// they stay valid until the cursor is closed (for callbacks, for the duration
// of the call), must never be mutated, and should be copied if retained
// longer — see the Cursor type for the full contract.
//
// # Errors
//
// Façade methods return nil or an error matching one of the package's
// sentinel errors (ErrClosed, ErrTooLarge, ErrWrongKey, ErrConfigMismatch,
// ErrCorrupt, ErrInvalidOptions, ErrSnapshotTooOld) under errors.Is,
// with one exception: a mutation the page store fails returns the store's own
// error, and so does every later mutation on that shard (see Tree).
package ekbtree

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// testDefaultShards is the shard count used when Options.Shards is zero and
// no caller-provided Store forces a single shard. It is 1 (the documented
// default) except under the test suite's EKBTREE_SHARDS override, which
// repoints it to run the whole façade suite sharded (see TestMain).
var testDefaultShards = 1

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

// shardPath returns shard idx's page file path: Path itself for a
// single-shard tree (so existing files open unchanged), Path+".shard<idx>"
// otherwise.
func shardPath(path string, idx, total int) string {
	if total == 1 {
		return path
	}
	return fmt.Sprintf("%s.shard%d", path, idx)
}

// checkShardLayout fails closed when the on-disk layout at path contradicts
// the requested shard count: a single-shard file where a sharded tree was
// requested, or shard files where a single-shard tree was requested. The
// sealed per-shard header catches every other mismatch (N vs M shards, both
// > 1); this guard catches the 1 <-> N transitions, where the two layouts
// use disjoint file names and Open would otherwise silently initialize a
// fresh empty tree beside the existing data.
func checkShardLayout(path string, shards int) error {
	if shards > 1 {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%w: %s holds a single-shard tree, opened with Shards=%d", ErrConfigMismatch, path, shards)
		}
	} else if _, err := os.Stat(path + ".shard0"); err == nil {
		return fmt.Errorf("%w: %s.shard0 holds shard 0 of a sharded tree, opened with Shards=1", ErrConfigMismatch, path)
	}
	return nil
}

// openShardStore resolves shard idx's page store from opts. It is a variable
// so that a test can wrap the stores of a Path tree.
var openShardStore = func(opts Options, idx, total int) (store.PageStore, error) {
	switch {
	case opts.Store != nil:
		return opts.Store, nil
	case opts.Path != "":
		return file.OpenConfig(shardPath(opts.Path, idx, total), opts.fileConfig())
	default:
		return file.NewMem(), nil
	}
}

// Tree is an enciphered B-tree, possibly range-sharded across several
// independent engines. All methods are safe for concurrent use.
//
// # Concurrency model
//
// Readers never block behind writers. Every mutation (Put, Delete,
// Batch.Commit) builds its new pages as private copies, commits them to the
// store, and atomically publishes a new EPOCH — a root pointer plus the
// pre-images of every page the commit superseded. Get, Stats, and Cursor pin
// the current epoch (an O(1) reference count), read lock-free against that
// epoch's immutable node set, and release the pin when done; a Get issued
// while a batch commit is flushing completes from the previous epoch without
// waiting for the flush. Superseded pages and their cache entries are
// reclaimed only once the last reader pinning an older epoch releases it.
//
// Writers run CONCURRENTLY under optimistic concurrency control: each
// mutation reads the shared nodes of the epoch it pinned at start, clones
// only the pages it changes, and keeps one record per touched page — the
// read-set, the write-set and the pre-images are all read off that one
// table — then validates at a short critical section: if no commit since its
// base epoch touched a page it read, it
// links a provisional epoch, hands the sealed write-set to the store's atomic
// CommitPages (concurrent commits genuinely overlap there, so a group-commit
// backend coalesces their fsyncs), and publishes in chain order. On conflict
// the provisional state is discarded and the mutation re-runs against the new
// tip with bounded exponential backoff; after repeated failed validations it
// takes the commit gate exclusively, which cannot conflict, so every
// mutation completes within a bounded number of re-executions (no
// starvation); no writer takes the gate exclusively otherwise. Conflicts are
// invisible to callers — no error surfaces, the retry happens inside the call.
// Commits that move the ROOT pointer (first insert, root split, root
// collapse) are ordinary optimistic commits: one conflicts with every
// concurrent commit whose base root it changes, and the others leave the
// store's root pointer alone instead of restating it.
//
// Store errors, by contrast, are never retried. The store may have applied a
// commit it failed (a file store's flush failure fails every commit the flush
// coalesced), so the first store error stops that shard's writes for as long
// as the tree is open: the failed commit stays invisible, and it and every
// later mutation on the shard return that error. Reads go on serving the last
// published state; reopening the tree recovers what the store made durable.
//
// With Shards > 1 every statement above holds PER SHARD: each shard is a
// complete engine with its own epoch chain, commit gate, and fsync stream,
// and operations touching different shards share no synchronization at all.
// Single-key operations route to exactly one shard; see Batch.Commit and
// Cursor for the cross-shard contracts.
type Tree struct {
	sub    keysub.Substituter
	router *keysub.ShardRouter
	shards []*engine.Engine
	// maxEpochAge bounds cursor snapshot age; 0 = unbounded. See
	// Options.MaxEpochAge.
	maxEpochAge uint64

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
// with ErrWrongKey, a mismatched order, scheme, or shard layout with
// ErrConfigMismatch, and a structurally damaged file (Path backend) with
// ErrCorrupt. Recovery of an interrupted commit needs no replay: the file
// store's shadow-paged commit leaves the last durable state directly
// readable.
func Open(opts Options) (*Tree, error) {
	order, sub, nc, cachePages, shards, err := opts.validate()
	if err != nil {
		return nil, engine.MapErr(err)
	}
	router, err := keysub.NewShardRouter(shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if opts.Path != "" {
		if err := checkShardLayout(opts.Path, shards); err != nil {
			return nil, engine.MapErr(err)
		}
	}
	// The kick channel must exist before any engine can fire OnEpochAdvance;
	// the goroutine itself starts only once every shard opened.
	t := &Tree{
		sub: sub, router: router, maxEpochAge: uint64(opts.MaxEpochAge),
		kick: make(chan struct{}, 1), stop: make(chan struct{}), stopped: make(chan struct{}),
	}
	var sealBudget uint64 // stays 0 (no budget-driven advance) for a negative SealBudget
	switch {
	case opts.SealBudget > 0:
		sealBudget = uint64(opts.SealBudget)
	case opts.SealBudget == 0:
		sealBudget = DefaultSealBudget
	}
	// Stores opened here (Path or default) are ours to close on failure; a
	// caller-provided Store (single-shard only) stays the caller's to manage.
	ownStore := opts.Store == nil
	fail := func(err error) (*Tree, error) {
		for _, g := range t.shards {
			g.Close() // engines built so far always own their stores
		}
		return nil, engine.MapErr(err)
	}
	for i := 0; i < shards; i++ {
		st, err := openShardStore(opts, i, shards)
		if err != nil {
			return fail(err)
		}
		if err := checkHeader(st, nc, sub, order, i, shards); err != nil {
			if ownStore {
				st.Close()
			}
			return fail(err)
		}
		g, err := engine.New(engine.Config{
			Store: st, Cipher: nc, Order: order, CachePages: cachePages, NodeFormat: node.FormatPrefix,
			SealBudget: sealBudget, HardSealLimit: opts.SealHardLimit, CounterBase: uint64(i) << 56,
			OnEpochAdvance: func(uint32) { t.kickMaintain() },
		})
		if err != nil {
			if ownStore {
				st.Close()
			}
			return fail(err)
		}
		t.shards = append(t.shards, g)
	}
	go t.maintain(opts.AutoVacuum)
	// An initial kick drains any epochs a previous run advanced but never
	// finished re-sealing (e.g. a crash mid-rotation).
	t.kickMaintain()
	return t, nil
}

// AdvanceEpoch forces every shard onto a fresh key epoch immediately,
// regardless of the seal budget, and schedules the background rotator to
// re-seal the superseded epochs' pages. This is the operator-driven "rotate
// now": the new epochs' durable reservations are on disk when the call
// returns — in every durability mode, so the call is also a Sync — while the
// re-sealing itself proceeds in the background (watch
// Stats.PagesPendingReseal drain to zero).
func (t *Tree) AdvanceEpoch() error {
	for _, g := range t.shards {
		if err := g.AdvanceEpoch(); err != nil {
			return err
		}
	}
	t.kickMaintain()
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
// configuration, or writes one into a fresh store. The header is sealed with
// the node cipher, so opening an existing store with the wrong key fails
// here, fast and closed, instead of on the first Get. For sharded trees the
// header additionally seals the shard's index and the total shard count, so a
// file can never be opened as part of a differently-sharded tree (or as a
// different shard of the same tree).
//
// An existing header is accepted with or without the prefix token: a file
// without it was written in the full-key page format, before prefix coding or
// with the option that once selected it. Nothing has to be decided from that,
// because the node decoder reads each page by its own flag byte; the header
// is left as it is while the pages convert as they are rewritten.
func checkHeader(st store.PageStore, nc cipher.NodeCipher, sub keysub.Substituter, order, idx, total int) error {
	base := fmt.Sprintf("ekbtree/1 order=%d keysub=%s cipher=%s", order, sub.Name(), nc.Name())
	if total > 1 {
		base += fmt.Sprintf(" shards=%d/%d", idx, total)
	}
	meta, err := st.Meta()
	if err != nil {
		return err
	}
	if len(meta) == 0 {
		sealed, err := nc.Seal(metaPageID, []byte(base+encPrefixToken))
		if err != nil {
			return err
		}
		return st.SetMeta(sealed)
	}
	got, err := nc.Open(metaPageID, meta)
	if err != nil {
		return fmt.Errorf("%w: cannot open store header: %v", ErrWrongKey, err)
	}
	if h := string(got); h != base && h != base+encPrefixToken {
		return fmt.Errorf("%w: store was written with %q, opened with %q", ErrConfigMismatch, got, base)
	}
	return nil
}

// substituteKey maps a plaintext key to its substituted form, validating
// that it fits the page encoding. The result is used in place: a Substituter
// may cut it from a chunk shared with other results (HMAC does), so what the
// tree keeps of it, a Put's or a staged op's key, is copied first
// (appendEntry), and a Get, a Delete or a route only reads it.
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

// shardFor returns the engine owning substituted key sk.
func (t *Tree) shardFor(sk []byte) *engine.Engine {
	return t.shards[t.router.Route(sk)]
}

// Put stores value under key, replacing any existing value. Both slices are
// copied, the substituted key and the value into one allocation; the caller
// keeps ownership. Every page the operation touches is staged decoded, then
// the whole set is handed to the owning shard's atomic CommitPages and
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
	return t.shardFor(k).Apply(func(bt *btree.Tree) error { return bt.Put(k, v) })
}

// Get returns the value stored under key. The returned slice is a fresh copy
// owned by the caller. Get pins the owning shard's current epoch and reads
// lock-free: it never waits for writers, including an in-flight batch commit.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	sk := t.sub.Substitute(key)
	return t.shardFor(sk).Get(sk)
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
	err = t.shardFor(sk).Apply(func(bt *btree.Tree) error {
		var err error
		deleted, err = bt.Delete(sk)
		return err
	})
	if err != nil {
		return false, err
	}
	return deleted, nil
}

// Scan visits every entry in ascending substituted-key order, stopping early
// if fn returns false. With a pseudorandom substituter this order is
// unrelated to plaintext order; with a bucketed substituter it follows
// plaintext order at bucket granularity. The subKey passed to fn is the
// substituted key — the plaintext key is not recoverable from the tree.
//
// Scan is a thin wrapper over Cursor, so it observes one point-in-time
// snapshot of the tree (per shard; see Cursor for the cross-shard contract):
// the epoch current when Scan begins. fn runs with no tree lock held and may
// call any method of this Tree, including mutations — but mutations made
// during the scan are not visible to it. The slices passed to fn are
// read-only views into the snapshot, valid only for the duration of the
// callback; fn copies what it retains.
func (t *Tree) Scan(fn func(subKey, value []byte) bool) error {
	return t.cursorScan(t.Cursor(), fn)
}

// ScanRange visits entries whose substituted keys fall in [fromKey, toKey) in
// ascending substituted-key order. The bounds are plaintext keys, mapped as
// in CursorRange: with a range-capable substituter (e.g. the bucketed one)
// the traversal covers whole boundary buckets, so it visits a superset of the
// plaintext range — every key in [fromKey, toKey) plus possibly others
// sharing a boundary bucket. With a pure-PRF substituter the bounds are
// substituted pointwise and the scanned interval bears no relation to
// plaintext order. A nil bound is unbounded on that side.
//
// Like Scan, it iterates a point-in-time snapshot, and fn runs without any
// tree lock held and may re-enter the Tree.
func (t *Tree) ScanRange(fromKey, toKey []byte, fn func(subKey, value []byte) bool) error {
	return t.cursorScan(t.CursorRange(fromKey, toKey), fn)
}

func (t *Tree) cursorScan(c *Cursor, fn func(subKey, value []byte) bool) error {
	defer c.Close()
	for ok := c.First(); ok; ok = c.Next() {
		if !fn(c.Key(), c.Value()) {
			return nil
		}
	}
	return c.Err()
}

// Stats reports tree shape, cache counters, and commit-pipeline counters,
// folded across shards (Stats.Add). The shape walk is O(nodes) and runs
// against a pinned epoch per shard, so it observes one consistent version of
// each shard and never blocks (or is blocked by) writers. The counters are
// monotonic for the lifetime of the handle.
func (t *Tree) Stats() (Stats, error) {
	var sum Stats
	for _, g := range t.shards {
		s, err := g.Stats()
		if err != nil {
			return Stats{}, err
		}
		sum.Add(s)
	}
	return sum, nil
}

// Space reports the physical footprint alone, summed across shards: the
// FileBytes and LiveBytes that Stats reports, from two counters each shard's
// store keeps as it flushes — O(shards), whatever the tree's size: no page
// read, no cache traffic, no walk of a page map — so a monitor may poll it.
// Zeros for a closed tree.
func (t *Tree) Space() (fileBytes, liveBytes int64) {
	for _, g := range t.shards {
		f, l := g.Space()
		fileBytes += f
		liveBytes += l
	}
	return fileBytes, liveBytes
}

// Vacuum compacts the backing store(s) down toward target bytes total:
// live page extents relocate toward the front of each shard's file and the
// tail is physically truncated, until the footprint is at or below target or
// no batch can improve it further (0 compacts as far as each layout allows).
// The target is split evenly across shards. Every relocation batch rides the
// ordinary shadow-paged commit pipeline, so vacuum runs concurrently with
// reads and writes, never changes tree contents, and a crash at any byte of
// it leaves a normal pre-or-post-batch state — no recovery protocol, and
// re-running Vacuum after a crash simply converges.
func (t *Tree) Vacuum(target int64) error {
	if target < 0 {
		return fmt.Errorf("%w: negative vacuum target", ErrInvalidOptions)
	}
	per := target / int64(len(t.shards))
	for _, g := range t.shards {
		if err := g.Vacuum(per); err != nil {
			return err
		}
	}
	return nil
}

// Sync blocks until every write acknowledged before the call is durable on
// the backing store(s). It is the durability barrier for DurabilityAsync
// (and an early flush for DurabilityGrouped); for DurabilityFull or an
// idle store it returns immediately. A tree without a Path runs at
// DurabilityAsync over a page file in memory, which Sync brings up to date.
// Sync may run concurrently with both readers and writers. For a sharded
// tree it syncs every shard, returning the first error.
func (t *Tree) Sync() error {
	for _, g := range t.shards {
		if err := g.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// closed reports whether the tree has been closed (all shards close
// together, so checking the first suffices).
func (t *Tree) closed() bool {
	return t.shards[0].Closed()
}

// Close releases the underlying store(s). After Close every method of the
// tree (and any open Cursor on it) returns ErrClosed; closing twice returns
// ErrClosed as well. Close does not wait for in-flight readers: a Get or
// cursor step racing Close either completes normally or fails with
// ErrClosed. For a sharded tree every shard is closed even if some fail; the
// errors are joined.
func (t *Tree) Close() error {
	// The maintenance loop goes first, so no re-seal commit or vacuum pass is
	// mid-flight when the shards' stores close underneath it.
	t.stopMaintain()
	var errs []error
	for _, g := range t.shards {
		if err := g.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
