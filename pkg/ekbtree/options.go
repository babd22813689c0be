package ekbtree

import (
	"fmt"
	"time"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// DefaultOrder is the default B-tree order (maximum children per node).
const DefaultOrder = 32

// Durability selects what a commit against a file-backed tree (Options.Path)
// waits for before returning. Every mode preserves crash atomicity — a crash
// at any point leaves the file at the state some prefix of the flushed commit
// groups produced, never a torn one — the modes only move the moment a
// commit is acknowledged relative to its fsync.
type Durability = file.Durability

const (
	// DurabilityFull (the default) acknowledges a commit only after the
	// group containing it is durably on disk. Concurrent commits that arrive
	// while a flush is in progress coalesce and share its two fsyncs.
	DurabilityFull = file.Full
	// DurabilityGrouped acknowledges commits as soon as they are applied in
	// memory; the store flushes the accumulated group within
	// Options.GroupWindow. A crash loses at most the last window of
	// acknowledged writes.
	DurabilityGrouped = file.Grouped
	// DurabilityAsync acknowledges commits immediately and flushes only on
	// Tree.Sync, Close, or memory backpressure. After Sync returns,
	// everything written before it is durable.
	DurabilityAsync = file.Async
)

// Options configures a tree. The zero value is invalid: either MasterKey or
// both Substituter and Cipher must be set.
//
// The on-page node format is not an option. Every page is written with
// prefix-coded keys; a file that holds full-key pages, from a version that
// wrote them, opens as it is and converts as its pages are rewritten (see
// checkHeader).
type Options struct {
	// Order is the maximum number of children per node; it must be even and
	// at least 4. Zero means DefaultOrder.
	Order int
	// MasterKey derives the substitution secret and the node-cipher key when
	// Substituter or Cipher are unset. It must be at least 16 bytes.
	MasterKey []byte
	// Substituter overrides the derived HMAC substituter.
	Substituter keysub.Substituter
	// Cipher overrides the derived AES-256-GCM node cipher. Any NodeCipher
	// runs under the same seal budgets, epochs and rotation as the derived one.
	Cipher cipher.NodeCipher
	// Store is the backing page store. Nil means Path's file-backed store
	// when Path is set, otherwise the same store over a fresh page file held
	// in memory, at DurabilityAsync. Setting both Store and Path is invalid,
	// as is combining Store with Shards > 1 (a single caller-provided store
	// cannot back multiple shards).
	Store store.PageStore
	// Path opens (or creates) a crash-safe file-backed store at this path.
	// Every commit — batch or single mutation — is shadow-paged and flushed
	// through the store's group-commit pipeline: a crash at any point leaves
	// the file at the state some prefix of the flushed commit groups
	// produced. Reopening requires the keys and configuration the file was
	// written with, exactly as for any persistent store. On unix platforms
	// the file is locked for exclusive use; a second open of the same path
	// fails with ErrLocked. With Shards = N > 1, shard i's page file is
	// Path+".shard<i>" and Path itself is not created.
	Path string
	// Durability selects what commits against Path wait for; see the
	// Durability constants. The zero value is DurabilityFull. Setting it
	// without Path is invalid. With multiple shards every shard store gets
	// its own group-commit pipeline in this mode.
	Durability Durability
	// GroupWindow bounds how long a DurabilityGrouped commit may sit
	// unflushed; zero means the store default (2ms). Setting it with any
	// other durability mode, or without Path, is invalid.
	GroupWindow time.Duration
	// MaxUnflushed bounds the bytes of acknowledged-but-unflushed commit
	// payload a Path store may accumulate per commit group. At the bound,
	// new commits BLOCK until the pending group flushes (Grouped mode waits
	// for its window; Async starts a background flush) instead of growing
	// the overlay or forcing an early mid-window flush. Because one full
	// group can be mid-flush while the next fills, total unflushed memory
	// can reach roughly twice this bound. Zero means the store default
	// (4MB); negative, or setting it without Path, is invalid. The bound is
	// per shard store.
	MaxUnflushed int
	// CachePages caps the decoded-node cache that serves repeated reads and
	// batch staging, PER SHARD. Zero means DefaultCachePages; negative
	// disables the cache entirely (every access re-reads, deciphers, and
	// decodes).
	CachePages int
	// Shards range-partitions the substituted key space across this many
	// independent single-shard engines; see the package's Sharding section.
	// Zero or 1 means one shard (fully backward compatible — existing files
	// open unchanged). The shard layout is sealed into every shard's header:
	// reopening with a different count fails with ErrConfigMismatch.
	// Negative, or > 1 combined with Store, is invalid.
	Shards int
	// MaxEpochAge bounds how many commits may publish after a Cursor pins
	// its snapshot before the cursor's positioning calls (First, Seek, Next)
	// fail with ErrSnapshotTooOld. An open cursor holds every pre-image
	// superseded since its pin, so without a bound a hostile or forgotten
	// long-lived cursor grows memory in proportion to write traffic; the cap
	// converts that into a typed, retryable error. With multiple shards the
	// bound applies per shard snapshot. Zero means unbounded; negative is
	// invalid.
	MaxEpochAge int
	// SealBudget is the soft per-epoch seal budget, PER SHARD: once a shard's
	// key epoch has sealed this many pages, the next commit advances it to a
	// fresh derived key and the background rotator re-seals the old epoch's
	// pages. Zero means DefaultSealBudget; negative disables budget-driven
	// rotation entirely — the epoch then advances only via AdvanceEpoch, and
	// a shard that reaches the hard bound (see SealHardLimit) fails its
	// writes closed with ErrSealsExhausted.
	SealBudget int64
	// SealHardLimit is the per-epoch fail-closed seal bound, PER SHARD: a
	// commit that would push the current epoch's counter past it fails with
	// ErrSealsExhausted instead of risking nonce reuse. Zero means the
	// engine default (2^32); values above 2^56 are clamped.
	SealHardLimit uint64
	// AutoVacuum, when above zero, has the tree compact a shard's file on
	// its own, as Vacuum(0) would, once the garbage made since that shard's
	// last pass (FileBytes − LiveBytes, from Space) is more than this
	// fraction of the shard's file. The tree's maintenance loop checks every
	// second; a check reads two counters per shard, so a tree with nothing
	// to reclaim does no I/O. Zero disables it; it must be in [0, 1).
	AutoVacuum float64
}

// DefaultSealBudget is the per-epoch seal budget when Options.SealBudget is
// zero: 2^30 page seals per shard before the key epoch rotates. Far below
// any bound that matters cryptographically (counter nonces never repeat
// within an epoch), it exists to keep the amount of ciphertext under any one
// derived key bounded and the rotation machinery routinely exercised.
const DefaultSealBudget = 1 << 30

// MaxShards is the shard-count ceiling: the shard index rides in the
// top byte of the 64-bit seal counter, partitioning the nonce space so shards
// sharing one derived key can never collide.
const MaxShards = 256

// DefaultCachePages re-exports the engine's default decoded-node cache size.
const DefaultCachePages = engine.DefaultCachePages

// validate checks opts and resolves the non-store layers, returning the
// effective order, substituter, cipher, cache size, and shard count. All
// validation of an Options value is consolidated here; errors wrap
// ErrInvalidOptions. Stores are resolved per shard in Open.
func (o Options) validate() (order int, sub keysub.Substituter, nc cipher.NodeCipher, cachePages, shards int, err error) {
	order = o.Order
	if order == 0 {
		order = DefaultOrder
	}
	if order < 4 || order%2 != 0 {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: order %d must be even and >= 4", ErrInvalidOptions, order)
	}
	sub, nc = o.Substituter, o.Cipher
	if sub == nil || nc == nil {
		// One derivation path: whatever the caller did not supply comes from
		// the same Material a server opening this tree would be handed.
		m, err := DeriveMaterial(o.MasterKey)
		if err != nil {
			return 0, nil, nil, 0, 0, err
		}
		derived, err := m.Options(Options{})
		if err != nil {
			return 0, nil, nil, 0, 0, err
		}
		if sub == nil {
			sub = derived.Substituter
		}
		if nc == nil {
			nc = derived.Cipher
		}
	}
	switch o.Durability {
	case DurabilityFull, DurabilityGrouped, DurabilityAsync:
	default:
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: unknown durability mode %d", ErrInvalidOptions, int(o.Durability))
	}
	if o.Path == "" && (o.Durability != DurabilityFull || o.GroupWindow != 0 || o.MaxUnflushed != 0) {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: Durability, GroupWindow, and MaxUnflushed apply only to Path stores", ErrInvalidOptions)
	}
	if o.GroupWindow < 0 {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: negative GroupWindow", ErrInvalidOptions)
	}
	if o.GroupWindow != 0 && o.Durability != DurabilityGrouped {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: GroupWindow applies only to DurabilityGrouped", ErrInvalidOptions)
	}
	if o.MaxUnflushed < 0 {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: negative MaxUnflushed", ErrInvalidOptions)
	}
	if o.Store != nil && o.Path != "" {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: Store and Path are mutually exclusive", ErrInvalidOptions)
	}
	if o.MaxEpochAge < 0 {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: negative MaxEpochAge", ErrInvalidOptions)
	}
	// Written so that NaN, which fails every comparison, is refused too.
	if !(o.AutoVacuum >= 0 && o.AutoVacuum < 1) {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: AutoVacuum %v must be in [0, 1)", ErrInvalidOptions, o.AutoVacuum)
	}
	shards = o.Shards
	switch {
	case shards < 0:
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: negative Shards", ErrInvalidOptions)
	case shards == 0:
		// The documented default is 1. The test seam widens it only for
		// configurations that resolve their own stores: a caller-provided
		// Store is inherently single-shard.
		shards = 1
		if o.Store == nil {
			shards = testDefaultShards
		}
	case shards > 1 && o.Store != nil:
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: Shards > 1 requires per-shard stores (Path or default), not a single Store", ErrInvalidOptions)
	}
	if shards > MaxShards {
		return 0, nil, nil, 0, 0, fmt.Errorf("%w: Shards %d exceeds %d, the nonce-partition limit", ErrInvalidOptions, shards, MaxShards)
	}
	cachePages = o.CachePages
	switch {
	case cachePages == 0:
		cachePages = DefaultCachePages
	case cachePages < 0:
		cachePages = 0
	}
	return order, sub, nc, cachePages, shards, nil
}
