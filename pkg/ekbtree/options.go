package ekbtree

import (
	"fmt"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// DefaultOrder is the B-tree order (maximum children per node) of a new tree.
const DefaultOrder = 32

// Durability selects what a commit against a file-backed tree (Options.Path)
// waits for before returning. Every mode preserves crash atomicity — a crash
// at any point leaves the file at the state some prefix of the flushed commit
// groups produced, never a torn one — the modes only move the moment a
// commit is acknowledged relative to its fsync.
type Durability = file.Durability

const (
	// DurabilityFull (the default) acknowledges a commit only after the
	// group containing it is durably on disk. Writers that queue at the
	// write turn while a flush is in progress are combined into the next
	// commit and share its two fsyncs.
	DurabilityFull = file.Full
	// DurabilityGrouped acknowledges commits as soon as they are applied in
	// memory; the store flushes the accumulated group within 2ms. A crash
	// loses at most the last window of acknowledged writes.
	DurabilityGrouped = file.Grouped
	// DurabilityAsync acknowledges commits immediately and flushes only on
	// Tree.Sync, Close, or memory backpressure. After Sync returns,
	// everything written before it is durable.
	DurabilityAsync = file.Async
)

// Options configures a tree. The zero value is invalid: either MasterKey or
// both Substituter and Cipher must be set.
//
// Neither the B-tree order (its sealed header's, DefaultOrder for a new tree)
// nor the node format is an option. Every page is written as version 2, its
// keys in one fixed-width stride array, which is why the substituter must be
// of fixed width. A file that holds version-1 pages (prefix-coded or full
// keys), from a version that wrote them, opens as it is: those pages are
// transcoded when read and converted as they are rewritten.
//
// Nor is compaction. Every flush of a file-backed tree moves as many bytes as
// it writes from the end of the file into holes nearer the front, so steady
// writes keep the file within about one flush of its live bytes; what writes
// leave, such as a large delete with nothing written after it, stays until a
// caller runs Tree.Vacuum.
type Options struct {
	// MasterKey derives the substitution secret and the node-cipher key when
	// Substituter or Cipher are unset. It must be at least 16 bytes.
	MasterKey []byte
	// Substituter overrides the derived HMAC substituter. It must be of
	// fixed width: Open refuses one whose Width is not positive, and a write
	// whose substituted key is not Width bytes long fails, with
	// ErrInvalidOptions.
	Substituter keysub.Substituter
	// Cipher overrides the derived AES-256-GCM node cipher. Any NodeCipher
	// runs under the same seal budgets, epochs and rotation as the derived one.
	Cipher cipher.NodeCipher
	// Store is the backing page store. Nil means Path's file-backed store
	// when Path is set, otherwise the same store over a fresh page file held
	// in memory, at DurabilityAsync. Setting both Store and Path is invalid.
	Store store.PageStore
	// Path opens (or creates) a crash-safe file-backed store at this path.
	// Every commit — batch or single mutation — is shadow-paged and flushed
	// through the store's group-commit pipeline: a crash at any point leaves
	// the file at the state some prefix of the flushed commit groups
	// produced. Reopening requires the keys and configuration the file was
	// written with, exactly as for any persistent store. On unix platforms
	// the file is locked for exclusive use; a second open of the same path
	// fails with ErrLocked. A Path beside which an earlier version left the
	// files of a range-sharded tree (Path+".shard<i>") fails with
	// ErrConfigMismatch and is not created.
	Path string
	// Durability selects what commits against Path wait for; see the
	// Durability constants. The zero value is DurabilityFull. Setting it
	// without Path is invalid.
	Durability Durability
	// CachePages caps the decoded-node cache that serves repeated reads and
	// batch staging. Zero means DefaultCachePages; negative disables the
	// cache entirely (every access re-reads, deciphers, and decodes).
	CachePages int
	// MaxEpochAge bounds how many commits may publish after a Cursor pins
	// its snapshot before the cursor's positioning calls (First, Seek, Next)
	// fail with ErrSnapshotTooOld. An open cursor holds every pre-image
	// superseded since its pin, so without a bound a hostile or forgotten
	// long-lived cursor grows memory in proportion to write traffic; the cap
	// converts that into a typed, retryable error. Zero means unbounded;
	// negative is invalid.
	MaxEpochAge int
	// SealBudget is the soft per-epoch seal budget: once the tree's key
	// epoch has sealed this many pages, the next commit advances it to a
	// fresh derived key and the background rotator re-seals the old epoch's
	// pages. Zero means DefaultSealBudget; negative disables budget-driven
	// rotation entirely — the epoch then advances only via AdvanceEpoch, and
	// a tree whose epoch reaches 2^32 seals fails its writes closed with
	// ErrSealsExhausted instead of risking nonce reuse.
	SealBudget int64
	// order, a seam for this package's tests to force small nodes, is the
	// order a new tree is built at: even and at least 4, zero DefaultOrder.
	order int
	// sealHardLimit, a seam for this package's tests to reach the
	// fail-closed bound in a few commits, is the per-epoch seal count at
	// which writes fail with ErrSealsExhausted: zero means the engine's
	// default (2^32), and values above 2^56 are clamped.
	sealHardLimit uint64
}

// DefaultSealBudget is the per-epoch seal budget when Options.SealBudget is
// zero: 2^30 page seals before the key epoch rotates. Far below any bound
// that matters cryptographically (counter nonces never repeat within an
// epoch), it exists to keep the amount of ciphertext under any one
// derived key bounded and the rotation machinery routinely exercised.
const DefaultSealBudget = 1 << 30

// DefaultCachePages re-exports the engine's default decoded-node cache size.
const DefaultCachePages = engine.DefaultCachePages

// validate checks opts and resolves the non-store layers, returning the order
// a new tree is built at, the substituter, cipher, and cache size. All
// validation of an Options value is consolidated here; errors wrap
// ErrInvalidOptions. The store is resolved in Open.
func (o Options) validate() (order int, sub keysub.Substituter, nc cipher.NodeCipher, cachePages int, err error) {
	order = o.order
	if order == 0 {
		order = DefaultOrder
	}
	if order < 4 || order%2 != 0 {
		return 0, nil, nil, 0, fmt.Errorf("%w: order %d must be even and >= 4", ErrInvalidOptions, order)
	}
	sub, nc = o.Substituter, o.Cipher
	if sub == nil || nc == nil {
		// One derivation path: whatever the caller did not supply comes from
		// the same Material a server opening this tree would be handed.
		m, err := DeriveMaterial(o.MasterKey)
		if err != nil {
			return 0, nil, nil, 0, err
		}
		derived, err := m.Options(Options{})
		if err != nil {
			return 0, nil, nil, 0, err
		}
		if sub == nil {
			sub = derived.Substituter
		}
		if nc == nil {
			nc = derived.Cipher
		}
	}
	if w := sub.Width(); w <= 0 {
		return 0, nil, nil, 0, fmt.Errorf("%w: substituter %s has width %d; node pages need keys of one width", ErrInvalidOptions, sub.Name(), w)
	}
	if o.Path == "" && o.Durability != DurabilityFull {
		return 0, nil, nil, 0, fmt.Errorf("%w: Durability applies only to Path stores", ErrInvalidOptions)
	}
	if err := (file.Config{Durability: o.Durability}).Validate(); err != nil {
		return 0, nil, nil, 0, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if o.Store != nil && o.Path != "" {
		return 0, nil, nil, 0, fmt.Errorf("%w: Store and Path are mutually exclusive", ErrInvalidOptions)
	}
	if o.MaxEpochAge < 0 {
		return 0, nil, nil, 0, fmt.Errorf("%w: negative MaxEpochAge", ErrInvalidOptions)
	}
	cachePages = o.CachePages
	switch {
	case cachePages == 0:
		cachePages = DefaultCachePages
	case cachePages < 0:
		cachePages = 0
	}
	return order, sub, nc, cachePages, nil
}
