package ekbtree

import "github.com/paper-repro/ekbtree/pkg/ekbtree/engine"

// Sentinel errors returned by the façade. Façade methods return either nil or
// an error matching exactly one of these via errors.Is — the dynamic message
// may carry additional detail — except a mutation the page store fails, which
// returns the store's own error, as does every later mutation (see Tree).
// The sentinels live in the engine package (the façade and its engine share
// one taxonomy) and are re-exported here, so errors.Is works identically
// whichever layer produced the error.
var (
	// ErrClosed is returned by any operation on a closed Tree, and by
	// Cursor/Batch operations after Close, Commit, or Discard.
	ErrClosed = engine.ErrClosed

	// ErrTooLarge is returned when a value, or a substituted key produced by
	// a custom Substituter, exceeds the page encoding's size limits.
	ErrTooLarge = engine.ErrTooLarge

	// ErrWrongKey is returned by Open when the store's sealed header cannot
	// be deciphered — the cipher key differs from the one the store was
	// written with (or the header itself was tampered with).
	ErrWrongKey = engine.ErrWrongKey

	// ErrConfigMismatch is returned by Open when the header deciphers but
	// records a different order or substituter/cipher scheme than the one
	// being opened. A range-sharded tree, which earlier versions wrote, is
	// refused the same way: a Path with a Path+".shard0" sibling, or a shard
	// file whose header records its shard layout.
	ErrConfigMismatch = engine.ErrConfigMismatch

	// ErrCorrupt is returned when a page fails authentication or decoding
	// after the header has already been verified, or when the tree references
	// a page the store no longer holds.
	ErrCorrupt = engine.ErrCorrupt

	// ErrInvalidOptions is returned by Open for an Options value that cannot
	// describe a tree (bad order, short master key, missing layers,
	// conflicting store settings).
	ErrInvalidOptions = engine.ErrInvalidOptions

	// ErrLocked is returned by Open when a page file at Options.Path is
	// already held by another store — in this process or another. The
	// single-writer lock fails fast instead of letting two engines
	// shadow-page over each other. Enforced on unix platforms (flock);
	// elsewhere exclusivity is the caller's responsibility.
	ErrLocked = engine.ErrLocked

	// ErrSnapshotTooOld is returned by cursor positioning calls (First, Seek,
	// Next) when Options.MaxEpochAge is set and more than that many commits
	// have published since the cursor pinned its snapshot. The cursor's
	// snapshot is still consistent — the error is a resource bound, not a
	// corruption signal — and the caller's recovery is to close the cursor
	// and open a fresh one.
	ErrSnapshotTooOld = engine.ErrSnapshotTooOld

	// ErrSealsExhausted is returned by mutations when the tree's key epoch has
	// reached its hard seal bound and no fresh epoch can absorb the write
	// (rotation disabled via a negative SealBudget, or the 32-bit epoch space
	// itself spent). Writes fail closed rather than risk nonce reuse; reads
	// keep working. Recovery is enabling rotation (Options.SealBudget) or
	// calling Tree.AdvanceEpoch.
	ErrSealsExhausted = engine.ErrSealsExhausted
)
