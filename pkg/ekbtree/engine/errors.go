// Package engine is the core of the enciphered B-tree: the epoch-based
// snapshot machinery, the write turn its writers take one at a time, the
// decoded-node cache, and the write transaction's page table, all operating
// exclusively on SUBSTITUTED keys. The pkg/ekbtree façade owns everything
// above it — key substitution, option validation, and the cursor's bounds —
// and drives one Engine. Plaintext search keys never reach this package.
package engine

import (
	"errors"
	"fmt"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// Sentinel errors shared by the engine and the pkg/ekbtree façade (which
// re-exports them under the same names). The messages keep the "ekbtree:"
// prefix because the façade is where callers meet them.
var (
	// ErrClosed is returned by any operation on a closed engine, and by
	// cursor/batch operations after Close, Commit, or Discard.
	ErrClosed = errors.New("ekbtree: closed")

	// ErrTooLarge is returned when a value, or a substituted key produced by
	// a custom Substituter, exceeds the page encoding's size limits.
	ErrTooLarge = errors.New("ekbtree: key or value too large")

	// ErrWrongKey is returned by Open when the store's sealed header cannot
	// be deciphered — the cipher key differs from the one the store was
	// written with (or the header itself was tampered with).
	ErrWrongKey = errors.New("ekbtree: wrong key for existing store")

	// ErrConfigMismatch is returned by Open when the header deciphers but
	// records a different order or substituter/cipher scheme than the one
	// being opened, or when the path holds a sharded layout, which no longer
	// opens.
	ErrConfigMismatch = errors.New("ekbtree: store configuration mismatch")

	// ErrCorrupt is returned when a page fails authentication or decoding
	// after the header has already been verified, or when the tree references
	// a page the store no longer holds.
	ErrCorrupt = errors.New("ekbtree: corrupted store")

	// ErrInvalidOptions is returned by Open for an Options value that cannot
	// describe a tree (bad order, short master key, missing layers).
	ErrInvalidOptions = errors.New("ekbtree: invalid options")

	// ErrLocked is returned by Open when the page file at Options.Path is
	// already held by another store — in this process or another. The
	// single-writer lock fails fast instead of letting two engines
	// shadow-page over each other. Enforced on unix platforms (flock);
	// elsewhere exclusivity is the caller's responsibility.
	ErrLocked = errors.New("ekbtree: store file locked by another process")

	// ErrSnapshotTooOld is returned by cursor positioning when the snapshot's
	// pinned epoch has fallen further behind the tree's current epoch than
	// the configured MaxEpochAge allows. Long-lived pins hold every
	// superseded pre-image since the pin in memory; the age cap converts that
	// unbounded liability into a typed, retryable error.
	ErrSnapshotTooOld = errors.New("ekbtree: snapshot too old")

	// ErrSealsExhausted is returned by mutations when the current key epoch's
	// seal counter has reached the hard bound and no new epoch can absorb the
	// write (rotation disabled, or the epoch space itself exhausted). The
	// engine fails writes closed rather than gamble on nonce reuse; reads
	// keep working. Recovery is enabling rotation (a seal budget) or opening
	// with a fresh key epoch configuration.
	ErrSealsExhausted = errors.New("ekbtree: seal counter exhausted")
)

// MapErr translates internal-layer errors into the sentinel taxonomy above.
// Errors already carrying a sentinel pass through untouched.
func MapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrClosed), errors.Is(err, ErrTooLarge),
		errors.Is(err, ErrWrongKey), errors.Is(err, ErrConfigMismatch),
		errors.Is(err, ErrCorrupt), errors.Is(err, ErrInvalidOptions),
		errors.Is(err, ErrLocked), errors.Is(err, ErrSnapshotTooOld),
		errors.Is(err, ErrSealsExhausted):
		return err
	case errors.Is(err, store.ErrClosed):
		return ErrClosed
	case errors.Is(err, store.ErrNotFound):
		// The tree referenced a page the store has no record of: a dangling
		// pointer, i.e. structural corruption.
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	case errors.Is(err, cipher.ErrOpen):
		// The header already authenticated at Open, so a later page that
		// fails to open means tampering or corruption, not a wrong key.
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	case errors.Is(err, node.ErrDecode):
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	case errors.Is(err, file.ErrLocked):
		return fmt.Errorf("%w: %v", ErrLocked, err)
	case errors.Is(err, file.ErrCorrupt):
		// The page file's structural metadata (magic, meta slots, directory
		// checksums) failed validation at Open. An interrupted commit never
		// produces this — shadow paging keeps the previous state intact — so
		// it means external damage to the file.
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	default:
		return err
	}
}
