package ekbtree

import (
	"bytes"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// Cursor iterates a point-in-time snapshot of the tree in ascending
// substituted-key order.
//
// A cursor pins the current epoch when it is created and reads that version,
// lock-free, for its whole life: concurrent Puts, Deletes, and batch commits
// neither block the cursor nor become visible to it, and the cursor never
// observes a partially-applied commit. Its iterator keeps the root-to-leaf
// path to its position, so stepping needs no re-descent and no per-batch
// snapshot copying.
//
// Close releases the pin. An open cursor holds its snapshot's superseded
// pages in memory, so long-lived cursors over a write-heavy tree cost memory
// proportional to the writes since the cursor was opened — close cursors
// promptly. Options.MaxEpochAge turns that advice into a hard bound:
// positioning calls on a cursor whose snapshot has fallen more than that
// many commits behind fail with ErrSnapshotTooOld.
//
// Key and Value return zero-copy READ-ONLY views into the snapshot's nodes:
// they remain valid until Close but must never be mutated (the bytes are
// shared with the live tree); copy them to retain them past Close, after
// which the memory under them may be reused for another page.
//
// A Cursor is not safe for concurrent use by multiple goroutines, but any
// number of cursors may run concurrently with each other and with writers.
//
// The typical loop:
//
//	c := tr.Cursor()
//	defer c.Close()
//	for ok := c.First(); ok; ok = c.Next() {
//		use(c.Key(), c.Value())
//	}
//	if err := c.Err(); err != nil { ... }
type Cursor struct {
	t *Tree
	// The substituted bounds, lo inclusive, hi exclusive, nil unbounded. They
	// are the substituter's results, kept as they are for the cursor's life
	// and dropped at Close.
	lo, hi []byte

	// The pinned snapshot and its iterator, both inside the Cursor's own
	// allocation. pinned is false if the snapshot could not be taken at
	// creation: err holds the reason and every positioning call reports it.
	snap   engine.Snapshot
	it     btree.Iter
	pinned bool

	k, v   []byte
	valid  bool
	err    error // as the layer below reported it; Err maps it
	closed bool
}

// Cursor returns a cursor over a snapshot of the whole tree, taken at this
// call: CursorRange(nil, nil). Position it with First or Seek before reading;
// Close it when done to release the snapshot.
func (t *Tree) Cursor() *Cursor {
	return t.CursorRange(nil, nil)
}

// CursorRange returns a cursor over the substituted range covering the
// plaintext bounds [fromKey, toKey), snapshotted at this call. With a
// range-capable substituter (e.g. the bucketed one) the bounds expand to
// whole boundary buckets, so the cursor visits a superset of the plaintext
// range; with a pure-PRF substituter they are substituted pointwise and the
// range bears no relation to plaintext order. A nil bound is unbounded on
// that side.
func (t *Tree) CursorRange(fromKey, toKey []byte) *Cursor {
	lo, hi := t.substituteBounds(fromKey, toKey)
	c := &Cursor{t: t, lo: lo, hi: hi}
	snap, err := t.eng.Snapshot()
	if err != nil {
		// Leave the cursor snapshot-less, latching why: Err reports it now,
		// and so does every later positioning call.
		c.err = err
		return c
	}
	c.snap, c.it, c.pinned = snap, snap.Iter(hi), true
	return c
}

// substituteBounds maps plaintext range bounds to substituted bounds,
// preferring the substituter's superset-of-range expansion when available.
func (t *Tree) substituteBounds(fromKey, toKey []byte) (lo, hi []byte) {
	if rs, ok := t.sub.(keysub.RangeSubstituter); ok {
		return rs.SubstituteRange(fromKey, toKey)
	}
	if fromKey != nil {
		lo = t.sub.Substitute(fromKey)
	}
	if toKey != nil {
		hi = t.sub.Substitute(toKey)
	}
	return lo, hi
}

// First positions the cursor on the first entry of its range, reporting
// whether one exists. It may be called again at any time to restart over the
// same snapshot.
func (c *Cursor) First() bool {
	return c.seek(c.lo)
}

// Seek positions the cursor on the first entry at or after the substituted
// lower bound of the plaintext key, reporting whether one exists. With a
// bucketed substituter the bound is the start of key's bucket, so iteration
// from Seek covers every entry >= key in plaintext order plus possibly
// earlier entries sharing key's bucket (the same superset contract as
// CursorRange). With a pure-PRF substituter the bound is key's pointwise
// substitution and the position is meaningless in plaintext order. Seeking
// below the cursor's lower bound clamps to it. Seek repositions within the
// cursor's pinned snapshot.
func (c *Cursor) Seek(key []byte) bool {
	from, _ := c.t.substituteBounds(key, nil)
	if c.lo != nil && (from == nil || bytes.Compare(from, c.lo) < 0) {
		from = c.lo
	}
	return c.seek(from)
}

// seek moves to the first entry at or after from, which is never below lo.
func (c *Cursor) seek(from []byte) bool {
	c.valid, c.k, c.v = false, nil, nil
	if !c.usable() {
		return false
	}
	c.err = nil
	c.it.Seek(from)
	return c.advance()
}

// Next advances to the following entry, reporting whether one exists.
func (c *Cursor) Next() bool {
	if !c.valid {
		return false
	}
	c.valid, c.k, c.v = false, nil, nil
	if !c.usable() {
		return false
	}
	return c.advance()
}

// advance takes the iterator's next entry, recording its error when it stops.
func (c *Cursor) advance() bool {
	if c.k, c.v, c.valid = c.it.Next(); !c.valid {
		c.err = c.it.Err()
	}
	return c.valid
}

// usable checks the closed states and the snapshot-age bound, recording the
// appropriate sentinel error.
func (c *Cursor) usable() bool {
	if c.closed || c.t.eng.Closed() {
		c.err = ErrClosed
		return false
	}
	if !c.pinned {
		return false // creation failed; c.err has held the reason since
	}
	if limit := c.t.maxEpochAge; limit > 0 && c.snap.Age() > limit {
		c.err = ErrSnapshotTooOld
		return false
	}
	return true
}

// Key returns the current entry's substituted key (the plaintext key is not
// recoverable from the tree). The slice is a zero-copy read-only view into
// the cursor's snapshot: valid until Close, never to be mutated, copied if
// retained longer (after Close its bytes may be reused for another page).
// Key returns nil when the cursor is not positioned on an entry.
func (c *Cursor) Key() []byte {
	if !c.valid {
		return nil
	}
	return c.k
}

// Value returns the current entry's value, with the same ownership contract
// as Key.
func (c *Cursor) Value() []byte {
	if !c.valid {
		return nil
	}
	return c.v
}

// Err returns the first error the cursor encountered, or nil. Exhausting the
// range is not an error.
func (c *Cursor) Err() error {
	return engine.MapErr(c.err)
}

// Close releases the cursor's snapshot pin, allowing the engine to reclaim
// superseded pages. Subsequent positioning calls fail with ErrClosed. Close
// is idempotent and never fails; it returns an error only to satisfy the
// common io.Closer-style calling pattern.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.pinned {
		c.snap.Close()
	}
	c.snap, c.it, c.pinned = engine.Snapshot{}, btree.Iter{}, false
	c.lo, c.hi = nil, nil
	c.k, c.v, c.valid = nil, nil, false
	return nil
}
