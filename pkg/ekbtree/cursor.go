package ekbtree

import (
	"bytes"

	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// Cursor iterates a point-in-time snapshot of the tree in ascending
// substituted-key order.
//
// A cursor pins the current epoch of every shard its range touches when it
// is created and reads those versions, lock-free, for its whole life:
// concurrent Puts, Deletes, and batch commits neither block the cursor nor
// become visible to it, and the cursor never observes a partially-applied
// single-shard commit. Internally each shard iterator keeps the root-to-leaf
// path to its position and the cursor merges them smallest-key-first, so
// advancing is O(shards) with no re-descent and no per-batch snapshot
// copying. On an unsharded tree (Shards = 1, the default) this is the same
// single-iterator cursor as ever.
//
// For a sharded tree the snapshot is taken per shard, one pin after another:
// each shard's view is internally consistent, but a commit racing cursor
// creation may land on shard A after A was pinned yet on shard B before B
// was — the cross-shard cut is not a single global instant (the same
// per-shard contract as Batch.Commit).
//
// Close releases the pins. An open cursor holds its snapshots' superseded
// pages in memory, so long-lived cursors over a write-heavy tree cost memory
// proportional to the writes since the cursor was opened — close cursors
// promptly. Options.MaxEpochAge turns that advice into a hard bound:
// positioning calls on a cursor whose snapshot has fallen more than that
// many commits behind fail with ErrSnapshotTooOld.
//
// Key and Value return zero-copy READ-ONLY views into the snapshot's nodes:
// they remain valid until Close but must never be mutated (the bytes are
// shared with the live tree); copy them to retain them past Close.
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
	t      *Tree
	lo, hi []byte // substituted bounds: lo inclusive, hi exclusive; nil = unbounded

	// One pinned snapshot + iterator per shard the range covers, in shard
	// (ascending substituted-key) order. Empty if a snapshot could not be
	// taken at creation: err holds the reason and every positioning call
	// reports it.
	snaps []*engine.Snapshot
	iters []*engine.Iter
	// Per-iterator buffered head entry; hk[i] == nil means iterator i is
	// exhausted (or dead). The current cursor position is the minimum head.
	hk, hv [][]byte
	cur    int // index of the iterator supplying the current entry

	k, v   []byte
	valid  bool
	err    error
	closed bool
}

// Cursor returns a cursor over a snapshot of the whole tree, taken at this
// call. Position it with First or Seek before reading; Close it when done to
// release the snapshot.
func (t *Tree) Cursor() *Cursor {
	return t.newCursor(nil, nil)
}

// CursorRange returns a cursor over the substituted range covering the
// plaintext bounds [fromKey, toKey), snapshotted at this call. Bounds are
// mapped exactly as in ScanRange: with a range-capable substituter (e.g. the
// bucketed one) they expand to whole boundary buckets, so the cursor visits a
// superset of the plaintext range; with a pure-PRF substituter they are
// substituted pointwise and the range bears no relation to plaintext order.
// A nil bound is unbounded on that side. Only the shards whose key ranges
// intersect the bounds are pinned.
func (t *Tree) CursorRange(fromKey, toKey []byte) *Cursor {
	lo, hi := t.substituteBounds(fromKey, toKey)
	return t.newCursor(lo, hi)
}

func (t *Tree) newCursor(lo, hi []byte) *Cursor {
	c := &Cursor{t: t, lo: lo, hi: hi}
	s0, s1 := t.router.RouteRange(lo, hi)
	for i := s0; i <= s1; i++ {
		snap, err := t.shards[i].Snapshot()
		if err != nil {
			// Drop the pins taken so far and leave the cursor snapshot-less,
			// latching why: Err reports it now, and so does every later
			// positioning call.
			for _, s := range c.snaps {
				s.Close()
			}
			c.snaps, c.iters = nil, nil
			c.err = err
			return c
		}
		c.snaps = append(c.snaps, snap)
		c.iters = append(c.iters, snap.Iter(hi))
	}
	c.hk = make([][]byte, len(c.iters))
	c.hv = make([][]byte, len(c.iters))
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

// seek repositions every shard iterator at from and advances to the smallest
// entry across shards.
func (c *Cursor) seek(from []byte) bool {
	c.valid, c.k, c.v = false, nil, nil
	if !c.usable() {
		return false
	}
	c.err = nil
	for i, it := range c.iters {
		it.Seek(from)
		c.refill(i)
	}
	return c.pickMin()
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
	c.refill(c.cur)
	return c.pickMin()
}

// usable checks the closed states and the snapshot-age bound, recording the
// appropriate sentinel error.
func (c *Cursor) usable() bool {
	if c.closed || c.t.closed() {
		c.err = ErrClosed
		return false
	}
	if len(c.snaps) == 0 {
		return false // creation failed; c.err has held the reason since
	}
	if max := c.t.maxEpochAge; max > 0 {
		for _, s := range c.snaps {
			if s.Age() > max {
				c.err = ErrSnapshotTooOld
				return false
			}
		}
	}
	return true
}

// refill pulls iterator i's next entry into its head slot, recording nil on
// exhaustion and capturing any iterator error.
func (c *Cursor) refill(i int) {
	k, v, ok := c.iters[i].Next()
	if !ok {
		c.hk[i], c.hv[i] = nil, nil
		if err := c.iters[i].Err(); err != nil {
			c.err = err
		}
		return
	}
	c.hk[i], c.hv[i] = k, v
}

// pickMin makes the smallest buffered head the current entry. With the
// order-preserving router the live iterator is almost always the same one
// until its shard drains, but the linear scan keeps the cursor correct for
// ANY router and costs O(shards) per step.
func (c *Cursor) pickMin() bool {
	if c.err != nil {
		return false
	}
	min := -1
	for i, k := range c.hk {
		if k == nil {
			continue
		}
		if min < 0 || bytes.Compare(k, c.hk[min]) < 0 {
			min = i
		}
	}
	if min < 0 {
		return false
	}
	c.cur = min
	c.k, c.v, c.valid = c.hk[min], c.hv[min], true
	return true
}

// Key returns the current entry's substituted key (the plaintext key is not
// recoverable from the tree). The slice is a zero-copy read-only view into
// the cursor's snapshot: valid until Close, never to be mutated, copied if
// retained longer. Key returns nil when the cursor is not positioned on an
// entry.
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
	return c.err
}

// Close releases the cursor's snapshot pins, allowing the engines to reclaim
// superseded pages. Subsequent positioning calls fail with ErrClosed. Close
// is idempotent and never fails; it returns an error only to satisfy the
// common io.Closer-style calling pattern.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, s := range c.snaps {
		s.Close()
	}
	c.snaps, c.iters, c.hk, c.hv = nil, nil, nil, nil
	c.k, c.v, c.valid = nil, nil, false
	return nil
}
