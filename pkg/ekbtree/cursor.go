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
// A cursor pins the current epoch of every shard its range touches when it
// is created and reads those versions, lock-free, for its whole life:
// concurrent Puts, Deletes, and batch commits neither block the cursor nor
// become visible to it, and the cursor never observes a partially-applied
// single-shard commit. The shard router is order-preserving — every key of
// shard i sorts before every key of shard i+1 — so the globally ordered
// stream is the shards read one after another: the cursor reads one shard's
// iterator, which keeps the root-to-leaf path to its position (no re-descent,
// no per-batch snapshot copying), and moves to the next shard when that one
// is exhausted.
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
	t *Tree
	// The substituted bounds, lo inclusive, hi exclusive, nil unbounded. They
	// are the substituter's results, kept as they are for the cursor's life
	// and dropped at Close.
	lo, hi []byte

	// The pinned run: one snapshot and its iterator per shard the range
	// covers, in shard (ascending substituted-key) order, shards[0] being the
	// shard that owns lo. A run of one shard, which every one-bucket range
	// is, lives in first, inside the Cursor's own allocation; a longer run
	// has a slice of its own. Empty if a snapshot could not be taken at
	// creation: err holds the reason and every positioning call reports it.
	shards []cursorShard
	first  [1]cursorShard
	cur    int // index into shards of the shard being read

	k, v   []byte
	valid  bool
	err    error // as the layer below reported it; Err maps it
	closed bool
}

// cursorShard is one shard's share of a cursor.
type cursorShard struct {
	snap engine.Snapshot
	it   btree.Iter
}

// Cursor returns a cursor over a snapshot of the whole tree, taken at this
// call: CursorRange(nil, nil). Position it with First or Seek before reading;
// Close it when done to release the snapshot.
func (t *Tree) Cursor() *Cursor {
	return t.CursorRange(nil, nil)
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
	s0, s1 := t.router.RouteRange(lo, hi)
	c := &Cursor{t: t, lo: lo, hi: hi}
	if s1 == s0 {
		c.shards = c.first[:]
	} else {
		c.shards = make([]cursorShard, s1-s0+1)
	}
	for i := range c.shards {
		snap, err := t.shards[s0+i].Snapshot()
		if err != nil {
			// Drop the pins taken so far and leave the cursor snapshot-less,
			// latching why: Err reports it now, and so does every later
			// positioning call.
			for j := range c.shards[:i] {
				c.shards[j].snap.Close()
			}
			c.shards, c.err = nil, err
			return c
		}
		c.shards[i] = cursorShard{snap: snap, it: snap.Iter(hi)}
	}
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

// seek positions the shard that owns from — never below lo, and clamped to
// the pinned run when at or above hi — and moves to the first entry at or
// after it. Later shards hold only larger keys, so each starts at its
// smallest key when the cursor reaches it.
func (c *Cursor) seek(from []byte) bool {
	c.valid, c.k, c.v = false, nil, nil
	if !c.usable() {
		return false
	}
	c.err = nil
	r := c.t.router
	c.cur = min(r.Route(from)-r.Route(c.lo), len(c.shards)-1)
	c.shards[c.cur].it.Seek(from)
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

// advance takes the next entry of the shard being read; when that shard is
// exhausted it goes on to the following one, and so past any empty shards.
// Only the last shard of the run can hold keys at or above hi, so an earlier
// iterator that stops has run out of keys.
func (c *Cursor) advance() bool {
	for {
		s := &c.shards[c.cur]
		if c.k, c.v, c.valid = s.it.Next(); c.valid {
			return true
		}
		if c.err = s.it.Err(); c.err != nil || c.cur == len(c.shards)-1 {
			return false
		}
		c.cur++
		c.shards[c.cur].it.Seek(nil)
	}
}

// usable checks the closed states and the snapshot-age bound, recording the
// appropriate sentinel error.
func (c *Cursor) usable() bool {
	if c.closed || c.t.closed() {
		c.err = ErrClosed
		return false
	}
	if len(c.shards) == 0 {
		return false // creation failed; c.err has held the reason since
	}
	if limit := c.t.maxEpochAge; limit > 0 {
		for i := range c.shards {
			if c.shards[i].snap.Age() > limit {
				c.err = ErrSnapshotTooOld
				return false
			}
		}
	}
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
	return engine.MapErr(c.err)
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
	for i := range c.shards {
		c.shards[i].snap.Close()
	}
	c.shards, c.first = nil, [1]cursorShard{}
	c.lo, c.hi = nil, nil
	c.k, c.v, c.valid = nil, nil, false
	return nil
}
