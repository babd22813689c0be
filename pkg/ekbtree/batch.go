package ekbtree

import (
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/israce"
	"github.com/paper-repro/ekbtree/internal/keep"
)

// Batch stages a sequence of writes and applies them in one atomic step.
// During Commit the engine enters a staged write mode: every mutated B-tree
// page is kept decoded in memory and encoded+sealed exactly once when the
// batch flushes, instead of once per operation. For workloads that touch the
// same pages repeatedly — bulk loads, sorted ingest, delete sweeps — this
// removes the dominant per-operation cost (AES-GCM sealing and page encoding;
// BenchmarkPutSeqUnbatched vs BenchmarkPutSeqBatched).
//
// Operations are applied in the order they were staged, so a later Put or
// Delete of the same key wins. Staging (Put/Delete) substitutes each key but
// does not touch the tree and never blocks; only Commit takes the write turn,
// where it may share one store commit with other batches and single
// mutations queued alongside it. A Batch is not safe for concurrent use by
// multiple goroutines.
//
// After Commit or Discard the batch is spent: further calls return ErrClosed.
//
// Staged keys and values are copied into the batch's slab: fixed-size chunks
// of slabChunk bytes, each op's substituted key and value cut from one side
// by side and clipped to their own lengths (an entry larger than a chunk is
// copied alone). A batch of small entries thus costs a handful of chunks
// instead of one allocation an op. The tree copies what it commits into the
// pages it seals and caches only views of those pages, so no committed entry
// holds the slab once Commit returns: the slab and the op slice are scratch
// the Tree lends the batch at its first staged op and takes back when Commit
// (after any replay of a shared transaction that failed) or Discard returns.
// The Tree keeps one such scratch, with what keep.Room allows for the room a
// batch starts with (see slabKeep), so a steady stream of batches stages
// without allocating and a bulk load pins no more than that once it has
// committed. A spent Batch pins nothing.
type Batch struct {
	t    *Tree
	sc   *batchScratch // the tree's scratch, borrowed at the first staged op
	ops  []batchOp
	slab []byte // the current chunk; entries are appended up to its capacity
	done bool
}

// slabChunk is the size of a Batch's slab chunks: 33 of the benchmark's
// entries (a 24-byte key and a 100-byte value) fill one.
const slabChunk = 4096

// opsRoom is the op capacity a batch starts with at its first staged op, so
// a batch of up to that many ops never regrows its op slice.
const opsRoom = 64

// slabKeep and opsKeep bound the scratch a Tree keeps between batches by the
// write path's one rule, applied to the room a batch starts with (one chunk,
// opsRoom ops) since a tree cannot know its next batch's size: the first
// chunks a batch fills up to what keep.Room allows for one chunk's bytes (4
// chunks), and its op slice if it has no more room than keep.Room allows for
// opsRoom ops (256). Chunks and ops past them are the batch's alone.
var (
	slabKeep = keep.Room(slabChunk, 1) / slabChunk
	opsKeep  = keep.Room(opsRoom, int(unsafe.Sizeof(batchOp{})))
)

// batchScratch is the staging memory a Tree lends its batches: an op slice
// and up to slabKeep slab chunks, kept empty (len 0) between batches. used
// counts the chunks the borrowing batch has taken.
type batchScratch struct {
	ops    []batchOp
	chunks [][]byte
	used   int
}

type batchOp struct {
	sk    []byte // substituted key, the batch's copy
	value []byte // nil for deletes
	del   bool
}

// NewBatch returns an empty write batch against the tree.
func (t *Tree) NewBatch() *Batch {
	return &Batch{t: t}
}

// Put stages storing value under key. Both slices are copied (key via its
// substitution) into the slab; the caller keeps ownership and may reuse them
// immediately.
func (b *Batch) Put(key, value []byte) error {
	if b.done {
		return ErrClosed
	}
	sk, err := b.t.substituteKey(key)
	if err != nil {
		return err
	}
	if err := checkValueSize(value); err != nil {
		return err
	}
	k, v := b.copyEntry(sk, value)
	b.stage(batchOp{sk: k, value: v})
	return nil
}

// copyEntry copies sk and value side by side into the slab and returns the
// copies (see appendEntry). An entry larger than a chunk is copied alone.
func (b *Batch) copyEntry(sk, value []byte) (k, v []byte) {
	n := len(sk) + len(value)
	switch {
	case n > slabChunk:
		_, k, v = appendEntry(b.refill(n), sk, value)
		return k, v
	case n > cap(b.slab)-len(b.slab):
		b.slab = b.refill(n)
	}
	b.slab, k, v = appendEntry(b.slab, sk, value)
	return k, v
}

// refill returns an empty chunk with room for an n-byte entry: for an entry
// up to slabChunk bytes the scratch's next chunk, made on its first use; for
// a larger one, or once the scratch's chunks are all taken, a chunk of the
// batch's own.
func (b *Batch) refill(n int) []byte {
	sc := b.scratch()
	kept := n <= slabChunk && sc.used < slabKeep
	if kept && sc.used < len(sc.chunks) {
		sc.used++
		return sc.chunks[sc.used-1]
	}
	c := make([]byte, 0, max(n, slabChunk))
	if kept {
		sc.chunks = append(sc.chunks, c)
		sc.used++
	}
	return c
}

// scratch returns the batch's scratch, borrowing the tree's at the first
// call: a batch staged while another holds it gets a fresh one, which the
// tree keeps in its place when that batch is spent.
func (b *Batch) scratch() *batchScratch {
	if b.sc == nil {
		if b.sc = b.t.scratch.Swap(nil); b.sc == nil {
			b.sc = new(batchScratch)
		}
	}
	return b.sc
}

// stage appends op, giving a batch's first op room for opsRoom.
func (b *Batch) stage(op batchOp) {
	if b.ops == nil {
		b.ops = b.scratch().ops
		if b.ops == nil {
			b.ops = make([]batchOp, 0, opsRoom)
		}
	}
	b.ops = append(b.ops, op)
}

// release gives the scratch back to the tree, once nothing reads a staged op
// or the slab any more: the ops cleared, so they pin no chunk of the batch's
// own, and the chunks overwritten with a fixed pattern under the race
// detector, so a reader the commit missed races with the overwrite and reads
// no entry. The batch is left holding nothing.
func (b *Batch) release() {
	sc, ops := b.sc, b.ops
	b.sc, b.ops, b.slab = nil, nil, nil
	if sc == nil {
		return
	}
	sc.ops = nil
	if cap(ops) <= opsKeep {
		clear(ops)
		sc.ops = ops[:0]
	}
	if israce.Enabled {
		for _, c := range sc.chunks[:sc.used] {
			c = c[:cap(c)]
			for i := range c {
				c[i] = 0xA5
			}
		}
	}
	sc.used = 0
	b.t.scratch.Store(sc)
}

// Delete stages removing key. Deleting an absent key is not an error.
func (b *Batch) Delete(key []byte) error {
	if b.done {
		return ErrClosed
	}
	sk, err := b.t.substituteKey(key)
	if err != nil {
		return err
	}
	k, _ := b.copyEntry(sk, nil)
	b.stage(batchOp{sk: k, del: true})
	return nil
}

// Len returns the number of staged operations.
func (b *Batch) Len() int {
	return len(b.ops)
}

// Commit applies all staged operations as one transaction, sealing each
// touched page once and publishing the whole batch as ONE new epoch: a
// concurrent reader or cursor observes the tree either from before the batch
// or after all of it, never a half-applied state.
//
// Readers are not blocked while Commit runs — they keep reading the previous
// epoch until the flip. Writers take turns: a Commit that finds the write
// turn held queues, and the holder applies the batch in its own transaction,
// after its own mutation and before the store sees either, so the two
// publish as one epoch. If that shared transaction fails before reaching the
// store, each mutation in it is applied again alone, replaying the same
// staged operations on fresh state, so it is exactly as atomic and ordered as
// a batch committed alone. The batch is spent either way.
//
// The flush hands every sealed page, the new root, and the freed page IDs to
// the store's CommitPages hook in one call: the page store enqueues it on the
// group-commit pipeline — the batch lands in one coalesced shadow-paged
// flush, so a crash or I/O error at any point leaves the tree at exactly its
// pre- or post-commit state, never torn. What a successful Commit means for
// durability follows the tree's Options.Durability: under DurabilityFull the
// batch is on disk when Commit returns; under DurabilityGrouped or
// DurabilityAsync it is applied and queued, and Tree.Sync (or Close) is the
// durability barrier. A store that fails the batch stops the tree's writes:
// the batch stays invisible, this and every later commit return the store's
// error, and reopening the tree recovers its last durable state — with or
// without the failed batch, which the store may have made durable before it
// failed. Retrying belongs after the reopen.
func (b *Batch) Commit() error {
	if b.done {
		return ErrClosed
	}
	b.done = true
	defer b.release()
	ops := b.ops
	if len(ops) == 0 {
		return nil
	}
	// The closure may run twice (a shared transaction that fails before the
	// store re-runs each of its mutations alone); ops is immutable from here,
	// so every execution replays the identical sequence. Apply returns only
	// once no execution is left, and only then does the scratch go back.
	return b.t.eng.Apply(func(bt *btree.Tree) error {
		for _, op := range ops {
			var err error
			if op.del {
				_, err = bt.Delete(op.sk)
			} else {
				err = bt.Put(op.sk, op.value)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// Discard drops all staged operations without applying them. The batch is
// spent afterwards. Discarding a spent batch is a no-op.
func (b *Batch) Discard() {
	b.done = true
	b.release()
}
