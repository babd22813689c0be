package ekbtree

import (
	"errors"
	"slices"
	"sync"

	"github.com/paper-repro/ekbtree/internal/btree"
)

// Batch stages a sequence of writes and applies them in one atomic-looking
// step per shard. During Commit the engine enters a staged write mode: every
// mutated B-tree page is kept decoded in memory and encoded+sealed exactly
// once when the batch flushes, instead of once per operation. For workloads
// that touch the same pages repeatedly — bulk loads, sorted ingest, delete
// sweeps — this removes the dominant per-operation cost (AES-GCM sealing and
// page encoding; BenchmarkPutSeqUnbatched vs BenchmarkPutSeqBatched).
//
// Operations are applied in the order they were staged, so a later Put or
// Delete of the same key wins. Staging (Put/Delete) routes each operation to
// its owning shard but does not touch the tree and never blocks; only Commit
// enters the shards' optimistic commit pipelines, where it may run
// concurrently with other committing batches and single mutations. A Batch
// is not safe for concurrent use by multiple goroutines.
//
// After Commit or Discard the batch is spent: further calls return ErrClosed.
//
// Staged keys and values are copied into the batch's slab: fixed-size chunks
// of slabChunk bytes, each op's substituted key and value cut from one side
// by side and clipped to their own lengths (an entry larger than a chunk is
// copied alone). A batch of small entries thus costs a handful of
// allocations instead of one an op, and the tree keeps the clipped slices as
// they are, so a committed entry shares its chunk with its batch neighbours:
// the chunk lives as long as any of them is held by a cached node or a
// snapshot. Commit and Discard drop the slab, so a spent Batch pins nothing.
type Batch struct {
	t    *Tree
	ops  []batchOp
	slab []byte // the current chunk; entries are appended up to its capacity
	done bool
}

// slabChunk is the size of a Batch's slab chunks. It is small so that a
// chunk kept alive by one committed entry strands little: 33 of the
// benchmark's entries (a 24-byte key and a 100-byte value) fill one.
const slabChunk = 4096

// opsRoom is the op capacity a batch starts with at its first staged op, so
// a batch of up to that many ops never regrows its op slice.
const opsRoom = 64

type batchOp struct {
	sk    []byte // substituted key, the batch's copy
	value []byte // nil for deletes
	shard int    // owning shard, routed at staging time
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
	b.stage(batchOp{sk: k, value: v, shard: b.t.router.Route(k)})
	return nil
}

// copyEntry copies sk and value side by side into the slab and returns the
// copies (see appendEntry). An entry larger than a chunk is copied alone.
func (b *Batch) copyEntry(sk, value []byte) (k, v []byte) {
	n := len(sk) + len(value)
	switch {
	case n > slabChunk:
		_, k, v = appendEntry(make([]byte, 0, n), sk, value)
		return k, v
	case n > cap(b.slab)-len(b.slab):
		b.slab = make([]byte, 0, slabChunk)
	}
	b.slab, k, v = appendEntry(b.slab, sk, value)
	return k, v
}

// stage appends op, giving a batch's first op room for opsRoom.
func (b *Batch) stage(op batchOp) {
	if b.ops == nil {
		b.ops = make([]batchOp, 0, opsRoom)
	}
	b.ops = append(b.ops, op)
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
	b.stage(batchOp{sk: k, del: true, shard: b.t.router.Route(k)})
	return nil
}

// Len returns the number of staged operations.
func (b *Batch) Len() int {
	return len(b.ops)
}

// Commit applies all staged operations, one optimistic transaction PER SHARD
// the batch touches, sealing each touched page once and publishing each
// shard's slice as ONE new epoch on that shard. Within a shard the batch
// keeps the full single-tree guarantee: a concurrent reader or cursor either
// observes that shard from before the batch or after all of its slice, never
// a half-applied state. ACROSS shards the batch is NOT atomic — the
// per-shard commits run in parallel (each down its own committer and fsync
// stream; that parallelism is where sharded ingest throughput comes from),
// so a reader may observe one shard's slice before another's lands, and an
// error on one shard does not roll back the slices that already committed.
// Operations for the same shard preserve their staging order, so a later Put
// or Delete of the same key still wins. On an unsharded tree (Shards = 1)
// Commit is exactly the old single-epoch atomic batch.
//
// Readers are not blocked while Commit runs — they keep reading each shard's
// previous epoch until that shard's flip — and neither are other writers:
// concurrent Commits validate their page-level read-sets against each other
// and only a genuine overlap forces one of them to re-run. Such conflicts
// are resolved INSIDE Commit: the losing transaction discards its private
// clones and re-applies its staged operations against the new shard tip
// (with bounded backoff, escalating to an exclusive pass after repeated
// conflicts, so even a large batch racing a storm of small puts commits
// within a bounded number of re-executions). No conflict error ever reaches
// the caller, and because each re-execution replays the same staged
// operations on fresh state, retried commits are exactly as atomic and
// ordered as first-try ones. The batch is spent either way.
//
// Each per-shard flush hands every sealed page, the shard's new root, and
// the freed page IDs to that store's CommitPages hook in one call: the
// page store enqueues it on the group-commit pipeline — the slice lands in one
// coalesced shadow-paged flush, so a crash or I/O error at any point leaves
// each shard at exactly its pre- or post-commit state, never torn. What a
// successful Commit means for durability follows the tree's
// Options.Durability: under DurabilityFull every slice is on disk when
// Commit returns; under DurabilityGrouped or DurabilityAsync the slices are
// applied and queued, and Tree.Sync (or Close) is the durability barrier. A
// shard whose store fails its slice stops taking writes: the slice stays
// invisible, this and every later commit to that shard return the store's
// error, and reopening the tree recovers the shard's last durable state —
// with or without the failed slice, which the store may have made durable
// before it failed. Retrying belongs after the reopen. Other shards' slices
// are unaffected.
func (b *Batch) Commit() error {
	if b.done {
		return ErrClosed
	}
	b.done = true
	ops := b.ops
	b.ops, b.slab = nil, nil
	if len(ops) == 0 {
		return nil
	}
	// A batch whose every op routes to one shard — any batch on an unsharded
	// tree — is one commit, made here on the caller's goroutine.
	first := ops[0].shard
	if !slices.ContainsFunc(ops, func(op batchOp) bool { return op.shard != first }) {
		return b.commitShard(first, ops)
	}
	// Otherwise partition the staged sequence by owning shard, preserving
	// order within each shard, and fan out: one OCC commit per shard, in
	// parallel. Shards are fully independent engines, so the commits share no
	// locks and their store flushes overlap.
	perShard := make([][]batchOp, len(b.t.shards))
	for _, op := range ops {
		perShard[op.shard] = append(perShard[op.shard], op)
	}
	errs := make([]error, len(b.t.shards))
	var wg sync.WaitGroup
	for shard, slice := range perShard {
		if len(slice) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, slice []batchOp) {
			defer wg.Done()
			errs[shard] = b.commitShard(shard, slice)
		}(shard, slice)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// commitShard runs one shard's slice of the batch through that shard's
// optimistic commit pipeline. The closure may run more than once (conflict
// retries re-execute it on a fresh transaction); the slice is immutable from
// here, so every execution replays the identical sequence.
func (b *Batch) commitShard(shard int, slice []batchOp) error {
	return b.t.shards[shard].Apply(func(bt *btree.Tree) error {
		for _, op := range slice {
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
	b.ops, b.slab = nil, nil
}
