package engine

import (
	"errors"
	"fmt"
	"sync"

	"github.com/paper-repro/ekbtree/internal/store"
)

// sealReserveChunk is how many counters one reservation covers. The recorded
// high-water mark always runs at least this far ahead of the counters
// actually issued, so reopening after a crash skips at most one chunk of
// nonce space per generation — a rounding error against the budget — and
// steady-state sealing records one mark per chunk, not per commit. Recording
// one is a plain SetSealMark, which flushes no pending page. Off Full
// durability it waits on no I/O either; at Full the file store makes every
// change wait for its own flush, so a reservation costs one header-only
// flush: 7 040 single-Put commits that crossed 3 reservations (12 289 seals)
// took 7 043 flushes.
const sealReserveChunk = 4096

// DefaultHardSealLimit is the per-epoch counter value at which writes fail
// closed when no hard limit is configured: the classic 2^32 AES-GCM bound.
// With counter nonces the real collision bound is 2^64 per epoch, so this is
// deeply conservative — it exists so that a deployment that disables rotation
// still can never drift into territory the cipher's security proofs have
// opinions about.
const DefaultHardSealLimit = 1 << 32

// maxCounterSpace is the ceiling every hard seal limit is clamped to: no
// epoch issues 2^56 counters, far past any budget worth setting, so the top
// byte of every counter an engine issues is zero.
const maxCounterSpace = 1 << 56

// sealAlloc hands out the collision-free (epoch, counter) pairs every page
// seal runs under and owns the engine's seal mark. The invariant it
// maintains: before any counter is handed to a sealer, a mark covering it has
// been recorded with SetSealMark. Sealed bytes reach the file's data region
// even for commits a crash will discard — a flush writes pages before its
// slot flip — so the mark must outrun every counter that could possibly hit
// the platter, not just the committed ones. The store keeps that half of the
// bargain: a mark is durable before any page committed after it reaches the
// file (store.PageStore.SetSealMark), and every page sealed under a
// reservation is committed after the mark that made it.
type sealAlloc struct {
	st        store.PageStore
	budget    uint64 // soft per-epoch budget; crossing it advances the epoch. 0 = never advance.
	hard      uint64 // fail-closed bound; counters never reach it
	onAdvance func(epoch uint32)

	mu       sync.Mutex
	epoch    uint32
	clean    uint32 // newest epoch verified fully re-sealed (<= epoch)
	next     uint64 // next unissued counter within epoch
	reserved uint64 // recorded reservation high-water mark
}

// newSealAlloc seeds the allocator from the store's persisted mark and
// immediately re-reserves: counters in [mark.Counter-chunk, mark.Counter) may
// have been issued by the previous generation (the mark is a high-water mark,
// not an exact count), so issuance resumes at mark.Counter, never below it.
func newSealAlloc(st store.PageStore, budget, hard uint64, onAdvance func(uint32)) (*sealAlloc, error) {
	if hard == 0 {
		hard = DefaultHardSealLimit
	}
	if hard > maxCounterSpace {
		hard = maxCounterSpace
	}
	mark, err := st.SealMark()
	if err != nil {
		return nil, err
	}
	return &sealAlloc{
		st:        st,
		budget:    budget,
		hard:      hard,
		onAdvance: onAdvance,
		epoch:     mark.Epoch,
		clean:     mark.Clean,
		next:      mark.Counter,
		reserved:  mark.Counter,
	}, nil
}

// persistLocked records the current (epoch, clean, reserved) with the store.
// Callers hold sa.mu.
func (sa *sealAlloc) persistLocked() error {
	return sa.st.SetSealMark(store.SealMark{Epoch: sa.epoch, Clean: sa.clean, Counter: sa.reserved})
}

// advanceLocked opens the next epoch with a reservation covering its first n
// counters. The mark must record the new epoch (with a fresh reservation)
// before any of its counters are issued — a crash that kept a page sealed
// under the new epoch but not the mark would otherwise reopen at the old
// epoch, later advance again, and replay the new epoch's counters from zero.
// If the store refuses the mark the allocator is left as it was. Callers hold
// sa.mu, have checked that the epoch space is not spent, and fire onAdvance
// once they drop the lock.
func (sa *sealAlloc) advanceLocked(n uint64) error {
	prevEpoch, prevNext, prevReserved := sa.epoch, sa.next, sa.reserved
	sa.epoch++
	sa.next = 0
	sa.reserved = min(sealReserveChunk+n, sa.hard)
	if err := sa.persistLocked(); err != nil {
		sa.epoch, sa.next, sa.reserved = prevEpoch, prevNext, prevReserved
		return err
	}
	return nil
}

// take allocates n consecutive counters in the current epoch, returning the
// epoch and the first counter (the caller uses start+i for page i). Crossing the soft budget advances the epoch first — the new
// epoch's reservation is recorded before its first counter leaves — and
// reaching the hard bound fails closed with ErrSealsExhausted.
func (sa *sealAlloc) take(n int) (uint32, uint64, error) {
	sa.mu.Lock()
	var advanced uint32
	epoch, start, err := func() (uint32, uint64, error) {
		if sa.budget > 0 && sa.next >= sa.budget && sa.epoch < ^uint32(0) {
			if err := sa.advanceLocked(uint64(n)); err != nil {
				return 0, 0, err
			}
			advanced = sa.epoch
		}
		if uint64(n) > sa.hard || sa.next > sa.hard-uint64(n) {
			return 0, 0, fmt.Errorf("%w: epoch %d counter %d + %d pages exceeds the hard bound %d",
				ErrSealsExhausted, sa.epoch, sa.next, n, sa.hard)
		}
		if sa.next+uint64(n) > sa.reserved {
			prev := sa.reserved
			sa.reserved = min(sa.next+uint64(n)+sealReserveChunk, sa.hard)
			if err := sa.persistLocked(); err != nil {
				sa.reserved = prev
				return 0, 0, err
			}
		}
		start := sa.next
		sa.next += uint64(n)
		return sa.epoch, start, nil
	}()
	sa.mu.Unlock()
	if advanced != 0 && sa.onAdvance != nil {
		sa.onAdvance(advanced)
	}
	return epoch, start, err
}

// currentEpoch returns the epoch new seals are issued under.
func (sa *sealAlloc) currentEpoch() uint32 {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.epoch
}

// state snapshots (epoch, clean, issued-in-epoch) for Stats.
func (sa *sealAlloc) state() (epoch, clean uint32, issued uint64) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.epoch, sa.clean, sa.next
}

// markClean records that every live page has been verified sealed at epoch
// (or newer). The clean mark is an optimization — it lets Open, Stats, and
// the rotator skip full-tree sweeps — and losing it to a crash merely costs
// one re-verification sweep. It reserves nothing, so the store makes it
// durable with the next flush and no sooner.
func (sa *sealAlloc) markClean(epoch uint32) error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if epoch <= sa.clean {
		return nil
	}
	sa.clean = epoch
	return sa.persistLocked()
}

// cleanAtLeast reports whether every live page is known sealed at epoch or
// newer.
func (sa *sealAlloc) cleanAtLeast(epoch uint32) bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.clean >= epoch
}

// AdvanceEpoch forces an epoch advance regardless of the soft budget, as if
// the budget had just been crossed: the new epoch's reservation is recorded
// before the call returns, and the store makes it durable before any page
// sealed under it reaches the file (Sync makes it durable outright). The
// façade uses it for operator-driven rotation ("rotate now", not "rotate at
// the budget").
func (g *Engine) AdvanceEpoch() error {
	sa := g.sa
	sa.mu.Lock()
	if sa.epoch == ^uint32(0) {
		sa.mu.Unlock()
		return fmt.Errorf("%w: epoch space exhausted", ErrSealsExhausted)
	}
	err := sa.advanceLocked(0)
	advanced := sa.epoch
	sa.mu.Unlock()
	if err != nil {
		return MapErr(err)
	}
	if sa.onAdvance != nil {
		sa.onAdvance(advanced)
	}
	return nil
}

// SealState reports the cipher-lifecycle counters for Stats: the current key
// epoch and how many seals it has issued.
func (g *Engine) SealState() (epoch uint32, seals uint64) {
	e, _, issued := g.sa.state()
	return e, issued
}

// rotateBatch is how many pages one rotation commit re-seals. Small enough
// that a rotation commit holds the write turn only briefly; large
// enough to amortize the commit's store round trip.
const rotateBatch = 64

// staleScan walks one pinned snapshot of the tree and returns the IDs of
// every reachable page whose view reports a seal older than target
// (node.Node.SealedEpoch: the epoch its read took from the nonce prefix, or
// its commit sealed it under). It never under-reports: a page a commit
// rewrote after the pin is read as its pre-image, whose seal is no newer than
// the page's, so the scan may report a page the commit just re-sealed, which
// the re-seal then rewrites once more, or skips if it was freed. Rotate scans
// again after every re-seal sweep.
func (g *Engine) staleScan(target uint32) ([]uint64, error) {
	e, err := g.es.pin()
	if err != nil {
		return nil, err
	}
	defer g.es.release()
	if e.root == store.NoRoot {
		return nil, nil
	}
	var stale []uint64
	stack := []uint64{e.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := e.Read(id)
		if err != nil {
			return nil, MapErr(err)
		}
		if !n.Leaf {
			for i := range n.Len() + 1 {
				stack = append(stack, n.Child(i))
			}
		}
		if n.SealedEpoch() < target {
			stale = append(stale, id)
		}
	}
	return stale, nil
}

// resealPages re-seals the given pages under the current epoch as one
// ordinary shadow-paged commit: edit, restage identical content, commit.
// Crash-safety needs no new machinery — the commit is indistinguishable from
// a writer rewriting the pages, so a crash at any byte yields the normal
// pre-or-post-commit state. Pages freed by concurrent commits are skipped;
// page IDs are never reused, so ErrNotFound is always "this page is gone",
// never "this ID means something else now".
func (g *Engine) resealPages(ids []uint64) error {
	return g.applyTxn(func(tx *writeTxn) error {
		for _, id := range ids {
			n, err := tx.Edit(id)
			if err != nil {
				if errors.Is(err, store.ErrNotFound) {
					continue
				}
				return err
			}
			if err := tx.Write(id, n); err != nil {
				return err
			}
		}
		return nil
	})
}

// Rotate runs one full re-seal sweep toward the current epoch: it scans a
// snapshot for pages still sealed under older epochs and rewrites them,
// rotateBatch pages per commit. It returns done=true when a sweep found
// nothing stale (recording the clean epoch so the next call is O(1)) and the
// epoch did not advance mid-sweep; done=false means call again — more pages
// may have gone stale behind the scan. Safe to run concurrently with writers
// (rotation commits take the write turn like any other); the façade
// serializes Rotate calls per engine in its rotator goroutine.
func (g *Engine) Rotate() (bool, error) {
	target := g.sa.currentEpoch()
	if g.sa.cleanAtLeast(target) {
		return true, nil
	}
	stale, err := g.staleScan(target)
	if err != nil {
		return false, err
	}
	if len(stale) == 0 {
		if err := g.sa.markClean(target); err != nil {
			return false, MapErr(err)
		}
		return g.sa.currentEpoch() == target, nil
	}
	for i := 0; i < len(stale); i += rotateBatch {
		end := min(i+rotateBatch, len(stale))
		if err := g.resealPages(stale[i:end]); err != nil {
			return false, err
		}
	}
	return false, nil
}

// PendingReseal counts live pages still sealed under an epoch older than the
// current one. O(1) when the rotator has caught up (the persisted clean mark
// answers without a walk); during rotation it is a full O(nodes) sweep, the
// same order as the shape walk Stats already does.
func (g *Engine) PendingReseal() (int, error) {
	target := g.sa.currentEpoch()
	if g.sa.cleanAtLeast(target) {
		return 0, nil
	}
	stale, err := g.staleScan(target)
	if err != nil {
		return 0, err
	}
	return len(stale), nil
}
