package file

import (
	"cmp"
	"slices"
)

// vacuumBatchBytes bounds the extents one vacuum flush copies, so a vacuum
// pass interleaves with foreground commits in modest slices instead of moving
// the whole tail of the file in one group.
const vacuumBatchBytes = 1 << 20

// liftPerHole is how many consecutive pages above one hole a lift flush
// evacuates: one round then grows the merged hole by several page-heights,
// and sub-page remainder holes migrate toward the frontier that much faster.
const liftPerHole = 8

// Vacuum relocates live page extents downward into free space and truncates
// the file, until the durable file end is at or below target bytes or no
// round can improve it further (target 0 compacts as far as the layout
// allows). Implements store.Vacuumer. Vacuum calls on one store run one at a
// time.
//
// Vacuum asks, the committer chooses: each step enqueues only the pass it
// wants, and the flush that carries it picks the pages (pass.choose) from the
// durable page map and free list that flush replaces, then copies each
// page's durable extent. The committer is the one goroutine that changes the
// durable state, recycles and truncates extents, so what it chooses cannot
// have gone stale and the copy needs no guard. Every step is thus an ordinary
// shadow-paged group commit whose copies are byte-identical to their sources:
// a crash at any byte of it leaves exactly the pre- or post-step state —
// which are the same LOGICAL state — and concurrent readers and writers
// proceed throughout, their commits coalescing into the same groups. A page
// the flushing group itself writes or frees is never moved: the group's own
// record wins.
//
// Each round has two phases. The PACK phase moves pages strictly downward
// into holes that fit them; a page that no hole below takes stays put, so
// each performed relocation strictly decreases the sum of live extent offsets
// and the phase terminates. Pack alone can strand arbitrary free space,
// though: with size-diverse pages a layout converges to holes each smaller
// than every page above them. The LIFT phase breaks that deadlock by
// evacuating the live extents sitting directly above the lowest holes to
// wherever normal allocation puts them — the frontier included — so each
// freed extent coalesces with its hole into one packing can use. Lift moves
// may grow the file transiently, and a round can make real progress without
// yet lowering the durable frontier — merging holes (fewer free extents) or
// migrating a sub-page remainder hole upward toward the frontier where
// truncation finally swallows it (higher hole offsets). The round loop
// therefore tracks the lexicographic progress triple (frontier, free-extent
// count, -sum of free-extent offsets) and stops after several consecutive
// rounds improve none of it; each component is bounded, so the pass
// terminates, with a generous absolute round cap as the backstop against a
// foreground write load that keeps reshaping the layout mid-pass.
func (s *Store) Vacuum(target int64) error {
	s.vacuuming.Lock()
	defer s.vacuuming.Unlock()
	if target < dataStart {
		target = dataStart
	}
	const maxRounds = 256
	bestEnd := int64(1)<<62 - 1
	bestFree, bestHoleSum := int(^uint(0)>>1), int64(-1)
	stale := 0
	for round := 0; round < maxRounds; round++ {
		// Pack: strictly-downward relocation until no step improves.
		for {
			moved, err := s.packStep(target)
			if err != nil {
				return err
			}
			if !moved {
				break
			}
		}
		end, nfree, holeSum, err := s.vacuumProgress()
		if err != nil {
			return err
		}
		if end <= target {
			return nil
		}
		switch {
		case end < bestEnd:
			bestEnd, bestFree, bestHoleSum, stale = end, nfree, holeSum, 0
		case end == bestEnd && nfree < bestFree:
			bestFree, bestHoleSum, stale = nfree, holeSum, 0
		case end == bestEnd && nfree == bestFree && holeSum > bestHoleSum:
			bestHoleSum, stale = holeSum, 0
		default:
			if stale++; stale >= 4 {
				return nil // this layout's floor
			}
		}
		lifted, err := s.relocate(pass{lift: true})
		if err != nil {
			return err
		}
		if lifted == 0 {
			return nil
		}
	}
	return nil
}

// vacuumProgress reads the durable frontier, free-extent count, and the sum
// of free-extent offsets — the components of Vacuum's progress measure —
// surfacing close/fail-stop.
func (s *Store) vacuumProgress() (end int64, nfree int, holeSum int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.usableLocked(); err != nil {
		return 0, 0, 0, err
	}
	for _, f := range s.free {
		holeSum += f.off
	}
	return s.fileEnd, len(s.free), holeSum, nil
}

// packStep runs one pack flush toward target, reporting whether it moved a
// page or the directory (so another step could still help).
func (s *Store) packStep(target int64) (bool, error) {
	end, _ := s.Space()
	if end <= target {
		return false, nil
	}
	relocated, err := s.relocate(pass{target: target})
	if err != nil || relocated > 0 {
		return relocated > 0, err
	}
	after, _ := s.Space() // no page moved, but the directory may have
	return after < end, nil
}

// relocate asks the next flush to run one vacuum pass, waits for that flush
// and reports how many pages it moved. It reads and writes no page itself and
// does not wait for group capacity — a pass has no payload.
//
// The error is the flush's, or else the first error the committer met reading
// a page's durable extent; that one skipped a move and left the store up.
func (s *Store) relocate(p pass) (relocated int, err error) {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	g := s.enqueueLocked(change{}) // joins the pending group, or starts one
	g.vacuum = &p
	s.force = true // a vacuum step flushes now in every mode
	s.mu.Unlock()
	s.wake()
	<-g.done
	if g.err != nil {
		return 0, g.err
	}
	return g.relocated, g.moveErr
}

// pass is what one vacuum step asks of the flush that carries it: pack the
// pages reaching past target toward the front, or lift.
type pass struct {
	lift   bool
	target int64 // pack only
}

// move is a page a flush chose to relocate, at its durable extent.
type move struct {
	id  uint64
	ext extent
}

// choose picks the pages a flush running p moves, in the order it tries them,
// from the durable page map and its free list, which is sorted by offset
// (coalesce and freeGaps both sort it). A page in skip — one the flushing
// group writes or frees — is never chosen. Choosing is pure: it reads its
// arguments and touches no file.
//
// Pack takes the pages that reach past the target and that some hole strictly
// below could hold, highest first: clearing the tail is what lets the
// frontier retreat and the truncate land. Lift takes up to liftPerHole pages
// directly above each hole, lowest holes first, since the deepest merges
// unlock the most packing; a hole with no page directly above it sits under
// the directory or the frontier, and the directory re-places itself on every
// vacuum flush anyway. Either stops at vacuumBatchBytes.
func (p pass) choose(pages map[uint64]extent, free []extent, skip map[uint64]gpage) []move {
	var batch []move
	total := 0
	if p.lift {
		starts := make(map[int64]move, len(pages))
		for id, e := range pages {
			// A zero-length page shares its offset and ends where it starts.
			if _, touched := skip[id]; !touched && e.len > 0 {
				starts[e.off] = move{id, e}
			}
		}
		for _, f := range free {
			at := f.end()
			for n := 0; n < liftPerHole && total < vacuumBatchBytes; n++ {
				m, ok := starts[at]
				if !ok {
					break
				}
				batch = append(batch, m)
				total += int(m.ext.len)
				at = m.ext.end()
			}
			if total >= vacuumBatchBytes {
				break
			}
		}
		return batch
	}
	var cands []move
	for id, e := range pages {
		if _, touched := skip[id]; !touched && e.end() > p.target {
			cands = append(cands, move{id, e})
		}
	}
	// Sweep the holes and the candidates upward by offset, tracking the
	// largest hole seen so far, then take the survivors from the top.
	slices.SortFunc(cands, func(a, b move) int { return cmp.Compare(a.ext.off, b.ext.off) })
	batch, fi, maxHole := cands[:0], 0, uint32(0)
	for _, c := range cands {
		for ; fi < len(free) && free[fi].off < c.ext.off; fi++ {
			maxHole = max(maxHole, free[fi].len)
		}
		if maxHole >= c.ext.len {
			batch = append(batch, c)
		}
	}
	slices.Reverse(batch)
	for i, c := range batch {
		if total += int(c.ext.len); total >= vacuumBatchBytes {
			return batch[:i+1]
		}
	}
	return batch
}
