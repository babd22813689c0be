package file

import "sort"

// vacuumBatchBytes bounds the extents one relocation batch asks a flush to
// copy, so a vacuum pass interleaves with foreground commits in modest slices
// instead of moving the whole tail of the file in one group.
const vacuumBatchBytes = 1 << 20

// Vacuum relocates live page extents downward into free space and truncates
// the file, until the durable file end is at or below target bytes or no
// round can improve it further (target 0 compacts as far as the layout
// allows). Implements store.Vacuumer.
//
// Vacuum asks, the committer moves: Vacuum only SELECTS pages, reading the
// durable page map and free list under the read lock, and hands the next
// flush their IDs; the committer — the one goroutine that recycles and
// truncates extents, so the one that can read an extent with no guard —
// copies each page's durable extent as part of that flush. Every relocation
// batch is thus an ordinary shadow-paged group commit whose copies are
// byte-identical to their sources: a crash at any byte of it leaves exactly
// the pre- or post-batch state — which are the same LOGICAL state — and
// concurrent readers and writers proceed throughout, their commits coalescing
// into the same groups. A selection the foreground overtakes is harmless: the
// flush looks each ID up afresh and drops the move of a page its group wrote
// or freed (the newer content wins and lands wherever its own write puts it)
// or that is gone. Pages with an in-flight overlay write are not selected.
//
// Each round has two phases. The PACK phase moves pages strictly downward
// into holes that fit them; a move that cannot take its page toward the
// front is dropped at flush time, so each performed relocation strictly
// decreases the sum of live extent offsets and the phase terminates. Pack
// alone can strand arbitrary free space, though: with size-diverse pages a
// layout converges to holes each smaller than every page above them. The
// LIFT phase breaks that deadlock by evacuating the live extent sitting
// directly above the lowest holes to wherever normal allocation puts it —
// the frontier included — so the freed extent coalesces with its hole into
// one packing can use. Lift moves may grow the file transiently, and a round
// can make real progress without yet lowering the durable frontier — merging
// holes (fewer free extents) or migrating a sub-page remainder hole upward
// toward the frontier where truncation finally swallows it (higher hole
// offsets). The round loop therefore tracks the lexicographic progress
// triple (frontier, free-extent count, -sum of free-extent offsets) and
// stops after several consecutive rounds improve none of it; each component
// is bounded, so the pass terminates, with a generous absolute round cap as
// the backstop against a foreground write load that keeps reshaping the
// layout mid-pass.
func (s *Store) Vacuum(target int64) error {
	if target < dataStart {
		target = dataStart
	}
	const maxRounds = 256
	bestEnd := int64(1)<<62 - 1
	bestFree, bestHoleSum := int(^uint(0)>>1), int64(-1)
	stale := 0
	for round := 0; round < maxRounds; round++ {
		// Pack: strictly-downward relocation until no batch improves.
		for {
			moved, err := s.vacuumStep(target)
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
		lifted, err := s.liftStep()
		if err != nil {
			return err
		}
		if !lifted {
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

// vacuumStep relocates one batch, reporting whether it moved anything (so
// the caller knows another step could still help).
func (s *Store) vacuumStep(target int64) (bool, error) {
	// Select from the durable tail: the pages whose extents reach past target,
	// highest offsets first — clearing the tail is what lets the frontier
	// retreat and the truncate land. Pages with overlay state (pending/flushing
	// writes or frees) are in flight and skipped.
	s.mu.RLock()
	if err := s.usableLocked(); err != nil {
		s.mu.RUnlock()
		return false, err
	}
	if s.fileEnd <= target {
		s.mu.RUnlock()
		return false, nil
	}
	type cand struct { // a page and the extent it is selected at
		id  uint64
		ext extent
	}
	var cands []cand
	for id, e := range s.pages {
		if e.end() > target && s.vacuumQuietLocked(id) {
			cands = append(cands, cand{id, e})
		}
	}
	// No movable pages past target doesn't mean the tail is clear: the
	// directory blob can still hold the frontier up. A page-less vacuum flush
	// re-places the directory (flushGroup only ever lets it DESCEND) and
	// retreats the frontier — but it's only worth a flush when the durable free
	// list shows a hole the directory fits in strictly below its current
	// extent; otherwise the flush would just shuffle the directory between
	// equal-height holes forever.
	dirDescend := false
	for _, e := range s.free {
		if e.len >= s.dirExt.len && e.off < s.dirExt.off {
			dirDescend = true
			break
		}
	}
	frees := append([]extent(nil), s.free...)
	preEnd := s.fileEnd
	s.mu.RUnlock()

	// Keep only candidates some durable free hole strictly below them can
	// actually fit: sweep frees and candidates upward by offset, tracking the
	// largest hole seen so far. Candidates may still compete for the same hole
	// at flush time — losers are dropped there — but whenever this filter
	// passes anything, the flush relocates at least one page, and a
	// fully-compacted store never pays for a no-op flush.
	sort.Slice(frees, func(i, j int) bool { return frees[i].off < frees[j].off })
	sort.Slice(cands, func(i, j int) bool { return cands[i].ext.off < cands[j].ext.off })
	movable, fi, maxHole := cands[:0], 0, uint32(0)
	for _, c := range cands {
		for fi < len(frees) && frees[fi].off < c.ext.off {
			if frees[fi].len > maxHole {
				maxHole = frees[fi].len
			}
			fi++
		}
		if maxHole >= c.ext.len {
			movable = append(movable, c)
		}
	}
	cands = movable
	if len(cands) == 0 && !dirDescend {
		return false, nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ext.off > cands[j].ext.off })
	var batch []uint64
	total := 0
	for _, c := range cands {
		batch = append(batch, c.id)
		if total += int(c.ext.len); total >= vacuumBatchBytes {
			break
		}
	}

	relocated, err := s.relocate(batch, false)
	if err != nil || relocated > 0 {
		return relocated > 0, err
	}
	end, _ := s.Space() // no page moved, but the directory may have
	return end < preEnd, nil
}

// liftStep relocates one batch of "stuck" pages — each the live extent
// sitting directly above a free hole — to wherever allocation puts them
// (allocBelow when something fits, the frontier otherwise), so each freed
// extent coalesces with its hole and the pack phase gets holes it can use.
// Reports whether it moved anything. Same discipline as vacuumStep:
// durable-state selection under RLock, then relocate.
func (s *Store) liftStep() (bool, error) {
	s.mu.RLock()
	if err := s.usableLocked(); err != nil {
		s.mu.RUnlock()
		return false, err
	}
	starts := make(map[int64]uint64, len(s.pages))
	for id, e := range s.pages {
		starts[e.off] = id
	}
	frees := append([]extent(nil), s.free...)
	sort.Slice(frees, func(i, j int) bool { return frees[i].off < frees[j].off })
	// Lowest holes first: the deepest merges unlock the most packing. A hole
	// with no page directly above it sits under the directory, the frontier, or
	// an in-flight extent — skip it; the directory re-places itself on every
	// vacuum flush anyway. Walk up to a few consecutive pages above each hole
	// so one round grows the merged hole by several page-heights — sub-page
	// remainder holes migrate toward the frontier that much faster.
	const liftPerHole = 8
	var batch []uint64
	total := 0
	for _, f := range frees {
		at := f.end()
		for n := 0; n < liftPerHole && total < vacuumBatchBytes; n++ {
			id, ok := starts[at]
			if !ok || !s.vacuumQuietLocked(id) {
				break
			}
			e := s.pages[id]
			batch = append(batch, id)
			total += int(e.len)
			at = e.end()
		}
		if total >= vacuumBatchBytes {
			break
		}
	}
	s.mu.RUnlock()
	if len(batch) == 0 {
		return false, nil
	}
	relocated, err := s.relocate(batch, true)
	return relocated > 0, err
}

// relocate is the second half of a vacuum step: it asks the next flush to move
// the selected pages (lift lets a move land anywhere; an empty batch still
// flushes a vacuum group, to re-place the directory), waits for that flush and
// reports how many moves it performed. It reads and writes no page itself and
// does not wait for group capacity — a move has no payload. The IDs need not
// still be what selection saw: the flush drops whichever are stale (see
// flushGroup), so there is nothing to re-validate here and nothing to retry.
//
// The error is the flush's, or else the first error the committer met reading
// a page's durable extent; that one skipped a move and left the store up.
func (s *Store) relocate(ids []uint64, lift bool) (relocated int, err error) {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	g := s.enqueueLocked(change{vacuum: true, moves: ids, lift: lift})
	s.force = true // a relocation batch flushes now in every mode
	s.mu.Unlock()
	s.wake()
	<-g.done
	if g.err != nil {
		return 0, g.err
	}
	return g.relocated, g.moveErr
}

// vacuumQuietLocked reports whether id has no in-flight overlay state.
// Callers hold s.mu (either mode).
func (s *Store) vacuumQuietLocked(id uint64) bool {
	_, ok := s.overlayLocked(id)
	return !ok
}
