package file

import (
	"cmp"
	"math"
	"math/bits"
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
// time. Every flush packs as much as it writes anyway (flushGroup); Vacuum is
// for the garbage no later flush paid down and for what only lift clears.
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

// pass is what a flush's vacuum step asks of it: pack the pages reaching past
// target toward the front, or lift, moving up to budget bytes and always at
// least one page. A Vacuum step names its pass (relocate), and every other
// flush packs on its own: it pays down the garbage it makes with at most the
// bytes it writes (see flushGroup).
type pass struct {
	lift   bool
	target int64 // pack only
	budget int   // zero means vacuumBatchBytes
}

// move is a page a flush chose to relocate, at its durable extent.
type move struct {
	id  uint64
	ext extent
}

// choose picks the pages a flush running p moves, in the order it tries them,
// from dir, the durable directory, and the holes avail has left once the
// flushing group's own pages are placed; pageBytes is the pages' summed
// length. A page in skip — one the flushing group writes or frees — is never
// chosen, so what dir says of every other page is what the page map says.
// With no hole left it chooses nothing and reads no page. Choosing touches no
// file, and it builds its answer in the committer's scratch (sc.holes,
// sc.moves), kept by keep.Room, so a steady-state flush's choice allocates
// nothing; the answer lives until the next choice.
//
// Pack takes the pages that reach past the target and that some hole strictly
// below could hold, highest first: clearing the tail is what lets the
// frontier retreat and the truncate land. Lift takes up to liftPerHole pages
// directly above each hole, lowest holes first, since the deepest merges
// unlock the most packing; a hole with no page directly above it sits under
// the directory or the frontier, and the directory re-places itself on every
// vacuum flush anyway. Either stops at the budget.
func (p pass) choose(dir []byte, pageBytes int64, avail *freeIndex, skip map[uint64]gpage, sc *scratch) []move {
	pages := pageTable(dir)
	n := pages.len()
	if avail.len() == 0 || n == 0 {
		return nil
	}
	budget := p.budget
	if budget == 0 {
		budget = vacuumBatchBytes
	}
	holes := avail.appendTo(sc.holes[:0])
	slices.SortFunc(holes, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	var batch []move
	if p.lift {
		batch = lift(pages, holes, skip, sc.moves[:0], budget)
		sc.moves = reuse(batch, len(batch))
	} else {
		// The holes take no more than they hold. The heap pack builds holds
		// about budget/mean pages, mean the mean page length: it is grown to
		// that at once rather than by doubling, and kept by that count, so a
		// flush whose choice came up short keeps the room the next one needs.
		room := 0
		for _, h := range holes {
			room += int(h.len)
		}
		budget = max(min(budget, room), 1)
		need := min(budget/max(int(pageBytes)/n, 1)+1, n)
		batch = pack(pages, holes, skip, slices.Grow(sc.moves[:0], need), p.target, budget)
		sc.moves = reuse(batch, need)
	}
	sc.holes = reuse(holes, len(holes))
	return batch
}

// lift appends to batch the pages directly above each hole of holes, which
// is sorted by offset.
func lift(pages table, holes []extent, skip map[uint64]gpage, batch []move, budget int) []move {
	starts := make(map[int64]move, pages.len())
	for i := range pages.len() {
		id, e := pages.id(i), pages.ext(i)
		// A zero-length page shares its offset and ends where it starts.
		if _, touched := skip[id]; !touched && e.len > 0 {
			starts[e.off] = move{id, e}
		}
	}
	total := 0
	for _, f := range holes {
		at := f.end()
		for n := 0; n < liftPerHole && total < budget; n++ {
			m, ok := starts[at]
			if !ok {
				break
			}
			batch = append(batch, m)
			total += int(m.ext.len)
			at = m.ext.end()
		}
		if total >= budget {
			break
		}
	}
	return batch
}

// pack appends to batch the highest pages ending past target that a hole
// strictly below could hold, highest first: budget bytes of them, but at
// least one page. It overwrites the lengths of holes, which is sorted by
// offset: each becomes the longest at or below its offset, so the holes below
// a page are one search away.
func pack(pages table, holes []extent, skip map[uint64]gpage, batch []move, target int64, budget int) []move {
	// lowest[b] is the offset of the lowest hole at least 1<<b long, so one
	// lookup settles whether a hole below a page fits it for most pages: a
	// page of [1<<b, 2<<b) bytes fits none at or below lowest[b] and fits the
	// one at lowest[b+1]. Only a page between the two is searched for.
	var lowest [34]int64
	b := 0
	for i := range holes {
		if i > 0 {
			holes[i].len = max(holes[i].len, holes[i-1].len)
		}
		for ; uint64(holes[i].len) >= 1<<b; b++ {
			lowest[b] = holes[i].off
		}
	}
	for ; b < len(lowest); b++ {
		lowest[b] = math.MaxInt64
	}
	// batch is a min-heap by offset of the highest candidates seen: the
	// fewest whose lengths reach the budget, so a lower candidate enters only
	// while they fall short of it.
	total := 0
	for i := range pages.len() {
		e := pages.ext(i)
		if e.len == 0 || e.end() <= target || total >= budget && e.off <= batch[0].ext.off {
			continue
		}
		c := bits.Len32(e.len) - 1
		if e.off <= lowest[c] {
			continue
		}
		id := pages.id(i)
		if _, touched := skip[id]; touched {
			continue
		}
		if e.off <= lowest[c+1] {
			below, _ := slices.BinarySearchFunc(holes, e.off, func(h extent, off int64) int { return cmp.Compare(h.off, off) })
			if holes[below-1].len < e.len {
				continue
			}
		}
		batch = pushMove(batch, move{id, e})
		for total += int(e.len); len(batch) > 1 && total-int(batch[0].ext.len) >= budget; {
			total -= int(batch[0].ext.len)
			batch = popMove(batch)
		}
	}
	if total > budget && len(batch) > 1 {
		batch = popMove(batch) // the lowest took the batch over the budget
	}
	slices.SortFunc(batch, func(a, b move) int { return cmp.Compare(b.ext.off, a.ext.off) })
	return batch
}

// pushMove and popMove keep h a min-heap by offset, as container/heap does
// but without boxing each move.
func pushMove(h []move, m move) []move {
	h = append(h, m)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].ext.off <= h[i].ext.off {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

func popMove(h []move) []move {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].ext.off < h[c].ext.off {
			c++
		}
		if h[i].ext.off <= h[c].ext.off {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}
