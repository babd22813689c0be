package file

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
)

// rootUnchanged is the internal sentinel for "keep the applied root": the
// rootless enqueues (SetMeta, SetSealMark, vacuum relocations) must not race
// a concurrent root flip by reading the root before taking the lock.
const rootUnchanged = ^uint64(0)

// fullHold bounds how long the committer lets a Full-mode group gather
// re-arriving concurrent committers before flushing it — far below a
// flush's own fsync cost.
const fullHold = 100 * time.Microsecond

// group is one coalesced write-set: every commit enqueued since the previous
// group was taken for flushing. It is the unit of durability — the committer
// turns a whole group into a single shadow-paged flush (one extent pass, one
// directory blob, one slot flip, two fsyncs), and a crash yields a prefix of
// flushed groups, never part of one.
type group struct {
	writes  map[uint64][]byte // latest applied content per page
	frees   map[uint64]bool   // pages deleted from the state below this group
	root    uint64
	meta    []byte
	setMeta bool
	mark    store.SealMark
	setMark bool
	// reloc marks writes enqueued by Vacuum: byte-identical to the page's
	// durable extent, present only to move it downward. flushGroup places
	// them with allocBelow and silently drops any that cannot move strictly
	// toward the front (the durable bytes are already correct). A normal
	// write or free to the same id clears the mark — real content always
	// wins over a relocation.
	reloc map[uint64]bool
	// lift marks reloc writes that may land ANYWHERE — the frontier included —
	// instead of being dropped when no hole below fits. Vacuum's lift phase
	// uses them to evacuate the live extent sitting directly above a hole, so
	// the freed extent coalesces with that hole and downward packing can
	// resume; termination then comes from Vacuum's per-round frontier check
	// rather than the strictly-decreasing-offsets invariant.
	lift map[uint64]bool
	// vacuum marks a group that carries (or carried) a vacuum step, even one
	// whose writes were all cleared or that was empty to begin with: the flush
	// then steers its directory blob toward the front too, which is the only
	// way the directory itself ever migrates out of the tail.
	vacuum bool
	// relocated counts reloc writes the flush actually moved. Written by the
	// committer before res.done closes, read by Vacuum after — the channel
	// publishes it — to decide whether another pass can still make progress.
	relocated int
	count     int       // commits coalesced into this group
	bytes     int       // payload size, for backpressure
	birth     time.Time // first enqueue, anchors the Grouped window
	held      time.Time // when the committer first considered taking it (Full hold)
	resolved  bool      // res already delivered (fail-stop path)
	res       *flushResult
}

// flushResult carries one group's flush outcome to everyone waiting on it:
// Full-mode committers, Sync callers, and Close. err is written before done
// is closed and read only after, so the channel ordering publishes it.
type flushResult struct {
	err  error
	done chan struct{}
}

// enqueueLocked merges one commit into the pending group, creating it if this
// is the first commit since the last take. The caller holds s.mu and has
// already checked closed/failed and validated the request. The group keeps
// the page buffers of writes themselves (CommitPages' ownership contract;
// Vacuum hands over buffers it read for the purpose), never the map. reloc
// marks the writes as vacuum relocations (see group.reloc).
func (s *Store) enqueueLocked(writes map[uint64][]byte, root uint64, frees []uint64, meta []byte, setMeta bool, mark *store.SealMark, reloc, lift bool) *flushResult {
	g := s.pending
	if g == nil {
		g = &group{
			writes: make(map[uint64][]byte, len(writes)),
			frees:  make(map[uint64]bool),
			root:   s.aroot,
			birth:  time.Now(),
			res:    &flushResult{done: make(chan struct{})},
		}
		s.pending = g
	}
	if reloc {
		g.vacuum = true
	}
	for id, p := range writes {
		if old, ok := g.writes[id]; ok {
			g.bytes -= len(old)
		}
		g.writes[id] = p
		g.bytes += len(p)
		// A page freed earlier in the group and rewritten now is live again.
		delete(g.frees, id)
		if reloc {
			if g.reloc == nil {
				g.reloc = make(map[uint64]bool, len(writes))
			}
			g.reloc[id] = true
			if lift {
				if g.lift == nil {
					g.lift = make(map[uint64]bool, len(writes))
				}
				g.lift[id] = true
			} else {
				delete(g.lift, id)
			}
		} else {
			delete(g.reloc, id)
			delete(g.lift, id)
		}
	}
	for _, id := range frees {
		if old, ok := g.writes[id]; ok {
			delete(g.writes, id)
			g.bytes -= len(old)
		}
		delete(g.reloc, id)
		delete(g.lift, id)
		// Only pages that exist below this group need a tombstone; a page
		// born and freed within the group simply vanishes.
		if s.liveBelowPendingLocked(id) {
			g.frees[id] = true
		}
	}
	g.count++
	if root != rootUnchanged {
		g.root = root
		s.aroot = root
	}
	if setMeta {
		s.ameta = append([]byte(nil), meta...)
		g.meta, g.setMeta = s.ameta, true
	}
	if mark != nil {
		s.amark = *mark
		g.mark, g.setMark = *mark, true
	}
	if s.cfg.Durability == Async && g.bytes >= s.cfg.maxUnflushed() {
		// Nothing else flushes an Async store, so an over-bound group starts
		// a background flush; meanwhile waitCapacityLocked blocks further
		// enqueues, so producers feel backpressure instead of growing the
		// overlay. Grouped mode deliberately does NOT force here — its
		// window keeps its coalescing promise and the blocked enqueues wait
		// for the window flush.
		s.force = true
	}
	return g.res
}

// waitCapacityLocked blocks, releasing and re-acquiring s.mu, while the
// pending group is at or over the MaxUnflushed payload bound. It returns
// with s.mu held and capacity available (or the store closed/failed, which
// the caller re-checks). A fresh pending group always has capacity, so a
// single oversized commit is admitted rather than deadlocked.
func (s *Store) waitCapacityLocked() {
	for {
		g := s.pending
		if s.closed || s.failed || g == nil || g.bytes < s.cfg.maxUnflushed() {
			return
		}
		res := g.res
		if s.cfg.Durability == Async {
			s.force = true
		}
		s.mu.Unlock()
		s.wake()
		<-res.done
		s.mu.Lock()
	}
}

// liveBelowPendingLocked reports whether id maps to a page in the state the
// pending group stacks on (the flushing group, else the durable directory).
func (s *Store) liveBelowPendingLocked(id uint64) bool {
	if g := s.flushing; g != nil {
		if g.frees[id] {
			return false
		}
		if _, ok := g.writes[id]; ok {
			return true
		}
	}
	_, ok := s.pages[id]
	return ok
}

// failedErrLocked is the error surfaced by everything refused after a flush
// failure: the ErrFailed sentinel carrying the original cause (ENOSPC, EIO,
// a torn slot write) instead of throwing it away. Callers hold s.mu.
func (s *Store) failedErrLocked() error {
	switch {
	case s.ferr == nil:
		return ErrFailed
	case errors.Is(s.ferr, ErrFailed):
		return s.ferr
	default:
		return fmt.Errorf("%w: %v", ErrFailed, s.ferr)
	}
}

// usableLocked is the one refusal every entry point beyond a plain read makes:
// store.ErrClosed once Close has begun, the fail-stop error once a flush has
// failed, nil otherwise. Callers hold s.mu (either mode).
func (s *Store) usableLocked() error {
	switch {
	case s.closed:
		return store.ErrClosed
	case s.failed:
		return s.failedErrLocked()
	}
	return nil
}

// commit is the single mutation entry point: wait for pending-group
// capacity, validate, enqueue, wake the committer, and wait according to the
// durability mode.
func (s *Store) commit(writes map[uint64][]byte, root uint64, frees []uint64, meta []byte, setMeta bool, mark *store.SealMark) error {
	s.mu.Lock()
	s.waitCapacityLocked()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	res := s.enqueueLocked(writes, root, frees, meta, setMeta, mark, false, false)
	return s.finish(res)
}

// finish releases s.mu (which the caller holds), wakes the committer, and —
// in Full mode — blocks until the caller's group is flushed, returning the
// group's shared result.
func (s *Store) finish(res *flushResult) error {
	wait := s.cfg.Durability == Full
	s.mu.Unlock()
	s.wake()
	if !wait {
		return nil
	}
	<-res.done
	return res.err
}

// Sync blocks until every commit enqueued before the call is durable, in any
// durability mode, and returns the first flush error if one occurred. It is
// the Async-mode durability barrier and a no-op on an idle store.
func (s *Store) Sync() error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	return s.flushOutstandingLocked()
}

// flushOutstandingLocked forces out both in-flight groups (the one being
// flushed and the accumulating one), releases s.mu — which the caller holds —
// and blocks until both resolve, returning the first error. It is the shared
// barrier body of Sync and Close.
func (s *Store) flushOutstandingLocked() error {
	var waits []*flushResult
	if s.flushing != nil {
		waits = append(waits, s.flushing.res)
	}
	if s.pending != nil {
		waits = append(waits, s.pending.res)
		s.force = true
	}
	s.mu.Unlock()
	s.wake()
	var first error
	for _, r := range waits {
		<-r.done
		if first == nil {
			first = r.err
		}
	}
	return first
}

// wake nudges the committer; the buffered channel makes it a set-if-unset.
func (s *Store) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// committer is the dedicated flush goroutine: it owns every file write after
// initialization and the durable state fields, so flushes never race.
func (s *Store) committer() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		s.drain()
	}
}

// drain flushes (or, after a failure, resolves) groups until no pending work
// remains or the mode says to keep accumulating.
func (s *Store) drain() {
	for {
		s.mu.Lock()
		g := s.pending
		if g == nil {
			s.mu.Unlock()
			return
		}
		if s.failed {
			// The store is fail-stopped. Release anyone waiting on the
			// group, but KEEP it in place: its writes (and the failed
			// flushing group's) stay in the read path, so Root/Meta/ReadPage
			// keep serving the full applied state instead of a view with
			// acknowledged pages torn out of it.
			if g.resolved {
				s.mu.Unlock()
				return
			}
			g.resolved = true
			err := s.failedErrLocked()
			s.mu.Unlock()
			g.res.err = err
			close(g.res.done)
			continue
		}
		if !s.force && s.cfg.Durability != Full {
			if s.cfg.Durability == Async {
				// Only Sync, Close, or backpressure flush an Async store.
				s.mu.Unlock()
				return
			}
			// Grouped: let the group ripen for the rest of its window so
			// closely-spaced commits share one flush.
			d := time.Until(g.birth.Add(s.cfg.window()))
			if d > 0 {
				s.mu.Unlock()
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-s.kick: // possibly a force: re-evaluate
				case <-s.stop:
					t.Stop()
					return
				}
				t.Stop()
				continue
			}
		}
		if !s.force && s.cfg.Durability == Full && s.lastGroup > 1 && g.count < s.lastGroup {
			// The previous group carried concurrent committers, and its
			// waiters are re-arriving right now — taking the group this
			// instant would flush a near-empty one and make them all wait a
			// full extra flush. Hold very briefly (bounded by fullHold from
			// the moment the group first became takeable) so the wave
			// coalesces; every enqueue kicks, so the re-check is immediate
			// and a full wave never waits the whole bound. A lone committer
			// (lastGroup <= 1) never pays this.
			if g.held.IsZero() {
				g.held = time.Now()
			}
			if d := fullHold - time.Since(g.held); d > 0 {
				s.mu.Unlock()
				t := time.NewTimer(d)
				select {
				case <-s.kick:
				case <-t.C:
				case <-s.stop:
					t.Stop()
					return
				}
				t.Stop()
				continue
			}
		}
		// Take the group: new commits start a fresh pending group while this
		// one flushes, and coalesce with each other in the meantime.
		s.pending = nil
		s.flushing = g
		s.force = false
		s.lastGroup = g.count
		nextID := s.nextID
		s.mu.Unlock()

		ns, err := s.flushGroup(g, nextID)

		shrunk := false
		s.mu.Lock()
		if err != nil {
			// Fail stop: the group's commits were already visible (and, off
			// Full mode, acknowledged); rolling the applied state back would
			// un-happen reads. The failed group therefore STAYS in s.flushing
			// so the read path keeps serving the applied state — consistent
			// with aroot/ameta — until the store is reopened, which recovers
			// the last durable flush.
			s.failed = true
			s.ferr = err
			g.resolved = true
		} else {
			shrunk = ns.fileEnd < s.fileEnd
			s.durableState = ns
			s.flushing = nil
		}
		s.mu.Unlock()
		if err == nil && shrunk {
			// Physically release the tail the frontier retreated over. This
			// runs strictly after the install above: any reader still inside
			// ReadPage when the install took the lock had already finished,
			// and readers admitted since resolve extents that all end at or
			// below the new frontier — no ReadPage can be mid-read in the cut
			// region. Vacuum's extent reads can be: they hold no lock, and
			// treat an error as a stale selection once they see the txid this
			// install moved (see relocate). Correctness never depends on the
			// truncate (the durable state ignores bytes past fileEnd), but a
			// truncate error means a sick device, so it fail-stops the store
			// like any flush error.
			if err = s.truncateTo(ns.fileEnd); err != nil {
				s.mu.Lock()
				s.failed = true
				s.ferr = err
				g.resolved = true
				s.mu.Unlock()
			}
		}
		g.res.err = err
		close(g.res.done)
		if err != nil {
			continue // release pending waiters via the failed branch above
		}
	}
}

// flushGroup turns one coalesced group into a single shadow-paged flush: all
// pages to fresh extents, one directory blob, one data fsync, one meta-slot
// flip, one slot fsync. It reads the durable state fields without the lock —
// the committer is their only writer — and returns the state to install.
// Extents released by the group (overwritten page versions, freed pages, the
// old directory) are recorded as free in the NEW directory only, so nothing
// recycles them until the flip that made them garbage is durable.
func (s *Store) flushGroup(g *group, nextID uint64) (durableState, error) {
	var ns durableState
	newPages := make(map[uint64]extent, len(s.pages)+len(g.writes))
	for id, e := range s.pages {
		newPages[id] = e
	}
	avail := newFreeIndex(s.free)
	newEnd, pageBytes := s.fileEnd, s.pageBytes
	var pending []extent // extents that become free once this flush is durable
	for id := range g.frees {
		if e, ok := newPages[id]; ok {
			pending = append(pending, e)
			pageBytes -= int64(e.len)
			delete(newPages, id)
		}
	}
	for id, page := range g.writes {
		if g.reloc[id] {
			// Vacuum relocation: byte-identical to the durable extent, so it
			// only earns a write if it can land strictly below its current
			// offset. Otherwise drop it — the durable bytes already stand,
			// and dropping (rather than appending at the frontier) is what
			// guarantees Vacuum's pack phase terminates: every performed
			// relocation strictly decreases the sum of live extent offsets.
			// Lift relocations are the exception: they exist to evacuate the
			// extent above a hole, so when nothing below fits they land via
			// normal allocation — the frontier if need be — and Vacuum's
			// per-round frontier check bounds them instead.
			cur, ok := newPages[id]
			if !ok {
				continue
			}
			ext, fits := avail.allocBelow(uint32(len(page)), cur.off)
			if !fits {
				if !g.lift[id] {
					continue
				}
				ext = avail.allocExtent(&newEnd, uint32(len(page)))
			}
			if _, err := s.f.WriteAt(page, ext.off); err != nil {
				return ns, fmt.Errorf("file: write page %d: %w", id, err)
			}
			pending = append(pending, cur)
			pageBytes += int64(ext.len) - int64(cur.len)
			newPages[id] = ext
			g.relocated++
			continue
		}
		if e, ok := newPages[id]; ok {
			pending = append(pending, e)
			pageBytes -= int64(e.len)
		}
		ext := avail.allocExtent(&newEnd, uint32(len(page)))
		if _, err := s.f.WriteAt(page, ext.off); err != nil {
			return ns, fmt.Errorf("file: write page %d: %w", id, err)
		}
		pageBytes += int64(ext.len)
		newPages[id] = ext
	}
	newMeta := s.meta
	if g.setMeta {
		newMeta = g.meta
	}
	newMark := s.mark
	if g.setMark {
		newMark = g.mark
	}
	// Size the new directory before allocating its extent: the allocation can
	// only shrink the free list (remove an entry, or split one — count
	// unchanged), so counting the current avail plus everything pending is an
	// upper bound, and the blob is padded to the allocated size.
	ubFree := avail.len() + len(pending)
	if s.dirExt.len > 0 {
		ubFree++
	}
	dirLen := uint32(dirSize(len(newPages), ubFree, len(newMeta)))
	var dirExt extent
	if g.vacuum {
		// A vacuum flush also steers its directory blob toward the front —
		// but only STRICTLY below its current extent. Shadow paging forces the
		// directory to move every flush (its live extent is off-limits until
		// the flip), so without the strict bound repeated vacuum flushes just
		// ping-pong the directory between two dir-sized holes, sometimes
		// ending in the higher one. With it, the directory only ever descends;
		// when it can't, normal best-fit placement applies.
		if e, ok := avail.allocBelow(dirLen, s.dirExt.off); ok {
			dirExt = e
		} else {
			dirExt = avail.allocExtent(&newEnd, dirLen)
		}
	} else {
		dirExt = avail.allocExtent(&newEnd, dirLen)
	}
	newFree := avail.appendTo(make([]extent, 0, ubFree))
	newFree = append(newFree, pending...)
	if s.dirExt.len > 0 {
		newFree = append(newFree, s.dirExt) // the old directory's own extent
	}
	newFree = coalesce(newFree)
	// Retreat the append frontier over a trailing free extent, so space freed
	// at the end of the file is reclaimed rather than carried as a free entry
	// forever.
	if len(newFree) > 0 && newFree[len(newFree)-1].end() == newEnd {
		newEnd = newFree[len(newFree)-1].off
		newFree = newFree[:len(newFree)-1]
	}
	dir := make([]byte, dirExt.len)
	serializeDir(dir, newPages, newFree, newMeta, newMark)
	if _, err := s.f.WriteAt(dir, dirExt.off); err != nil {
		return ns, fmt.Errorf("file: write directory: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return ns, fmt.Errorf("file: sync data: %w", err)
	}
	slot := serializeSlot(slotData{
		txid: s.txid + 1, root: g.root, nextID: nextID,
		dir: dirExt, dirCRC: crc32.ChecksumIEEE(dir),
	})
	slotOff := int64(slot0Off)
	if s.cur == 0 {
		slotOff = slot1Off
	}
	// From the slot write onward, a failure leaves the flip's durability
	// indeterminate: the inactive slot may now hold a valid, higher-txid
	// record of this group on disk. Flushing further groups from the
	// in-memory pre-flush state would reuse this group's extents while that
	// stale slot still points at them — a crash before the next flip would
	// then open a torn state. The drain loop fail-stops the store instead;
	// reopening resolves the ambiguity by reading what's actually durable.
	if _, err := s.f.WriteAt(slot, slotOff); err != nil {
		return ns, fmt.Errorf("file: write meta slot (%w): %v", ErrFailed, err)
	}
	if err := s.f.Sync(); err != nil {
		return ns, fmt.Errorf("file: sync meta slot (%w): %v", ErrFailed, err)
	}
	ns = durableState{
		pages: newPages, free: newFree, meta: newMeta, mark: newMark, root: g.root,
		txid: s.txid + 1, cur: 1 - s.cur, dirExt: dirExt, fileEnd: newEnd, pageBytes: pageBytes,
	}
	return ns, nil
}
