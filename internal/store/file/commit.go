package file

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/israce"
	"github.com/paper-repro/ekbtree/internal/keep"
	"github.com/paper-repro/ekbtree/internal/pagebuf"
	"github.com/paper-repro/ekbtree/internal/store"
)

// groupWindow is how long a Grouped-mode group gathers commits before the
// committer flushes it: the most a crash can lose of acknowledged commits.
const groupWindow = 2 * time.Millisecond

// parked is holdLocked's "not before the next kick".
const parked = time.Duration(math.MaxInt64)

// header is what a state records besides its pages: the root pointer, the
// façade's sealed engine header and the cipher-lifecycle mark. The durable
// state and every group carry one whole, a new group starting from the header
// of the state it stacks on: the newest state's header is the applied one, and
// a flush writes its group's as it stands. Headers may share the meta slice —
// SetMeta installs a fresh copy and nothing writes through it.
type header struct {
	root uint64
	meta []byte
	mark store.SealMark
}

// same reports whether h and o record the same root, meta and mark.
func (h header) same(o header) bool {
	return h.root == o.root && h.mark == o.mark && bytes.Equal(h.meta, o.meta)
}

// gpage is a group's one record for a page: its latest applied content, or
// (freed) a tombstone for a page deleted from the state below the group. A
// write assigns the record whole, so a page freed earlier in the group is live
// again.
type gpage struct {
	buf   []byte
	freed bool
}

// group is one coalesced write-set: every commit enqueued since the previous
// group was taken for flushing. It is the unit of durability — the committer
// turns a whole group into a single shadow-paged flush (one extent pass, one
// directory blob, one slot flip, two fsyncs), and a crash yields a prefix of
// flushed groups, never part of one.
type group struct {
	pages map[uint64]gpage // one record per page the group touched
	room  int              // the most pages the map held before this group
	header
	// vacuum is the pass a vacuum step asked this flush to run, nil if none.
	// The flush chooses the pass's pages and copies each one's durable extent
	// itself (see flushGroup), so a step is no page record, adds nothing to
	// bytes and is invisible to readers. The flush also steers its directory
	// blob toward the front, which is the only way the directory itself ever
	// migrates out of the tail.
	vacuum *pass
	// relocated counts the moves the flush performed and moveErr is the first
	// error reading a move's durable extent (that move is skipped; the flush
	// and the commits coalesced into it are unaffected). Written by the
	// committer before done closes, read by Vacuum after — the channel
	// publishes them — to decide whether another step can still make progress.
	relocated int
	moveErr   error
	bytes     int       // payload size, for backpressure
	birth     time.Time // first enqueue, anchors the Grouped window
	// resolved guards the pending group's waiters after a fail-stop: drain
	// releases them once, and the group stays pending for the read path.
	resolved bool
	// err and done carry the flush outcome to everyone waiting on the group:
	// Full-mode committers, Sync callers, Vacuum and Close. err is written
	// before done is closed and read only after, so the channel publishes it.
	err  error
	done chan struct{}
}

// change is one mutation of the applied state, as CommitPages, SetMeta and
// SetSealMark each spell it. A nil root, meta or mark keeps the applied one:
// CommitPages names its root, and the header-only changes never read the root
// to restate it, so they cannot undo a root move queued ahead of them. The
// group keeps the page buffers of writes themselves (CommitPages' ownership
// contract), never the map. A vacuum step is no change: it changes no applied
// state, and relocate sets the pending group's pass instead (group.vacuum).
type change struct {
	writes map[uint64][]byte
	frees  []uint64
	root   *uint64
	meta   *[]byte
	mark   *store.SealMark
}

// appliedLocked is the header readers observe: that of the newest state —
// the pending group, else the flushing one (which fail-stop keeps in place),
// else the durable state. Callers hold s.mu (either mode).
func (s *Store) appliedLocked() header {
	if s.pending != nil {
		return s.pending.header
	}
	if s.flushing != nil {
		return s.flushing.header
	}
	return s.header
}

// overlayLocked returns the newest unflushed record for id, if there is one.
// It is the overlay's whole precedence rule: pending before flushing, the
// durable directory below both. Callers hold s.mu (either mode).
func (s *Store) overlayLocked(id uint64) (gpage, bool) {
	for _, g := range [...]*group{s.pending, s.flushing} {
		if g == nil {
			continue
		}
		if p, ok := g.pages[id]; ok {
			return p, true
		}
	}
	return gpage{}, false
}

// enqueueLocked merges one change into the pending group, creating it if this
// is the first since the last take, over the page map the last flushed group
// left (keepPages) when there is one. The caller holds s.mu and has already
// checked closed/failed and validated the request. A page record the change
// supersedes or frees is reachable from no reader once it leaves the map —
// readers copy overlay pages under the read lock — so its buffer goes back to
// pagebuf here, unless it is the very buffer replacing it.
func (s *Store) enqueueLocked(c change) *group {
	g := s.pending
	if g == nil {
		pages, room := s.spare, s.spareRoom
		s.spare, s.spareRoom = nil, 0
		if pages == nil {
			pages = make(map[uint64]gpage, len(c.writes))
		}
		clear(pages) // a kept map is empty, or poisoned under the race detector
		g = &group{
			pages:  pages,
			room:   room,
			header: s.appliedLocked(),
			birth:  time.Now(),
			done:   make(chan struct{}),
		}
		s.pending = g
	}
	for id, p := range c.writes {
		old := g.pages[id].buf
		g.bytes += len(p) - len(old)
		g.pages[id] = gpage{buf: p}
		if unsafe.SliceData(old) != unsafe.SliceData(p) {
			pagebuf.Put(old)
		}
	}
	for _, id := range c.frees {
		old := g.pages[id].buf
		g.bytes -= len(old)
		delete(g.pages, id)
		pagebuf.Put(old)
		// Only pages that exist below this group need a tombstone; a page
		// born and freed within the group simply vanishes.
		if s.liveBelowPendingLocked(id) {
			g.pages[id] = gpage{freed: true}
		}
	}
	if c.root != nil {
		g.root = *c.root
	}
	if c.meta != nil {
		g.meta = append([]byte(nil), *c.meta...)
	}
	if c.mark != nil {
		g.mark = *c.mark
	}
	return g
}

// waitCapacityLocked blocks, releasing and re-acquiring s.mu, while the
// pending group is at or over the MaxUnflushed payload bound, which the
// committer flushes at once in every mode (see holdLocked). It returns with
// s.mu held and capacity available (or the store closed/failed, which the
// caller re-checks). A fresh pending group always has capacity, so a single
// oversized commit is admitted rather than deadlocked.
func (s *Store) waitCapacityLocked() {
	for {
		g := s.pending
		if s.closed || s.failed || g == nil || g.bytes < s.cfg.maxUnflushed() {
			return
		}
		s.mu.Unlock()
		s.wake()
		<-g.done
		s.mu.Lock()
	}
}

// liveBelowPendingLocked reports whether id maps to a page in the state the
// pending group stacks on (the flushing group, else the durable directory);
// the caller has dropped pending's own record for id, so the lookup skips it.
func (s *Store) liveBelowPendingLocked(id uint64) bool {
	if p, ok := s.overlayLocked(id); ok {
		return !p.freed
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
func (s *Store) commit(c change) error {
	s.mu.Lock()
	s.waitCapacityLocked()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	return s.finish(s.enqueueLocked(c))
}

// finish releases s.mu (which the caller holds), wakes the committer, and —
// in Full mode — blocks until the caller's group g is flushed, returning the
// group's shared result.
func (s *Store) finish(g *group) error {
	s.mu.Unlock()
	s.wake()
	if s.cfg.Durability != Full { // cfg is fixed before the store is shared
		return nil
	}
	<-g.done
	return g.err
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
	waits := make([]*group, 0, 2)
	if s.flushing != nil {
		waits = append(waits, s.flushing)
	}
	if s.pending != nil {
		waits = append(waits, s.pending)
		s.force = true
	}
	s.mu.Unlock()
	s.wake()
	var first error
	for _, g := range waits {
		<-g.done
		if first == nil {
			first = g.err
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

// holdLocked is the one decision of when the pending group g is taken for
// flushing: 0 means now, parked not before the next kick (every enqueue, Sync
// and Close kicks), anything else wait that long or until the next kick,
// whichever is first, and ask again. The caller holds s.mu.
func (s *Store) holdLocked(g *group) time.Duration {
	if s.force || g.bytes >= s.cfg.maxUnflushed() {
		// Sync, Close or Vacuum is waiting on it, or it is at the
		// back-pressure bound, where waitCapacityLocked blocks producers
		// until it flushes: in every mode it goes now.
		return 0
	}
	switch s.cfg.Durability {
	case Async:
		return parked
	case Grouped:
		// Let the group ripen for the rest of its window so closely-spaced
		// commits share one flush.
		return max(0, time.Until(g.birth.Add(groupWindow)))
	}
	// Full: the commit waiting on the group is the tree's whole group
	// commit already (its writers take turns, and the holder commits every
	// writer queued behind it), so nothing is left to gather.
	return 0
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
			// flushing group's) stay in the read path, so Root/Meta/ReadPageInto
			// keep serving the full applied state instead of a view with
			// acknowledged pages torn out of it.
			if !g.resolved {
				g.resolved = true
				g.err = s.failedErrLocked()
				close(g.done)
			}
			s.mu.Unlock()
			return
		}
		if d := s.holdLocked(g); d > 0 {
			s.mu.Unlock()
			if d == parked {
				return
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-s.kick: // an enqueue, or possibly a force: re-evaluate
			case <-s.stop:
				t.Stop()
				return
			}
			t.Stop()
			continue
		}
		// Take the group: new commits start a fresh pending group while this
		// one flushes, and coalesce with each other in the meantime.
		s.pending = nil
		s.flushing = g
		s.force = false
		nextID := s.nextID
		s.mu.Unlock()

		err := s.flushGroup(g, nextID)

		s.mu.Lock()
		if err != nil {
			// Fail stop: the group's commits were already visible (and, off
			// Full mode, acknowledged); rolling the applied state back would
			// un-happen reads. The failed group therefore STAYS in s.flushing
			// so the read path keeps serving the applied state, pages and
			// header alike, until the store is reopened, which recovers the
			// last durable flush. Every later mutation is refused with err
			// behind ErrFailed.
			s.failed, s.ferr = true, err
		} else {
			s.flushing = nil
		}
		s.mu.Unlock()
		if err == nil {
			// The flush is installed and the group out of the read path: a
			// reader that took the read lock since finds the durable extents,
			// and one that held it before has finished copying. Nothing can
			// reach the group's page buffers, or its map, any more.
			for _, p := range g.pages {
				pagebuf.Put(p.buf)
			}
			s.keepPages(g)
		}
		g.err = err
		close(g.done) // after a failure, the next turn resolves pending's waiters
	}
}

// scratch is what the committer keeps from flush to flush, so that a
// steady-state flush builds its free-extent index, its released list, the
// next free list, its directory and its slot in memory it already has. Each
// slice, list and map is kept by the write path's one rule, keep.Room. Only
// the committer goroutine touches it.
type scratch struct {
	avail    freeIndex // the flush's index of the durable free list
	released []extent  // the extents the flush frees
	free     []extent  // the free list before the durable one; flip builds the next in it
	dir      []byte    // the last directory; flip serializes the next in it
	slot     [slotSize]byte
}

// poisonPage is the record a kept group map holds under the race detector.
var poisonPage = gpage{buf: bytes.Repeat([]byte{0xA5}, 64)}

// keepPages keeps the page map of g, a group whose flush is installed and
// whose buffers are back in pagebuf, for the next pending group, unless the
// most pages it has held (over every group that used it) is more than
// keep.Room allows for g's: Go maps never shrink and clear() walks their
// capacity, so a map a bulk flush grew is dropped by the first group that
// uses less than a keep.Slack-th of it. Under the race detector every record
// is overwritten with poison instead of cleared, so a reader the install
// missed races with the write and copies poison, not a page.
func (s *Store) keepPages(g *group) {
	m, room := g.pages, max(g.room, len(g.pages))
	g.pages = nil
	if room > keep.Room(len(m), int(unsafe.Sizeof(gpage{}))) {
		return
	}
	if israce.Enabled {
		for id := range m {
			m[id] = poisonPage
		}
	} else {
		clear(m)
	}
	s.mu.Lock()
	s.spare, s.spareRoom = m, room
	s.mu.Unlock()
}

// markAhead reports whether mark reserves nonces past durable: a later epoch,
// or more counters within the same one. Clean plays no part.
func markAhead(mark, durable store.SealMark) bool {
	return mark.Epoch > durable.Epoch || mark.Epoch == durable.Epoch && mark.Counter > durable.Counter
}

// flushGroup turns one coalesced group into a single shadow-paged flush: all
// pages to fresh extents, one directory blob, one data fsync, one meta-slot
// flip, one slot fsync. It reads the durable state fields without the lock —
// the committer is their only writer — and edits the page map in place under
// it, never across file I/O (see durableState). Extents released by the group
// (overwritten page versions, freed pages, moved pages' sources, the old
// directory) are free only in the state the NEW directory describes, so
// nothing recycles them until the flip that made them garbage is durable.
//
// A group whose seal mark reserves nonces past the durable mark first makes
// that mark durable with a header-only flip (see SetSealMark): the pages it is
// about to write were sealed under the reservation, and a crash must never
// leave a page's nonce on the file above the mark a reopen resumes from.
//
// A vacuum step's pass is run here, after the group's own records are
// placed: the pages are chosen from the durable state this flush replaces,
// which only this goroutine changes, and none the group writes or frees (the
// entries it has edited). This goroutine alone recycles and truncates extents
// too, so the extent the durable directory gives for a page is stable for the
// whole flush and the copy needs no guard. A vacuum flush that moves nothing,
// cannot lower its directory and carries no other change skips its flip.
func (s *Store) flushGroup(g *group, nextID uint64) error {
	sc := &s.scratch
	avail := &sc.avail
	if len(g.pages) > 0 && markAhead(g.mark, s.mark) {
		// Everything durable but the mark's reservation: the clean epoch stays
		// the durable one, since the re-seals that earned the group's are among
		// the pages not yet written.
		h := s.header
		h.mark.Epoch, h.mark.Counter = g.mark.Epoch, g.mark.Counter
		avail.reset(s.free)
		if err := s.flip(h, avail, nil, s.fileEnd, s.pageBytes, nextID, false); err != nil {
			return err
		}
	}
	avail.reset(s.free)
	end, pageBytes := s.fileEnd, s.pageBytes
	released := sc.released[:0] // extents that become free once this flush is durable
	// Placed in one lock section ahead of the writes: readers find every page
	// the group writes or frees in the flushing overlay, which a failed flush
	// leaves in place.
	s.mu.Lock()
	for id, p := range g.pages {
		if cur, durable := s.pages[id]; durable {
			released = append(released, cur)
			pageBytes -= int64(cur.len)
		}
		if p.freed {
			delete(s.pages, id)
			continue
		}
		ext := avail.allocExtent(&end, uint32(len(p.buf)))
		pageBytes += int64(ext.len)
		s.pages[id] = ext
	}
	s.mu.Unlock()
	for id, p := range g.pages {
		if p.freed {
			continue
		}
		if _, err := s.f.WriteAt(p.buf, s.pages[id].off); err != nil {
			return fmt.Errorf("file: write page %d: %w", id, err)
		}
	}
	if p := g.vacuum; p != nil {
		var buf []byte
		chosen := p.choose(s.pages, s.free, g.pages)
		moved := chosen[:0] // the moves performed, at their new extents
		for _, m := range chosen {
			// The copy is byte-identical to its source, so it only earns a
			// write if it can land strictly below its current offset. Otherwise
			// the page stays — the durable bytes already stand, and staying
			// (rather than appending at the frontier) is what guarantees
			// Vacuum's pack phase terminates: every performed move strictly
			// decreases the sum of live extent offsets. Lift moves are the
			// exception: they exist to evacuate the extent above a hole, so
			// when nothing below fits they land via normal allocation — the
			// frontier if need be — and Vacuum's per-round frontier check
			// bounds them instead.
			ext, fits := avail.allocBelow(m.ext.len, m.ext.off)
			if !fits {
				if !p.lift {
					continue
				}
				ext = avail.allocExtent(&end, m.ext.len)
			}
			buf = slices.Grow(buf[:0], int(m.ext.len))[:m.ext.len]
			if _, err := s.f.ReadAt(buf, m.ext.off); err != nil {
				if g.moveErr == nil {
					g.moveErr = fmt.Errorf("file: vacuum read page %d: %w", m.id, err)
				}
				avail.add(ext)
				continue
			}
			if _, err := s.f.WriteAt(buf, ext.off); err != nil {
				return fmt.Errorf("file: write page %d: %w", m.id, err)
			}
			released = append(released, m.ext)
			moved = append(moved, move{m.id, ext})
		}
		// Every copy has landed before the map points a reader at it.
		s.mu.Lock()
		for _, m := range moved {
			s.pages[m.id] = m.ext
		}
		s.mu.Unlock()
		g.relocated = len(moved)
		if g.relocated == 0 && len(g.pages) == 0 && g.header.same(s.header) && !s.dirCanDescend() {
			// Nothing would change: a Vacuum with nothing to do writes nothing.
			return nil
		}
	}
	err := s.flip(g.header, avail, released, end, pageBytes, nextID, g.vacuum != nil)
	sc.released = reuse(released, len(released))
	return err
}

// dirCanDescend reports whether a hole strictly below the durable directory
// could hold it, as a steered flip wants. The free list is sorted by offset.
// The committer calls it without the lock, like flushGroup.
func (s *Store) dirCanDescend() bool {
	for _, e := range s.free {
		if e.off >= s.dirExt.off {
			return false
		}
		if e.len >= s.dirExt.len {
			return true
		}
	}
	return false
}

// flip makes the page map, every page it names written, durable under h: one
// directory blob, one data fsync, the inactive meta slot, one slot fsync. It
// then installs the rest of the durable state in one lock section — end and
// pageBytes as the caller's placements left them, and a free list of what
// avail has left, the released extents and the old directory's own (the gaps
// Open derives) — and truncates the tail the frontier retreated over. steer
// places the directory as a vacuum flush does. The new free list is built in
// the array of the list the durable one replaced, and the directory and the
// slot in the scratch's buffers, so a steady-state flip allocates nothing.
func (s *Store) flip(h header, avail *freeIndex, released []extent, end, pageBytes int64, nextID uint64, steer bool) error {
	sc := &s.scratch
	dirLen := uint32(dirSize(len(s.pages), len(h.meta)))
	var dirExt extent
	if steer {
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
			dirExt = avail.allocExtent(&end, dirLen)
		}
	} else {
		dirExt = avail.allocExtent(&end, dirLen)
	}
	newFree := avail.appendTo(sc.free[:0])
	newFree = append(newFree, released...)
	newFree = append(newFree, s.dirExt) // the old directory's own extent
	newFree = coalesce(newFree)
	// Retreat the append frontier over a trailing free extent, so space freed
	// at the end of the file is reclaimed rather than carried as a free entry
	// forever.
	if len(newFree) > 0 && newFree[len(newFree)-1].end() == end {
		end = newFree[len(newFree)-1].off
		newFree = newFree[:len(newFree)-1]
	}
	sc.dir = dirBuffer(sc.dir, int(dirLen))
	serializeDir(sc.dir, s.pages, h.meta, h.mark)
	if _, err := s.f.WriteAt(sc.dir, dirExt.off); err != nil {
		return fmt.Errorf("file: write directory: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("file: sync data: %w", err)
	}
	slot := serializeSlot(sc.slot[:], slotData{
		txid: s.txid + 1, root: h.root, nextID: nextID,
		dir: dirExt, dirCRC: crc32.ChecksumIEEE(sc.dir),
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
		return fmt.Errorf("file: write meta slot (%w): %v", ErrFailed, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("file: sync meta slot (%w): %v", ErrFailed, err)
	}
	s.mu.Lock()
	shrunk := end < s.fileEnd
	old := s.free
	s.header, s.free, s.fileEnd, s.pageBytes = h, newFree, end, pageBytes
	s.txid, s.cur, s.dirExt = s.txid+1, 1-s.cur, dirExt
	s.mu.Unlock()
	// Readers of the free list read it under the lock, so the old one is the
	// committer's again: the next flip builds in it.
	sc.free = reuse(old, len(newFree))
	if shrunk {
		// Physically release the tail the frontier retreated over. This runs
		// strictly after the install above: any reader still inside
		// ReadPageInto when the install took the lock had already finished,
		// and readers admitted since resolve extents that all end at or below
		// the new frontier — no ReadPageInto can be mid-read in the cut
		// region, and the only other reader of extents is this goroutine.
		// Correctness never depends on the truncate (the durable state ignores
		// bytes past fileEnd), but a truncate error means a sick device, so it
		// fail-stops the store like any flush error.
		if err := s.f.Truncate(end); err != nil {
			return fmt.Errorf("file: truncate to %d (%w): %v", end, ErrFailed, err)
		}
	}
	return nil
}
