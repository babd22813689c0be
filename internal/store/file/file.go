// Package file implements a crash-safe, file-backed PageStore using shadow
// paging. The paper's engine only ever hands the store opaque sealed pages,
// so everything in this file is structural metadata — page IDs, offsets,
// lengths, checksums — plus the façade's already-sealed header blob; no key
// material or plaintext ever reaches the page file.
//
// # Layout
//
//	offset 0    magic + format version            (written once, at creation)
//	offset 64   meta slot 0 ┐ ping-pong commit slots: txid, root, next page
//	offset 192  meta slot 1 ┘ ID, directory extent + CRCs, slot CRC
//	offset 512  data region: sealed pages and directory blobs, addressed by
//	            extents (offset, length)
//
// Logical page IDs are stable for the life of a page — the B-tree layers
// above reference children by logical ID — and the directory maps each
// logical ID to the physical extent currently holding its bytes. The
// directory blob also carries the façade's sealed engine header and the seal
// mark, but no free space: Open derives that from the page map (freeGaps).
//
// # Shadow paging and group commit
//
// A flush NEVER overwrites an extent referenced by the durable directory.
// Commits do not write the file directly: callers enqueue their write-sets
// into an in-memory group and a dedicated committer goroutine coalesces
// every pending commit into one flush — all pages to fresh extents (reusing
// only extents on the durable free list, which by construction nothing
// durable references), one new directory blob, one fsync, one meta-slot flip
// with an incremented transaction ID, one more fsync. Extents released by a
// group (old versions of overwritten pages, freed pages, the previous
// directory) are free in the state the NEW directory describes, so they
// become allocatable only after the flip that made them garbage is durable.
// Until a group's flush is installed, reads are served from the in-memory
// overlay, so callers always observe their own committed writes. The overlay
// is one record per page per unflushed group — the accumulating group, then
// the one being flushed, newest wins — over the durable directory.
//
// Open reads both slots, keeps the valid one with the highest transaction
// ID whose directory passes its CRC, and needs no replay: a crash at any
// byte of a flush loses a suffix of that flush's writes, all of which
// landed in extents the surviving slot does not reference. A torn slot
// write fails the slot CRC and Open falls back to the other slot. Because
// groups flush in order, a crash at any point yields exactly a prefix of
// the flushed groups — never a torn one.
//
// A group that raises the seal mark (a later epoch, or more counters
// reserved) and writes pages flushes with two flips: first one that changes
// nothing but the durable mark, then the ordinary one. The group's pages were
// sealed under that reservation, and no byte of them may reach the file
// before a mark covering them is durable (store.PageStore.SetSealMark). A
// crash between the flips opens the pre-group state under the raised mark,
// which costs nothing but the reserved counters.
//
// # Durability modes
//
// Config.Durability picks what a commit waits for (see Durability); the
// flush sequence itself — and therefore the crash guarantee above — is
// identical in every mode. Sync blocks until everything enqueued before it
// is durable, in any mode.
//
// When the committer takes the pending group is decided in one place,
// holdLocked. Sync, Close, Vacuum, and a group at Config.MaxUnflushed take it
// at once in every mode. Otherwise the mode decides: Full takes it at once;
// Grouped once the group is 2ms old; Async not until one of the above.
//
// CommitPages calls never overlap (store.PageStore.CommitPages): the engine's
// write turn is the tree's one group commit, so a Full group holds one commit
// plus whatever header changes and vacuum steps joined it, and there is no
// wave of committers to wait for.
//
// The one non-atomic window is file creation itself: initialization writes
// the first directory and slot 0, fsyncs, then writes the magic header and
// fsyncs again. The first fsync orders both before the magic, so a file whose
// magic is present always has a valid slot 0 and the directory it points at.
// It does not order the directory before the slot: power lost ahead of it can
// keep the slot and drop the directory. Open therefore treats a file without
// magic as fresh and re-initializes it when it holds no valid slot, or only
// the very slot initialization writes over a directory that does not load —
// either way nothing was ever stored. (A file without magic whose slot does
// load is a populated store with a damaged prefix: Open repairs the magic.)
//
// # Who touches the file
//
// After Open the committer goroutine is the file's only writer, the durable
// state's only writer, and the only reader of extents it may itself recycle or
// truncate: every flush packs pages from the tail into the holes in front, a
// Vacuum step only names the pass its flush runs instead, and the committer
// chooses the pages and copies them. ReadPageInto, the one other reader,
// resolves and reads a durable extent under the read side of the lock the
// committer edits and installs under, and the tail is cut only after the
// install. The page map may run ahead of the
// slot, but only for pages the flushing overlay shadows and identical vacuum
// copies.
//
// The page buffers CommitPages takes go back to pagebuf, for the next seal to
// reuse, the moment no reader can reach them: a record a later commit of the
// pending group supersedes or frees, under the lock it leaves the map in; a
// flushed group's records, once the install has taken the group out of the
// read path. That group's page map then becomes the next pending group's
// (keepPages), and the committer rebuilds the free index, the released list
// and the free list in arrays it keeps and serializes the directory into a
// buffer it keeps, so a steady-state flush allocates only its group. A failed flush
// keeps its group, and so its buffers, in place.
package file

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"github.com/paper-repro/ekbtree/internal/store"
)

// ErrCorrupt is returned by Open when the file is not a valid ekbtree page
// file: bad magic, or no meta slot with a directory that passes its checksum.
// Neither an interrupted commit nor an interrupted creation produces
// ErrCorrupt — the previous slot stays valid, and a file nothing was stored in
// is initialized again — so seeing it means external damage.
var ErrCorrupt = errors.New("file: corrupt page file")

// ErrFailed is returned by every mutating operation (and Sync) after a group
// flush failed. Past the meta-slot write the flip's durability is
// indeterminate: a stale higher-txid slot may be on disk, and a further flush
// reusing the failed group's extents could hand that stale slot a torn state
// to point at after a crash. Failures earlier in a flush are fail-stop too:
// the group's commits were already visible to readers (and, outside Full
// mode, already acknowledged), so the store refuses to let the durable state
// diverge further. Reads keep working from the last applied state; reopening
// the file recovers (Open lands on the last durable flush) and clears the
// condition.
var ErrFailed = errors.New("file: store failed mid-commit, reopen to recover")

// ErrLocked is returned by Open when another process (or another open store
// in this process) holds the page file. Single-writer locking fails fast
// instead of letting two stores shadow-page over each other.
var ErrLocked = errors.New("file: page file is locked by another process")

// Durability selects what a commit waits for before returning. The flush
// sequence — and so the crash guarantee (pre- or post-state of a prefix of
// groups, never torn) — is the same in every mode; only the moment of
// acknowledgment moves.
type Durability int

const (
	// Full makes every commit wait until the group containing it is durably
	// flushed (data fsync, slot flip, slot fsync); the group is taken at
	// once. Concurrent writers share those two fsyncs above the store, where
	// the engine's write turn combines them into one commit. This is the
	// default.
	Full Durability = iota
	// Grouped acknowledges commits as soon as they are applied in memory;
	// the committer flushes the accumulated group once it is 2ms old (or
	// sooner on Sync, Close or back-pressure). A crash loses at most the
	// last window of acknowledged commits, never a torn state.
	Grouped
	// Async acknowledges commits immediately and flushes only on Sync,
	// Close, or back-pressure. After Sync returns, everything enqueued
	// before it is durable; a crash earlier loses un-synced groups whole.
	Async
)

func (d Durability) String() string {
	switch d {
	case Full:
		return "full"
	case Grouped:
		return "grouped"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// DefaultMaxUnflushed is the pending-overlay payload bound used when
// Config.MaxUnflushed is zero.
const DefaultMaxUnflushed = 4 << 20

// Config tunes the write pipeline. The zero value is Full durability.
type Config struct {
	// Durability selects when commits are acknowledged; see the constants.
	Durability Durability
	// MaxUnflushed bounds the payload bytes the pending (not yet flushing)
	// commit group may accumulate. A pending group at or over the bound is
	// flushed at once, in every mode, and further commits BLOCK until it has
	// flushed instead of growing memory without limit. The bound is per
	// group, and a single commit larger than it is always admitted on an
	// empty group, so total unflushed payload can reach roughly twice
	// MaxUnflushed — one full group being flushed plus one full pending
	// group — plus the payload of the one commit admitted just under the
	// bound. Zero means DefaultMaxUnflushed; negative is invalid.
	MaxUnflushed int
}

func (c Config) maxUnflushed() int {
	if c.MaxUnflushed <= 0 {
		return DefaultMaxUnflushed
	}
	return c.MaxUnflushed
}

// Validate reports whether c names a known durability mode and a
// non-negative bound. OpenConfig and OpenWithConfig call it; the façade calls
// it to check its own pipeline options.
func (c Config) Validate() error {
	switch c.Durability {
	case Full, Grouped, Async:
	default:
		return fmt.Errorf("file: unknown durability mode %d", int(c.Durability))
	}
	if c.MaxUnflushed < 0 {
		return fmt.Errorf("file: negative max unflushed bound %d", c.MaxUnflushed)
	}
	return nil
}

// File is the random-access backing-file contract the store needs; *os.File
// satisfies it. Tests substitute internal/faulttest's File — the repository's
// one crash model: process death with a torn write, power loss, a transient
// device error — to prove commit atomicity at every write, sync and truncate.
// That type satisfies File structurally, since this package's own tests
// import it and it therefore cannot import this package.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error // releases the tail once the append frontier retreats
	Sync() error
	Close() error
}

// durableState is what the active meta slot on disk describes, changed only
// by the committer: a flush edits pages in place, ahead of the slot only for
// pages the flushing overlay shadows and for identical vacuum copies, and flip
// installs the other fields in one lock section once the slot is durable.
type durableState struct {
	pages map[uint64]extent // logical page ID -> durable extent
	free  []extent          // durably free extents, allocatable by the next flush
	header
	txid    uint64
	cur     int    // index (0/1) of the slot holding the durable state
	dirExt  extent // extent of the durable directory blob
	fileEnd int64  // append frontier: no durable extent ends beyond this
	// pageBytes is the summed length of the extents in pages. It is counted
	// once when a directory is loaded and then moved by each flush by exactly
	// the extents that flush drops and adds, so Space never walks the map.
	pageBytes int64
}

// Store is a file-backed PageStore. All methods are safe for concurrent use;
// reads proceed concurrently, commits enqueue and the committer goroutine
// serializes flushes.
type Store struct {
	mu  sync.RWMutex
	f   File
	cfg Config

	// vacuuming runs Vacuum calls one at a time: a group carries one pass.
	vacuuming sync.Mutex

	// The durable state, held once. After Open only the committer goroutine
	// changes it, always under mu (see durableState), so the committer may
	// read its fields without the lock during a flush.
	durableState

	// Applied state: what readers observe. Runs ahead of the durable state
	// by the pending and flushing overlays (see overlayLocked, appliedLocked).
	nextID   uint64
	pending  *group // accumulating write-set, flushed next
	flushing *group // write-set currently being flushed, nil when idle

	// spare is the page map of the last group whose flush was installed,
	// emptied for the next pending group, and spareRoom the most pages it has
	// held (see keepPages); nil and 0 if none.
	spare     map[uint64]gpage
	spareRoom int
	// scratch is the committer's alone, like the durable state's writes.
	scratch scratch

	force  bool // flush pending now, regardless of mode or window (Sync, Close, Vacuum)
	failed bool
	ferr   error // first flush error, behind ErrFailed
	closed bool

	kick chan struct{} // wakes the committer; capacity 1
	stop chan struct{} // closed by Close once all groups resolved
	done chan struct{} // closed by the committer on exit
}

// OpenConfig opens or creates the page file at path with the given pipeline
// configuration. On unix platforms the file is flock'd for exclusive use for
// the life of the store: a second open of the same path — from this or any
// other process — fails fast with ErrLocked instead of corrupting the file.
// Platforms without flock semantics skip the lock, and exclusivity is the
// caller's responsibility there.
func OpenConfig(path string, cfg Config) (*Store, error) {
	// Validate before os.OpenFile: O_CREATE on a rejected config must not
	// leave a stray empty file behind.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("file: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	s, err := OpenWithConfig(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenWithConfig opens a store over an already-open backing file (an
// in-memory one, or a fault-wrapped one in tests) with the given pipeline
// configuration. The store takes ownership of f. No file locking is
// performed; callers own exclusivity.
func OpenWithConfig(f File, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hdr := make([]byte, dataStart)
	// Bytes past a short read stay zero, which the checks below treat as unwritten.
	if _, err := f.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("file: read header: %w", err)
	}
	magicZero := allZero(hdr[:len(magic)])
	if !magicZero && string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	s0, ok0 := parseSlot(hdr[slot0Off : slot0Off+slotSize])
	s1, ok1 := parseSlot(hdr[slot1Off : slot1Off+slotSize])
	if magicZero && !ok0 && !ok1 {
		// Nothing durable exists: a genuinely fresh file, or a crash during
		// creation before the first slot landed.
		return initialize(f, cfg)
	}
	// Try the valid slot with the highest txid first; fall back to the other,
	// which covers a flush whose directory write was torn before its slot
	// flip ever happened (the old slot still describes a complete state).
	slots, valid, first := [2]slotData{s0, s1}, [2]bool{ok0, ok1}, 0
	if ok1 && (!ok0 || s1.txid > s0.txid) {
		first = 1
	}
	for _, idx := range [2]int{first, 1 - first} {
		if !valid[idx] {
			continue
		}
		s, err := loadState(f, slots[idx], idx)
		if err != nil {
			continue
		}
		if magicZero {
			// The magic is gone but the store behind a surviving slot is whole
			// — external damage to the header prefix, or a creation crash
			// between the slot sync and the magic sync. Repair the magic rather
			// than wiping the store with a re-initialization.
			if _, err := f.WriteAt([]byte(magic), 0); err != nil {
				return nil, fmt.Errorf("file: repair magic: %w", err)
			}
			if err := f.Sync(); err != nil {
				return nil, fmt.Errorf("file: repair magic: %w", err)
			}
		}
		s.start(cfg)
		return s, nil
	}
	if _, fresh := freshState(); magicZero && ok0 && !ok1 && s0 == fresh {
		// Creation lost power before its first fsync returned: that fsync
		// covers the first directory and slot 0 alike, so the slot can reach
		// the platter without the directory it points at. The only valid slot
		// being, byte for byte, the one initialize writes says nothing was
		// ever stored; initializing again rewrites the same bytes and can
		// destroy nothing.
		return initialize(f, cfg)
	}
	return nil, fmt.Errorf("%w: no usable meta slot", ErrCorrupt)
}

// freshState is what initialize lays down: the empty directory and the slot
// that points at it, at the head of the data region.
func freshState() (dir []byte, slot slotData) {
	dir = make([]byte, dirSize(0, 0))
	serializeDir(dir, nil, nil, store.SealMark{})
	return dir, slotData{
		txid: 1, root: store.NoRoot, nextID: store.NoRoot + 1,
		dir: extent{off: dataStart, len: uint32(len(dir))}, dirCRC: crc32.ChecksumIEEE(dir),
	}
}

// initialize lays down a fresh, empty store: directory first, then slot 0,
// fsync, then the magic header, fsync. Ordering makes creation idempotent
// under crashes — until the magic is durable the file reads as fresh, which
// for a slot that outlived its directory OpenWithConfig has to recognise.
func initialize(f File, cfg Config) (*Store, error) {
	dir, slot := freshState()
	s := &Store{
		f: f,
		durableState: durableState{
			pages: make(map[uint64]extent), header: header{root: slot.root},
			txid: slot.txid, dirExt: slot.dir, fileEnd: slot.dir.end(),
		},
		nextID:  slot.nextID,
		scratch: scratch{dir: dir},
	}
	if _, err := f.WriteAt(dir, slot.dir.off); err != nil {
		return nil, fmt.Errorf("file: init directory: %w", err)
	}
	if _, err := f.WriteAt(serializeSlot(make([]byte, slotSize), slot), slot0Off); err != nil {
		return nil, fmt.Errorf("file: init slot: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("file: init sync: %w", err)
	}
	if _, err := f.WriteAt([]byte(magic), 0); err != nil {
		return nil, fmt.Errorf("file: init magic: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("file: init sync: %w", err)
	}
	s.start(cfg)
	return s, nil
}

// loadState reads and validates the directory a slot points at, returning a
// store ready for start.
func loadState(f File, sd slotData, idx int) (*Store, error) {
	if sd.dir.off < dataStart {
		return nil, fmt.Errorf("%w: directory inside header region", ErrCorrupt)
	}
	dir := make([]byte, sd.dir.len)
	if _, err := io.ReadFull(io.NewSectionReader(f, sd.dir.off, int64(sd.dir.len)), dir); err != nil {
		return nil, fmt.Errorf("%w: short directory", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(dir) != sd.dirCRC {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrCorrupt)
	}
	pages, meta, mark, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	free, end, err := freeGaps(pages, sd.dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		f: f,
		durableState: durableState{
			pages: pages, free: free, header: header{root: sd.root, meta: meta, mark: mark},
			txid: sd.txid, cur: idx, dirExt: sd.dir, fileEnd: end,
		},
		nextID:  sd.nextID,
		scratch: scratch{dir: dir},
	}
	for _, e := range pages {
		s.pageBytes += int64(e.len)
	}
	return s, nil
}

// start launches the committer goroutine. Called exactly once, before the
// store is shared.
func (s *Store) start(cfg Config) {
	s.cfg = cfg
	s.kick = make(chan struct{}, 1)
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.committer()
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReadPageInto serves the applied state: the pending overlay first, then the
// group being flushed, then the durable extent on disk. An overlay page is
// copied out, never handed over: the group keeps its bytes for the flush and
// for every later reader, and the caller deciphers its copy in place.
func (s *Store) ReadPageInto(id uint64, buf []byte) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	if p, ok := s.overlayLocked(id); ok {
		if p.freed {
			return 0, fmt.Errorf("%w: page %d", store.ErrNotFound, id)
		}
		if len(p.buf) <= len(buf) {
			copy(buf, p.buf)
		}
		return len(p.buf), nil
	}
	e, ok := s.pages[id]
	if !ok {
		return 0, fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	n := int(e.len)
	if n <= len(buf) {
		if _, err := s.f.ReadAt(buf[:n], e.off); err != nil {
			return 0, fmt.Errorf("file: read page %d: %w", id, err)
		}
	}
	return n, nil
}

// ReadPage is ReadPageInto into a buffer of the caller's own.
func (s *Store) ReadPage(id uint64) ([]byte, error) { return store.ReadPage(s, id) }

func (s *Store) Alloc() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.NoRoot, store.ErrClosed
	}
	id := s.nextID
	s.nextID++
	return id, nil
}

// Root returns the applied root: commits observe their own root flips even
// before the group carrying them is durable.
func (s *Store) Root() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return store.NoRoot, store.ErrClosed
	}
	return s.appliedLocked().root, nil
}

func (s *Store) Meta() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, store.ErrClosed
	}
	return append([]byte(nil), s.appliedLocked().meta...), nil
}

func (s *Store) SetMeta(meta []byte) error {
	return s.commit(change{meta: &meta})
}

// SealMark returns the applied cipher-lifecycle mark: a SetSealMark is
// observable immediately, durable after Sync (like any commit) — or sooner,
// when a flush carries pages committed after it (see flushGroup).
func (s *Store) SealMark() (store.SealMark, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return store.SealMark{}, store.ErrClosed
	}
	return s.appliedLocked().mark, nil
}

func (s *Store) SetSealMark(mark store.SealMark) error {
	return s.commit(change{mark: &mark})
}

// CommitPages refuses a page of more than 4 GiB before applying anything: an
// extent's length is 32-bit, so the flush could not place it.
func (s *Store) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	for id, p := range writes {
		if uint64(len(p)) > math.MaxUint32 {
			return fmt.Errorf("file: page %d is %d bytes, over the %d-byte extent limit", id, len(p), uint64(math.MaxUint32))
		}
	}
	return s.commit(change{writes: writes, root: &root, frees: frees})
}

// Close flushes every outstanding group (so a clean shutdown is durable in
// all modes), stops the committer, and closes the backing file. If a final
// flush fails — or the store had already fail-stopped with acknowledged
// commits still unflushed — Close reports it: a nil return means everything
// accepted is durably on disk. The file lock, when one was taken, is
// released with the file descriptor.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return store.ErrClosed
	}
	s.closed = true // refuses new work; the committer still drains old work
	ferr := s.flushOutstandingLocked()
	close(s.stop)
	<-s.done
	cerr := s.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Txid returns the durable transaction ID — it advances once per flushed
// group, so it doubles as a flush counter for tests and diagnostics.
func (s *Store) Txid() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.txid
}

// Space reports the durable on-disk footprint: fileBytes is the append
// frontier (the physical file size once any truncate lands — no durable
// extent ends beyond it), liveBytes the bytes actually referenced by live
// pages plus the directory blob. The gap between them is reclaimable
// garbage; Vacuum closes it. Both come from fields of the durable state, so
// the call is O(1) and holds the read lock for two loads: a monitor may poll
// it on a tree of any size without holding off commits. Implements
// store.Spacer.
func (s *Store) Space() (fileBytes, liveBytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fileEnd, s.pageBytes + int64(s.dirExt.len)
}
