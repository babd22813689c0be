// Package store provides the page-store abstraction at the bottom of the
// engine. A PageStore holds opaque, already-enciphered pages keyed by page ID
// plus a single root pointer; it never sees node structure, substituted keys,
// or plaintext. The crash-safe shadow-paged page file in internal/store/file
// implements it, over a file on disk or one held in memory.
package store

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned when a page ID has never been written or was freed.
var ErrNotFound = errors.New("store: page not found")

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("store: closed")

// NoRoot is the root pointer value meaning "empty tree". Page IDs returned by
// Alloc are always > NoRoot.
const NoRoot uint64 = 0

// SealMark is the engine's cipher-lifecycle high-water mark: the current key
// epoch and a PRE-RESERVED upper bound on the seal counters the engine may
// have issued within it. The engine records a mark with Counter ahead of what
// it has actually used before sealing into the reservation, and the store
// makes that mark durable before any page committed after it reaches the
// file (see PageStore.SetSealMark). So a reopened store — including after a
// crash that lost queued commits — resumes strictly past every (epoch,
// counter) nonce that could have reached the file, and never reissues one. A
// zero SealMark is what stores created before epochs existed report: epoch 0,
// nothing reserved.
type SealMark struct {
	// Epoch is the current key epoch.
	Epoch uint32
	// Clean is the newest epoch the rotator has verified holds EVERY live
	// page's seal (Clean == Epoch means no rotation work is pending). It only
	// moves forward.
	Clean uint32
	// Counter is the reservation high-water mark within Epoch: counters in
	// [0, Counter) may have been issued; the next reservation starts at
	// Counter.
	Counter uint64
}

// PageStore stores sealed pages behind thirteen methods: the reads
// (ReadPageInto, ReadPage, Root, Meta, SealMark), Alloc, the header and
// seal-mark setters (SetMeta, SetSealMark), Sync, Close, the footprint and
// its compaction (Space, Vacuum) — and CommitPages, the ONLY way pages, the
// root pointer and frees ever change.
//
// Implementations must be safe for concurrent use: the engine above runs
// lock-free snapshot readers against the store while commits are in flight,
// so ReadPageInto must be callable at any moment — including during
// CommitPages — and must always return some page state that existed (pre- or
// post-commit), never a torn one. The engine's epoch layer guarantees that a
// page rewritten or freed by a commit is never *required* from the store by a
// snapshot reader afterwards (superseded versions are served from the epoch's
// in-memory undo overlay), so stores may release freed pages as part of the
// commit itself; a racing read of a just-freed page may simply return
// ErrNotFound.
type PageStore interface {
	// ReadPageInto returns the length n of page id and, when buf holds at
	// least n bytes, copies the page into buf[:n]; a shorter buf gets nothing
	// written, so ReadPageInto(id, nil) asks for the length alone. The copy
	// is the caller's: buf never aliases the store's own bytes, which the
	// caller may decipher and decode in place, and an implementation must
	// not keep buf once the call returns: the engine recycles it as another
	// page's block. A page may change length between two calls (a commit
	// rewrote it), so a caller that sized buf from an earlier answer compares
	// n with it. This is the engine's one page read: a read miss asks for the
	// length, takes a block from its free list with room for it (the view
	// that will hold the page), and reads the page there.
	ReadPageInto(id uint64, buf []byte) (int, error)
	// ReadPage returns the page's contents in a buffer of the caller's own,
	// which never aliases the store's copy. Implementations may build it
	// with the package's ReadPage over ReadPageInto; the engine never calls
	// it.
	ReadPage(id uint64) ([]byte, error)
	// Alloc reserves a fresh page ID, never reusing a live one. It fails only
	// with ErrClosed.
	Alloc() (uint64, error)
	// Root returns the current root page ID, or NoRoot for an empty tree.
	Root() (uint64, error)
	// Meta returns the store's metadata blob (sealed engine header), or an
	// empty slice if never set.
	Meta() ([]byte, error)
	// SetMeta records the metadata blob, copying the buffer, subject to the
	// same durability mode as commits: at Full it returns once the blob is
	// durable, otherwise once it is applied and queued, and Sync is the
	// barrier.
	SetMeta(meta []byte) error
	// CommitPages atomically applies one write batch: it stores every page in
	// writes, records root as the root pointer, and releases the pages in
	// frees, all as a single all-or-nothing commit. The store TAKES OWNERSHIP
	// of the page buffers: it keeps the slices themselves, so the caller must
	// not touch them after the call, whatever it returns, and it may give
	// each one to pagebuf (pagebuf.Put) once no reader can reach it, for the
	// next seal to reuse. A wrapping store that wants a page's bytes past the
	// call copies them before passing it on. The writes map and
	// the frees slice stay the caller's; the store does not keep them. IDs
	// in frees that were never written are ignored (a page allocated and
	// discarded within the same batch has nothing to release); a page ID must
	// not appear in both writes and frees. Durable implementations must make
	// the flip atomic against crashes: reopening the store after a failure at
	// any point during CommitPages yields exactly the pre-commit or
	// post-commit state, never a mix. Depending on the store's durability
	// mode, a successful return may mean "applied and queued" rather than
	// "on disk" — Sync is the durability barrier. An error does NOT mean
	// nothing was applied: a store may report one after it applied the
	// commit (the file store applies a commit to its read path, then fails
	// every commit its failed flush coalesced), so the caller must treat the
	// store's state as unknown until it is reopened.
	//
	// CommitPages calls on one store never overlap, and every call names its
	// root: the engine's writers take turns, and the turn holder's one call
	// carries every mutation queued behind it, so that call is the tree's
	// group commit.
	CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error
	// SealMark returns the cipher-lifecycle mark last recorded by SetSealMark,
	// or the zero mark if never set (including stores created before the mark
	// existed).
	SealMark() (SealMark, error)
	// SetSealMark records the cipher-lifecycle mark, subject to the same
	// durability mode as commits: Sync is the barrier that makes it durable.
	// Marks ride the same commit pipeline as pages, so a crash yields some
	// previously recorded mark, never a torn one. One ordering is stronger
	// than a commit's: a mark that raises (Epoch, Counter) must be durable
	// before any byte of a page committed after it reaches the backing
	// storage, even a page of a commit the crash then discards. The engine
	// relies on it instead of a Sync per reservation, so off Full a
	// reservation costs no I/O of its own. At Full, where every change waits
	// for its own flush, each reservation is one header-only flush.
	SetSealMark(mark SealMark) error
	// Sync blocks until every commit accepted before the call is durable.
	// Stores whose commits are synchronously durable return immediately.
	Sync() error
	// Close releases resources, flushing any commits the store has accepted
	// but not yet made durable. The store must not be used afterwards.
	Close() error
	Spacer
	Vacuumer
}

// Vacuumer is the PageStore's compaction. Vacuum relocates live data toward
// the front of the backing storage and releases the tail, until the footprint
// is at or below target bytes or no further improvement is possible; it runs
// concurrently with reads and commits and never changes the logical state.
type Vacuumer interface {
	Vacuum(target int64) error
}

// Spacer is the PageStore's physical footprint: fileBytes is the total
// backing-storage size, liveBytes the portion referenced by live data. The
// gap is what a Vacuum could reclaim. Monitors poll it, so an implementation
// answers from counters it keeps, not by walking its pages.
type Spacer interface {
	Space() (fileBytes, liveBytes int64)
}

// ReadPage reads page id whole through rd.ReadPageInto into a buffer of its
// own: it asks for the length, then reads, and asks again when the page
// changed length in between. The stores' ReadPage methods are this.
func ReadPage(rd interface {
	ReadPageInto(id uint64, buf []byte) (int, error)
}, id uint64) ([]byte, error) {
	var buf []byte
	for {
		n, err := rd.ReadPageInto(id, buf)
		if err != nil {
			return nil, err
		}
		if n <= len(buf) {
			return buf[:n], nil
		}
		buf = make([]byte, n)
	}
}

// Mem is an in-memory PageStore that shares none of the file store's code.
// It stays only because bench/replay.go builds its replay engine on it and
// bench/ may not change yet; trees and tests use internal/store/file's NewMem.
// Delete it with ROADMAP item 1, the next time bench/ may be touched. It
// keeps no backing storage, so it reports no footprint and vacuums nothing.
type Mem struct {
	mu     sync.RWMutex
	pages  map[uint64][]byte
	nextID uint64
	root   uint64
	meta   []byte
	mark   SealMark
	closed bool
}

// NewMem returns an empty in-memory page store.
func NewMem() *Mem {
	return &Mem{pages: make(map[uint64][]byte), nextID: NoRoot + 1}
}

func (m *Mem) ReadPageInto(id uint64, buf []byte) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	p, ok := m.pages[id]
	if !ok {
		return 0, fmt.Errorf("%w: page %d", ErrNotFound, id)
	}
	if len(p) <= len(buf) {
		copy(buf, p)
	}
	return len(p), nil
}

func (m *Mem) ReadPage(id uint64) ([]byte, error) { return ReadPage(m, id) }

func (m *Mem) Alloc() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return NoRoot, ErrClosed
	}
	id := m.nextID
	m.nextID++
	return id, nil
}

func (m *Mem) Root() (uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return NoRoot, ErrClosed
	}
	return m.root, nil
}

func (m *Mem) Meta() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	return append([]byte(nil), m.meta...), nil
}

func (m *Mem) SetMeta(meta []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.meta = append([]byte(nil), meta...)
	return nil
}

func (m *Mem) SealMark() (SealMark, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return SealMark{}, ErrClosed
	}
	return m.mark, nil
}

func (m *Mem) SetSealMark(mark SealMark) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.mark = mark
	return nil
}

func (m *Mem) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	// In-memory writes cannot fail, so applying everything under one lock
	// acquisition is already all-or-nothing.
	for id, page := range writes {
		m.pages[id] = page
	}
	m.root = root
	for _, id := range frees {
		delete(m.pages, id)
	}
	return nil
}

func (m *Mem) Sync() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

func (m *Mem) Space() (fileBytes, liveBytes int64) { return 0, 0 }

func (m *Mem) Vacuum(target int64) error { return nil }

// Len returns the number of live pages.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}
