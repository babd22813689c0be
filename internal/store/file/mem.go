package file

import (
	"io"
	"slices"
	"sync"
)

// NewMem returns an empty store at Async over a page file held in memory:
// the store of a tree opened without a Path. It is the file store down to the
// bytes of its image, except that nothing outlives the process.
func NewMem() *Store {
	s, err := OpenWithConfig(&memFile{}, Config{Durability: Async})
	if err != nil {
		panic(err) // initializing an empty in-memory file cannot fail
	}
	return s
}

// memFile is a File in memory. Its own lock lets the committer write extents
// while ReadPageInto reads others.
type memFile struct {
	mu  sync.RWMutex
	buf []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	if n := copy(p, f.buf[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.extendLocked(off + int64(len(p)))
	return copy(f.buf[off:], p), nil
}

// Truncate cuts or zero-extends the file to size. A cut copies what is kept
// into a buffer of its own, so the tail's memory goes back to the runtime.
func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.buf)) {
		f.buf = append([]byte(nil), f.buf[:size]...)
	}
	f.extendLocked(size)
	return nil
}

// extendLocked grows the file to size, zero-filling the new bytes.
func (f *memFile) extendLocked(size int64) {
	if old := len(f.buf); size > int64(old) {
		f.buf = slices.Grow(f.buf, int(size)-old)[:size]
		clear(f.buf[old:])
	}
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
