// Package faulttest is the repository's one crash model: a File that fails on
// a schedule, and Sweep, the loop that points it at every operation a
// workload performs. Every byte-level fault sweep in the module is a caller
// of Sweep, so a hole in the model is closed once, here.
//
// Three kinds of failure are modelled:
//
//   - Process death with a torn write. The File fails at operation n
//     (counting WriteAt and Sync, and Truncate when the plan says so), leaves
//     the first Torn bytes of a failing write in place, and refuses every
//     later operation. Whatever was written before the fault stays.
//   - Power loss (Plan.Lose). As above, but the writes made since the last
//     successful Sync had only reached a volatile cache: when the fault has
//     fired they are taken back — all of them, or all but the newest k, the
//     reorderings in which the last writes reach the platter and the earlier
//     ones do not. A Truncate is durable at once: a lost cut would only leave
//     bytes past the store's frontier, which no reader looks at.
//   - A transient device error (Plan.Heal). Operation n alone fails, with
//     Plan.Err (ENOSPC, EIO); the device then works again and nothing is lost.
//
// The package must import nothing from this module. The file store's
// in-package tests import it, so an import back — of internal/store/file, or
// of anything under pkg/ that reaches it — is a cycle; File therefore
// satisfies file.File structurally.
package faulttest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// ErrInjected is what a failed operation returns unless Plan.Err says otherwise.
var ErrInjected = errors.New("injected fault")

const (
	// KeepAll, as a Plan.Lose variant, is process death: no write is taken back.
	KeepAll = -1
	// Never, as the operation to fail at, opens a File that only counts.
	Never = -1
)

// Plan says what a fault does and which variants of it a Sweep visits.
type Plan struct {
	Torn      []int // bytes of the failing write left in place, one sweep each; nil is {0}
	Lose      []int // power-loss variants, one sweep each: KeepAll, or how many of the newest unsynced writes survive; nil is {KeepAll}
	Truncates bool  // Truncate is an operation that can fail too
	Heal      bool  // fail the one operation and carry on, instead of dying
	Err       error // what a failed operation returns; nil is ErrInjected
}

// write is one entry of the power-loss log: a write not yet covered by a Sync.
type write struct {
	off  int64
	n    int    // bytes written
	old  []byte // what they replaced; shorter than n where the write ran past the end
	size int64  // length of the file before the write
}

// File is a real file that fails at a chosen operation. It has the methods of
// file.File and is safe for the concurrent use the store makes of one.
type File struct {
	f   *os.File
	tag string

	mu     sync.Mutex
	plan   Plan
	at     int // operations left before the fault; negative: none scheduled
	torn   int
	lose   int
	ops    int
	fired  bool
	dead   bool
	size   int64   // current length, so a taken-back write can give back what it appended
	log    []write // oldest first; kept only when lose != KeepAll
	closed bool
	cerr   error
}

// Open opens the file at path to fail at operation at, counting from 0, in
// the way p says (Never: count operations and fail none). p.Torn and p.Lose
// are Sweep's dimensions and are not read: the File tears nothing and keeps
// everything.
func Open(path string, at int, p Plan) (*File, error) {
	return open(path, at, 0, KeepAll, p)
}

func open(path string, at, torn, lose int, p Plan) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if p.Err == nil {
		p.Err = ErrInjected
	}
	return &File{f: f, plan: p, at: at, torn: torn, lose: lose, size: st.Size()}, nil
}

// String names the fault this File carries ("torn=7 lose=2 n=13") inside a
// Sweep, for failure messages.
func (f *File) String() string { return f.tag }

// Fired reports whether the scheduled fault was reached.
func (f *File) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Ops is the number of operations counted so far, the failed one included.
func (f *File) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

type outcome int

const (
	pass    outcome = iota
	fault           // the scheduled fault: this operation fails, and may tear
	refused         // the file died at an earlier fault
)

// step decides one operation's fate; counted says whether it is one the
// schedule counts. The caller holds f.mu.
func (f *File) step(counted bool) outcome {
	switch {
	case f.dead:
		return refused
	case !counted:
		return pass
	}
	f.ops++
	if f.at != 0 {
		if f.at > 0 {
			f.at--
		}
		return pass
	}
	f.fired = true
	if f.plan.Heal {
		f.at = Never
	} else {
		f.dead = true
	}
	return fault
}

func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch f.step(true) {
	case pass:
		return f.write(p, off)
	case fault:
		n := min(f.torn, len(p))
		if n > 0 {
			if _, err := f.write(p[:n], off); err != nil {
				return 0, err
			}
		}
		return n, f.plan.Err
	}
	return 0, f.plan.Err
}

// write performs a write that reaches the file, logging what it replaces
// when a power loss may have to take it back.
func (f *File) write(p []byte, off int64) (int, error) {
	if f.lose != KeepAll {
		old := make([]byte, len(p))
		n, err := f.f.ReadAt(old, off)
		if err != nil && err != io.EOF {
			return 0, err
		}
		f.log = append(f.log, write{off: off, n: len(p), old: old[:n], size: f.size})
	}
	n, err := f.f.WriteAt(p, off)
	f.size = max(f.size, off+int64(n))
	return n, err
}

func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step(true) != pass {
		return f.plan.Err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.log = f.log[:0]
	return nil
}

func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step(f.plan.Truncates) != pass {
		return f.plan.Err
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	// The cut is durable at once: nothing a later power loss takes back may
	// bring bytes past it into being again.
	f.size = size
	for i := range f.log {
		w := &f.log[i]
		w.old = w.old[:max(0, min(int64(len(w.old)), size-w.off))]
		w.size = min(w.size, size)
	}
	return nil
}

// Close closes the file, first taking back what a power loss would have. A
// second Close (the store's, then Sweep's) repeats the first one's result.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		f.cerr = f.losePower()
		if err := f.f.Close(); f.cerr == nil {
			f.cerr = err
		}
	}
	return f.cerr
}

// losePower takes back the logged writes except the newest f.lose, leaving the
// file as if only those had reached the platter since the last Sync. It waits
// for Close so that the store under test — which may go on reading after a
// failed flush — sees the process-death view until it is done; nothing can
// have changed in between, the file having refused every operation since.
func (f *File) losePower() error {
	if !f.dead || f.lose == KeepAll {
		return nil
	}
	keep := f.log[max(0, len(f.log)-f.lose):]
	kept := make([][]byte, len(keep))
	for i, w := range keep {
		kept[i] = make([]byte, w.n)
		n, err := f.f.ReadAt(kept[i], w.off)
		if err != nil && err != io.EOF {
			return err
		}
		kept[i] = kept[i][:n]
	}
	for i := len(f.log) - 1; i >= 0; i-- {
		w := f.log[i]
		if _, err := f.f.WriteAt(w.old, w.off); err != nil {
			return err
		}
		if err := f.f.Truncate(w.size); err != nil {
			return err
		}
	}
	for i, w := range keep {
		if _, err := f.f.WriteAt(kept[i], w.off); err != nil {
			return err
		}
	}
	f.log = nil
	return nil
}

// Copy copies the file at src to dst: a scratch copy of a base state for a
// reference run that must not disturb it.
func Copy(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o600); err != nil {
		t.Fatal(err)
	}
}

// Sweep is the one fault loop. For every (Lose, Torn) variant of p and for
// n = 0, 1, 2, … it copies base to a work file (base "": an empty file), opens
// that to fail at operation n, calls run, closes the file, and hands check
// what survived: the variant's tag, the work file's path, whether the fault
// was reached, and run's error. A variant ends at the first n the workload
// finishes before reaching — that last call sees fired == false — and logs
// the number of fault points it visited. run takes ownership of f the way a
// store does and may leave the closing to Sweep.
func Sweep(t *testing.T, base string, p Plan, run func(f *File) error, check func(tag, path string, fired bool, runErr error)) {
	t.Helper()
	if p.Heal && len(p.Lose) > 0 {
		t.Fatal("faulttest: a healed fault loses no power; Plan.Lose needs a fault that kills")
	}
	var image []byte
	if base != "" {
		var err error
		if image, err = os.ReadFile(base); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "work.ekb")
	for _, lose := range orJust(p.Lose, KeepAll) {
		for _, torn := range orJust(p.Torn, 0) {
			variant := fmt.Sprintf("torn=%d", torn)
			if lose != KeepAll {
				variant += fmt.Sprintf(" lose=%d", lose)
			}
			for n := 0; ; n++ {
				tag := fmt.Sprintf("%s n=%d", variant, n)
				if err := os.WriteFile(path, image, 0o600); err != nil {
					t.Fatal(err)
				}
				f, err := open(path, n, torn, lose, p)
				if err != nil {
					t.Fatal(err)
				}
				f.tag = tag
				runErr := run(f)
				if err := f.Close(); err != nil {
					t.Fatalf("%s: closing the work file: %v", tag, err)
				}
				fired := f.Fired()
				check(tag, path, fired, runErr)
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				if !fired {
					t.Logf("%s: %d fault points", variant, n)
					break
				}
			}
		}
	}
}

func orJust(vs []int, v int) []int {
	if len(vs) == 0 {
		return []int{v}
	}
	return vs
}
