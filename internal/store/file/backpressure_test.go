package file

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// gateSyncFile wraps a real file and, once armed, parks every Sync on a gate
// channel — holding a flush open so tests can observe what blocks (and what
// must not) while one is in flight.
type gateSyncFile struct {
	*os.File
	mu      sync.Mutex
	armed   bool
	once    sync.Once
	entered chan struct{} // closed when the first armed Sync parks
	gate    chan struct{} // close to release all parked and future Syncs
}

func newGateSyncFile(t *testing.T, path string) *gateSyncFile {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	return &gateSyncFile{File: f, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateSyncFile) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gateSyncFile) Sync() error {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return g.File.Sync()
}

// TestMaxUnflushedValidation pins the config surface: negative bounds are
// rejected, zero means the default.
func TestMaxUnflushedValidation(t *testing.T) {
	if _, err := OpenConfig(filepath.Join(t.TempDir(), "x.ekb"), Config{MaxUnflushed: -1}); err == nil {
		t.Fatal("negative MaxUnflushed accepted")
	}
	if got := (Config{}).maxUnflushed(); got != DefaultMaxUnflushed {
		t.Fatalf("zero MaxUnflushed resolves to %d, want %d", got, DefaultMaxUnflushed)
	}
	if got := (Config{MaxUnflushed: 123}).maxUnflushed(); got != 123 {
		t.Fatalf("explicit MaxUnflushed resolves to %d", got)
	}
}

// TestAsyncBackpressureBlocksEnqueue pins the blocking semantics: with a
// flush held open and the pending group at the MaxUnflushed bound, a new
// commit BLOCKS (bounding memory) instead of being admitted, and proceeds
// once the backlog flushes. Reads are never blocked by the backpressure.
func TestAsyncBackpressureBlocksEnqueue(t *testing.T) {
	const bound = 1024
	gf := newGateSyncFile(t, filepath.Join(t.TempDir(), "bp.ekb"))
	s, err := OpenWithConfig(gf, Config{Durability: Async, MaxUnflushed: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gf.arm()

	big := bytes.Repeat([]byte{0x11}, 2*bound)
	idA, _ := s.Alloc()
	// A single oversized commit is admitted on the empty group (and, being
	// over the bound in Async mode, starts the background flush that will
	// park on the gate).
	if err := s.CommitPages(map[uint64][]byte{idA: big}, idA, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gf.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("backpressure flush never started")
	}
	// The flush is parked; this lands in a fresh pending group (admitted:
	// the group is empty) and fills it past the bound.
	idB, _ := s.Alloc()
	if err := s.CommitPages(map[uint64][]byte{idB: big}, idB, nil); err != nil {
		t.Fatal(err)
	}
	// Now the pending group is over the bound: the next commit must block.
	idC, _ := s.Alloc()
	cDone := make(chan error, 1)
	go func() {
		cDone <- s.CommitPages(map[uint64][]byte{idC: []byte("small")}, idC, nil)
	}()
	select {
	case err := <-cDone:
		t.Fatalf("commit admitted past the MaxUnflushed bound (err=%v)", err)
	case <-time.After(150 * time.Millisecond):
	}
	// Reads still proceed while producers are blocked.
	if got, err := s.ReadPage(idB); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("ReadPage under backpressure = (%d bytes, %v)", len(got), err)
	}
	// So does a vacuum step: a pass has no payload, so it joins the full group
	// at once (and then waits, like any vacuum step, for the group's flush).
	vDone := make(chan error, 1)
	go func() {
		_, err := s.relocate(pass{budget: vacuumBatchBytes})
		vDone <- err
	}()
	tableChecks{t, s}.awaitStep()

	close(gf.gate) // release the flush; the backlog drains and C proceeds
	select {
	case err := <-cDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked commit never proceeded after the flush drained")
	}
	if err := <-vDone; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{idA, idB, idC} {
		if _, err := s.ReadPage(id); err != nil {
			t.Fatalf("page %d unreadable after drain: %v", id, err)
		}
	}
}
