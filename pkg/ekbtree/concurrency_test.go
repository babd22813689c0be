package ekbtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// gateStore wraps a PageStore and, when armed, parks every CommitPages call
// on a gate channel — simulating an arbitrarily slow flush so tests can
// prove readers do not wait for in-flight commits.
type gateStore struct {
	store.PageStore
	armed   atomic.Bool
	gate    chan struct{} // receives release
	entered chan struct{} // closed once a commit is parked
	once    sync.Once
}

func newGateStore() *gateStore {
	return &gateStore{
		PageStore: file.NewMem(),
		gate:      make(chan struct{}),
		entered:   make(chan struct{}),
	}
}

func (g *gateStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	if g.armed.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return g.PageStore.CommitPages(writes, root, frees)
}

// TestGetDoesNotWaitForCommit is the acceptance check for lock-free reads:
// while a batch commit is parked inside the store flush, Gets, a full cursor
// scan, and Stats all complete promptly — and observe exactly the pre-batch
// state. Under the old RWMutex design every one of these would block until
// the flush finished.
func TestGetDoesNotWaitForCommit(t *testing.T) {
	gs := newGateStore()
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC1}, 32), order: 8, Store: gs})
	defer tr.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	gs.armed.Store(true)
	commitDone := make(chan error, 1)
	go func() {
		b := tr.NewBatch()
		for i := 0; i < n; i++ {
			if err := b.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("new")); err != nil {
				commitDone <- err
				return
			}
		}
		commitDone <- b.Commit()
	}()
	select {
	case <-gs.entered:
	case err := <-commitDone:
		t.Fatalf("commit finished before reaching the store: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("commit never reached the store")
	}

	// The flush is parked. Reads must complete now, from the previous epoch.
	readsDone := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("k%04d", i*4))
			v, ok, err := tr.Get(k)
			if err != nil || !ok {
				readsDone <- fmt.Errorf("Get(%s) = (%v, %v) during in-flight commit", k, ok, err)
				return
			}
			if string(v) != "old" {
				readsDone <- fmt.Errorf("Get(%s) = %q during in-flight commit, want pre-batch value", k, v)
				return
			}
		}
		count := 0
		err := walk(tr.Cursor(), func(_, v []byte) bool {
			if string(v) != "old" {
				err := fmt.Errorf("scan observed %q during in-flight commit", v)
				readsDone <- err
				return false
			}
			count++
			return true
		})
		if err != nil {
			readsDone <- err
			return
		}
		if count != n {
			readsDone <- fmt.Errorf("scan during in-flight commit visited %d entries, want %d", count, n)
			return
		}
		if _, err := tr.Stats(); err != nil {
			readsDone <- err
			return
		}
		readsDone <- nil
	}()
	select {
	case err := <-readsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind the in-flight commit")
	}
	select {
	case err := <-commitDone:
		t.Fatalf("commit completed before the gate opened: %v", err)
	default:
	}

	gs.armed.Store(false)
	close(gs.gate)
	if err := <-commitDone; err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tr.Get([]byte("k0000")); err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get after commit = (%q, %v, %v), want new", v, ok, err)
	}
}

// TestCursorSnapshotAcrossCommit pins snapshot isolation deterministically: a
// cursor opened before a batch commit sees none of it, even when it starts
// iterating only after the commit landed; a cursor opened after sees all of
// it. The cursor can never observe a half-applied batch.
func TestCursorSnapshotAcrossCommit(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC2}, 32), order: 8})
	defer tr.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Cursor()
	defer before.Close()

	b := tr.NewBatch()
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if err := b.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
				t.Fatal(err)
			}
		} else if err := b.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	count := 0
	for ok := before.First(); ok; ok = before.Next() {
		if string(before.Value()) != "v1" {
			t.Fatalf("pre-commit cursor observed %q", before.Value())
		}
		count++
	}
	if err := before.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("pre-commit cursor visited %d entries, want %d", count, n)
	}

	after := tr.Cursor()
	defer after.Close()
	count = 0
	for ok := after.First(); ok; ok = after.Next() {
		if string(after.Value()) != "v2" {
			t.Fatalf("post-commit cursor observed %q", after.Value())
		}
		count++
	}
	if err := after.Err(); err != nil {
		t.Fatal(err)
	}
	if want := n - (n+2)/3; count != want {
		t.Fatalf("post-commit cursor visited %d entries, want %d", count, want)
	}
}

// TestLargeBatchNotStarvedBySmallPuts is the integration fairness test: one
// large batch races four goroutines hammering single-key puts. The batch's
// transaction is long (hundreds of pages) and the hammerers' are tiny, so a
// scheme that let the small commits keep overtaking it could starve it. It
// must commit — the write turn serves writers in arrival order — and all of
// its writes must be present afterwards.
func TestLargeBatchNotStarvedBySmallPuts(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC6}, 32), order: 8})
	defer tr.Close()
	for i := 0; i < 400; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("seed%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var hammerers sync.WaitGroup
	for g := 0; g < 4; g++ {
		hammerers.Add(1)
		go func(g int) {
			defer hammerers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("seed%04d", (g*100+i)%400))
				if err := tr.Put(k, []byte(fmt.Sprintf("h%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	const batchKeys = 300
	b := tr.NewBatch()
	for i := 0; i < batchKeys; i++ {
		if err := b.Put([]byte(fmt.Sprintf("batch%04d", i)), []byte("bv")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- b.Commit() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("large batch starved by concurrent small puts")
	}
	close(stop)
	hammerers.Wait()

	for i := 0; i < batchKeys; i++ {
		k := []byte(fmt.Sprintf("batch%04d", i))
		if v, ok, err := tr.Get(k); err != nil || !ok || string(v) != "bv" {
			t.Fatalf("batch key %s = (%q, %v, %v) after racing commit", k, v, ok, err)
		}
	}
}

// TestStatsCountersConcurrentReaders exercises the Hits/Misses/Evictions/
// Pages counters while readers, writers, and Stats callers run concurrently:
// samples must be monotonic (hits/misses/evictions never go backwards),
// Pages must respect the configured capacity, and traffic must actually be
// counted. The commit counter (Commits) must be monotonic under the same
// churn. Runs under -race in CI.
func TestStatsCountersConcurrentReaders(t *testing.T) {
	const cachePages = 8
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC3}, 32), order: 8, CachePages: cachePages})
	defer tr.Close()
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 800; i++ {
				k := []byte(fmt.Sprintf("k%05d", rng.Intn(n)))
				if _, ok, err := tr.Get(k); err != nil || !ok {
					t.Errorf("Get = (%v, %v)", ok, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // a writer, so eviction and promotion churn under the samplers
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.Put([]byte(fmt.Sprintf("w%05d", i%200)), []byte(fmt.Sprintf("x%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var last CacheStats
	var lastCommit Stats
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		c := s.Cache
		if c.Hits < last.Hits || c.Misses < last.Misses || c.Evictions < last.Evictions {
			t.Fatalf("counters went backwards: %+v after %+v", c, last)
		}
		if c.Pages > cachePages {
			t.Fatalf("Pages = %d exceeds capacity %d", c.Pages, cachePages)
		}
		if s.Commits < lastCommit.Commits {
			t.Fatalf("commit counter went backwards: %+v after %+v", s, lastCommit)
		}
		last, lastCommit = c, s
		if c.Hits > 0 && c.Misses > 0 && c.Evictions > 0 && time.Now().Add(4500*time.Millisecond).After(deadline) {
			break // sampled enough churn; let the readers finish
		}
	}
	close(stop)
	wg.Wait()
	s, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache.Hits == 0 || s.Cache.Misses == 0 || s.Cache.Evictions == 0 {
		t.Fatalf("no traffic recorded under concurrency: %+v", s.Cache)
	}
}
