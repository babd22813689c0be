package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// selfCheckingValue is key k's value at generation gen: k itself, gen, a
// filler whose length varies with gen (so a rewrite resizes pages), and a
// CRC of everything before it. A reader checks every byte of what it reads
// without knowing which generation its snapshot holds.
func selfCheckingValue(k []byte, gen int) []byte {
	v := append([]byte(nil), k...)
	v = binary.BigEndian.AppendUint32(v, uint32(gen))
	v = append(v, bytes.Repeat([]byte{byte(gen)}, gen%37)...)
	return binary.BigEndian.AppendUint32(v, crc32.ChecksumIEEE(v))
}

// checkValue reports what is wrong with v as key k's value, or "".
func checkValue(k, v []byte) string {
	if len(v) < len(k)+8 || !bytes.Equal(v[:len(k)], k) {
		return fmt.Sprintf("value %x does not name key %q", v, k)
	}
	body := v[:len(v)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(v[len(body):]) {
		return fmt.Sprintf("value %x of key %q fails its checksum", v, k)
	}
	return ""
}

// TestRecycledBlocksAreUnreachable is the guard on block recycling: a view
// that leaves the cache may give its block to a later read miss only once
// nothing can read it. On a 16-page cache over a tree of hundreds of pages,
// Gets, a writer rewriting values in batches, and cursors run at once, each
// pausing between operations so that the engine is often left with no pins.
// The writer rewrites a hot range of keys nearly always and the Gets read it
// most of the time, so the cache keeps installing views of the pages the
// writer sealed, in blocks from the free list, and serving them, while the
// writer's copies slice into the views it read. Every value names its key and
// carries a checksum, and a cursor keeps the key and value slices it read,
// uncopied, and checks them all again just before Close.
//
// A block recycled while a Get, a cursor or a writer's transaction still held
// its view, a writer's copy left in the cache, or a recycled shell decoded
// without clearing its offset table, shows as a wrong byte here, and under
// -race as a race with the free list's overwrite. Keys alternate runs that
// share more than four bytes with their predecessor (rebuilt in a view's side
// buffer) with keys that share fewer (rebuilt in place), so a stale offset
// table row points at the wrong buffer.
func TestRecycledBlocksAreUnreachable(t *testing.T) {
	const (
		keys    = 1500
		hot     = 24 // keys [0, hot) are the hot range
		commits = 150
		getters = 3
		cursors = 2
	)
	g, err := New(Config{Store: file.NewMem(), Cipher: cipher.Plaintext{}, Order: 8, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "%c%05d", 'a'+i%3, i) }
	err = g.Apply(func(bt *btree.Tree) error {
		for i := range keys {
			if err := bt.Put(key(i), selfCheckingValue(key(i), 0)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g.io.invalidate() // the load's cached copies leave; reads make views from here on

	var (
		wg   sync.WaitGroup
		done atomic.Bool
		fail sync.Once
	)
	failf := func(format string, args ...any) {
		fail.Do(func() { t.Errorf(format, args...) })
		done.Store(true)
	}
	pause := func(rng *rand.Rand) { time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond) }
	pick := func(rng *rand.Rand, hotShare int) []byte {
		if rng.Intn(100) < hotShare {
			return key(rng.Intn(hot))
		}
		return key(rng.Intn(keys))
	}
	for r := range getters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				k := pick(rng, 70)
				v, ok, err := g.Get(k)
				if err != nil || !ok {
					failf("Get(%q) = (%v, %v)", k, ok, err)
					return
				}
				if msg := checkValue(k, v); msg != "" {
					failf("Get: %s", msg)
					return
				}
				pause(rng)
			}
		}()
	}
	for r := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var held [][2][]byte
			for !done.Load() {
				s, err := g.Snapshot()
				if err != nil {
					failf("Snapshot: %v", err)
					return
				}
				it := s.Iter(nil)
				it.Seek(key(rng.Intn(keys)))
				held = held[:0]
				for k, v, ok := it.Next(); ok && len(held) < 120; k, v, ok = it.Next() {
					if msg := checkValue(k, v); msg != "" {
						failf("cursor: %s", msg)
						break
					}
					if len(held) > 0 && bytes.Compare(held[len(held)-1][0], k) >= 0 {
						failf("cursor: key %q after %q", k, held[len(held)-1][0])
						break
					}
					held = append(held, [2][]byte{k, v})
				}
				if err := it.Err(); err != nil {
					failf("cursor: %v", err)
				}
				// Let the Gets and the writer turn the cache over while the
				// slices are held, then check every one of them again.
				pause(rng)
				for _, kv := range held {
					if msg := checkValue(kv[0], kv[1]); msg != "" {
						failf("cursor, before Close: %s", msg)
						break
					}
				}
				s.Close()
				pause(rng)
			}
		}()
	}
	// The writer reads back what it wrote once the limbo has drained (or a
	// while has passed), when the views its commit installed are likely still
	// cached and the views its copies sliced into were retired as the commit
	// replaced them.
	rng := rand.New(rand.NewSource(7))
	var batch [][]byte
	for gen := 1; gen <= commits && !done.Load(); gen++ {
		batch = batch[:0]
		for range 1 + rng.Intn(24) {
			batch = append(batch, pick(rng, 90))
		}
		err := g.Apply(func(bt *btree.Tree) error {
			for _, k := range batch {
				if err := bt.Put(k, selfCheckingValue(k, gen)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			failf("commit %d: %v", gen, err)
		}
		for wait := time.Now().Add(2 * time.Millisecond); g.io.retiring.Load() && time.Now().Before(wait); {
			time.Sleep(20 * time.Microsecond)
		}
		for _, k := range batch {
			if v, ok, err := g.Get(k); err != nil || !ok || !bytes.Equal(v, selfCheckingValue(k, gen)) {
				failf("Get(%q) after commit %d = (%x, %v, %v), want %x", k, gen, v, ok, err, selfCheckingValue(k, gen))
				break
			}
		}
		pause(rng)
	}
	done.Store(true)
	wg.Wait()
	if reused := g.io.blocks.Reused(); reused < 100 {
		t.Errorf("read misses took %d recycled blocks; the test needs the free list in use", reused)
	} else {
		t.Logf("read misses took %d recycled blocks over %d misses", reused, g.io.misses.Load())
	}
	for i := range keys {
		v, ok, err := g.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("readback Get(%q) = (%v, %v)", key(i), ok, err)
		}
		if msg := checkValue(key(i), v); msg != "" {
			t.Fatalf("readback: %s", msg)
		}
	}
}

// TestFailedCommitPreImagesAreNeverRecycled: a commit the store failed stays
// linked after current for good, and its undo overlay keeps hiding what the
// store applied of it, so every later read of a page it rewrote returns the
// pre-image the writer read: the view the cache held. That view may leave the
// cache like any other; its block must never go back to the free list, or the
// next read miss reads another page over bytes every later Get still reads.
// Gets over a tree far larger than the cache evict every pre-image, and each
// leaves the engine with no pins. The pre-images are checked after every Get,
// before the next one can descend through a page read over them.
func TestFailedCommitPreImagesAreNeverRecycled(t *testing.T) {
	const keys = 1500
	fs := &failingStore{PageStore: file.NewMem(), apply: true}
	g, err := New(Config{Store: fs, Cipher: cipher.Plaintext{}, Order: 8, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "%c%05d", 'a'+i%3, i) }
	err = g.Apply(func(bt *btree.Tree) error {
		for i := range keys {
			if err := bt.Put(key(i), selfCheckingValue(key(i), 0)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g.io.invalidate() // the next reads make views of the store's pages
	target := key(700)
	if _, ok, err := g.Get(target); err != nil || !ok {
		t.Fatalf("Get(%q) = (%v, %v)", target, ok, err)
	}

	fs.armed.Store(true)
	if err := enginePut(g, target, selfCheckingValue(target, 1)); !errors.Is(err, errCommitRefused) {
		t.Fatalf("Put against failing store = %v, want the injected error", err)
	}
	failed := g.es.current.Load().next.Load()
	sums := make(map[*node.Node]uint32)
	for _, u := range failed.undo {
		if sum, ok := viewSum(u.n); ok {
			sums[u.n] = sum
		}
	}
	if len(sums) == 0 {
		t.Fatal("the failed commit's undo overlay holds no view; the test needs the cache's views as pre-images")
	}

	misses := g.io.misses.Load()
	for round := range 3 {
		for i := range keys {
			k := key((i*7 + round) % keys)
			if v, ok, err := g.Get(k); err != nil || !ok || !bytes.Equal(v, selfCheckingValue(k, 0)) {
				t.Fatalf("Get(%q) after the failed commit = (%x, %v, %v), want generation 0", k, v, ok, err)
			}
			for n, sum := range sums {
				if got, _ := viewSum(n); got != sum {
					t.Fatalf("after Get(%q), a pre-image of the failed commit changed: its block was recycled", k)
				}
			}
		}
	}
	if got := g.io.misses.Load() - misses; got < 2*keys {
		t.Fatalf("the Gets missed %d times; the test needs the cache turned over", got)
	}
	if v, ok, err := g.Get(target); err != nil || !ok || !bytes.Equal(v, selfCheckingValue(target, 0)) {
		t.Fatalf("Get(%q) after the cache turned over = (%x, %v, %v), want generation 0", target, v, ok, err)
	}
}

// TestColdGetsKeepTheirBlocks: the free list keeps every block it is given,
// so cold Gets from one reader allocate blocks only until the list holds as
// many of each class as the cache, the limbo and one descent held at once.
// Over a tree far larger than a 16-page cache, with values of many lengths so
// that the pages spread over several block classes, every Get misses and
// every release recycles what it evicted; the blocks made fresh (misses that
// found no block of their class) stay within that working set however many
// Gets run.
func TestColdGetsKeepTheirBlocks(t *testing.T) {
	const keys, gets = 3000, 10000
	nc, err := cipher.NewEpochAESGCM(bytes.Repeat([]byte{0x5E}, 32))
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Store: file.NewMem(), Cipher: nc, Order: 8, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "%016x", uint64(i)*0x9E3779B97F4A7C15) }
	for lo := 0; lo < keys; lo += 500 {
		err := g.Apply(func(bt *btree.Tree) error {
			for i := lo; i < lo+500; i++ {
				if err := bt.Put(key(i), bytes.Repeat([]byte{byte(i)}, i%173)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stats, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	misses, reused := g.io.misses.Load(), g.io.blocks.Reused()
	rng := rand.New(rand.NewSource(11))
	for range gets {
		i := rng.Intn(keys)
		if _, ok, err := g.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get(%x) = (%v, %v)", key(i), ok, err)
		}
	}
	misses, reused = g.io.misses.Load()-misses, g.io.blocks.Reused()-reused
	if misses < gets {
		t.Fatalf("%d Gets missed %d times; the test needs cold reads", gets, misses)
	}
	bound := uint64(g.io.maxCache + cap(g.io.limbo) + stats.Height)
	if fresh := misses - reused; fresh > bound {
		t.Errorf("%d misses made %d blocks fresh, want at most %d (cache %d + limbo %d + a descent of %d)",
			misses, fresh, bound, g.io.maxCache, cap(g.io.limbo), stats.Height)
	} else {
		t.Logf("%d misses over %d nodes made %d blocks fresh", misses, stats.Nodes, fresh)
	}
}

// sealRefuser is a node cipher that refuses the seal after the next left
// ones.
type sealRefuser struct {
	cipher.NodeCipher
	left atomic.Int64
}

var errSealRefused = errors.New("injected: seal refused")

func (c *sealRefuser) SealEpoch(id uint64, epoch uint32, counter uint64, pt []byte) ([]byte, error) {
	if c.left.Add(-1) == -1 {
		return nil, errSealRefused
	}
	return c.NodeCipher.SealEpoch(id, epoch, counter, pt)
}

// freeBlocks empties g's free list and returns how many blocks it held.
func freeBlocks(g *Engine) int {
	n := 0
	for size := 1; size <= 8192; size += 32 {
		for {
			before := g.io.blocks.Reused()
			g.io.blocks.Block(size)
			if g.io.blocks.Reused() == before {
				break
			}
			n++
		}
	}
	return n
}

// TestFailedSealGivesBackItsViews: a commit whose seal fails after others in
// it succeeded gives the views those seals built, which no reader or cache
// ever saw, back to the free list. The commit rewrites five cached leaves,
// one sealer seals them in turn, and the fourth seal is refused.
func TestFailedSealGivesBackItsViews(t *testing.T) {
	nc := &sealRefuser{NodeCipher: cipher.Plaintext{}}
	nc.left.Store(-1 << 62)
	g := newCipherEngine(t, nc, file.NewMem(), 0, 0, nil)
	defer g.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%04d", i) }
	for i := range 200 {
		epochPut(t, g, string(key(i)), "v")
	}
	var leaves [][]byte // keys 40 apart: at order 8, each in a leaf of its own
	for i := 0; i < 200; i += 40 {
		leaves = append(leaves, key(i))
		if _, ok, err := g.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get(%s) = (%v, %v)", key(i), ok, err)
		}
	}
	freeBlocks(g)
	nc.left.Store(3)
	err := g.Apply(func(bt *btree.Tree) error {
		for _, k := range leaves {
			if err := bt.Put(k, []byte("w")); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, errSealRefused) {
		t.Fatalf("the commit returned %v, want the refused seal", err)
	}
	if n := freeBlocks(g); n != 3 {
		t.Errorf("the failed commit gave %d blocks back, want the 3 its seals decoded views in", n)
	}
}
