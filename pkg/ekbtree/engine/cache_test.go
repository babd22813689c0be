package engine

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// kindStore counts page reads by what the page holds. index is filled once
// the tree is built and only read afterwards.
type kindStore struct {
	store.PageStore
	index                 map[uint64]bool
	indexReads, leafReads atomic.Int64
}

func (ks *kindStore) ReadPage(id uint64) ([]byte, error) {
	if ks.index[id] {
		ks.indexReads.Add(1)
	} else {
		ks.leafReads.Add(1)
	}
	return ks.PageStore.ReadPage(id)
}

// TestCacheKeepsIndexUnderLeafChurn pins what the reference counts buy on the
// cold-read shape: uniform Gets over a tree whose INDEX alone does not fit in
// the cache. Every Get drags one leaf through the ring that will not be asked
// for again before it is evicted, and under the one-bit clock each of those
// leaves had the same claim to a slot as the index node above it. With leaves
// entering at zero and index nodes at the maximum, the ring fills with index
// nodes, the ones read most often last longest, and the index misses per Get
// fall.
func TestCacheKeepsIndexUnderLeafChurn(t *testing.T) {
	const (
		keys  = 6000
		cache = 800
		gets  = 10000
	)
	ks := &kindStore{PageStore: file.NewMem(), index: map[uint64]bool{}}
	g, err := New(Config{Store: ks, Cipher: cipher.Plaintext{}, Order: 4, CachePages: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)*2654435761) }
	for i := 0; i < keys; i++ {
		if err := enginePut(g, key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	root, err := ks.Root()
	if err != nil {
		t.Fatal(err)
	}
	var walk func(id uint64)
	walk = func(id uint64) {
		n, err := g.io.ReadShared(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			return
		}
		ks.index[id] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if len(ks.index) <= cache {
		t.Fatalf("index of %d nodes; the test needs it over the %d-page cache", len(ks.index), cache)
	}

	g.io.invalidate()
	ks.indexReads.Store(0)
	ks.leafReads.Store(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < gets; i++ {
		if _, ok, err := g.Get(key(rng.Intn(keys))); err != nil || !ok {
			t.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
	perGet := float64(ks.indexReads.Load()) / gets
	t.Logf("%d index nodes, %d-page cache: %.3f index and %.3f leaf reads per Get",
		len(ks.index), cache, perGet, float64(ks.leafReads.Load())/gets)
	// Measured on this tree and this op stream: 0.716 under the one-bit clock
	// (the parent of the change that introduced the counts), 0.516 with them.
	if perGet > 0.6 {
		t.Errorf("%.3f index-node reads per Get, want <= 0.6: leaves are crowding the index out again", perGet)
	}
}

// TestHotLeafBeatsColdIndexNode is the case that rules out evicting leaves
// before any index node: a cache smaller than the stream of index nodes
// passing through it, and one leaf read every other op. Each index node is
// read once and enters at the maximum count, yet it counts down and leaves
// when nobody comes back for it, while the leaf's own references keep it
// ahead of the hand — after the ring's first fill, where every count is at
// the maximum and the hand's position alone decides, the hot leaf never
// misses again. The ring must be longer than the hand travels per insertion
// (maxRef for the index node that came in, one for the leaf's reference): in
// four slots the leaf earns one a revolution and loses one, and goes.
func TestHotLeafBeatsColdIndexNode(t *testing.T) {
	for _, cache := range []int{8, 32, 128} {
		g, err := New(Config{Store: file.NewMem(), Cipher: cipher.Plaintext{}, Order: 8, CachePages: cache})
		if err != nil {
			t.Fatal(err)
		}
		const cold = 1000
		var leaf uint64
		var index [cold]uint64
		err = g.applyTxn(func(tx *writeTxn) error {
			if leaf, err = tx.Alloc(); err != nil {
				return err
			}
			if err := tx.Write(leaf, &node.Node{Leaf: true, Keys: [][]byte{{0}}, Values: [][]byte{{0}}}); err != nil {
				return err
			}
			for i := range index {
				if index[i], err = tx.Alloc(); err != nil {
					return err
				}
				n := &node.Node{Keys: [][]byte{{byte(i)}}, Values: [][]byte{{byte(i)}}, Children: []uint64{leaf, leaf}}
				if err := tx.Write(index[i], n); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		io := g.io
		io.invalidate()
		read := func(id uint64) (hit bool) {
			t.Helper()
			before := io.cacheStats().Hits
			if _, err := io.ReadShared(id); err != nil {
				t.Fatal(err)
			}
			return io.cacheStats().Hits > before
		}
		warm := 2 * cache // index reads until the ring has filled and turned over once
		evicted := io.cacheStats().Evictions
		for i, id := range index {
			if hit := read(leaf); !hit && i > warm {
				t.Fatalf("cache of %d: the hot leaf was evicted before index read %d", cache, i)
			}
			if read(id) {
				t.Fatalf("cache of %d: index node %d read for the first time was a hit", cache, i)
			}
		}
		if got, want := io.cacheStats().Evictions-evicted, uint64(cold-cache); got < want {
			t.Errorf("cache of %d: %d evictions over %d cold index nodes, want >= %d", cache, got, cold, want)
		}
		g.Close()
	}
}
