package ekbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func benchTree(b *testing.B) *Tree {
	b.Helper()
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x99}, 32)})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchKey(rng *rand.Rand, i int) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, rng.Uint64())
	binary.BigEndian.PutUint64(k[8:], uint64(i))
	return k
}

// BenchmarkPutGet measures the full stack — key substitution, node
// encode/decode, AES-GCM seal/open, and store round trips — for one Put of a
// fresh key plus one Get, over a pre-populated 10k-key tree.
func BenchmarkPutGet(b *testing.B) {
	tr := benchTree(b)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(benchKey(rng, i), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(rng, 10_000+i)
		if err := tr.Put(k, value); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := tr.Get(k); err != nil || !ok {
			b.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
}

// BenchmarkGetParallel measures concurrent epoch-pinned readers over a
// 10k-key tree.
func BenchmarkGetParallel(b *testing.B) {
	tr := benchTree(b)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, 10_000)
	value := make([]byte, 64)
	for i := range keys {
		keys[i] = benchKey(rng, i)
		if err := tr.Put(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok, err := tr.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Fatalf("Get = (%v, %v)", ok, err)
			}
			i++
		}
	})
}

// BenchmarkColdGetParallel measures cold Gets from 1, 2 and 8 goroutines per
// CPU over a 50 000-key tree with a 64-page cache, so nearly every Get reads
// pages from the store. With -benchmem it shows what a miss allocates when
// readers overlap: a view evicted by one Get's descent is recycled only at a
// release that leaves the tree with no pins, which readers that always
// overlap never reach.
func BenchmarkColdGetParallel(b *testing.B) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x99}, 32), CachePages: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, 50_000)
	value := make([]byte, 64)
	for lo := 0; lo < len(keys); lo += 5_000 {
		batch := tr.NewBatch()
		for i := lo; i < lo+5_000; i++ {
			keys[i] = benchKey(rng, i)
			if err := batch.Put(keys[i], value); err != nil {
				b.Fatal(err)
			}
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	for _, perCPU := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("readers=%dxCPU", perCPU), func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(perCPU)
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					if _, ok, err := tr.Get(keys[rng.Intn(len(keys))]); err != nil || !ok {
						b.Fatalf("Get = (%v, %v)", ok, err)
					}
				}
			})
		})
	}
}

// BenchmarkCursorScan measures a full ordered scan of a 10k-key tree through
// the snapshot Cursor API (the callback Scan is a ten-line loop over the same
// cursor), touching Key and Value for every entry.
func BenchmarkCursorScan(b *testing.B) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x99}, 32)})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(benchKey(rng, i), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tr.Cursor()
		count := 0
		var kb, vb int
		for ok := c.First(); ok; ok = c.Next() {
			kb += len(c.Key())
			vb += len(c.Value())
			count++
		}
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
		c.Close()
		if count != 10_000 || vb != 10_000*64 {
			b.Fatalf("cursor visited %d entries, %d value bytes", count, vb)
		}
	}
}

// BenchmarkCursorScanParallel runs full snapshot scans from parallel
// goroutines: epoch-pinned readers share the decoded-node cache and never
// serialize on a tree lock, so throughput scales with cores instead of
// flat-lining behind an RWMutex.
func BenchmarkCursorScanParallel(b *testing.B) {
	tr := benchTree(b)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(benchKey(rng, i), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c := tr.Cursor()
			count := 0
			for ok := c.First(); ok; ok = c.Next() {
				count++
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
			c.Close()
			if count != 10_000 {
				b.Fatalf("cursor visited %d", count)
			}
		}
	})
}

// BenchmarkPutUnbatched measures single-key Puts of fresh keys into a
// pre-populated 10k-key tree: the per-operation seal/encode cost the Batch
// API amortizes away.
func BenchmarkPutUnbatched(b *testing.B) {
	tr := benchTree(b)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(benchKey(rng, i), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(benchKey(rng, 10_000+i), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutBatched measures the same workload staged through Batches of
// 256 puts, so each touched page is sealed once per commit instead of once
// per put. ns/op is still per individual put.
func BenchmarkPutBatched(b *testing.B) {
	tr := benchTree(b)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(benchKey(rng, i), value); err != nil {
			b.Fatal(err)
		}
	}
	const batchSize = 256
	b.ResetTimer()
	i := 0
	for i < b.N {
		batch := tr.NewBatch()
		for j := 0; j < batchSize && i < b.N; j++ {
			if err := batch.Put(benchKey(rng, 10_000+i), value); err != nil {
				b.Fatal(err)
			}
			i++
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFileTree builds a tree over the crash-safe file backend in a fresh
// temp directory, pre-populated through batches (one fsync'd commit per 256
// puts instead of per put).
func benchFileTree(b *testing.B, n int, d Durability) *Tree {
	b.Helper()
	tr, err := Open(Options{
		MasterKey:  bytes.Repeat([]byte{0x9C}, 32),
		Path:       filepath.Join(b.TempDir(), "bench.ekb"),
		Durability: d,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	value := make([]byte, 64)
	for i := 0; i < n; i += 256 {
		batch := tr.NewBatch()
		for j := i; j < i+256 && j < n; j++ {
			if err := batch.Put(benchKey(rng, j), value); err != nil {
				b.Fatal(err)
			}
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

// BenchmarkFilePutGet is BenchmarkPutGet over the file backend, per
// durability mode. In full mode each Put waits for its shadow-paged flush
// (fresh extents, directory rewrite, two fsyncs), so the gap to the
// in-memory number is the price of synchronous per-operation durability; in
// grouped and async modes the Put is acknowledged once applied and the
// committer amortizes the fsyncs across the window. The numbers measure
// what each mode makes the CALLER wait for — acknowledgment latency — which
// is exactly the modes' contract; the deferred flush work happens on the
// committer goroutine (concurrently, inside the timed region for grouped;
// at the final Sync, outside it, for async), so the cells are not
// total-I/O-per-op comparable.
func BenchmarkFilePutGet(b *testing.B) {
	for _, mode := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		b.Run("durability="+mode.String(), func(b *testing.B) {
			tr := benchFileTree(b, 10_000, mode)
			defer tr.Close()
			rng := rand.New(rand.NewSource(43))
			value := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := benchKey(rng, 10_000+i)
				if err := tr.Put(k, value); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := tr.Get(k); err != nil || !ok {
					b.Fatalf("Get = (%v, %v)", ok, err)
				}
			}
			b.StopTimer()
			if err := tr.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFilePutBatched measures durable batched ingest: 256 puts share
// one shadow-paged commit, amortizing the directory rewrite and both fsyncs.
// ns/op is per individual put.
func BenchmarkFilePutBatched(b *testing.B) {
	tr := benchFileTree(b, 10_000, DurabilityFull)
	defer tr.Close()
	rng := rand.New(rand.NewSource(43))
	value := make([]byte, 64)
	const batchSize = 256
	b.ResetTimer()
	i := 0
	for i < b.N {
		batch := tr.NewBatch()
		for j := 0; j < batchSize && i < b.N; j++ {
			if err := batch.Put(benchKey(rng, 10_000+i), value); err != nil {
				b.Fatal(err)
			}
			i++
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileCommit measures one durable commit in isolation: a 64-put
// batch, timed per commit rather than per put.
func BenchmarkFileCommit(b *testing.B) {
	tr := benchFileTree(b, 10_000, DurabilityFull)
	defer tr.Close()
	rng := rand.New(rand.NewSource(43))
	value := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := tr.NewBatch()
		for j := 0; j < 64; j++ {
			if err := batch.Put(benchKey(rng, 10_000+i*64+j), value); err != nil {
				b.Fatal(err)
			}
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileGet measures point reads over the file backend with the
// decoded-node cache doing its usual work; misses hit the page file.
func BenchmarkFileGet(b *testing.B) {
	tr := benchFileTree(b, 10_000, DurabilityFull)
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, 10_000)
	for i := range keys {
		keys[i] = benchKey(rng, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tr.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
}

// benchParallelPuts drives b.N fresh-key Puts through `writers` goroutines
// against a pre-populated file tree. When serialize is non-nil every Put runs
// under that external mutex, reproducing the old façade where one writer
// lock serialized all mutations — the in-run baseline the parallel numbers
// are measured against.
func benchParallelPuts(b *testing.B, tr *Tree, writers int, serialize *sync.Mutex) {
	value := make([]byte, 64)
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				k := benchKey(rng, 10_000+int(i))
				if serialize != nil {
					serialize.Lock()
				}
				err := tr.Put(k, value)
				if serialize != nil {
					serialize.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if err := tr.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFilePutParallel measures concurrent writers through the façade,
// per durability mode. Writers take turns, and the turn holder commits the
// Puts queued behind it with its own, so under DurabilityFull one flush
// carries every Put that queued during the previous one: the one way
// concurrent writers share a flush, since the store never sees two commits
// at once. ns/op is per Put.
func BenchmarkFilePutParallel(b *testing.B) {
	for _, mode := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		b.Run("durability="+mode.String(), func(b *testing.B) {
			for _, writers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
					tr := benchFileTree(b, 10_000, mode)
					defer tr.Close()
					benchParallelPuts(b, tr, writers, nil)
				})
			}
		})
	}
}

// BenchmarkFilePutSerialized is the same 8-goroutine workload forced through
// one external mutex: what the façade's old single-writer lock made of it.
// Compare against BenchmarkFilePutParallel writers=8 in the same run for the
// multi-writer speedup.
func BenchmarkFilePutSerialized(b *testing.B) {
	for _, mode := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		b.Run("durability="+mode.String(), func(b *testing.B) {
			tr := benchFileTree(b, 10_000, mode)
			defer tr.Close()
			var mu sync.Mutex
			benchParallelPuts(b, tr, 8, &mu)
		})
	}
}

// BenchmarkFileConcurrentIngest measures durable multi-writer batched ingest
// through the façade: writers ∈ {1, 2, 8}, each owning a distinct slice of
// the keyspace (a fixed first byte spread across the full 0..255 range),
// commit 512-put batches under grouped durability, for each substituter. The
// bucketed substituter keeps each writer's keys range-local; HMAC, the
// default, scatters every batch over the whole tree. Writers take turns, and
// a turn holder commits the batches queued behind it with its own:
// puts/commit reports how many puts a store commit carried, conflicts/commit
// how many commits a conflict re-ran. ns/op is per individual put.
func BenchmarkFileConcurrentIngest(b *testing.B) {
	const batchSize = 512
	subs := []struct {
		name string
		new  func() (Substituter, error)
	}{
		{"hmac", func() (Substituter, error) { return NewHMACSubstituter(bytes.Repeat([]byte{0x9A}, 32), 16) }},
		{"bucketed", func() (Substituter, error) { return NewBucketedSubstituter(bytes.Repeat([]byte{0x9A}, 32), 16, 16) }},
	}
	for _, sc := range subs {
		for _, writers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("sub=%s/writers=%d", sc.name, writers), func(b *testing.B) {
				sub, err := sc.new()
				if err != nil {
					b.Fatal(err)
				}
				nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0x9B}, 32))
				if err != nil {
					b.Fatal(err)
				}
				tr, err := Open(Options{
					Substituter: sub,
					Cipher:      nc,
					Path:        filepath.Join(b.TempDir(), "ingest.ekb"),
					Durability:  DurabilityGrouped,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				st0, err := tr.Stats()
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 64)
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						prefix := byte(w * (256 / writers))
						seq := 0
						for {
							lo := next.Add(batchSize) - batchSize
							if lo >= int64(b.N) {
								return
							}
							hi := min(lo+batchSize, int64(b.N))
							batch := tr.NewBatch()
							for i := lo; i < hi; i++ {
								k := make([]byte, 9)
								k[0] = prefix
								binary.BigEndian.PutUint64(k[1:], uint64(seq))
								seq++
								if err := batch.Put(k, value); err != nil {
									b.Error(err)
									return
								}
							}
							if err := batch.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if err := tr.Sync(); err != nil {
					b.Fatal(err)
				}
				st1, err := tr.Stats()
				if err != nil {
					b.Fatal(err)
				}
				if commits := float64(st1.Commits - st0.Commits); commits > 0 {
					b.ReportMetric(float64(b.N)/commits, "puts/commit")
				}
			})
		}
	}
}

// benchSeqTree builds a tree over a fully order-preserving substituter, so
// sequential keys land in adjacent leaves and batched ingest can amortize
// page seals. With the default PRF substituter every key is scattered to a
// random leaf and batching cannot exploit locality (see BenchmarkPutBatched).
func benchSeqTree(b *testing.B) *Tree {
	b.Helper()
	sub, err := NewBucketedSubstituter(bytes.Repeat([]byte{0x9A}, 32), 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0x9B}, 32))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Open(Options{Substituter: sub, Cipher: nc})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func seqKey(i int) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, uint64(i))
	return k
}

// BenchmarkPutSeqUnbatched measures sorted ingest one Put at a time: every
// insert re-seals the rightmost leaf and its split path.
func BenchmarkPutSeqUnbatched(b *testing.B) {
	tr := benchSeqTree(b)
	defer tr.Close()
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(seqKey(i), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(seqKey(10_000+i), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutSeqBatched measures the same sorted ingest in 256-put batches:
// each hot leaf is sealed once per commit instead of once per insert.
func BenchmarkPutSeqBatched(b *testing.B) {
	tr := benchSeqTree(b)
	defer tr.Close()
	value := make([]byte, 64)
	for i := 0; i < 10_000; i++ {
		if err := tr.Put(seqKey(i), value); err != nil {
			b.Fatal(err)
		}
	}
	const batchSize = 256
	b.ResetTimer()
	i := 0
	for i < b.N {
		batch := tr.NewBatch()
		for j := 0; j < batchSize && i < b.N; j++ {
			if err := batch.Put(seqKey(10_000+i), value); err != nil {
				b.Fatal(err)
			}
			i++
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutCached is TestPutAllocs timed: cachedPutFixture's overwrite of
// one key of a 10 000-key tree with a 64-byte value of the same length, at
// Async over a page file, every node cached. It is the write path with no
// page read and no flush: substitution, the turn, the descent, one leaf's
// copy, its seal and the view the cache keeps of it, and the store's commit.
func BenchmarkPutCached(b *testing.B) {
	put := cachedPutFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
	}
}

// BenchmarkBatchCommitCached is TestBatchCommitAllocs timed:
// batchCommitFixture's 64-mutation batch (24 inserts, 24 deletes, 16
// overwrites with a value of a new length; staging included) against a
// 5 000-key tree over the in-memory page file with every node cached. Its
// keys scatter over ~64 leaves, so one op reads ~130 cached pages and seals
// ~70.
func BenchmarkBatchCommitCached(b *testing.B) {
	commit := batchCommitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
}
