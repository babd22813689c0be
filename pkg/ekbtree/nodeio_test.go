package ekbtree

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ekbtree/internal/israce"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestCacheStatsCounters pins hit/miss accounting end to end through the
// façade Stats surface.
func TestCacheStatsCounters(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xD5}, 32), order: 8, CachePages: 4})
	defer tr.Close()
	for i := 0; i < 300; i++ {
		if err := tr.Put([]byte{byte(i >> 8), byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cache.Misses == 0 {
		t.Error("no cache misses recorded over a 300-key ingest with a 4-page cache")
	}
	if s1.Cache.Evictions == 0 {
		t.Error("no evictions recorded though the tree far exceeds the cache")
	}
	if s1.Cache.Pages > 4 {
		t.Errorf("Pages = %d exceeds capacity 4", s1.Cache.Pages)
	}
	// Hammer one key: the path pins itself in the cache and hits accumulate.
	for i := 0; i < 10; i++ {
		if _, ok, err := tr.Get([]byte{0, 7}); err != nil || !ok {
			t.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
	s2, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cache.Hits <= s1.Cache.Hits {
		t.Errorf("repeated Gets did not raise Hits (%d -> %d)", s1.Cache.Hits, s2.Cache.Hits)
	}
}

// countingStore counts page reads, to pin down descent behavior: the
// ReadPageInto calls that copy a page, not the length queries ahead of them.
type countingStore struct {
	store.PageStore
	reads atomic.Int64
}

func (cs *countingStore) ReadPageInto(id uint64, buf []byte) (int, error) {
	n, err := cs.PageStore.ReadPageInto(id, buf)
	if err == nil && n <= len(buf) {
		cs.reads.Add(1)
	}
	return n, err
}

// TestSpaceReadsNoPages pins what lets a monitor (the tree's own auto-vacuum
// check) poll the footprint: on a cold 5 000-key tree Space reads no page and
// moves no cache counter, where Stats — which reports the same two figures —
// walks every node to get them.
func TestSpaceReadsNoPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.ekb")
	open := func() (*Tree, *countingStore) {
		fs, err := file.OpenConfig(path, file.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingStore{PageStore: fs}
		// The cache holds the whole tree, so one Stats walk reads every page
		// and the next reads none.
		return mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xD6}, 32), order: 8, Store: cs, CachePages: 4096}), cs
	}
	tr, _ := open()
	b := tr.NewBatch()
	for i := 0; i < 5000; i++ {
		if err := b.Put([]byte{byte(i >> 8), byte(i)}, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr, cs := open()
	defer tr.Close()
	cold := cs.reads.Load()
	fileBytes, liveBytes := tr.Space()
	if got := cs.reads.Load() - cold; got != 0 {
		t.Errorf("Space on a cold tree read %d pages", got)
	}
	if liveBytes <= 0 || fileBytes < liveBytes {
		t.Fatalf("Space = (%d, %d), want a footprint", fileBytes, liveBytes)
	}
	s1, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Keys != 5000 || s1.FileBytes != fileBytes || s1.LiveBytes != liveBytes {
		t.Fatalf("Stats = %d keys, (%d, %d) bytes; Space said (%d, %d)", s1.Keys, s1.FileBytes, s1.LiveBytes, fileBytes, liveBytes)
	}
	if walked := cs.reads.Load() - cold; walked != int64(s1.Nodes) {
		t.Fatalf("the Stats walk read %d pages of %d nodes; the test needs it to read them all", walked, s1.Nodes)
	}
	// Each Stats walk of the now cached tree adds the same hits; Space calls
	// in between must add nothing.
	s2, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Space()
	}
	s3, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := s2.Cache
	want.Hits += s2.Cache.Hits - s1.Cache.Hits
	if s3.Cache != want {
		t.Errorf("cache counters moved across Space calls: %+v, want %+v", s3.Cache, want)
	}
}

// TestCursorSingleDescent pins the path-keeping cursor's read complexity: a
// full scan reads every page at most once (one descent for the whole
// iteration, no per-batch re-descents — the pre-epoch cursor re-descended
// every 256 entries), and Next past the final entry touches the store not at
// all.
func TestCursorSingleDescent(t *testing.T) {
	for _, n := range []int{256, 777} {
		cs := &countingStore{PageStore: file.NewMem()}
		tr, err := Open(Options{
			MasterKey:  bytes.Repeat([]byte{0xD4}, 32),
			order:      8,
			Store:      cs,
			CachePages: -1, // no node cache: every page read hits the store
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := []byte{byte(i >> 8), byte(i)}
			if err := tr.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		c := tr.Cursor()
		before := cs.reads.Load()
		count := 0
		for ok := c.First(); ok; ok = c.Next() {
			count++
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("cursor visited %d entries, want %d", count, n)
		}
		if scanned := cs.reads.Load() - before; scanned > int64(stats.Nodes) {
			t.Errorf("n=%d: full scan read %d pages of a %d-node tree; the cursor is re-descending", n, scanned, stats.Nodes)
		}
		before = cs.reads.Load()
		if c.Next() {
			t.Fatal("Next past the final entry succeeded")
		}
		if got := cs.reads.Load(); got != before {
			t.Errorf("n=%d: Next past the end issued %d extra store reads", n, got-before)
		}
		c.Close()
		tr.Close()
	}
}

// TestGetAllocs guards the hot read path's allocation budget: with every
// node cached, a Get allocates the value copy and nothing else, and a miss
// nothing at all. The substituted key is cut from the substituter's pooled
// chunk, one allocation per ~170 keys, which the per-run average rounds
// away.
func TestGetAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xD6}, 32), CachePages: 4096})
	defer tr.Close()
	b := tr.NewBatch()
	for i := 0; i < 5000; i++ {
		if err := b.Put([]byte{byte(i >> 8), byte(i), 'k'}, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	present, absent := []byte{0x07, 0x77, 'k'}, []byte{0x07, 0x77, 'x'}
	for _, tt := range []struct {
		key  []byte
		ok   bool
		want float64
	}{{present, true, 1}, {absent, false, 0}} {
		get := func() {
			if _, ok, err := tr.Get(tt.key); err != nil || ok != tt.ok {
				t.Fatalf("Get(%x) = (%v, %v)", tt.key, ok, err)
			}
		}
		get() // the descent's pages are cached from here on
		if n := testing.AllocsPerRun(200, get); n != tt.want {
			t.Errorf("cached Get (present=%v) allocates %.1f times, want %.0f", tt.ok, n, tt.want)
		}
	}
}

// TestReadMissAllocs guards the read-miss path's allocation budget the way
// TestGetAllocs guards the cached one: over a one-page cache, which no descent
// fits in, every page of a Get comes from the store. A page read, leaf or
// index, takes one block: the view, its offset table and the room the store
// reads the page into, where it is deciphered and decoded (children are read
// from the page). On top comes the Get's value copy (the substituted key
// costs nothing of its own; see TestGetAllocs).
//
// Each Get is measured twice:
//   - with a cursor open, whose pin keeps the engine from ever reaching the
//     moment the cache's evicted views are recycled, so the free list runs dry
//     and every page allocates its block;
//   - in the steady state, nothing pinned between Gets, where the views one
//     Get evicts are the blocks the next one reads into, and a cold Get
//     allocates only its value.
//
// No slack: a page buffer allocated apart from its view again, a second
// page-sized buffer on the way from the store to the node, header and child
// arrays built beside the page, or a read path that bypasses the free list,
// is the regression this guards against.
func TestReadMissAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	cs := &countingStore{PageStore: file.NewMem()}
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xDA}, 32), CachePages: 1, Store: cs})
	defer tr.Close()
	key := func(i int) []byte { return []byte{byte(i >> 8), byte(i), 'k'} }
	b := tr.NewBatch()
	for i := 0; i < 5000; i++ {
		if err := b.Put(key(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Height < 3 {
		t.Fatalf("tree of height %d; the test needs index levels under the root", st.Height)
	}
	// A B-tree keeps entries in its index nodes too, so a Get ends wherever
	// its key lives: pagesRead tells a key in a leaf (the whole height) from
	// one in an index node (less).
	pagesRead := func(k []byte, present bool) int {
		before := cs.reads.Load()
		if _, ok, err := tr.Get(k); err != nil || ok != present {
			t.Fatalf("Get(%x) = (%v, %v)", k, ok, err)
		}
		return int(cs.reads.Load() - before)
	}
	inLeaf, inIndex := -1, -1
	for i := 0; i < 5000 && (inLeaf < 0 || inIndex < 0); i++ {
		switch r := pagesRead(key(i), true); {
		case r == st.Height:
			inLeaf = i
		case r > 1:
			inIndex = i // under the root, so the descent reads several index nodes
		}
	}
	if inLeaf < 0 || inIndex < 0 {
		t.Fatalf("no key found in a leaf (%d) or in an index node under the root (%d)", inLeaf, inIndex)
	}
	for _, tt := range []struct {
		name    string
		key     []byte
		present bool
		fixed   int // the value copy when there is one
	}{
		{"key in a leaf", key(inLeaf), true, 1},
		{"key in an index node", key(inIndex), true, 1},
		{"absent key", []byte{0x07, 0x77, 'x'}, false, 0},
	} {
		get := func() {
			if _, ok, err := tr.Get(tt.key); err != nil || ok != tt.present {
				t.Fatalf("Get(%x) = (%v, %v)", tt.key, ok, err)
			}
		}
		pages := pagesRead(tt.key, tt.present)
		c := tr.Cursor()
		// Over a one-page cache the free list holds at most 16 blocks of a
		// class, so this many Gets of the key use up every one its pages
		// could take.
		for range 32 {
			get()
		}
		pinned := testing.AllocsPerRun(200, get)
		c.Close()
		steady := testing.AllocsPerRun(200, get)
		if want := tt.fixed + pages; pinned != float64(want) {
			t.Errorf("%s: a cold Get reading %d pages, with nothing to recycle, allocates %.1f times, want %d", tt.name, pages, pinned, want)
		}
		if steady != float64(tt.fixed) {
			t.Errorf("%s: a cold Get reading %d pages, in the steady state, allocates %.1f times, want %d", tt.name, pages, steady, tt.fixed)
		}
	}
}

// TestColdReadsShareNothing runs the in-place decoder where sharing a buffer
// would show: with no node cache every Get fetches, deciphers and decodes the
// whole descent, eight goroutines do so for the same key at once, and a writer
// keeps rewriting those very pages. The decoder writes into the buffer it is
// given, so two readers handed one buffer — or a reader handed the store's
// own copy — is a data race for -race to report, and a store copy deciphered
// or decoded in place no longer authenticates in the readback at the end.
func TestColdReadsShareNothing(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xDB}, 32), order: 8, CachePages: -1})
	defer tr.Close()
	const keys = 400
	key := func(i int) []byte { return []byte{byte(i >> 8), byte(i), 'k'} }
	value := func(i, gen int) []byte { return []byte{byte(i >> 8), byte(i), byte(gen)} }
	b := tr.NewBatch()
	for i := 0; i < keys; i++ {
		if err := b.Put(key(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	// The readers' key is never rewritten; every other key is, so its leaf and
	// the index nodes above it change under the readers all the time.
	const target, readers, gens = 123, 8, 20
	var lastGen [keys]int
	var wg sync.WaitGroup
	var stop atomic.Bool
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v, ok, err := tr.Get(key(target)); err != nil || !ok || !bytes.Equal(v, value(target, 0)) {
					t.Errorf("Get during commits = (%x, %v, %v)", v, ok, err)
					return
				}
			}
		}()
	}
	for gen := 1; gen <= gens; gen++ {
		b := tr.NewBatch()
		for i := gen % 3; i < keys; i += 3 {
			if i == target {
				continue
			}
			if err := b.Put(key(i), value(i, gen)); err != nil {
				t.Fatal(err)
			}
			lastGen[i] = gen
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	for i := 0; i < keys; i++ {
		if v, ok, err := tr.Get(key(i)); err != nil || !ok || !bytes.Equal(v, value(i, lastGen[i])) {
			t.Fatalf("readback Get(%d) = (%x, %v, %v), want %x", i, v, ok, err, value(i, lastGen[i]))
		}
	}
}

// TestCursorAllocs guards the scan path's allocation budget: a range cursor
// over one bucket of ~100 entries, every node cached. Opening and closing one
// allocates the Cursor and nothing else: the bounds are cut from the
// substituter's pooled chunk, and the snapshot and iterator live inside the
// Cursor. Reading it through adds nothing, the iterator's path stack being
// inline too. No slack: a second per-cursor allocation, or a stack on the
// heap again, is the regression this guards against.
func TestCursorAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	sub, err := NewBucketedSubstituter(bytes.Repeat([]byte{0xD8}, 32), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xD9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, Options{Substituter: sub, Cipher: nc, order: 16, CachePages: 4096})
	defer tr.Close()
	b := tr.NewBatch()
	for i := 0; i < 5000; i++ { // 50 buckets of 100 keys
		if err := b.Put([]byte{byte(i / 100 * 5), 0, byte(i % 100)}, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	from, to := []byte{125, 0, 0}, []byte{125, 0, 99}
	open := func() { tr.CursorRange(from, to).Close() }
	scan := func() {
		c := tr.CursorRange(from, to)
		n := 0
		for ok := c.First(); ok; ok = c.Next() {
			n++
		}
		if err := c.Err(); err != nil || n != 100 {
			t.Fatalf("one-bucket cursor read %d entries (%v), want 100", n, err)
		}
		c.Close()
	}
	scan() // the bucket's pages are cached from here on
	if n := testing.AllocsPerRun(200, open); n != 1 {
		t.Errorf("opening and closing a range cursor allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, scan); n != 1 {
		t.Errorf("a cached one-bucket cursor scan allocates %.1f times, want 1", n)
	}
}

// batchCommitFixture opens a tree of 5 000 keys with 100-byte values over the
// in-memory page file, every node cached, and returns one 64-mutation commit
// against it: a batch of 24 inserts, 24 deletes and 16 overwrites with a value
// of a new length, staging included. Batch.Put and Delete copy what they are
// given, so the commit stages every op from two buffers and allocates nothing
// of its own. The tree closes when tb's test ends.
func batchCommitFixture(tb testing.TB) (commit func()) {
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0xD7}, 32), CachePages: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	kbuf, vbuf := make([]byte, 4), make([]byte, 100)
	key := func(i int) []byte { binary.BigEndian.PutUint32(kbuf, uint32(i)); return kbuf }
	value := func(i int) []byte { vbuf[0], vbuf[1] = byte(i), byte(i>>8); return vbuf }
	b := tr.NewBatch()
	for i := 0; i < 5000; i++ {
		if err := b.Put(key(i), value(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	// Keys [lo, hi) are live; each run inserts at the top, deletes from the
	// bottom and overwrites just above it with a value of a new length.
	lo, hi, run := 0, 5000, 0
	return func() {
		run++
		b := tr.NewBatch()
		for i := 0; i < 24; i++ {
			if err := b.Put(key(hi+i), value(run)); err != nil {
				tb.Fatal(err)
			}
			if err := b.Delete(key(lo + i)); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			if err := b.Put(key(lo+24+i), value(run)[1:]); err != nil {
				tb.Fatal(err)
			}
		}
		lo, hi = lo+24, hi+24
		if err := b.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBatchCommitAllocs guards the write path's allocation budget the way
// TestGetAllocs guards the read path's: batchCommitFixture's 64-mutation
// commit against a 5 000-key tree with every node cached. HMAC substitution
// scatters the 64 keys over 64 leaves, so a commit reads ~130 pages and
// dirties ~70; the bound fails if the transaction goes back to cloning what
// it only reads, rebuilding its workspace per commit, allocating the copies it
// edits instead of rebuilding the last commit's, caching them instead of
// views of what it sealed, or copying sealed pages on their way into the
// store.
func TestBatchCommitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	commit := batchCommitFixture(t)
	commit()
	// Measured 12 (go1.24, amd64; 76 while every seal allocated its page and
	// the store dropped the flushed ones for the collector, 135 while the
	// cache kept the writer's copies and the views they slice into were never
	// recycled, 198 before chunked substitution, 315 before one-allocation
	// node copies and slab-staged values, 586 before copy-on-write) + 10 %.
	const want = 13
	if n := testing.AllocsPerRun(100, commit); n > want {
		t.Errorf("a cached 64-mutation batch allocates %.0f times, want <= %d", n, want)
	} else {
		t.Logf("a cached 64-mutation batch allocates %.0f times", n)
	}
}

// cachedPutFixture opens a 10 000-key tree at Async over a page file with
// every node cached, and returns one Put that overwrites the same key with a
// 64-byte value of the same length but new bytes. The tree closes when tb's
// test ends.
func cachedPutFixture(tb testing.TB) (put func()) {
	tr, err := Open(Options{
		MasterKey:  bytes.Repeat([]byte{0xD9}, 32),
		Path:       filepath.Join(tb.TempDir(), "put.ekb"),
		Durability: DurabilityAsync,
		CachePages: 8192,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	kbuf, vbuf := make([]byte, 4), make([]byte, 64)
	key := func(i int) []byte { binary.BigEndian.PutUint32(kbuf, uint32(i)); return kbuf }
	b := tr.NewBatch()
	for i := 0; i < 10_000; i++ {
		if err := b.Put(key(i), vbuf); err != nil {
			tb.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	run := 0
	return func() {
		run++
		vbuf[0], vbuf[1] = byte(run), byte(run>>8)
		if err := tr.Put(key(5000), vbuf); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPutAllocs guards a single Put's allocation budget the way
// TestGetAllocs guards a Get's: cachedPutFixture's overwrite of one key with a
// value of the same length but new bytes, at Async over a page file, with
// every node cached. A writer that finds the write turn free allocates nothing for it:
// the bound fails if the turn starts allocating per call, if the mutation's
// closure escapes to the heap, if a commit grows a per-page record again, if
// the leaf's copy is allocated afresh instead of rebuilt in place, or if the
// sealed page is, instead of reused from the buffer a flush gave back.
func TestPutAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	put := cachedPutFixture(t)
	put() // the descent's pages are cached from here on
	// Measured 3 (go1.24, amd64): the key and value copy, the epoch and its
	// undo overlay. 6 while the sealed page was a fresh buffer, the overlay a
	// map and each transaction built its btree.Tree; 7 while the leaf's
	// materialised copy was allocated afresh and cached, 8 while each epoch
	// also listed the pages its commit touched, for optimistic validation.
	const want = 3
	if n := testing.AllocsPerRun(200, put); n > want {
		t.Errorf("a cached Put allocates %.1f times, want <= %d", n, want)
	} else {
		t.Logf("a cached Put allocates %.1f times", n)
	}
}

// TestBatchStagingAllocs pins what staging costs: no Put or Delete allocates
// on its own. 64 staged ops cost one op slice sized for 64 ops and the slab
// chunks their entries fill (slabChunk bytes each; 48 keys with 100-byte
// values and 16 bare keys, so two); the substitutions come from the
// substituter's pooled chunk, under one allocation a run, and the Batch
// itself stays on the stack here, NewBatch being inlined. The count fails if
// a key or value is copied alone again or the op slice regrows.
func TestBatchStagingAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xDA}, 32)})
	defer tr.Close()
	kbuf, vbuf := make([]byte, 4), make([]byte, 100)
	key := func(i int) []byte { binary.BigEndian.PutUint32(kbuf, uint32(i)); return kbuf }
	const ops, puts = 64, 48
	// The slab's packing: an entry that does not fit the chunk's rest opens a
	// new chunk.
	chunks, room := 0, 0
	for i := range ops {
		n := tr.sub.Width()
		if i < puts {
			n += len(vbuf)
		}
		if n > room {
			chunks, room = chunks+1, slabChunk
		}
		room -= n
	}
	want := float64(1 + chunks)
	n := testing.AllocsPerRun(100, func() {
		b := tr.NewBatch()
		for i := range ops {
			var err error
			if i < puts {
				err = b.Put(key(i), vbuf)
			} else {
				err = b.Delete(key(i))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		b.Discard()
	})
	if n != want {
		t.Errorf("staging %d ops allocates %.0f times, want %.0f: the op slice and %d slab chunks", ops, n, want, chunks)
	}
}
