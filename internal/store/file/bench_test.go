package file

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
)

// BenchmarkFileCommitConcurrent measures commit throughput through the
// group-commit pipeline for the one caller the store's contract admits: one
// committer issuing CommitPages calls (one 256-byte page per commit), never
// two at once. Full is the serialized baseline, every commit paying its own
// flush; grouped and async decouple acknowledgment from the fsync entirely
// (the benchmark still Syncs once at the end, so all modes finish durable).
// Concurrent writers share a flush above the store, where the engine's turn
// combines them; BenchmarkFilePutParallel in pkg/ekbtree measures that path.
// ns/op is per commit.
func BenchmarkFileCommitConcurrent(b *testing.B) {
	for _, mode := range []Durability{Full, Grouped, Async} {
		b.Run(fmt.Sprintf("durability=%s/writers=1", mode), func(b *testing.B) {
			s, err := OpenConfig(filepath.Join(b.TempDir(), "bench.ekb"), Config{Durability: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// One page ID, rewritten every commit: the steady-state shape of
			// a hot page.
			id, err := s.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			payload := bytes.Repeat([]byte{1}, 256)
			if err := s.CommitPages(map[uint64][]byte{id: payload}, id, nil); err != nil {
				b.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.CommitPages(map[uint64][]byte{id: payload}, id, nil); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFileCommitBatch64 measures one coalesced flush of a 64-page
// write-set per durability mode, timed per commit call.
func BenchmarkFileCommitBatch64(b *testing.B) {
	for _, mode := range []Durability{Full, Grouped} {
		b.Run(fmt.Sprintf("durability=%s", mode), func(b *testing.B) {
			s, err := OpenConfig(filepath.Join(b.TempDir(), "bench.ekb"), Config{Durability: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const pages = 64
			ids := make([]uint64, pages)
			writes := make(map[uint64][]byte, pages)
			for i := range ids {
				ids[i], _ = s.Alloc()
				writes[ids[i]] = bytes.Repeat([]byte{byte(i)}, 256)
			}
			if err := s.CommitPages(writes, ids[0], nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.CommitPages(writes, ids[0], nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFullCommitByPages measures a one-page Full commit on a store that
// already holds 1 000, 10 000 or 100 000 pages. A flush edits the page map in
// place but serialises and writes the whole directory, so its cost grows with
// the page count and not with the page size, and small pages show it. Reports
// the directory bytes each flush writes, and allocations and bytes allocated,
// which do not grow with the page count: the directory is serialized into the
// committer's kept buffer.
func BenchmarkFullCommitByPages(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			s, err := OpenConfig(filepath.Join(b.TempDir(), "bench.ekb"), Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			payload := bytes.Repeat([]byte{1}, 64)
			writes := make(map[uint64][]byte, n)
			for range n {
				id, err := s.Alloc()
				if err != nil {
					b.Fatal(err)
				}
				writes[id] = payload
			}
			if err := s.CommitPages(writes, store.NoRoot, nil); err != nil {
				b.Fatal(err)
			}
			one := map[uint64][]byte{store.NoRoot + 1: payload}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := s.CommitPages(one, store.NoRoot, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.dirLenForTest()), "dir-B/flush")
		})
	}
}

// BenchmarkVacuum runs one Vacuum() over a fresh copy of a churned store. It
// reports the flushes the pass took (its Txid delta), the file's size over its
// live bytes after it, and the gap between the two in bytes, which file/live's
// printed digits round away. The churn: 6 000 pages of 200–3 000 B, then 300
// commits of ~70 operations over them, one in five a free and the rest
// rewrites at a new size, at Async with a Sync every 16th commit — about
// 11 MB of file over 4.8 MB live. ns/op is per pass.
func BenchmarkVacuum(b *testing.B) {
	dir := b.TempDir()
	fixture := filepath.Join(dir, "churned.ekb")
	buildChurned(b, fixture)
	churned, err := os.ReadFile(fixture)
	if err != nil {
		b.Fatal(err)
	}
	var flushes, ratio, slack float64
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		path := filepath.Join(dir, fmt.Sprintf("pass-%d.ekb", i))
		if err := os.WriteFile(path, churned, 0o600); err != nil {
			b.Fatal(err)
		}
		s, err := OpenConfig(path, Config{})
		if err != nil {
			b.Fatal(err)
		}
		txid := s.Txid()
		b.StartTimer()
		if err := s.Vacuum(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		file, live := s.Space()
		flushes += float64(s.Txid() - txid)
		ratio += float64(file) / float64(live)
		slack += float64(file - live)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		os.Remove(path)
	}
	b.ReportMetric(flushes/float64(b.N), "flushes/pass")
	b.ReportMetric(ratio/float64(b.N), "file/live")
	b.ReportMetric(slack/float64(b.N), "slack-B")
}

// buildChurned writes BenchmarkVacuum's churned store to path, the same bytes
// on every call but for where the flushes place the pages of one group.
func buildChurned(b *testing.B, path string) {
	s, err := OpenConfig(path, Config{Durability: Async})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(43, 1))
	page := func() []byte { return bytes.Repeat([]byte{byte(rng.IntN(256))}, 200+rng.IntN(2801)) }
	ids := make([]uint64, 6_000)
	live := make(map[uint64]bool, len(ids))
	writes := make(map[uint64][]byte, len(ids))
	for i := range ids {
		if ids[i], err = s.Alloc(); err != nil {
			b.Fatal(err)
		}
		writes[ids[i]], live[ids[i]] = page(), true
	}
	if err := s.CommitPages(writes, store.NoRoot, nil); err != nil {
		b.Fatal(err)
	}
	for c := range 300 {
		writes := make(map[uint64][]byte)
		var frees []uint64
		for range 70 {
			id := ids[rng.IntN(len(ids))]
			if _, written := writes[id]; !live[id] || written {
				continue
			}
			if rng.IntN(5) == 0 {
				frees, live[id] = append(frees, id), false
			} else {
				writes[id] = page()
			}
		}
		if err := s.CommitPages(writes, store.NoRoot, frees); err != nil {
			b.Fatal(err)
		}
		if c%16 == 15 {
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
