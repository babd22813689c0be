package file

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
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
