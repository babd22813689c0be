//go:build large

package ekbtree

// The `large` tier: a soak/large-ingest test that proves the space-management
// story at scale instead of at unit sizes. It writes millions of keys
// through the file-backed façade in two full generations — a bulk
// load of full-sized records and then a complete overwrite pass that shrinks
// every record to a compact summary, the long-lived-tree workload where the
// file's peak footprint outlives its live data — interleaving online vacuum
// passes and cipher-epoch rotations with the writes, and then audits the
// result against a deterministic oracle: exact key count, strict key
// ordering, every value parsing back to its key's index with the final
// generation's tag, and the index sum matching the closed form. It then
// asserts that vacuum has kept the physical file within 1.5x of the live
// bytes, where a file that never shrinks stays floored at the bulk-load peak.
// (What prefix coding saves against full-key pages is pinned where the two
// encoders still meet, in internal/node's TestPrefixEncodingShrinksPages.)
//
//	go test -tags large -run TestLargeIngestSoak ./pkg/ekbtree/   # 2M keys
//	EKBTREE_LARGE_KEYS=20000000 ...                               # nightly
//	EKBTREE_LARGE_KEYS=100000000 ...                              # the knob goes to 100M
//
// The run logs its measured bytes/key, ingest and scan throughput, and reopen time (run with
// -v to see them).

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/keysub"
)

func largeEnvInt(t *testing.T, name string, def int) int {
	env := os.Getenv(name)
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("bad %s %q", name, env)
	}
	return n
}

// largeKey is the i'th plaintext key. The 8-byte "userhist" prefix is what
// the bucketed substituter preserves, so every substituted key shares it and
// prefix truncation gets the long common runs a real keyspace would have.
func largeKey(i int) []byte { return []byte(fmt.Sprintf("userhist%012d", i)) }

// largeVal embeds the key's index, making the whole tree self-describing: the
// readback parses every value and checks the index sum in closed form. The
// generation tag ('u' for the bulk load, 'v' for the overwrite pass) lets the
// oracle prove every key saw the second generation, and the deterministic
// padding varies record sizes within a generation while shrinking them
// across generations: the bulk load writes full histories, the second pass
// rewrites every record down to a compact summary. Shrinkage is the
// canonical compaction story, and its garbage is structural: a store whose
// file never shrinks is floored at the bulk-load peak no matter how cleverly
// its free list recycles extents, while the live set is a fraction of that —
// only relocation plus truncation gets the difference back. (Workloads whose
// record sizes are uniform, shuffled, or even growing across generations
// measure far weaker here: at the 2M scale best-fit recycling converges and
// such baselines end within ~5-6% of their live bytes.)
func largeVal(gen, i int) []byte {
	h := uint32(i)*2654435761 + uint32(gen)*40503
	pad := 64*(1-gen) + int(h>>24)%32
	v := make([]byte, 0, 16+pad)
	v = append(v, byte('u'+gen))
	v = strconv.AppendInt(v, int64(i), 10)
	v = append(v, ':')
	for j := 0; j < pad; j++ {
		v = append(v, 'x')
	}
	return v
}

// TestLargeIngestSoak is the scale proof for the space-management story:
// prefix-coded pages plus online vacuum, fault-free but at volume.
func TestLargeIngestSoak(t *testing.T) {
	keys := largeEnvInt(t, "EKBTREE_LARGE_KEYS", 2_000_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "soak.ekb")
	master := bytes.Repeat([]byte{0x5A}, 32)
	inner, err := keysub.NewHMAC(master, 16)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := keysub.NewBucketed(inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		MasterKey:   master,
		Substituter: sub,
		Path:        path,
		Durability:  DurabilityGrouped,
	}
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Two full write generations — bulk load, then a complete overwrite — in
	// batches with online maintenance interleaved: a vacuum pass every
	// vacEvery batches and an operator epoch rotation every epochEvery
	// batches, both racing the continuing writes like they would in a live
	// server. The overwrite generation is what makes vacuum necessary: every
	// rewritten page strands its old extent, and only vacuum can give that
	// space back.
	const batchSize = 512
	vacEvery := keys / batchSize / 4 // several mid-ingest passes per generation
	if vacEvery == 0 {
		vacEvery = 1
	}
	epochEvery := keys / batchSize / 8
	if epochEvery == 0 {
		epochEvery = 1
	}
	start := time.Now()
	batchNo := 0
	for gen := 0; gen < 2; gen++ {
		for lo := 0; lo < keys; lo += batchSize {
			b := tr.NewBatch()
			for i := lo; i < keys && i < lo+batchSize; i++ {
				if err := b.Put(largeKey(i), largeVal(gen, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatalf("gen %d batch at %d: %v", gen, lo, err)
			}
			batchNo++
			if batchNo%vacEvery == 0 {
				if err := tr.Vacuum(0); err != nil {
					t.Fatalf("mid-ingest vacuum: %v", err)
				}
			}
			if batchNo%epochEvery == 0 {
				if err := tr.AdvanceEpoch(); err != nil {
					t.Fatalf("epoch rotation: %v", err)
				}
			}
		}
	}
	if err := tr.Vacuum(0); err != nil {
		t.Fatalf("final vacuum: %v", err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	ingestSecs := time.Since(start).Seconds()

	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != keys {
		t.Fatalf("Stats.Keys = %d, want %d", st.Keys, keys)
	}
	liveBytes := st.LiveBytes
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk footprint, from the filesystem rather than the gauges.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes := fi.Size()

	// Reopen (directory load + header check) is timed: a
	// compacted file must not cost more to open.
	reopenStart := time.Now()
	tr, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	reopen := time.Since(reopenStart)
	defer tr.Close()

	// Full-readback oracle: count, strict order, every value parses back to
	// an in-range index, no index twice (sum + count pin the exact set).
	scanStart := time.Now()
	var (
		count int
		sum   uint64
		prev  []byte
	)
	c := tr.Cursor()
	defer c.Close()
	for ok := c.First(); ok; ok = c.Next() {
		k := c.Key()
		if prev != nil && bytes.Compare(k, prev) <= 0 {
			t.Fatalf("scan keys not strictly ascending at %d", count)
		}
		prev = append(prev[:0], k...)
		v := c.Value()
		colon := bytes.IndexByte(v, ':')
		if len(v) < 3 || v[0] != 'v' || colon < 2 {
			t.Fatalf("malformed value %q", v)
		}
		idx, err := strconv.Atoi(string(v[1:colon]))
		if err != nil || idx < 0 || idx >= keys {
			t.Fatalf("value %q parses to out-of-range index (%v)", v, err)
		}
		sum += uint64(idx)
		count++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	scanSecs := time.Since(scanStart).Seconds()
	if count != keys {
		t.Fatalf("scan saw %d keys, want %d", count, keys)
	}
	wantSum := uint64(keys) * uint64(keys-1) / 2
	if sum != wantSum {
		t.Fatalf("index sum %d, want %d — readback is not the ingested set", sum, wantSum)
	}

	// Sampled point reads after reopen.
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 1000; s++ {
		i := rng.Intn(keys)
		v, ok, err := tr.Get(largeKey(i))
		if err != nil || !ok || !bytes.Equal(v, largeVal(1, i)) {
			t.Fatalf("Get(%d) = (%q, %v, %v)", i, v, ok, err)
		}
	}

	t.Logf("%d keys, file=%d live=%d (%.2f bytes/key), ingest %.1fs, scan %.0f keys/s, reopen %s",
		keys, fileBytes, liveBytes, float64(fileBytes)/float64(keys), ingestSecs, float64(keys)/scanSecs, reopen)

	// Vacuum keeps the physical file near the live payload.
	if fileBytes > liveBytes*3/2 {
		t.Errorf("vacuumed file %d is more than 1.5x live bytes %d", fileBytes, liveBytes)
	}
}
