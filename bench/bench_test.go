package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

func seg(wall time.Duration, lat ...uint32) segment { return segment{wall: wall, lat: lat} }

func TestQuietWindowTakesTheThreeFastestSegments(t *testing.T) {
	// Five segments of four ops: 4, 8, 2, 16 and 5 ops/ms. The fastest three
	// are #3 (16), #1 (8) and #4 (5): mean 29/3 ops/ms.
	tm := timing{
		seg(1000*time.Microsecond, 100, 100, 100, 100),
		seg(500*time.Microsecond, 10, 20, 30, 40),
		seg(2000*time.Microsecond, 900, 900, 900, 900),
		seg(250*time.Microsecond, 1, 2, 3, 4),
		seg(800*time.Microsecond, 50, 60, 70, 80),
	}
	if got, want := tm.fastest(3), []int{3, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("fastest(3) = %v, want %v", got, want)
	}
	opsPerS, p50 := tm.quiet()
	if want := (16000.0 + 8000 + 5000) / 3; math.Abs(opsPerS-want) > 1e-6 {
		t.Errorf("quiet ops/s = %v, want %v", opsPerS, want)
	}
	// Pooled latencies of those three: 1 2 3 4 10 20 30 40 50 60 70 80 ns;
	// the median lies half way between 20 and 30 ns.
	if want := 0.025; math.Abs(p50-want) > 1e-12 {
		t.Errorf("quiet p50 = %v us, want %v", p50, want)
	}
	// The slow segment's 900 ns ops are in the all-segment figures only.
	all := tm.all()
	if all.n != 20 || all.p999 < 0.899 || all.slowestSegOpsPerS != 2000 || all.medianSegOpsPerS != 5000 {
		t.Errorf("all-segment stats = %+v", all)
	}
	if tm.ops() != 20 || tm.wall() != 4550*time.Microsecond {
		t.Errorf("ops %d wall %v", tm.ops(), tm.wall())
	}
}

func TestQuietWindowWithFewerSegmentsThanItWants(t *testing.T) {
	tm := timing{seg(time.Millisecond, 5, 7), seg(2*time.Millisecond, 9, 11)}
	opsPerS, p50 := tm.quiet()
	if want := (2000.0 + 1000) / 2; opsPerS != want {
		t.Errorf("ops/s = %v, want %v", opsPerS, want)
	}
	if want := 0.008; p50 != want {
		t.Errorf("p50 = %v, want %v", p50, want)
	}
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	if medianF([]float64{1, 2, 3, 10}) != 2.5 || medianF([]float64{1, 2, 3}) != 2 {
		t.Error("medianF")
	}
}

func TestSealUnionCountsOverlapOnce(t *testing.T) {
	// [0,10) and [5,15) overlap; [20,30) stands alone; [22,25) is inside it.
	ivs := []interval{{20, 30}, {0, 10}, {22, 25}, {5, 15}}
	if got := unionNs(ivs); got != 25 {
		t.Errorf("unionNs = %d, want 25", got)
	}
	if unionNs(nil) != 0 {
		t.Error("unionNs of nothing is not 0")
	}
}

func TestSegmentPlan(t *testing.T) {
	sp, _ := findSpec("ingest")
	segs, perSeg := runConfig{sp: sp, seconds: 12}.plan()
	if segs != 50 || perSeg != 5*ingestSyncEvery {
		t.Errorf("ingest at 12 s: %d segments of %d", segs, perSeg)
	}
	segs, perSeg = runConfig{sp: sp, seconds: smokeSeconds}.plan()
	if segs != minSegments || perSeg != ingestSyncEvery {
		t.Errorf("ingest smoke: %d segments of %d", segs, perSeg)
	}
	sp, _ = findSpec("served-mix")
	if segs, perSeg = (runConfig{sp: sp, seconds: 60}).plan(); segs != 50 || perSeg != 7200 {
		t.Errorf("served-mix at 60 s: %d segments of %d per client", segs, perSeg)
	}
}

// ops drains n prepared ops of a mix runner.
func mixOps(r *mixRunner, n int) []mixOp {
	r.prepare(n)
	return slices.Clone(r.ops)
}

func TestOpStreamsAreReproducibleAndDisjointInPuts(t *testing.T) {
	const n, clients = 5000, 2
	g := keygen{seed: 42}
	owned := make([]map[uint64]bool, clients)
	for c := 0; c < clients; c++ {
		a := mixOps(newMixRunner(nil, g, n, c, clients), 20_000)
		b := mixOps(newMixRunner(nil, g, n, c, clients), 20_000)
		if !slices.Equal(a, b) {
			t.Fatalf("client %d: the same seed drew two different op streams", c)
		}
		other := mixOps(newMixRunner(nil, keygen{seed: 43}, n, c, clients), 20_000)
		if slices.Equal(a, other) {
			t.Fatalf("client %d: seeds 42 and 43 drew the same stream", c)
		}
		owned[c] = make(map[uint64]bool)
		puts := 0
		for _, op := range a {
			if op.idx >= n {
				t.Fatalf("client %d drew index %d outside [0, %d)", c, op.idx, n)
			}
			if op.put {
				puts++
				owned[c][op.idx] = true
			}
		}
		if share := float64(puts) / float64(len(a)); share < 0.18 || share > 0.22 {
			t.Errorf("client %d: %.3f of its ops are Puts, want about 0.2", c, share)
		}
	}
	for idx := range owned[0] {
		if owned[1][idx] {
			t.Fatalf("both clients Put index %d", idx)
		}
	}
	if len(owned[0]) == 0 || len(owned[1]) == 0 {
		t.Fatal("a client drew no Puts")
	}

	// The uniform Get stream, and the keys and values themselves.
	mk := func(seed uint64) *getRunner {
		return &getRunner{g: keygen{seed: seed}, n: n, rng: clientRand(seed, 0)}
	}
	a, b, c := mk(7), mk(7), mk(8)
	a.prepare(1000)
	b.prepare(1000)
	c.prepare(1000)
	if !bytes.Equal(a.keys, b.keys) || bytes.Equal(a.keys, c.keys) {
		t.Error("Get streams: same seed must repeat, another seed must differ")
	}
	absent := 0
	for _, j := range a.idx {
		if j&absentBit != 0 {
			absent++
		}
	}
	if absent < 20 || absent > 90 {
		t.Errorf("%d of 1000 Gets are for absent keys, want about 50", absent)
	}
	v := fillValue(make([]byte, valueLen), 7, 123, 4)
	if !checkValue(v, 7, 123, 4) || !checkValue(v, 7, 123, -1) {
		t.Error("a value fails its own check")
	}
	if checkValue(v, 7, 123, 5) || checkValue(v, 7, 124, 4) || checkValue(v, 8, 123, 4) {
		t.Error("a value passes the check of another version, index or seed")
	}
	v[50] ^= 1
	if checkValue(v, 7, 123, -1) {
		t.Error("a corrupted value passes")
	}
}

func TestBucketedKeysFallInTheirBuckets(t *testing.T) {
	g := keygen{seed: 3, buckets: 2000}
	sub, err := ekbtree.NewBucketedSubstituter(subSecret, subWidth, 16)
	if err != nil {
		t.Fatal(err)
	}
	rs := sub.(keysub.RangeSubstituter)
	var total uint64
	for b := uint64(0); b < 2000; b++ {
		total += g.bucketSize(200_000, b)
	}
	if total != 200_000 {
		t.Fatalf("bucket sizes sum to %d", total)
	}
	var kb, kb2 [keyLen]byte
	for _, i := range []uint64{0, 1, 1999, 2000, 4001, 199_999} {
		k := g.key(kb[:], i)
		lo, hi := rs.SubstituteRange(g.key(kb2[:], i%2000), g.key(kb2[:], i%2000))
		sk := sub.Substitute(k)
		if bytes.Compare(sk, lo) < 0 || bytes.Compare(sk, hi) >= 0 {
			t.Errorf("index %d substitutes outside the range of bucket %d", i, i%2000)
		}
	}
}

// loadSmall builds a small tree through the real layers, decorated or not,
// mutates it a little, and returns its stats and contents.
func loadSmall(t *testing.T, tr *tracer, bucketed bool) (ekbtree.Stats, [][2]string) {
	t.Helper()
	cfg := treeConfig{path: filepath.Join(t.TempDir(), "t.ekbt"), cachePages: 64, bucketed: bucketed}
	tree, _, err := openTree(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	g := keygen{seed: 9}
	if bucketed {
		g.buckets = 30
	}
	if err := bulkLoad(tree, g, 3000); err != nil {
		t.Fatal(err)
	}
	r := &ingestRunner{t: tree, g: g, rng: clientRand(9, 0), hi: 3000, ver: make([]uint32, 3000)}
	r.prepare(32)
	for i := 0; i < 32; i++ {
		if !r.do(i) {
			t.Fatalf("ingest op %d failed", i)
		}
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var entries [][2]string
	c := tree.Cursor()
	defer c.Close()
	for ok := c.First(); ok; ok = c.Next() {
		entries = append(entries, [2]string{string(c.Key()), string(c.Value())})
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	return st, entries
}

func TestDecoratorsMeasureTheSameTree(t *testing.T) {
	for _, bucketed := range []bool{false, true} {
		tr := newTracer(1)
		plain, plainEntries := loadSmall(t, nil, bucketed)
		traced, tracedEntries := loadSmall(t, tr, bucketed)
		if plain.Keys != traced.Keys || plain.Nodes != traced.Nodes || plain.Height != traced.Height ||
			plain.Seals != traced.Seals || plain.CipherEpoch != traced.CipherEpoch || plain.Commits != traced.Commits {
			t.Errorf("bucketed=%v: stats differ:\n plain  %+v\n traced %+v", bucketed, plain, traced)
		}
		if plain.Seals == 0 {
			t.Error("the plain tree counted no seals: the epoch cipher's path was not taken")
		}
		if plain.FileBytes == 0 || traced.FileBytes == 0 || traced.LiveBytes == 0 {
			t.Errorf("bucketed=%v: FileBytes %d / %d, LiveBytes %d: the store wrapper dropped Spacer", bucketed, plain.FileBytes, traced.FileBytes, traced.LiveBytes)
		}
		if !slices.Equal(plainEntries, tracedEntries) {
			t.Errorf("bucketed=%v: scan contents differ (%d vs %d entries)", bucketed, len(plainEntries), len(tracedEntries))
		}
		// Every engine seal went through SealEpoch on the wrapper, with
		// engine-allocated nonces: the count the engine kept is the count
		// the wrapper saw.
		if got := tr.seal.calls.Load(); got == 0 || uint64(got) != traced.Seals {
			t.Errorf("bucketed=%v: wrapper saw %d SealEpoch calls, engine issued %d", bucketed, got, traced.Seals)
		}
		if tr.sub.calls.Load() == 0 || tr.commit.calls.Load() == 0 || tr.sync.calls.Load() == 0 {
			t.Errorf("bucketed=%v: a decorator saw no calls: %+v", bucketed, tr.snapshot())
		}
		if len(tr.pages) == 0 {
			t.Error("no pages were sampled")
		}
	}

	// The capabilities the façade and engine reach by type assertion.
	tr := newTracer(1)
	nc, err := cipher.NewEpochAESGCM(cipherKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cipher.NodeCipher(tracedCipher{inner: nc, t: tr}).(cipher.EpochSealer); !ok {
		t.Error("the cipher wrapper is not an EpochSealer")
	}
	var st store.PageStore = tracedStore{t: tr}
	if _, ok := st.(store.Spacer); !ok {
		t.Error("the store wrapper is not a Spacer")
	}
	if _, ok := st.(store.Vacuumer); !ok {
		t.Error("the store wrapper is not a Vacuumer")
	}
	hm, _ := ekbtree.NewHMACSubstituter(subSecret, subWidth)
	bk, _ := ekbtree.NewBucketedSubstituter(subSecret, subWidth, 16)
	if _, ok := traceSubstituter(hm, tr).(keysub.RangeSubstituter); ok {
		t.Error("the wrapper of a plain substituter claims ranges")
	}
	rs, ok := traceSubstituter(bk, tr).(keysub.RangeSubstituter)
	if !ok {
		t.Fatal("the wrapper of a bucketed substituter lost SubstituteRange")
	}
	rs.SubstituteRange([]byte("ab"), []byte("cd"))
	if tr.subRange.calls.Load() != 1 {
		t.Error("SubstituteRange was not counted")
	}
}

// manifestFile is BENCHMARK.json as the contract defines it.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifestFile(t *testing.T) manifestFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json has keys %v, want exactly %v", got, want)
	}
	var mf manifestFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMeetsTheContract holds BENCHMARK.json to the contract's limits
// and its workloads to the program's. The metric lists have no second copy to
// be held to: the program reads them from the file, and TestSmoke checks that
// every listed name is reported.
func TestManifestMeetsTheContract(t *testing.T) {
	mf := readManifestFile(t)
	if !slices.Equal(mf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", mf.Paths)
	}
	if len(mf.Command) == 0 || len(mf.Command) > 32 {
		t.Errorf("command has %d strings", len(mf.Command))
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}
	// 4 + 22 runs per workload, all within 3420 s: the budget per run.
	runs := 4 + 22*len(mf.Workloads)
	if perRun := 3420.0 / float64(runs); float64(mf.RunSeconds)+7 > perRun {
		t.Errorf("%d runs of %d s plus set-up do not fit in 3420 s (%.1f s each)", runs, mf.RunSeconds, perRun)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(mf.Workloads) < 2 || len(mf.Workloads) > 8 || len(mf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		name(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, bounded bool, limit int) {
		if len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics (limit %d)", kind, len(got), limit)
		}
		for _, m := range got {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, true, 16)
	check("per_layer", mf.PerLayer, false, 128)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload end to end at about 1/200 size — the
// ekbtreed child, the traced run and the reopen check included — and holds
// each result to BENCHMARK.json: every listed name exactly once with its
// unit, and nothing unlisted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts ekbtreed")
	}
	mf := readManifestFile(t)
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	lists, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := run(runConfig{
				sp: sp.smoke(), seed: 5, seconds: smokeSeconds, trace: traced, smoke: true,
				mf: lists, root: root, outDir: outDir, log: io.MultiWriter(&log),
			})
			if err != nil {
				t.Fatalf("%s (trace %v): %v\n%s", sp.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v, %d of %d ops failed\n%s", sp.name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := mf.EndToEnd
			if traced {
				want = mf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, %d listed", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s is listed but not reported", sp.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s reported in %q, listed in %q", sp.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", sp.name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, m.Name, got.Value)
				}
			}
			// The line the driver reads is this object, marshalled.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s: result line has keys %v (%v)", sp.name, back, err)
			}
		}
	}
	// The structural predictions, which hold at any size.
	for _, w := range []string{"get-hot", "scan-range"} {
		sp, _ := findSpec(w)
		res, err := run(runConfig{sp: sp.smoke(), seed: 6, seconds: smokeSeconds, trace: true, smoke: true,
			mf: lists, root: root, outDir: outDir, log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"cipher.opens_per_op", "store.reads_per_op", "cipher.seals_per_op"} {
			if v := res.Metrics[m].Value; v != 0 {
				t.Errorf("%s: %s = %v on a fully cached read workload, want 0", w, m, v)
			}
		}
	}
}
