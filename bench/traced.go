package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
)

// The traced run supplies the per-layer metrics only. It spends the run's op
// budget on phases of a third each, all over the same seed:
//
//	served     (served-mix only) the ops over the wire to an ekbtreed child,
//	           for the server's and the client's CPU per op;
//	reference  the ops against a library tree with plain layers, one client
//	           at a time, for the façade's own latency and allocation figures;
//	traced     the same ops against a copy of that tree with decorated layers.
//
// The last two run in alternate segments, and facade.trace_overhead_frac is
// the median ratio of adjacent segments: run one after the other, seconds of
// drift apart on a noisy box, the two phases differ by more than the tracing
// costs. On served-mix the plain tree then takes the two clients side by
// side, for ekbtreed.over_inproc_ratio.

// servedFigures is what the served phase of a traced served-mix run yields;
// its rate and mean op time are quiet-window figures.
type servedFigures struct {
	ops, failed                      int
	opsPerS, p50Us, meanUs           float64
	serverCPUUs, clientCPUUs, ctxSwS float64 // per op
}

func (c runConfig) servedPhase(runDir, serverBin string, segs, perSeg int) (out servedFigures, err error) {
	e := c.newEnv(serverBin)
	defer func() {
		if err != nil {
			abort(e)
		}
	}()
	if _, err = c.setUp(e, runDir, 1); err != nil {
		return out, err
	}
	warm := runPhase(e.runners(), 1, perSeg, phaseOpts{})
	srv0, err := readProcCPU(e.treePID())
	if err != nil {
		return out, err
	}
	self0, err := readProcCPU(0)
	if err != nil {
		return out, err
	}
	ph := runPhase(e.runners(), segs, perSeg, phaseOpts{})
	srv1, err := readProcCPU(e.treePID())
	if err != nil {
		return out, err
	}
	self1, err := readProcCPU(0)
	if err != nil {
		return out, err
	}
	if err = e.sync(); err != nil {
		return out, err
	}
	if err = e.verify(); err != nil {
		return out, fmt.Errorf("served phase verify: %w", err)
	}
	n := float64(ph.timing.ops())
	out.ops, out.failed = warm.timing.ops()+ph.timing.ops(), warm.failed+ph.failed
	out.opsPerS, out.p50Us = ph.timing.quiet()
	out.meanUs = ph.timing.quietMeanUs()
	out.serverCPUUs = us(srv1.cpu-srv0.cpu) / n
	out.clientCPUUs = us(self1.cpu-self0.cpu) / n
	out.ctxSwS = float64(srv1.switches-srv0.switches) / n
	c.logf("served phase: %d ops, quiet window %.0f ops/s, mean %.3f us; server %.1f us CPU and %.2f context switches per op",
		ph.timing.ops(), out.opsPerS, out.meanUs, out.serverCPUUs, out.ctxSwS)
	return out, nil
}

// memDelta is the allocator's account of one phase.
type memDelta struct{ mallocs, bytes, gcs float64 }

func memPhase(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), float64(b.NumGC - a.NumGC)}
}

// measured is a phase with the process's resource use over it and, for a
// traced phase, the decorators' counts segment by segment.
type measured struct {
	phaseResult
	mem   memDelta
	cpu   time.Duration
	wchar int64
	calls []counters // one per segment
}

// quietCalls is the traced phase's quiet window: the decorators' counts, the
// op count and the mean op time over its quietSegments fastest segments.
// Every per-op figure of the traced run is taken there, as the end-to-end
// ones are, because a layer's busy time swells with the box's noise as the
// op's does.
func (m measured) quietCalls() (d counters, ops, opUs float64) {
	for _, i := range m.timing.fastest(quietSegments) {
		d = d.plus(m.calls[i])
		ops += float64(len(m.timing[i].lat))
	}
	return d, ops, m.timing.quietMeanUs()
}

// add runs one more segment of rs and folds it, and the allocator, CPU and
// write counters' movement over it, into m.
func (m *measured) add(rs []opRunner, perSeg int, o phaseOpts) error {
	cpu0, err := readProcCPU(0)
	if err != nil {
		return err
	}
	w0, err := bytesWritten(0)
	if err != nil {
		return err
	}
	var seg phaseResult
	var calls counters
	if o.tr != nil {
		calls = o.tr.snapshot()
	}
	mem := memPhase(func() { seg = runPhase(rs, 1, perSeg, o) })
	if o.tr != nil {
		m.calls = append(m.calls, o.tr.snapshot().minus(calls))
	}
	cpu1, err := readProcCPU(0)
	if err != nil {
		return err
	}
	w1, err := bytesWritten(0)
	if err != nil {
		return err
	}
	m.timing = append(m.timing, seg.timing...)
	m.failed += seg.failed
	m.mem = memDelta{m.mem.mallocs + mem.mallocs, m.mem.bytes + mem.bytes, m.mem.gcs + mem.gcs}
	m.cpu += cpu1.cpu - cpu0.cpu
	m.wchar += w1 - w0
	return nil
}

// alternate runs segs segments of a and of b, turn about, so that whatever
// the box does during the phase it does to both. The file store writes only
// inside the ops that flush it, so each side's counters hold its own work.
func alternate(a, b []opRunner, segs, perSeg int, oa, ob phaseOpts) (ma, mb measured, err error) {
	for s := 0; s < segs; s++ {
		if err = ma.add(a, perSeg, oa); err != nil {
			return ma, mb, err
		}
		if err = mb.add(b, perSeg, ob); err != nil {
			return ma, mb, err
		}
	}
	return ma, mb, nil
}

// pairedOverhead is the median, over the pairs of adjacent segments, of the
// traced segment's time over the plain one's, less one.
func pairedOverhead(plain, traced timing) float64 {
	ratios := make([]float64, 0, len(plain))
	for i := range min(len(plain), len(traced)) {
		ratios = append(ratios, traced[i].wall.Seconds()/plain[i].wall.Seconds())
	}
	slices.Sort(ratios)
	return medianF(ratios) - 1
}

func (c runConfig) runTraced(runDir, serverBin string, segs, perSeg int) (res result, err error) {
	phaseSegs := max(segs/3, minSegments)
	m := newMetricSet(c.mf.PerLayer)

	var served servedFigures
	if c.sp.served {
		if served, err = c.servedPhase(runDir, serverBin, phaseSegs, perSeg); err != nil {
			return res, err
		}
		res.Attempted, res.Failed = served.ops, served.failed
	}

	e := newLibEnv(c.sp, c.seed)
	if _, err := c.setUp(e, runDir, 1); err != nil {
		return res, err
	}
	c.settle(e)
	count := func(phases ...phaseResult) {
		for _, p := range phases {
			res.Attempted += p.timing.ops()
			res.Failed += p.failed
		}
	}

	// A second tree over a copy of the file, its layers decorated. The two
	// trees take the same op stream from the seed in alternate segments, so
	// whatever the box does during the phase it does to both.
	tr := newTracer(c.seed)
	te, err := e.traceClone(tr)
	if err != nil {
		return res, err
	}
	defer te.tree.Close()
	st0, err := te.tree.Stats()
	if err != nil {
		return res, err
	}
	// The traced warm-up records every op, to learn how many spans an op
	// makes; the timed segments then sample one op in N so that the run
	// keeps <= maxSpans.
	twarm := runPhase(te.runners(), 1, perSeg, phaseOpts{tr: tr, sampleEvery: 1})
	sampleEvery := tr.resetSpans(phaseSegs * perSeg * len(te.runners()))
	warm := runPhase(e.runners(), 1, perSeg, phaseOpts{oneByOne: true})
	ref, tph, err := alternate(e.runners(), te.runners(), phaseSegs, perSeg,
		phaseOpts{oneByOne: true}, phaseOpts{tr: tr, sampleEvery: sampleEvery})
	if err != nil {
		return res, err
	}
	phaseEnd := tr.snapshot()
	// The closing Sync is the traced tree's, and its writes belong to wchar.
	wcharSync, err := bytesWritten(0)
	if err != nil {
		return res, err
	}
	if err := te.sync(); err != nil {
		return res, err
	}
	if after, err := bytesWritten(0); err == nil {
		tph.wchar += after - wcharSync
	}
	st1, err := te.tree.Stats()
	if err != nil {
		return res, err
	}
	life := tr.snapshot() // unit costs are taken over every call the tracer saw
	count(warm, twarm, ref.phaseResult, tph.phaseResult)
	overInproc := 0.0
	if c.sp.served {
		// The plain tree goes on to take the two clients side by side, as the
		// server took them.
		side := runPhase(e.runners(), phaseSegs, perSeg, phaseOpts{})
		inproc, _ := side.timing.quiet()
		overInproc = inproc / served.opsPerS
		count(side)
		c.logf("in-process, clients side by side: quiet window %.0f ops/s, %.2fx the served rate", inproc, overInproc)
	}
	refOps := float64(ref.timing.ops())
	refAll := ref.timing.all()
	refMem := ref.mem

	d, ops, opUs := tph.quietCalls()
	perOp := func(v int64) float64 { return float64(v) / ops }
	perOpUs := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	mbPerS := func(s callSnap) float64 {
		if s.ns == 0 {
			return 0
		}
		return float64(s.bytes) / 1e6 / (float64(s.ns) / 1e9)
	}

	// keysub
	keysubUs := perOpUs(d.sub.ns + d.subRange.ns)
	m.set("keysub.calls_per_op", perOp(d.sub.calls))
	m.set("keysub.range_calls_per_op", perOp(d.subRange.calls))
	m.set("keysub.us_per_op", keysubUs)

	// cipher
	opens, seals := perOp(d.open.calls), perOp(d.seal.calls)
	openUs, sealWallUs := perOpUs(d.open.ns), perOpUs(d.sealUnionNs)
	m.set("cipher.opens_per_op", opens)
	m.set("cipher.open_us_per_op", openUs)
	m.set("cipher.open_bytes_per_op", perOp(d.open.bytes))
	m.set("cipher.open_mb_per_s", mbPerS(life.open))
	m.set("cipher.seals_per_op", seals)
	m.set("cipher.seal_us_per_op", perOpUs(d.seal.ns))
	m.set("cipher.seal_bytes_per_op", perOp(d.seal.bytes))
	m.set("cipher.seal_mb_per_s", mbPerS(life.seal))

	// store
	reads := perOp(d.read.calls)
	storeUs := perOpUs(d.read.ns + d.commit.ns + d.sync.ns)
	writeAmp := 0.0
	if user := c.userBytesPerOp() * float64(tph.timing.ops()); user > 0 {
		writeAmp = float64(tph.wchar) / user
	}
	pagesPerCommit := 0.0
	if d.commit.calls > 0 {
		pagesPerCommit = float64(d.commitPages) / float64(d.commit.calls)
	}
	m.set("store.reads_per_op", reads)
	m.set("store.read_us_per_op", perOpUs(d.read.ns))
	m.set("store.read_bytes_per_op", perOp(d.read.bytes))
	m.set("store.commits_per_op", perOp(d.commit.calls))
	m.set("store.commit_us_per_op", perOpUs(d.commit.ns))
	m.set("store.commit_bytes_per_op", perOp(d.commit.bytes))
	m.set("store.pages_per_commit", pagesPerCommit)
	m.set("store.sync_us_per_op", perOpUs(d.sync.ns))
	m.set("store.write_bytes_per_user_byte", writeAmp)
	m.set("store.live_bytes_per_key", float64(st1.LiveBytes)/float64(st1.Keys))
	m.set("store.file_over_live", float64(st1.FileBytes)/float64(st1.LiveBytes))

	// node: the codec's unit costs replayed on the sampled pages, times the
	// opens and seals per op the cipher decorator counted. Seals of one
	// commit overlap on the engine's workers, and each worker encodes the
	// page it seals: the op waited for the union of the seal spans, and the
	// encodes shrink by the same factor.
	nr, err := replayNode(tr.pages)
	if err != nil {
		return res, err
	}
	parallel := 1.0
	if d.sealUnionNs > 0 {
		parallel = float64(d.seal.ns) / float64(d.sealUnionNs)
	}
	decodeUs, encodeUs := nr.decodeUs*opens, nr.encodeUs*seals
	nodeUs := decodeUs + encodeUs/parallel
	m.set("node.decode_us_per_page", nr.decodeUs)
	m.set("node.encode_us_per_page", nr.encodeUs)
	m.set("node.page_bytes_mean", nr.pageBytes)
	m.set("node.keys_per_page_mean", nr.keysPerPage)
	m.set("node.decode_us_per_op", decodeUs)
	m.set("node.encode_us_per_op", encodeUs)

	// btree and engine replays over the workload's substituted keys.
	keys, values := replayEntries(e.l.sub, e.g, c.sp.keys)
	br, err := replayBtree(keys, values)
	if err != nil {
		return res, err
	}
	er, err := replayEngine(keys, values)
	if err != nil {
		return res, err
	}
	m.set("btree.lookup_us", br.lookupUs)
	m.set("btree.nodes_per_lookup", br.nodesPerLookup)
	m.set("btree.put_us", br.putUs)
	m.set("btree.iter_next_ns", br.iterNextNs)

	// engine: Stats deltas cover the traced phase with its warm-up, less the
	// node reads of the closing Stats walk itself (each a hit or a miss).
	engOps := float64(tph.timing.ops() + twarm.timing.ops())
	walkMisses := float64(life.read.calls - phaseEnd.read.calls)
	walkHits := float64(st1.Nodes) - walkMisses
	walkEvictions := 0.0
	if st1.Cache.Pages >= c.resolvedCachePages() {
		walkEvictions = walkMisses
	}
	hits := float64(st1.Cache.Hits-st0.Cache.Hits) - walkHits
	misses := float64(st1.Cache.Misses-st0.Cache.Misses) - walkMisses
	commits := float64(st1.Commits - st0.Commits)
	perCommit := func(v uint64) float64 {
		if commits == 0 {
			return 0
		}
		return float64(v) / commits
	}
	engineSelfUs := opUs - keysubUs - openUs - sealWallUs - storeUs - nodeUs
	m.set("engine.cache_hit_ratio", hits/math.Max(hits+misses, 1))
	m.set("engine.cache_evictions_per_op", math.Max(float64(st1.Cache.Evictions-st0.Cache.Evictions)-walkEvictions, 0)/engOps)
	m.set("engine.commits_per_op", commits/engOps)
	m.set("engine.conflicts_per_commit", perCommit(st1.Conflicts-st0.Conflicts))
	m.set("engine.retries_per_commit", perCommit(st1.Retries-st0.Retries))
	m.set("engine.self_us_per_op", engineSelfUs)

	// wire
	wr, err := replayWire(wireOps(c.sp, e.g))
	if err != nil {
		return res, err
	}
	wireCodecUs := (wr.encReqNs + wr.decReqNs + wr.encRespNs + wr.decRespNs) / 1e3
	m.set("wire.encode_req_ns", wr.encReqNs)
	m.set("wire.decode_req_ns", wr.decReqNs)
	m.set("wire.encode_resp_ns", wr.encRespNs)
	m.set("wire.decode_resp_ns", wr.decRespNs)
	m.set("wire.frame_bytes_per_op", wr.frameBytes)
	m.set("wire.loopback_rtt_us", wr.loopbackRTTUs)

	// ekbtreed
	clientCPUUs := us(tph.cpu) / float64(tph.timing.ops())
	if c.sp.served {
		clientCPUUs = served.clientCPUUs
	}
	m.set("ekbtreed.server_cpu_us_per_op", served.serverCPUUs)
	m.set("ekbtreed.client_cpu_us_per_op", clientCPUUs)
	m.set("ekbtreed.server_ctx_switches_per_op", served.ctxSwS)
	m.set("ekbtreed.over_inproc_ratio", overInproc)

	// The budget: every layer measured on its own — decorated or replayed —
	// summed against the op. What the sum misses is time nothing outside the
	// engine (or the server) can put a clock on.
	btreeUs, bookkeepingUs := c.engineReplayUs(br, er)
	decorated := d.sub.calls + d.subRange.calls + d.open.calls + d.seal.calls + d.read.calls + d.commit.calls + d.sync.calls
	t := budgetTimes{
		keysub: keysubUs, cipher: openUs + sealWallUs, store: storeUs, node: nodeUs,
		btree: btreeUs, engine: bookkeepingUs,
		harness:   replayHarness(e.g, perOp(decorated)),
		wireCodec: wireCodecUs, loopback: wr.loopbackRTTUs,
	}
	endToEndUs, measuredUs := opUs, t.library()
	if c.sp.served {
		endToEndUs, measuredUs = served.meanUs, t.library()+t.wireCodec+t.loopback
	}
	// The untraced op's quiet-window figures, the served ones on served-mix.
	quietOpsPerS, quietP50 := ref.timing.quiet()
	if c.sp.served {
		quietOpsPerS, quietP50 = served.opsPerS, served.p50Us
	}
	m.set("ops_per_s", quietOpsPerS)
	m.set("op_p50_us", quietP50)
	m.set("facade.op_us_mean", refAll.meanUs)
	m.set("facade.op_p50_all_us", refAll.p50)
	m.set("facade.op_p99_us", refAll.p99)
	m.set("facade.op_p999_us", refAll.p999)
	m.set("facade.alloc_bytes_per_op", refMem.bytes/refOps)
	m.set("facade.gc_cycles", refMem.gcs)
	m.set("facade.trace_overhead_frac", pairedOverhead(ref.timing, tph.timing))
	m.set("facade.budget_gap_frac", math.Abs(measuredUs-endToEndUs)/endToEndUs)

	c.logf("reference phase: %d ops, mean %.3f us (quiet window %.3f us), p50 %.3f us, p99 %.3f us, p999 %.3f us; %.2f allocs/op",
		ref.timing.ops(), refAll.meanUs, ref.timing.quietMeanUs(), refAll.p50, refAll.p99, refAll.p999, refMem.mallocs/refOps)
	c.logf("traced phase: %d ops, mean %.3f us (quiet window %.3f us); 1 op in %d recorded, %d spans; %d pages sampled",
		tph.timing.ops(), tph.timing.all().meanUs, opUs, sampleEvery, len(tr.spans), nr.pages)
	c.logf("budget: op %.3f us; measured %.3f us = keysub %.3f + btree %.3f + engine %.3f + node %.3f + cipher %.3f + store %.3f + harness %.3f (+ wire %.3f + loopback %.3f)",
		endToEndUs, measuredUs, t.keysub, t.btree, t.engine, t.node, t.cipher, t.store, t.harness, t.wireCodec, t.loopback)

	spansPath := filepath.Join(c.outDir, "spans-"+c.sp.name+".json")
	if err := tr.writeSpans(spansPath); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	c.logf("spans: %s", spansPath)

	b := budget{
		Workload: c.sp.name, Op: c.sp.unit, Seed: c.seed, Seconds: c.seconds,
		OpUs: endToEndUs, OpAllocs: refMem.mallocs / refOps,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0),
	}
	b.Rows = c.budgetRows(e.l, tr.pages, d, ops, b, replays{br, er, nr}, served, t)
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, "budget-"+c.sp.name+".json"), raw, 0o644); err != nil {
		return res, err
	}

	verr := e.verify()
	if verr == nil {
		verr = te.verify()
	}
	if verr != nil {
		c.logf("VERIFY FAILED: %v", verr)
	}
	if miss := m.missing(); len(miss) > 0 {
		return res, fmt.Errorf("BENCHMARK.json lists per-layer metrics the traced run does not take: %v", miss)
	}
	res.Correct = verr == nil && res.Failed == 0 && st1.Keys == c.sp.keys
	res.Metrics = m.values
	return res, nil
}

// resetSpans drops the warm-up's spans and returns the sampling interval N
// that keeps a phase of ops ops within maxSpans, judging by how many spans
// the warm-up's ops made each.
func (t *tracer) resetSpans(ops int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := 0
	for _, s := range t.spans {
		if s.Parent < 0 {
			roots++
		}
	}
	perOp := float64(len(t.spans)) / float64(max(roots, 1))
	t.spans = t.spans[:0]
	return max(int(math.Ceil(float64(ops)*perOp/maxSpans)), 1)
}

// userBytesPerOp is the key and value bytes one op asks the tree to store.
func (c runConfig) userBytesPerOp() float64 {
	switch {
	case c.sp.name == "ingest":
		return (ingestInserts + ingestOverwrites) * (keyLen + valueLen)
	case c.sp.served:
		return 0.2 * (keyLen + valueLen)
	}
	return 0
}

func (c runConfig) resolvedCachePages() int {
	if c.sp.cachePages == 0 {
		return engine.DefaultCachePages
	}
	return c.sp.cachePages
}

// engineReplayUs prices one op's work in the B-tree and in the engine around
// it at the replays' unit costs. The engine replay runs the real engine over
// an in-memory store, everything cached, so it holds the B-tree's share too:
// the engine's own part is the difference. Commits have no such replay; on
// the write workloads the engine's own part is left to the residual.
func (c runConfig) engineReplayUs(br btreeReplay, er engineReplay) (btreeUs, engineUs float64) {
	switch {
	case c.sp.bucketed:
		entries := float64(c.sp.keys) / float64(c.sp.keygen(0).buckets)
		btreeUs = br.lookupUs + br.iterNextNs/1e3*entries
		return btreeUs, er.seekUs + er.iterNextNs/1e3*entries - btreeUs
	case c.sp.name == "ingest":
		return br.putUs * (ingestInserts + ingestDeletes + ingestOverwrites), 0
	case c.sp.served:
		return 0.8*br.lookupUs + 0.2*br.putUs, 0.8 * (er.getUs - br.lookupUs)
	}
	return br.lookupUs, er.getUs - br.lookupUs
}

// budgetTimes is one op's measured time by layer, in us.
type budgetTimes struct {
	keysub, btree, engine, node, cipher, store float64
	harness                                    float64 // the benchmark's own share of the traced op
	wireCodec, loopback                        float64
}

// library is the measured time of the traced op inside this process.
func (t budgetTimes) library() float64 {
	return t.keysub + t.btree + t.engine + t.node + t.cipher + t.store + t.harness
}

// budgetRow is one layer's line of the budget for one op of a workload.
type budgetRow struct {
	Layer       string  `json:"layer"`
	Us          float64 `json:"us"`
	Allocs      float64 `json:"allocs"`
	PagesRead   float64 `json:"pages_read"`
	PagesSealed float64 `json:"pages_sealed"`
	// Residual marks the row that is the end-to-end figure less every other
	// row, not a measurement of its own.
	Residual bool   `json:"residual,omitempty"`
	Note     string `json:"note,omitempty"`
}

// budget is what bench/cmd/budget renders BUDGET.md from.
type budget struct {
	Workload  string      `json:"workload"`
	Op        string      `json:"op"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	OpUs      float64     `json:"op_us"`     // the end-to-end figure: mean op time
	OpAllocs  float64     `json:"op_allocs"` // allocations per op, untraced
	Rows      []budgetRow `json:"rows"`
	GoVersion string      `json:"go_version"`
	CPUs      int         `json:"cpus"`
	Procs     int         `json:"gomaxprocs"`
}

// replays bundles the unit costs the replays measured.
type replays struct {
	btree  btreeReplay
	engine engineReplay
	node   nodeReplay
}

// budgetRows lays one op's time, allocations and page traffic out by layer.
// Allocations are unit costs (one call of the layer, measured alone) times
// the calls per op the decorators counted; the residual row takes the rest.
func (c runConfig) budgetRows(l layers, pages [][]byte, d counters, ops float64, b budget, r replays, served servedFigures, t budgetTimes) []budgetRow {
	perOp := func(v int64) float64 { return float64(v) / ops }
	var kb [keyLen]byte
	key := c.sp.keygen(c.seed).key(kb[:], 1)
	subAllocs := unitAllocs(1000, func(int) { l.sub.Substitute(key) })
	var openAllocs, sealAllocs, readAllocs float64
	if len(pages) > 0 {
		// A throwaway epoch far from any the tree uses: the sealed bytes are
		// dropped, so its nonces meet nothing.
		if sealed, err := l.nc.SealEpoch(1, math.MaxUint32, 0, pages[0]); err == nil {
			sealAllocs = unitAllocs(200, func(i int) { l.nc.SealEpoch(1, math.MaxUint32, uint64(i+1), pages[0]) })
			openAllocs = unitAllocs(200, func(int) { l.nc.Open(1, sealed) })
		}
	}
	if root, err := l.st.Root(); err == nil {
		readAllocs = unitAllocs(200, func(int) { l.st.ReadPage(root) })
	}
	opens, seals, reads := perOp(d.open.calls), perOp(d.seal.calls), perOp(d.read.calls)
	btreeAllocs, engineAllocs := r.btree.lookupAllocs, r.engine.getAllocs-r.btree.lookupAllocs
	engineNote := "replayed: the real engine over an in-memory store, everything cached, less the btree row"
	switch {
	case c.sp.name == "ingest":
		btreeAllocs, engineAllocs = r.btree.putAllocs*(ingestInserts+ingestDeletes+ingestOverwrites), 0
		engineNote = "no replay of the commit path: the engine's part is in the residual"
	case c.sp.bucketed:
		engineAllocs = 0
	}
	rows := []budgetRow{
		{Layer: "keysub", Us: t.keysub, Allocs: subAllocs * perOp(d.sub.calls+d.subRange.calls), Note: "decorated: every Substitute and SubstituteRange call"},
		{Layer: "btree", Us: t.btree, Allocs: btreeAllocs, Note: "replayed: unit cost over in-memory nodes x the op's lookups, puts or iterator steps"},
		{Layer: "engine", Us: t.engine, Allocs: engineAllocs, Note: engineNote},
		{Layer: "node", Us: t.node, Allocs: r.node.decodeAllocs*opens + r.node.encodeAllocs*seals, Note: "replayed: per-page decode and encode cost x opens and seals"},
		{Layer: "cipher", Us: t.cipher, Allocs: openAllocs*opens + sealAllocs*seals, PagesRead: opens, PagesSealed: seals, Note: "decorated: Open + SealEpoch, seals as the wall-clock union of their spans"},
		{Layer: "store", Us: t.store, Allocs: readAllocs * reads, PagesRead: reads, PagesSealed: perOp(d.commitPages), Note: "decorated: ReadPage + CommitPages + Sync"},
		{Layer: "bench", Us: t.harness, Note: "replayed: the op loop's clock read and value check, and the decorators' own cost per decorated call"},
	}
	if c.sp.served {
		rows = append(rows,
			budgetRow{Layer: "wire", Us: t.wireCodec, Note: "replayed: request and response codec, both ends"},
			budgetRow{Layer: "loopback", Us: t.loopback, Note: "replayed: the same frames ping-ponged against an echo goroutine, the floor no server can beat"},
		)
	}
	var knownUs, knownAllocs float64
	for _, row := range rows {
		knownUs += row.Us
		knownAllocs += row.Allocs
	}
	rest := budgetRow{Layer: "engine and facade", Us: b.OpUs - knownUs, Allocs: b.OpAllocs - knownAllocs, Residual: true,
		Note: "what no row above accounts for: cursor and batch objects, transaction staging, OCC validation, cache misses' bookkeeping, the garbage collector's share"}
	if c.sp.served {
		rest.Layer = "ekbtreed"
		rest.Note = fmt.Sprintf("what is left of the served round trip: connection goroutines, scheduling, the grouped committer; the server burnt %.1f us of CPU per op and switched context %.2f times", served.serverCPUUs, served.ctxSwS)
	}
	return append(rows, rest)
}

// replayEntries is the workload's n entries as the tree sees them:
// substituted keys, and a value apiece as in the tree, where copying one out
// misses the processor's cache.
func replayEntries(sub ekbtree.Substituter, g keygen, n int) (keys, values [][]byte) {
	keys, values = make([][]byte, n), make([][]byte, n)
	var kb [keyLen]byte
	for i := range keys {
		keys[i] = sub.Substitute(g.key(kb[:], uint64(i)))
		values[i] = fillValue(make([]byte, valueLen), g.seed, uint64(i), 0)
	}
	return keys, values
}
