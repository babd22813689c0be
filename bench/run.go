package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// setupRepeats is how many times a full run sets the system up. setup_s is
// the median of them: a single set-up is one sample of a box whose speed sags
// for seconds at a time, and it cannot be cut into segments like the timed
// phase. The last set-up is the one the run goes on to use.
const setupRepeats = 3

// minSegments is the fewest segments a timed phase is cut into.
const minSegments = quietSegments + 2

// runConfig is one invocation of the benchmark.
type runConfig struct {
	sp      spec
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	mf      manifest  // BENCHMARK.json: the names and units to report
	root    string    // the checkout: where go.mod is
	outDir  string    // bench/out: scratch files, spans, budget rows
	log     io.Writer // the human-readable account of the run
}

// plan cuts the run's frozen op count into equal segments: 50 of them at the
// benchmark's own run length (about a quarter of a second each — long enough
// to span a GC cycle), fewer for shorter runs, never fewer than the quiet
// window needs.
func (c runConfig) plan() (segs, perSeg int) {
	segs = min(max(int(math.Round(c.seconds/0.24)), minSegments), 50)
	perClient := c.sp.opsPerSecond * c.seconds / float64(segs*c.sp.clients)
	m := c.sp.segMultiple
	perSeg = max(int(math.Round(perClient/float64(m))), 1) * m
	return segs, perSeg
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

func (c runConfig) newEnv(serverBin string) env {
	if c.sp.served {
		return &srvEnv{sp: c.sp, g: c.sp.keygen(c.seed), bin: serverBin}
	}
	return newLibEnv(c.sp, c.seed)
}

// run executes one workload once and returns what the last line reports.
func run(c runConfig) (res result, err error) {
	runDir, err := os.MkdirTemp(c.outDir, "run-"+c.sp.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(runDir)

	calSlices, calEach := 3, 100*time.Millisecond
	if c.smoke {
		calSlices, calEach = 1, 10*time.Millisecond
	}
	cal := calibrate(calSlices, calEach)

	var serverBin string
	if c.sp.served {
		// Before the set-up clock: building is not the system's set-up.
		if serverBin, err = buildServer(c.root, c.outDir); err != nil {
			return res, err
		}
	}
	segs, perSeg := c.plan()
	c.logf("workload %s: %s", c.sp.name, c.sp.unit)
	c.logf("seed %d, %d keys, %d client(s), %d segments x %d ops per client, GOMAXPROCS %d of %d CPUs, %s",
		c.seed, c.sp.keys, c.sp.clients, segs, perSeg, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if c.sp.served {
		c.logf("flush policy: ekbtreed -durability grouped (2 ms window), one wire Sync before the final Stats")
	} else {
		c.logf("flush policy: %s", flushPolicy)
	}

	if c.trace {
		res, err = c.runTraced(runDir, serverBin, segs, perSeg)
	} else {
		res, err = c.runPlain(runDir, serverBin, segs, perSeg)
	}
	if err != nil {
		return res, err
	}
	if after := calibrate(calSlices, calEach); after > cal {
		cal = after
	}
	c.logf("calibration: %.0f HMAC-SHA256(64 B)/s, best slice before set-up and after the timed phase", cal)
	return res, nil
}

// setUp runs the set-up n times, each into its own directory, discarding all
// but the last, and returns the median duration.
func (c runConfig) setUp(e env, runDir string, n int) (float64, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(runDir, "setup-")
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := e.setup(dir); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		durs = append(durs, time.Since(start).Seconds())
		if i < n-1 {
			if err := e.discard(); err != nil {
				return 0, fmt.Errorf("discard set-up %d: %w", i, err)
			}
		}
	}
	c.logf("set-up times: %.3f s", durs)
	slices.Sort(durs)
	return medianF(durs), nil
}

// settle returns the memory set-up left behind, and checks that the
// resident-set high-water mark of the process holding the tree can be
// restarted, so that peak_rss_mb is the timed phase's and not the bulk load's.
func (c runConfig) settle(e env) {
	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS(e.treePID()) {
		c.logf("peak_rss_mb: the kernel refused to reset VmHWM; every segment reads the process's lifetime peak")
	}
}

// abort stops a served environment's child when a run fails half way.
func abort(e env) {
	if s, ok := e.(*srvEnv); ok {
		s.abort()
	}
}

// runPlain is the untraced run: the one the end-to-end metrics come from.
func (c runConfig) runPlain(runDir, serverBin string, segs, perSeg int) (res result, err error) {
	e := c.newEnv(serverBin)
	defer func() {
		if err != nil {
			abort(e)
		}
	}()
	repeats := setupRepeats
	if c.smoke {
		repeats = 1
	}
	setupS, err := c.setUp(e, runDir, repeats)
	if err != nil {
		return res, err
	}
	c.settle(e)

	warm := runPhase(e.runners(), 1, perSeg, phaseOpts{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// The resident-set high-water mark is restarted before each segment and
	// read after it, and peak_rss_mb is the median of those peaks. One
	// whole-phase peak depends on where in a GC cycle the worst moment fell
	// and moved by 14 % between runs.
	var peaks []float64
	var rssErr error
	ph := runPhase(e.runners(), segs, perSeg, phaseOpts{
		before: func() { resetPeakRSS(e.treePID()) },
		after: func() {
			peak, err := peakRSSMB(e.treePID())
			peaks, rssErr = append(peaks, peak), errors.Join(rssErr, err)
		},
	})
	if rssErr != nil {
		return res, rssErr
	}
	runtime.ReadMemStats(&ms1)
	slices.Sort(peaks)
	rss := medianF(peaks)

	if err := e.sync(); err != nil {
		return res, fmt.Errorf("final sync: %w", err)
	}
	fileBytes, liveBytes, keys, err := e.space()
	if err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	verr := e.verify()
	if verr != nil {
		c.logf("VERIFY FAILED: %v", verr)
	}

	ops := ph.timing.ops()
	opsPerS, p50 := ph.timing.quiet()
	all := ph.timing.all()
	c.logf("timed phase: %d ops in %.2f s; set-up median of %d: %.3f s", ops, ph.timing.wall().Seconds(), repeats, setupS)
	c.logf("quiet window (fastest %d segments): %.0f ops/s, p50 %.3f us", quietSegments, opsPerS, p50)
	c.logf("all segments (ungated): median segment %.0f ops/s, slowest %.0f ops/s; mean %.3f us, p50 %.3f us, p99 %.3f us, p999 %.3f us over %d ops",
		all.medianSegOpsPerS, all.slowestSegOpsPerS, all.meanUs, all.p50, all.p99, all.p999, all.n)
	c.logf("segment throughputs in run order, ops/s: %.0f", ph.timing.rates())
	c.logf("resident-set peak per segment, MB: lowest %.1f, median %.1f, highest %.1f", peaks[0], rss, peaks[len(peaks)-1])
	c.logf("page file: %d B, %d B live, %d keys; GC cycles in the timed phase: %d", fileBytes, liveBytes, keys, ms1.NumGC-ms0.NumGC)

	// The set keeps what BENCHMARK.json lists end to end; the rest stays in
	// the log above.
	m := newMetricSet(c.mf.EndToEnd)
	m.set("setup_s", setupS)
	m.set("ops_per_s", opsPerS)
	m.set("op_p50_us", p50)
	m.set("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
	m.set("disk_bytes_per_key", float64(fileBytes)/float64(keys))
	m.set("peak_rss_mb", rss)
	if miss := m.missing(); len(miss) > 0 {
		return res, fmt.Errorf("BENCHMARK.json lists end-to-end metrics the untraced run does not take: %v", miss)
	}
	return result{
		Correct:   verr == nil && warm.failed+ph.failed == 0 && keys == c.sp.keys,
		Attempted: warm.timing.ops() + ops,
		Failed:    warm.failed + ph.failed,
		Metrics:   m.values,
	}, nil
}
