package ekbtree

// Model-based randomized concurrency harness. N writer goroutines commit
// concurrently — single puts and deletes, whole-group batches and mixed
// batches — so they queue for the write turn and share commits (with N = 1,
// TestModelConcurrency's schedule, every commit publishes alone), while
// readers Get and scanners pin whole-tree cursors. Every observation is
// checked against an oracle of each key's versions. The harness runs over
// the default in-memory page file, over Path trees in all three durability
// modes, and with rotation and vacuum racing it, and runs under -race in CI.
//
// Ground truth without a serializing lock comes from two ingredients:
//
//  1. Disjoint key ownership. Writer w only ever writes keys (and key
//     groups) it owns, so every key's version history is SEQUENTIAL even
//     though commits to the shared tree are not. Different writers' keys
//     share B-tree pages, and often commits, but the per-key semantics stay
//     checkable.
//
//  2. A global tick counter. Each commit samples the counter before it
//     starts (s) and bumps it after it returns (e): the commit's publish
//     provably happened somewhere in the tick window [s, e] (e == 0 marks a
//     commit still in flight, window open-ended). Readers sample the same
//     counter around each Get or cursor pin and accept any observation that
//     SOME tick in their window explains. The checks only reject provably
//     impossible observations, so they are immune to tick ties and
//     bookkeeping races by construction.
//
// Writer-owned key groups are rewritten only by whole-group batches, and a
// batch commits as one epoch, so every group a scan observes must be fully
// absent or fully uniform, and the scan's one pin tick must explain every
// group simultaneously.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickVer is one version of a key (or one whole-group rewrite): the value or
// tombstone plus the tick window [s, e] containing the commit's publish.
// e == 0 means the commit has not returned yet.
type tickVer struct {
	s, e uint64
	val  string
	del  bool
}

// tickOracle records per-key and per-group version histories under a mutex
// held only around bookkeeping — never around tree operations.
type tickOracle struct {
	tick atomic.Uint64
	mu   sync.Mutex
	hist map[string][]tickVer
	grp  [][]tickVer // per global group: its whole-group rewrites, in order
}

// modelOp is one staged mutation of a writer's commit.
type modelOp struct {
	key, val string
	del      bool
}

// commit links one in-flight version per key ops touches (the last op on a
// key wins, as in a batch) and, for g >= 0, one rewrite of group g, all
// BEFORE apply starts, so a reader that observes the committed state
// mid-flight finds it in the history. Once apply returns, every version's
// window closes at the same tick. Only a key's owning writer appends to its
// history, so each version is still the last when its window closes.
func (o *tickOracle) commit(ops []modelOp, g int, apply func() error) error {
	last := make(map[string]tickVer, len(ops))
	s := o.tick.Load()
	for _, op := range ops {
		last[op.key] = tickVer{s: s, val: op.val, del: op.del}
	}
	o.mu.Lock()
	for k, v := range last {
		o.hist[k] = append(o.hist[k], v)
	}
	if g >= 0 {
		o.grp[g] = append(o.grp[g], tickVer{s: s})
	}
	o.mu.Unlock()
	if err := apply(); err != nil {
		return err
	}
	e := o.tick.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	for k := range last {
		o.hist[k][len(o.hist[k])-1].e = e
	}
	if g >= 0 {
		o.grp[g][len(o.grp[g])-1].e = e
	}
	return nil
}

// versions snapshots a key's history.
func (o *tickOracle) versions(key string) []tickVer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]tickVer(nil), o.hist[key]...)
}

// rewrites snapshots group g's rewrite log.
func (o *tickOracle) rewrites(g int) []tickVer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]tickVer(nil), o.grp[g]...)
}

// observation is what one Get (or one scanned entry) reported.
type observation struct {
	present bool
	val     string
}

// feasibleAt reports whether version i of h could be the key's CURRENT
// version at some tick in [lo, hi]: its publish may fall at or before hi
// (impossible only when s > hi — the writer sampled s after the reader
// sampled hi) and its successor's publish may fall after lo (impossible only
// when the successor's commit returned before the reader sampled lo).
func feasibleAt(h []tickVer, i int, lo, hi uint64) bool {
	if h[i].s > hi {
		return false
	}
	if i+1 < len(h) {
		next := h[i+1]
		if next.e != 0 && next.e < lo {
			return false
		}
	}
	return true
}

// validObservation reports whether obs is explainable by SOME tick in
// [lo, hi] against the key's sequential history.
func validObservation(h []tickVer, obs observation, lo, hi uint64) bool {
	if obs.present {
		for i := range h {
			if !h[i].del && h[i].val == obs.val && feasibleAt(h, i, lo, hi) {
				return true
			}
		}
		return false
	}
	// Absent: before the first version ever published...
	if len(h) == 0 || h[0].e == 0 || h[0].e >= lo {
		return true
	}
	// ...or while a tombstone version was current.
	for i := range h {
		if h[i].del && feasibleAt(h, i, lo, hi) {
			return true
		}
	}
	return false
}

const tickInf = ^uint64(0)

// groupWindow returns the pin-tick interval inside which the group's
// observed state is explainable. seen maps each group key to its scanned
// value (absent keys missing). It fails on a half-applied or torn group.
func groupWindow(log []tickVer, keys []string, g int, seen map[string]string) (loC, hiC uint64, err error) {
	var vals []string
	for _, k := range keys {
		if v, ok := seen[k]; ok {
			vals = append(vals, v)
		}
	}
	switch {
	case len(vals) == 0:
		// Fully absent: the pin predates the first rewrite's publish.
		if len(log) > 0 && log[0].e != 0 {
			return 0, log[0].e, nil
		}
		return 0, tickInf, nil
	case len(vals) != len(keys):
		return 0, 0, fmt.Errorf("group %d half-applied: %d of %d keys present", g, len(vals), len(keys))
	}
	for _, v := range vals[1:] {
		if v != vals[0] {
			return 0, 0, fmt.Errorf("group %d torn: %q vs %q", g, vals[0], v)
		}
	}
	var gid, n int
	if _, e := fmt.Sscanf(vals[0], "g%d#%d", &gid, &n); e != nil || gid != g || n >= len(log) {
		return 0, 0, fmt.Errorf("group %d value %q malformed", g, vals[0])
	}
	loC = log[n].s
	hiC = tickInf
	if n+1 < len(log) && log[n+1].e != 0 {
		hiC = log[n+1].e
	}
	return loC, hiC, nil
}

// modelCommits sizes one leg: commits per writer by backend and durability,
// or EKBTREE_MODEL_OPS (commits across all writers) when it is set.
func modelCommits(t *testing.T, opts Options, writers int) int {
	t.Helper()
	if env := os.Getenv("EKBTREE_MODEL_OPS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < writers {
			t.Fatalf("bad EKBTREE_MODEL_OPS %q", env)
		}
		return n / writers
	}
	commits := 1000
	switch {
	case opts.Path != "" && opts.Durability == DurabilityFull:
		commits = 300
	case opts.Path != "":
		commits = 800
	}
	if testing.Short() {
		commits /= 8
	}
	return commits
}

// modelSeed reads EKBTREE_MODEL_SEED, which seeds the writer and reader RNGs;
// unset, the seed is the clock.
func modelSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("EKBTREE_MODEL_SEED")
	if env == "" {
		return time.Now().UnixNano()
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad EKBTREE_MODEL_SEED %q", env)
	}
	return n
}

// vacuumLoop is the background hook for the vacuum legs: it compacts the
// tree repeatedly while the harness runs, until the stop signal.
func vacuumLoop(tr *Tree, stop <-chan struct{}, fail func(string, ...interface{})) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
		if err := tr.Vacuum(); err != nil {
			fail("background vacuum: %v", err)
			return
		}
	}
}

// epochModelOpts gives opts the production page cipher under an explicit key
// and a seal budget (0: the default), for harness runs with rotation in play.
func epochModelOpts(t *testing.T, opts Options, budget int64) Options {
	t.Helper()
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xE3}, 32))
	if err != nil {
		t.Fatal(err)
	}
	opts.Cipher = nc
	opts.SealBudget = budget
	return opts
}

// envSealBudget reads EKBTREE_SEAL_BUDGET, the CI rotation-smoke seam: a tiny
// budget makes key epochs advance and the background rotator re-seal pages
// continuously beneath the whole harness. Unset means 0, the default budget.
func envSealBudget(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("EKBTREE_SEAL_BUDGET")
	if env == "" {
		return 0
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil || n == 0 {
		t.Fatalf("bad EKBTREE_SEAL_BUDGET %q", env)
	}
	return n
}

// TestModelConcurrentWriters runs every leg with four writers, so commits
// queue for the write turn and share store commits. Its in-memory vacuum leg
// is vacuum/mem: a leg named plain "vacuum" would also run under make race's
// repeat pattern for vacuum/file/grouped, as a partial match.
func TestModelConcurrentWriters(t *testing.T) {
	runModelLegs(t, 4, "vacuum/mem")
}

// TestModelConcurrency runs every leg with one writer: each commit meets an
// idle write turn and publishes alone, the schedule of a writer that never
// contends, under the same readers, scanners and checks.
func TestModelConcurrency(t *testing.T) {
	runModelLegs(t, 1, "vacuum")
}

// runModelLegs runs the harness with the given number of writers over the
// default in-memory page file, over Path trees in each durability mode, with
// rotation, and with vacuum (the in-memory vacuum leg named memVacuum).
func runModelLegs(t *testing.T, writers int, memVacuum string) {
	onFile := func(t *testing.T, d Durability) Options {
		return Options{Path: filepath.Join(t.TempDir(), "model.ekb"), Durability: d}
	}
	t.Run("default", func(t *testing.T) {
		runModelLeg(t, writers, Options{})
	})
	for _, d := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		t.Run("file/"+d.String(), func(t *testing.T) {
			runModelLeg(t, writers, onFile(t, d))
		})
	}
	// Rotation legs: a seal budget tiny against the run's commit volume, so
	// key epochs advance repeatedly mid-run and the background rotator
	// re-seals pages beneath every check.
	t.Run("rotate", func(t *testing.T) {
		runModelLeg(t, writers, epochModelOpts(t, Options{}, 192))
	})
	t.Run("rotate/file/grouped", func(t *testing.T) {
		runModelLeg(t, writers, epochModelOpts(t, onFile(t, DurabilityGrouped), 192))
	})
	// Vacuum legs: a background compactor relocates live extents and
	// truncates the page file, in memory or on disk, while the writers
	// commit concurrently and scans hold pins.
	t.Run(memVacuum, func(t *testing.T) {
		runModelLeg(t, writers, Options{}, vacuumLoop)
	})
	t.Run("vacuum/file/grouped", func(t *testing.T) {
		runModelLeg(t, writers, onFile(t, DurabilityGrouped), vacuumLoop)
	})
}

// runModelLeg drives one leg with the given number of writers. Any
// background hooks run alongside the readers from open until the writers
// quiesce.
func runModelLeg(t *testing.T, writers int, opts Options, background ...func(*Tree, <-chan struct{}, func(string, ...interface{}))) {
	commitsPerWriter := modelCommits(t, opts, writers)
	fileBacked := opts.Path != ""
	seed := modelSeed(t)
	t.Logf("model seed %d, %d writers x %d commits (rerun with EKBTREE_MODEL_SEED=%d)", seed, writers, commitsPerWriter, seed)

	// Explicit layers, so the test can substitute keys itself and map
	// scanned (substituted) keys back to plaintext. A leg that picked a seal
	// budget of its own keeps it; the others take EKBTREE_SEAL_BUDGET's.
	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xE5}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cipher == nil {
		opts = epochModelOpts(t, opts, envSealBudget(t))
	}
	opts.Substituter = sub
	opts.order = 8 // small pages: more splits, merges, and multi-page commits
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Each writer owns a disjoint pool of individually-written keys and a
	// disjoint set of whole-batch-rewritten groups.
	const poolPerWriter, groupsPerWriter, groupKeys = 20, 2, 5
	pools := make([][]string, writers)
	groups := make([][]string, writers*groupsPerWriter)
	subToPlain := make(map[string]string)
	for w := 0; w < writers; w++ {
		for i := 0; i < poolPerWriter; i++ {
			k := fmt.Sprintf("w%d-k%03d", w, i)
			pools[w] = append(pools[w], k)
			subToPlain[string(sub.Substitute([]byte(k)))] = k
		}
		for g := 0; g < groupsPerWriter; g++ {
			gid := w*groupsPerWriter + g
			for i := 0; i < groupKeys; i++ {
				k := fmt.Sprintf("w%dg%d-%02d", w, gid, i)
				groups[gid] = append(groups[gid], k)
				subToPlain[string(sub.Substitute([]byte(k)))] = k
			}
		}
	}

	o := &tickOracle{hist: make(map[string][]tickVer), grp: make([][]tickVer, len(groups))}
	var (
		wg        sync.WaitGroup
		readersWG sync.WaitGroup
		stop      = make(chan struct{})
		errs      = make(chan error, writers+8)
	)
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writers: genuinely parallel commits over owned keys. No lock spans a
	// tree operation. Every value is unique to its key's history.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			rewrites := make([]int, groupsPerWriter)
			for i := 0; i < commitsPerWriter; i++ {
				var ops []modelOp
				g, batch := -1, true
				switch op := rng.Intn(100); {
				case op < 40: // single put of an owned key
					k := pools[w][rng.Intn(poolPerWriter)]
					ops, batch = []modelOp{{key: k, val: fmt.Sprintf("%s#%d", k, i)}}, false
				case op < 55: // single delete of an owned key
					ops, batch = []modelOp{{key: pools[w][rng.Intn(poolPerWriter)], del: true}}, false
				case op < 80: // whole-group batch: the snapshot-isolation probe
					r := rng.Intn(groupsPerWriter)
					g = w*groupsPerWriter + r
					val := fmt.Sprintf("g%d#%d", g, rewrites[r])
					rewrites[r]++
					for _, k := range groups[g] {
						ops = append(ops, modelOp{key: k, val: val})
					}
				default: // mixed batch over owned keys: repeats allowed, the last op on a key wins
					for j, n := 0, 3+rng.Intn(8); j < n; j++ {
						k := pools[w][rng.Intn(poolPerWriter)]
						ops = append(ops, modelOp{key: k, val: fmt.Sprintf("%s#%d.%d", k, i, j), del: rng.Intn(4) == 0})
					}
				}
				if err := o.commit(ops, g, func() error { return applyModelOps(tr, ops, batch) }); err != nil {
					fail("writer %d commit %d: %v", w, i, err)
					return
				}
				if fileBacked && rng.Intn(64) == 0 {
					if err := tr.Sync(); err != nil {
						fail("writer %d sync: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: every Get must be explainable at some tick in its window.
	var allKeys []string
	for _, p := range pools {
		allKeys = append(allKeys, p...)
	}
	for _, g := range groups {
		allKeys = append(allKeys, g...)
	}
	for r := 0; r < 3; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed + 1000 + int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := allKeys[rng.Intn(len(allKeys))]
				lo := o.tick.Load()
				v, ok, err := tr.Get([]byte(k))
				hi := o.tick.Load()
				if err != nil {
					fail("reader %d get %s: %v", r, k, err)
					return
				}
				if !validObservation(o.versions(k), observation{present: ok, val: string(v)}, lo, hi) {
					fail("reader %d: Get(%s) = (%q, %v) impossible in tick window [%d, %d]", r, k, v, ok, lo, hi)
					return
				}
			}
		}(r)
	}

	// Scanners: snapshot scans in strictly ascending substituted-key order,
	// with per-group atomicity and one pin tick that explains every group.
	scan := func() error {
		lo := o.tick.Load()
		c := tr.Cursor()
		hi := o.tick.Load() // pin happened in [lo, hi]
		defer c.Close()
		seen := make(map[string]string)
		var prev []byte
		for ok := c.First(); ok; ok = c.Next() {
			sk := c.Key()
			if prev != nil && bytes.Compare(sk, prev) <= 0 {
				return fmt.Errorf("substituted key %x follows %x: not strictly ascending, or a duplicate", sk, prev)
			}
			prev = append(prev[:0], sk...)
			plain, known := subToPlain[string(sk)]
			if !known {
				return fmt.Errorf("unknown substituted key %x", sk)
			}
			seen[plain] = string(c.Value())
		}
		if err := c.Err(); err != nil {
			return err
		}
		pinLo, pinHi := lo, hi
		for g, ks := range groups {
			gLo, gHi, err := groupWindow(o.rewrites(g), ks, g, seen)
			if err != nil {
				return err
			}
			pinLo, pinHi = max(pinLo, gLo), min(pinHi, gHi)
		}
		if pinLo > pinHi {
			return fmt.Errorf("no single pin tick explains every group (window [%d, %d] empties to [%d, %d])", lo, hi, pinLo, pinHi)
		}
		for _, p := range pools {
			for _, k := range p {
				v, present := seen[k]
				if !validObservation(o.versions(k), observation{present: present, val: v}, lo, hi) {
					return fmt.Errorf("pool key %s = (%q, %v) impossible in [%d, %d]", k, v, present, lo, hi)
				}
			}
		}
		return nil
	}
	for s := 0; s < 2; s++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := scan(); err != nil {
					fail("scan: %v", err)
					return
				}
			}
		}()
	}

	// Stats sampler: the commit counter must be monotonic while commits race.
	readersWG.Add(1)
	go func() {
		defer readersWG.Done()
		var last Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, err := tr.Stats()
			if err != nil {
				fail("stats: %v", err)
				return
			}
			if s.Commits < last.Commits {
				fail("Stats.Commits went backwards: %d after %d", s.Commits, last.Commits)
				return
			}
			last = s
		}
	}()

	for _, bg := range background {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			bg(tr, stop, fail)
		}()
	}

	wg.Wait()
	close(stop)
	readersWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiescent end state: disjoint ownership makes the final value of every
	// key deterministic — the last version in its sequential history.
	final := make(map[string]string)
	for k, h := range o.hist {
		if last := h[len(h)-1]; !last.del {
			final[k] = last.val
		}
	}
	got := make(map[string]string)
	if err := walk(tr.Cursor(), func(sk, v []byte) bool {
		got[subToPlain[string(sk)]] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(final) {
		t.Fatalf("final scan has %d keys, oracle %d", len(got), len(final))
	}
	for k, v := range final {
		if got[k] != v {
			t.Fatalf("final state diverges at %s: tree %q, oracle %q", k, got[k], v)
		}
	}

	// A live key is a committed put, so some store commit happened — shared
	// with the writes queued alongside it, so there may be fewer commits than
	// writes, but not none.
	s, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Keys != len(final) {
		t.Fatalf("Stats.Keys = %d, oracle %d", s.Keys, len(final))
	}
	if len(final) > 0 && s.Commits == 0 {
		t.Fatalf("Stats.Commits = 0 with %d live keys", len(final))
	}
	t.Logf("commits=%d epoch=%d seals=%d", s.Commits, s.CipherEpoch, s.Seals)

	// Rotation converges once writers quiesce: the background rotator drains
	// every old-epoch page, and Stats reports the backlog at zero.
	if s.CipherEpoch > 0 || s.Seals > 0 {
		deadline := time.Now().Add(30 * time.Second)
		for s.PagesPendingReseal != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("rotation never converged: %d pages still pending re-seal at epoch %d", s.PagesPendingReseal, s.CipherEpoch)
			}
			time.Sleep(20 * time.Millisecond)
			if s, err = tr.Stats(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// applyModelOps commits ops as one Batch, or, for a lone op that is not a
// batch, through Put or Delete.
func applyModelOps(tr *Tree, ops []modelOp, batch bool) error {
	switch op := ops[0]; {
	case !batch && op.del:
		_, err := tr.Delete([]byte(op.key))
		return err
	case !batch:
		return tr.Put([]byte(op.key), []byte(op.val))
	}
	b := tr.NewBatch()
	for _, op := range ops {
		var err error
		if op.del {
			err = b.Delete([]byte(op.key))
		} else {
			err = b.Put([]byte(op.key), []byte(op.val))
		}
		if err != nil {
			return err
		}
	}
	return b.Commit()
}
