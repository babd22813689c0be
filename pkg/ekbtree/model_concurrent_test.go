package ekbtree

// True-concurrency model harness. TestModelConcurrency's oracle holds its
// mutex ACROSS every tree mutation, so its writers — however many goroutines
// run them — commit one at a time and never exercise the multi-writer path.
// This harness removes that serialization: N writer goroutines commit
// concurrently, queuing for the write turn, so their mutations are
// combined into shared commits and re-run alone when one of them fails.
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
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cwVer is one version of a key (or one whole-group rewrite): the value or
// tombstone plus the tick window [s, e] containing the commit's publish.
// e == 0 means the commit has not returned yet.
type cwVer struct {
	s, e uint64
	val  string
	del  bool
}

// cwOracle records per-key and per-group version histories under a mutex
// held only around bookkeeping — never around tree operations.
type cwOracle struct {
	tick atomic.Uint64
	mu   sync.Mutex
	hist map[string][]cwVer
	grp  [][]cwVer // per global group: its whole-group rewrites, in order
}

func newCWOracle(nGroups int) *cwOracle {
	return &cwOracle{hist: make(map[string][]cwVer), grp: make([][]cwVer, nGroups)}
}

// begin links an in-flight version (e == 0) BEFORE its commit starts, so a
// reader that observes the committed value mid-flight finds it in the
// history. Only the key's owning writer appends, so idx stays stable.
func (o *cwOracle) begin(key string, v cwVer) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hist[key] = append(o.hist[key], v)
	return len(o.hist[key]) - 1
}

func (o *cwOracle) end(key string, idx int, e uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hist[key][idx].e = e
}

func (o *cwOracle) beginGroup(g int, v cwVer) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.grp[g] = append(o.grp[g], v)
	return len(o.grp[g]) - 1
}

func (o *cwOracle) endGroup(g, idx int, e uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.grp[g][idx].e = e
}

// versions snapshots a key's history.
func (o *cwOracle) versions(key string) []cwVer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]cwVer(nil), o.hist[key]...)
}

// feasibleAt reports whether version i of h could be the key's CURRENT
// version at some tick in [lo, hi]: its publish may fall at or before hi
// (impossible only when s > hi — the writer sampled s after the reader
// sampled hi) and its successor's publish may fall after lo (impossible only
// when the successor's commit returned before the reader sampled lo).
func feasibleAt(h []cwVer, i int, lo, hi uint64) bool {
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

// validCW reports whether obs is explainable by SOME tick in [lo, hi]
// against the key's sequential history.
func validCW(h []cwVer, obs observation, lo, hi uint64) bool {
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

const cwInf = ^uint64(0)

// groupWindow returns the pin-tick interval inside which the group's
// observed state is explainable. seen maps each group key to its scanned
// value (absent keys missing). It fails (second return) on a half-applied
// or torn group.
func groupWindow(log []cwVer, keys []string, g int, seen map[string]string) (loC, hiC uint64, err error) {
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
		return 0, cwInf, nil
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
	hiC = cwInf
	if n+1 < len(log) && log[n+1].e != 0 {
		hiC = log[n+1].e
	}
	return loC, hiC, nil
}

// cwConfig sizes one concurrent-writer run per backend/durability.
func cwConfig(opts Options) int {
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

// TestModelConcurrentWriters runs the true-concurrency harness over the
// default in-memory page file and over Path trees in each durability mode.
// Exercised under -race in CI.
func TestModelConcurrentWriters(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		runConcurrentWriters(t, Options{})
	})
	for _, d := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		d := d
		t.Run("file/"+d.String(), func(t *testing.T) {
			runConcurrentWriters(t, Options{
				Path:       filepath.Join(t.TempDir(), "model.ekb"),
				Durability: d,
			})
		})
	}
	// Vacuum legs: a background compactor relocates live extents while the
	// writers commit concurrently — the hardest traffic
	// the vacuum's retry/skip machinery faces in-process.
	t.Run("vacuum/file/grouped", func(t *testing.T) {
		runConcurrentWriters(t, Options{
			Path:       filepath.Join(t.TempDir(), "model.ekb"),
			Durability: DurabilityGrouped,
		}, vacuumLoop)
	})
}

func runConcurrentWriters(t *testing.T, opts Options, background ...func(*Tree, <-chan struct{}, func(string, ...interface{}))) {
	commitsPerWriter := cwConfig(opts)
	fileBacked := opts.Path != ""
	seed := time.Now().UnixNano()
	t.Logf("concurrent-writer seed %d", seed)

	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xE5}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	opts = epochModelOpts(t, opts, envSealBudget(t))
	opts.Substituter = sub
	opts.order = 8
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Each writer owns a disjoint pool of individually-written keys and a
	// disjoint set of whole-batch-rewritten groups.
	const nWriters, poolPerWriter, groupsPerWriter, groupKeys = 4, 20, 2, 5
	pools := make([][]string, nWriters)
	groups := make([][]string, nWriters*groupsPerWriter)
	subToPlain := make(map[string]string)
	for w := 0; w < nWriters; w++ {
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

	o := newCWOracle(len(groups))
	var (
		wg        sync.WaitGroup
		readersWG sync.WaitGroup
		stop      = make(chan struct{})
		errs      = make(chan error, nWriters+8)
		putCount  atomic.Uint64 // commits that provably wrote dirty pages
	)
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writers: genuinely parallel commits over owned keys. No lock spans a
	// tree operation.
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			rewrites := make([]int, groupsPerWriter)
			for i := 0; i < commitsPerWriter; i++ {
				switch op := rng.Intn(100); {
				case op < 55: // single put of an owned key, unique value
					k := pools[w][rng.Intn(poolPerWriter)]
					val := fmt.Sprintf("%s#%d", k, i)
					idx := o.begin(k, cwVer{s: o.tick.Load(), val: val})
					if err := tr.Put([]byte(k), []byte(val)); err != nil {
						fail("writer %d put: %v", w, err)
						return
					}
					o.end(k, idx, o.tick.Add(1))
					putCount.Add(1)
				case op < 70: // single delete of an owned key
					k := pools[w][rng.Intn(poolPerWriter)]
					idx := o.begin(k, cwVer{s: o.tick.Load(), del: true})
					if _, err := tr.Delete([]byte(k)); err != nil {
						fail("writer %d delete: %v", w, err)
						return
					}
					o.end(k, idx, o.tick.Add(1))
				default: // whole-group batch rewrite of an owned group
					g := rng.Intn(groupsPerWriter)
					gid := w*groupsPerWriter + g
					val := fmt.Sprintf("g%d#%d", gid, rewrites[g])
					rewrites[g]++
					s := o.tick.Load()
					idxs := make([]int, groupKeys)
					for j, k := range groups[gid] {
						idxs[j] = o.begin(k, cwVer{s: s, val: val})
					}
					gIdx := o.beginGroup(gid, cwVer{s: s, val: val})
					b := tr.NewBatch()
					for _, k := range groups[gid] {
						if err := b.Put([]byte(k), []byte(val)); err != nil {
							fail("writer %d batch stage: %v", w, err)
							return
						}
					}
					if err := b.Commit(); err != nil {
						fail("writer %d batch commit: %v", w, err)
						return
					}
					e := o.tick.Add(1)
					for j, k := range groups[gid] {
						o.end(k, idxs[j], e)
					}
					o.endGroup(gid, gIdx, e)
					putCount.Add(1)
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
				if !validCW(o.versions(k), observation{present: ok, val: string(v)}, lo, hi) {
					fail("reader %d: Get(%s) = (%q, %v) impossible in tick window [%d, %d]", r, k, v, ok, lo, hi)
					return
				}
			}
		}(r)
	}

	// Scanners: snapshot scans with per-group atomicity and a single pin
	// tick that must explain every group at once.
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
				lo := o.tick.Load()
				c := tr.Cursor()
				hi := o.tick.Load() // pin happened in [lo, hi]
				seen := make(map[string]string)
				for ok := c.First(); ok; ok = c.Next() {
					plain, known := subToPlain[string(c.Key())]
					if !known {
						fail("scan: unknown substituted key %x", c.Key())
						c.Close()
						return
					}
					seen[plain] = string(c.Value())
				}
				if err := c.Err(); err != nil {
					fail("scan: %v", err)
					c.Close()
					return
				}
				c.Close()
				// The snapshot was pinned at one tick inside [lo, hi]; that
				// one tick must explain every group.
				pinLo, pinHi := lo, hi
				for g, ks := range groups {
					o.mu.Lock()
					log := append([]cwVer(nil), o.grp[g]...)
					o.mu.Unlock()
					gLo, gHi, err := groupWindow(log, ks, g, seen)
					if err != nil {
						fail("scan: %v", err)
						return
					}
					pinLo, pinHi = max(pinLo, gLo), min(pinHi, gHi)
				}
				if pinLo > pinHi {
					fail("scan: no single pin tick explains every group (window [%d, %d] empties to [%d, %d])", lo, hi, pinLo, pinHi)
					return
				}
				for _, p := range pools {
					for _, k := range p {
						v, present := seen[k]
						if !validCW(o.versions(k), observation{present: present, val: v}, lo, hi) {
							fail("scan: pool key %s = (%q, %v) impossible in [%d, %d]", k, v, present, lo, hi)
							return
						}
					}
				}
			}
		}()
	}

	// Stats sampler: the façade's commit counters must be monotonic while
	// commits race, and Pages must respect its cap elsewhere.
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
			if s.Commits < last.Commits || s.Conflicts < last.Conflicts || s.Retries < last.Retries {
				fail("stats counters went backwards: %+v after %+v", s, last)
				return
			}
			last = s
		}
	}()

	for _, bg := range background {
		bg := bg
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
	o.mu.Lock()
	for k, h := range o.hist {
		last := h[len(h)-1]
		if !last.del {
			final[k] = last.val
		}
	}
	o.mu.Unlock()
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

	// Every unique-value put and every group rewrite wrote dirty pages, so
	// each reached a real store commit — shared with the writes queued
	// alongside it, so there may be fewer commits than writes, but not none.
	s, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if putCount.Load() > 0 && s.Commits == 0 {
		t.Fatalf("Stats.Commits = 0 after %d committed writes", putCount.Load())
	}
	if s.Retries < s.Conflicts {
		t.Fatalf("Stats.Retries = %d < Conflicts = %d; every conflict must count a retry", s.Retries, s.Conflicts)
	}
	t.Logf("commits=%d conflicts=%d retries=%d", s.Commits, s.Conflicts, s.Retries)
}
