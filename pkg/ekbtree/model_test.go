package ekbtree

// Model-based randomized concurrency harness: concurrent Put / Delete /
// Batch / Get / cursor-scan traffic runs against a mutex-guarded oracle that
// records every committed version, and every observation the tree returns is
// checked against the window of states in which it could legally have been
// made. The harness runs over the default in-memory page file and over Path
// trees in all three durability modes, and is exercised under -race in CI.
//
// The central snapshot-isolation check: designated KEY GROUPS are only ever
// written by batches that rewrite the WHOLE group to one value. The
// atomicity unit is the per-shard SLICE of a group (for an unsharded tree,
// the whole group): a cursor scan must observe each slice either fully
// absent or fully uniform — a mixed slice is a half-applied commit — and,
// per shard, there must exist a single commit sequence number S, within the
// window the scan ran in, that explains every slice on that shard
// simultaneously (each shard's snapshot is one pinned epoch; the cursor
// chains one snapshot per shard, so there is no single cross-shard S). The
// harness runs with whatever shard count the tree resolves — 1 by default,
// 3 under the explicit sharded subtests and the EKBTREE_SHARDS matrix — so
// the same oracle proves routing, the cross-shard cursor, and per-shard
// commit semantics.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/keysub"
)

// modelVer is one committed version of a key: the commit sequence that wrote
// it and the value (or tombstone) it left.
type modelVer struct {
	seq uint64
	val string
	del bool
}

// modelOracle serializes writers and records ground truth. Holding mu across
// the tree mutation AND the bookkeeping makes each commit atomic in the
// oracle's timeline; readers never take mu around tree operations — they
// only sample seq before and after, so their checks are windows, not locks.
type modelOracle struct {
	mu     sync.Mutex
	seq    uint64
	hist   map[string][]modelVer
	groups [][]uint64 // per group: seqs of its (whole-group) rewrites
}

func newModelOracle(nGroups int) *modelOracle {
	return &modelOracle{hist: make(map[string][]modelVer), groups: make([][]uint64, nGroups)}
}

func (o *modelOracle) now() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seq
}

// commit runs apply (the tree mutation) under the oracle lock and, on
// success, records the muts it returns as one atomic version bump. Both
// callbacks receive the sequence number this commit will carry, so written
// values can embed it. group >= 0 marks a whole-group rewrite.
func (o *modelOracle) commit(apply func(seq uint64) error, muts func(seq uint64) map[string]modelVer, group int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	seq := o.seq + 1
	if err := apply(seq); err != nil {
		return err
	}
	o.seq = seq
	for k, v := range muts(seq) {
		v.seq = seq
		o.hist[k] = append(o.hist[k], v)
	}
	if group >= 0 {
		o.groups[group] = append(o.groups[group], seq)
	}
	return nil
}

// observation is what one Get (or one scanned entry) reported.
type observation struct {
	present bool
	val     string
}

// validObservation reports whether obs matches the key's state at SOME
// commit sequence S in [lo, hi]: the latest version at lo, or any version
// committed inside the window.
func (o *modelOracle) validObservation(key string, obs observation, lo, hi uint64) bool {
	o.mu.Lock()
	h := append([]modelVer(nil), o.hist[key]...)
	o.mu.Unlock()
	match := func(v *modelVer) bool {
		if v == nil || v.del {
			return !obs.present
		}
		return obs.present && obs.val == v.val
	}
	// State as of lo: latest version with seq <= lo.
	var atLo *modelVer
	for i := range h {
		if h[i].seq <= lo {
			atLo = &h[i]
		}
	}
	if match(atLo) {
		return true
	}
	for i := range h {
		if h[i].seq > lo && h[i].seq <= hi && match(&h[i]) {
			return true
		}
	}
	return false
}

// modelCfg sizes one harness run.
type modelCfg struct {
	writers, readers, scanners int
	commitsPerWriter           int
}

func modelConfig(t *testing.T, fileBacked bool) modelCfg {
	cfg := modelCfg{writers: 3, readers: 3, scanners: 2, commitsPerWriter: 2500}
	if fileBacked {
		cfg.commitsPerWriter = 700
	}
	if testing.Short() {
		cfg.commitsPerWriter /= 8
	}
	if env := os.Getenv("EKBTREE_MODEL_OPS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad EKBTREE_MODEL_OPS %q", env)
		}
		cfg.commitsPerWriter = n / cfg.writers
	}
	return cfg
}

// TestModelConcurrency runs the harness over the default backend and over
// file-backed trees in each durability mode, then over explicitly sharded
// trees (Shards=3) so the routed write paths and the cross-shard cursor face
// the oracle even when the environment doesn't set EKBTREE_SHARDS.
func TestModelConcurrency(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		runModel(t, Options{}, false)
	})
	for _, d := range []Durability{DurabilityFull, DurabilityGrouped, DurabilityAsync} {
		d := d
		t.Run("file/"+d.String(), func(t *testing.T) {
			opts := Options{
				Path:       filepath.Join(t.TempDir(), "model.ekb"),
				Durability: d,
			}
			runModel(t, opts, true)
		})
	}
	t.Run("shards=3", func(t *testing.T) {
		runModel(t, Options{Shards: 3}, false)
	})
	t.Run("file/grouped/shards=3", func(t *testing.T) {
		opts := Options{
			Path:       filepath.Join(t.TempDir(), "model.ekb"),
			Durability: DurabilityGrouped,
			Shards:     3,
		}
		runModel(t, opts, true)
	})
	// Rotation legs: the epoch cipher with a budget tiny against the run's
	// commit volume, so key epochs advance repeatedly mid-run and the
	// background rotator re-seals pages while the oracle watches every read.
	t.Run("rotate", func(t *testing.T) {
		runModel(t, epochModelOpts(t, Options{}, 192), false)
	})
	t.Run("rotate/shards=3", func(t *testing.T) {
		runModel(t, epochModelOpts(t, Options{Shards: 3}, 192), false)
	})
	t.Run("rotate/file/grouped", func(t *testing.T) {
		opts := Options{
			Path:       filepath.Join(t.TempDir(), "model.ekb"),
			Durability: DurabilityGrouped,
		}
		runModel(t, epochModelOpts(t, opts, 192), true)
	})
	// Vacuum legs: a background compactor races the whole harness, so live
	// relocation commits interleave with writers, readers, and pinned scans.
	// Every leg relocates extents and truncates the page file, whether it is
	// held in memory or on disk. Both shard counts run, so per-shard vacuums
	// overlap per-shard commits.
	t.Run("vacuum", func(t *testing.T) {
		runModel(t, Options{}, false, vacuumLoop)
	})
	t.Run("vacuum/shards=3", func(t *testing.T) {
		runModel(t, Options{Shards: 3}, false, vacuumLoop)
	})
	t.Run("vacuum/file/grouped", func(t *testing.T) {
		opts := Options{
			Path:       filepath.Join(t.TempDir(), "model.ekb"),
			Durability: DurabilityGrouped,
		}
		runModel(t, opts, true, vacuumLoop)
	})
	t.Run("vacuum/file/grouped/shards=3", func(t *testing.T) {
		opts := Options{
			Path:       filepath.Join(t.TempDir(), "model.ekb"),
			Durability: DurabilityGrouped,
			Shards:     3,
		}
		runModel(t, opts, true, vacuumLoop)
	})
}

// vacuumLoop is the background hook for the vacuum model legs: it compacts
// the tree repeatedly while the harness runs, until the stop signal.
func vacuumLoop(tr *Tree, stop <-chan struct{}, fail func(string, ...interface{})) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
		if err := tr.Vacuum(0); err != nil {
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
// continuously beneath the full concurrent oracle. Unset means 0, the default
// budget.
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

// runModel drives one harness run. Any background hooks run alongside the
// readers for the whole window between open and writer quiescence — the
// vacuum legs use this to race compaction against the oracle.
func runModel(t *testing.T, opts Options, fileBacked bool, background ...func(*Tree, <-chan struct{}, func(string, ...interface{}))) {
	cfg := modelConfig(t, fileBacked)
	seed := time.Now().UnixNano()
	if env := os.Getenv("EKBTREE_MODEL_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EKBTREE_MODEL_SEED %q", env)
		}
		seed = n
	}
	t.Logf("model seed %d (rerun with EKBTREE_MODEL_SEED=%d)", seed, seed)

	// Explicit layers so the test can substitute keys itself and map scanned
	// (substituted) keys back to plaintext. Legs that did not pick a seal
	// budget of their own (see epochModelOpts) take EKBTREE_SEAL_BUDGET's.
	sub, err := NewHMACSubstituter(bytes.Repeat([]byte{0xE1}, 32), 24)
	if err != nil {
		t.Fatal(err)
	}
	opts.Substituter = sub
	if opts.Cipher == nil {
		opts = epochModelOpts(t, opts, envSealBudget(t))
	}
	opts.Order = 8 // small pages: more splits, merges, and multi-page commits
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Key universe: a pool of individually-written keys plus group keys that
	// only whole-group batches touch.
	const nGroups, groupKeys, poolKeys = 5, 6, 40
	var pool []string
	for i := 0; i < poolKeys; i++ {
		pool = append(pool, fmt.Sprintf("pool%03d", i))
	}
	groups := make([][]string, nGroups)
	for g := range groups {
		for i := 0; i < groupKeys; i++ {
			groups[g] = append(groups[g], fmt.Sprintf("grp%d-%02d", g, i))
		}
	}
	subToPlain := make(map[string]string)
	groupOf := make(map[string]int)
	for _, k := range pool {
		subToPlain[string(sub.Substitute([]byte(k)))] = k
		groupOf[k] = -1
	}
	for g, ks := range groups {
		for _, k := range ks {
			subToPlain[string(sub.Substitute([]byte(k)))] = k
			groupOf[k] = g
		}
	}

	// Partition each group into per-shard slices with the same router the
	// façade uses: a shard's slice of a group commits as one epoch on that
	// shard, so the slice — not the whole group — is the atomicity unit the
	// scanners assert on. Unsharded trees have exactly one slice per group.
	st0, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	router, err := keysub.NewShardRouter(st0.Shards)
	if err != nil {
		t.Fatal(err)
	}
	var slices []groupSlice
	for g, ks := range groups {
		byShard := make(map[int][]string)
		for _, k := range ks {
			sh := router.Route(sub.Substitute([]byte(k)))
			byShard[sh] = append(byShard[sh], k)
		}
		for sh, sks := range byShard {
			slices = append(slices, groupSlice{group: g, shard: sh, keys: sks})
		}
	}

	o := newModelOracle(nGroups)
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		errs = make(chan error, cfg.writers+cfg.readers+cfg.scanners)
	)
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writers: single puts and deletes over the pool, whole-group batches,
	// and mixed atomic batches over the pool.
	for w := 0; w < cfg.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < cfg.commitsPerWriter; i++ {
				switch op := rng.Intn(100); {
				case op < 40: // single put
					k := pool[rng.Intn(len(pool))]
					// Values carry the key and the commit seq, so every
					// committed version is unique and self-describing.
					err := o.commit(func(seq uint64) error {
						return tr.Put([]byte(k), []byte(fmt.Sprintf("%s#%d", k, seq)))
					}, func(seq uint64) map[string]modelVer {
						return map[string]modelVer{k: {val: fmt.Sprintf("%s#%d", k, seq)}}
					}, -1)
					if err != nil {
						fail("writer %d put: %v", w, err)
						return
					}
				case op < 60: // single delete
					k := pool[rng.Intn(len(pool))]
					err := o.commit(func(uint64) error {
						_, err := tr.Delete([]byte(k))
						return err
					}, func(uint64) map[string]modelVer {
						return map[string]modelVer{k: {del: true}}
					}, -1)
					if err != nil {
						fail("writer %d delete: %v", w, err)
						return
					}
				case op < 85: // whole-group batch: the snapshot-isolation probe
					g := rng.Intn(nGroups)
					err := o.commit(func(seq uint64) error {
						b := tr.NewBatch()
						val := fmt.Sprintf("g%d#%d", g, seq)
						for _, k := range groups[g] {
							if err := b.Put([]byte(k), []byte(val)); err != nil {
								return err
							}
						}
						return b.Commit()
					}, func(seq uint64) map[string]modelVer {
						m := make(map[string]modelVer)
						val := fmt.Sprintf("g%d#%d", g, seq)
						for _, k := range groups[g] {
							m[k] = modelVer{val: val}
						}
						return m
					}, g)
					if err != nil {
						fail("writer %d group batch: %v", w, err)
						return
					}
				default: // mixed batch over the pool, applied atomically
					n := 3 + rng.Intn(8)
					type stagedOp struct {
						k   string
						del bool
					}
					var ops []stagedOp
					for j := 0; j < n; j++ {
						ops = append(ops, stagedOp{k: pool[rng.Intn(len(pool))], del: rng.Intn(4) == 0})
					}
					err := o.commit(func(seq uint64) error {
						b := tr.NewBatch()
						for _, op := range ops {
							if op.del {
								if err := b.Delete([]byte(op.k)); err != nil {
									return err
								}
							} else if err := b.Put([]byte(op.k), []byte(fmt.Sprintf("%s#%d", op.k, seq))); err != nil {
								return err
							}
						}
						return b.Commit()
					}, func(seq uint64) map[string]modelVer {
						m := make(map[string]modelVer) // last op per key wins, as in the batch
						for _, op := range ops {
							if op.del {
								m[op.k] = modelVer{del: true}
							} else {
								m[op.k] = modelVer{val: fmt.Sprintf("%s#%d", op.k, seq)}
							}
						}
						return m
					}, -1)
					if err != nil {
						fail("writer %d mixed batch: %v", w, err)
						return
					}
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

	// Readers: every Get must match some state in the window it ran in.
	allKeys := append(append([]string(nil), pool...), func() []string {
		var ks []string
		for _, g := range groups {
			ks = append(ks, g...)
		}
		return ks
	}()...)
	var readersWG sync.WaitGroup
	for r := 0; r < cfg.readers; r++ {
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
				lo := o.now()
				v, ok, err := tr.Get([]byte(k))
				hi := o.now()
				if err != nil {
					fail("reader %d get %s: %v", r, k, err)
					return
				}
				if !o.validObservation(k, observation{present: ok, val: string(v)}, lo, hi) {
					fail("reader %d: Get(%s) = (%q, %v) matches no state in seq window [%d, %d]", r, k, v, ok, lo, hi)
					return
				}
			}
		}(r)
	}

	// Scanners: full snapshot scans with the slice-atomicity and per-shard
	// single-explaining-S feasibility checks.
	for s := 0; s < cfg.scanners; s++ {
		readersWG.Add(1)
		go func(s int) {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !modelScanCheck(t, tr, o, subToPlain, groupOf, slices, fail) {
					return
				}
			}
		}(s)
	}

	for _, bg := range background {
		bg := bg
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			bg(tr, stop, fail)
		}()
	}

	wg.Wait() // writers done
	close(stop)
	readersWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiescent end state: a final scan must match the oracle exactly.
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
	if err := tr.Scan(func(sk, v []byte) bool {
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
	if s, err := tr.Stats(); err != nil || s.Keys != len(final) {
		t.Fatalf("final Stats = (%+v, %v), want %d keys", s, err, len(final))
	}

	// With an epoch cipher, rotation must converge once writers quiesce: the
	// background rotator drains every old-epoch page, and Stats reports the
	// backlog at zero.
	if s, err := tr.Stats(); err == nil && (s.CipherEpoch > 0 || s.Seals > 0) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			s, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if s.PagesPendingReseal == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rotation never converged: %d pages still pending re-seal at epoch %d", s.PagesPendingReseal, s.CipherEpoch)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// groupSlice is one shard's slice of a key group: the set of the group's
// keys that route to one shard, and therefore commit as one epoch there.
type groupSlice struct {
	group, shard int
	keys         []string
}

// modelScanCheck runs one full cursor scan and validates it as a snapshot
// (one pinned epoch per shard). It returns false if the harness should stop
// (a failure was recorded).
func modelScanCheck(t *testing.T, tr *Tree, o *modelOracle, subToPlain map[string]string, groupOf map[string]int, slices []groupSlice, fail func(string, ...interface{})) bool {
	lo := o.now()
	c := tr.Cursor()
	hi := o.now() // the snapshot's epoch was pinned somewhere in [lo, hi]
	defer c.Close()
	seen := make(map[string]string)
	var prev []byte
	for ok := c.First(); ok; ok = c.Next() {
		sk := c.Key()
		if prev != nil && bytes.Compare(sk, prev) <= 0 {
			fail("scan: keys not strictly ascending")
			return false
		}
		prev = append(prev[:0], sk...)
		plain, known := subToPlain[string(sk)]
		if !known {
			fail("scan: unknown substituted key %x", sk)
			return false
		}
		if _, dup := seen[plain]; dup {
			fail("scan: duplicate key %s", plain)
			return false
		}
		seen[plain] = string(c.Value())
	}
	if err := c.Err(); err != nil {
		fail("scan: %v", err)
		return false
	}

	// Slice atomicity + per-shard feasibility: each shard's snapshot is one
	// pinned epoch, so for every SHARD there must be one S in [lo, hi] that
	// explains all of that shard's slices simultaneously. There is no single
	// cross-shard S — that is the documented per-shard batch contract — but
	// within a shard the old whole-group reasoning carries over unchanged,
	// because every group rewrite rewrites each of its slices completely.
	o.mu.Lock()
	groupLogs := make([][]uint64, len(o.groups))
	for g := range o.groups {
		groupLogs[g] = append([]uint64(nil), o.groups[g]...)
	}
	o.mu.Unlock()
	type window struct{ lo, hi uint64 }
	shardWin := make(map[int]*window)
	winOf := func(shard int) *window {
		w, ok := shardWin[shard]
		if !ok {
			w = &window{lo: lo, hi: hi}
			shardWin[shard] = w
		}
		return w
	}
	for _, sl := range slices {
		w := winOf(sl.shard)
		var vals []string
		present := 0
		for _, k := range sl.keys {
			if v, ok := seen[k]; ok {
				present++
				vals = append(vals, v)
			}
		}
		switch {
		case present == 0:
			// All absent: the shard's snapshot predates the group's first
			// rewrite.
			if len(groupLogs[sl.group]) > 0 {
				first := groupLogs[sl.group][0]
				if first <= w.hi {
					w.hi = min(w.hi, first-1)
				}
			}
		case present != len(sl.keys):
			fail("scan: group %d slice on shard %d half-applied: %d of %d keys present", sl.group, sl.shard, present, len(sl.keys))
			return false
		default:
			for _, v := range vals[1:] {
				if v != vals[0] {
					fail("scan: group %d slice on shard %d torn: %q vs %q", sl.group, sl.shard, vals[0], v)
					return false
				}
			}
			var gNum int
			var s uint64
			if _, err := fmt.Sscanf(vals[0], "g%d#%d", &gNum, &s); err != nil || gNum != sl.group {
				fail("scan: group %d value %q malformed", sl.group, vals[0])
				return false
			}
			w.lo = max(w.lo, s)
			// The observation stays valid until the group's next rewrite.
			idx := sort.Search(len(groupLogs[sl.group]), func(i int) bool { return groupLogs[sl.group][i] > s })
			if idx < len(groupLogs[sl.group]) {
				w.hi = min(w.hi, groupLogs[sl.group][idx]-1)
			}
		}
	}
	for shard, w := range shardWin {
		if w.lo > w.hi {
			fail("scan: no single commit point explains shard %d's slices (window [%d, %d] empties to [%d, %d])", shard, lo, hi, w.lo, w.hi)
			return false
		}
	}

	// Pool keys: each observation individually valid in the scan window.
	for k, g := range groupOf {
		if g >= 0 {
			continue
		}
		v, present := seen[k]
		if !o.validObservation(k, observation{present: present, val: v}, lo, hi) {
			fail("scan: pool key %s = (%q, %v) matches no state in [%d, %d]", k, v, present, lo, hi)
			return false
		}
	}
	return true
}
