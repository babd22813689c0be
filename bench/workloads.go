package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// spec is one workload as BENCHMARK.json names it. Work is a fixed number of
// ops, never a duration: opsPerSecond is the frozen rate the builder's box
// sustained, and a run of -seconds S does opsPerSecond*S ops however long
// they take, so two runs of one commit do identical work.
type spec struct {
	name         string
	keys         int     // live keys, preloaded during set-up
	cachePages   int     // Options.CachePages (0 for the served tree: server default)
	bucketed     bool    // bucketed substituter and bucket-laid keys
	served       bool    // ops go over the wire to an ekbtreed child
	clients      int     // closed-loop clients, one goroutine each
	opsPerSecond float64 // frozen op count per second of -seconds
	segMultiple  int     // ops per segment are a multiple of this, per client
	unit         string  // what one op is
}

// The op rates below were measured on the builder's 2-core box (see
// README.md, "Frozen op counts") so that -seconds 12 gives a timed phase of
// about 12 s. They are part of the benchmark's definition: changing one
// changes the work a run does.
var specs = []spec{
	{name: "get-hot", keys: 200_000, cachePages: 16384, clients: 1, opsPerSecond: 330_000, segMultiple: 1,
		unit: "one Tree.Get, 5% of them for absent keys"},
	{name: "get-cold", keys: 200_000, cachePages: 256, clients: 1, opsPerSecond: 80_000, segMultiple: 1,
		unit: "one Tree.Get, 5% of them for absent keys"},
	{name: "scan-range", keys: 200_000, cachePages: 16384, bucketed: true, clients: 1, opsPerSecond: 150_000, segMultiple: 1,
		unit: "one CursorRange over one bucket, iterated to exhaustion (~100 entries)"},
	{name: "ingest", keys: 200_000, cachePages: 1024, clients: 1, opsPerSecond: 320, segMultiple: ingestSyncEvery,
		unit: "one Batch.Commit of 64 mutations (24 inserts, 24 deletes, 16 overwrites), staging included; Tree.Sync after every 16th"},
	{name: "served-mix", keys: 100_000, served: true, clients: 2, opsPerSecond: 12_000, segMultiple: 1,
		unit: "one wire round trip: 80% Get, 20% Put, zipfian(1.1) keys"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks the workload for -smoke: the same code path end to end at
// about 1/200 of the data.
func (s spec) smoke() spec {
	s.keys = max(s.keys/200, 512)
	return s
}

func (s spec) keygen(seed uint64) keygen {
	g := keygen{seed: seed}
	if s.bucketed {
		g.buckets = max(s.keys/100, 1)
	}
	return g
}

// kv is what the point-op runners need of a tree; *ekbtree.Tree and
// *wire.Client both have it, so one op stream drives either.
type kv interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
}

// opRunner is one closed-loop client. The driver calls prepare outside the
// timed window, then do(0..n-1) inside it, timing each call.
type opRunner interface {
	// prepare draws the next n ops from the client's stream.
	prepare(n int)
	// do executes prepared op i and reports whether its outcome is the one
	// the seed predicts.
	do(i int) bool
}

// getRunner issues uniform Gets of present keys, 5% of them absent.
type getRunner struct {
	t    kv
	g    keygen
	n    uint64
	rng  *rand.Rand
	idx  []uint64
	keys []byte // the prepared keys, keyLen bytes each
}

func (r *getRunner) prepare(n int) {
	r.idx = r.idx[:0]
	r.keys = r.keys[:0]
	var k [keyLen]byte
	for i := 0; i < n; i++ {
		j := uint64(r.rng.Int63n(int64(r.n)))
		if r.rng.Intn(20) == 0 {
			j |= absentBit
		}
		r.idx = append(r.idx, j)
		r.keys = append(r.keys, r.g.key(k[:], j)...)
	}
}

func (r *getRunner) do(i int) bool {
	j := r.idx[i]
	v, ok, err := r.t.Get(r.keys[i*keyLen : (i+1)*keyLen])
	if err != nil {
		return false
	}
	if j&absentBit != 0 {
		return !ok
	}
	return ok && checkValue(v, r.g.seed, j, 0)
}

// scanRunner opens a range cursor over one uniformly chosen bucket and reads
// it to exhaustion.
type scanRunner struct {
	t       *ekbtree.Tree
	g       keygen
	n       uint64
	rng     *rand.Rand
	buckets []int
}

func (r *scanRunner) prepare(n int) {
	r.buckets = r.buckets[:0]
	for i := 0; i < n; i++ {
		r.buckets = append(r.buckets, r.rng.Intn(r.g.buckets))
	}
}

func (r *scanRunner) do(i int) bool {
	b := uint64(r.buckets[i])
	var kb [keyLen]byte
	k := r.g.key(kb[:], b) // index b lies in bucket b
	// CursorRange(k, k) maps to [bucket(k), bucket(k)+1): exactly k's bucket.
	c := r.t.CursorRange(k, k)
	defer c.Close()
	good, count := true, uint64(0)
	// Key and Value are views that live as long as the cursor, so the
	// previous key is kept by reference: the check must cost less than the
	// iteration it checks.
	var prev, last []byte
	for ok := c.First(); ok; ok = c.Next() {
		sk, v := c.Key(), c.Value()
		// Strictly ascending, and inside the bucket: the substituted key
		// opens with the plaintext key's two prefix bytes.
		if bytes.Compare(prev, sk) >= 0 || sk[0] != k[0] || sk[1] != k[1] || len(v) != valueLen {
			good = false
		}
		prev, last = sk, v
		count++
	}
	if c.Err() != nil || count != r.g.bucketSize(r.n, b) {
		return false
	}
	// One value per scan is checked in full.
	if last != nil {
		idx := binary.BigEndian.Uint64(last)
		good = good && idx%uint64(r.g.buckets) == b && checkValue(last, r.g.seed, idx, 0)
	}
	return good
}

const (
	ingestInserts    = 24
	ingestDeletes    = 24
	ingestOverwrites = 16
	ingestSyncEvery  = 16
)

// ingestRunner commits 64-mutation batches that keep the tree at a constant
// size: the live keys are the index window [lo, hi), each op inserts at hi,
// deletes at lo and overwrites inside. Every segment therefore does the same
// work, and free-extent reuse levels off.
type ingestRunner struct {
	t       *ekbtree.Tree
	g       keygen
	rng     *rand.Rand
	lo, hi  uint64
	ver     []uint32 // version of every index ever inserted
	commits int
	picks   [][ingestOverwrites]uint64 // offsets into the window, per prepared op
}

func (r *ingestRunner) prepare(n int) {
	r.picks = r.picks[:0]
	// The window's size is constant, so offsets can be drawn ahead of time.
	// The oldest ingestDeletes keys are excluded: they die in the same batch.
	span := int64(r.hi - r.lo - ingestDeletes)
	for i := 0; i < n; i++ {
		var p [ingestOverwrites]uint64
		for j := range p {
			p[j] = ingestDeletes + uint64(r.rng.Int63n(span))
		}
		r.picks = append(r.picks, p)
	}
}

func (r *ingestRunner) do(i int) bool {
	var kb [keyLen]byte
	var vb [valueLen]byte
	b := r.t.NewBatch()
	good := true
	for j := uint64(0); j < ingestInserts; j++ {
		idx := r.hi + j
		r.ver = append(r.ver, 0)
		good = b.Put(r.g.key(kb[:], idx), fillValue(vb[:], r.g.seed, idx, 0)) == nil && good
	}
	for j := uint64(0); j < ingestDeletes; j++ {
		good = b.Delete(r.g.key(kb[:], r.lo+j)) == nil && good
	}
	for _, off := range r.picks[i] {
		idx := r.lo + off
		r.ver[idx]++
		good = b.Put(r.g.key(kb[:], idx), fillValue(vb[:], r.g.seed, idx, r.ver[idx])) == nil && good
	}
	good = b.Commit() == nil && good
	r.hi += ingestInserts
	r.lo += ingestDeletes
	r.commits++
	if r.commits%ingestSyncEvery == 0 {
		good = r.t.Sync() == nil && good
	}
	return good
}

// mixRunner is one served-mix client: a zipfian stream of 80% Get and 20%
// same-size Put. A client Puts only keys whose index is congruent to its own
// number, so the clients' write sets are disjoint and each knows the exact
// version of every key it owns.
type mixRunner struct {
	t       kv
	g       keygen
	n       uint64
	client  uint64
	clients uint64
	rng     *rand.Rand
	zipf    *rand.Zipf
	ver     []uint32 // versions of the keys this client owns, by index
	ops     []mixOp
}

type mixOp struct {
	idx uint64
	put bool
}

// zipfSpread scatters zipf ranks over the index space so that hot keys are
// not neighbours; it is prime, so multiplication mod n is a bijection for
// every n it does not divide.
const zipfSpread = 1_000_003

func newMixRunner(t kv, g keygen, n uint64, client, clients int) *mixRunner {
	rng := clientRand(g.seed, client)
	return &mixRunner{
		t: t, g: g, n: n, client: uint64(client), clients: uint64(clients),
		rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, n-1), ver: make([]uint32, n),
	}
}

func (r *mixRunner) prepare(n int) {
	r.ops = r.ops[:0]
	for i := 0; i < n; i++ {
		op := mixOp{idx: r.zipf.Uint64() * zipfSpread % r.n, put: r.rng.Intn(5) == 0}
		if op.put {
			op.idx = r.own(op.idx)
		}
		r.ops = append(r.ops, op)
	}
}

// own moves idx to the nearest index this client owns.
func (r *mixRunner) own(idx uint64) uint64 {
	idx = idx - idx%r.clients + r.client
	if idx >= r.n {
		idx -= r.clients
	}
	return idx
}

func (r *mixRunner) do(i int) bool {
	op := r.ops[i]
	var kb [keyLen]byte
	k := r.g.key(kb[:], op.idx)
	if op.put {
		var vb [valueLen]byte
		r.ver[op.idx]++
		return r.t.Put(k, fillValue(vb[:], r.g.seed, op.idx, r.ver[op.idx])) == nil
	}
	v, ok, err := r.t.Get(k)
	if err != nil || !ok {
		return false
	}
	version := int64(-1) // another client's key: any version it may have written
	if op.idx%r.clients == r.client {
		version = int64(r.ver[op.idx])
	}
	return checkValue(v, r.g.seed, op.idx, version)
}

// loadBatch is the bulk-load batch size: large, so set-up is CPU work in the
// tree and the cipher rather than per-commit bookkeeping.
const loadBatch = 20_000

// bulkLoad inserts indices [0, n) at version 0 and Syncs once.
func bulkLoad(t *ekbtree.Tree, g keygen, n int) error {
	var kb [keyLen]byte
	var vb [valueLen]byte
	for i := 0; i < n; i += loadBatch {
		b := t.NewBatch()
		for j := i; j < min(i+loadBatch, n); j++ {
			if err := b.Put(g.key(kb[:], uint64(j)), fillValue(vb[:], g.seed, uint64(j), 0)); err != nil {
				return fmt.Errorf("stage key %d: %w", j, err)
			}
		}
		if err := b.Commit(); err != nil {
			return fmt.Errorf("commit load batch at %d: %w", i, err)
		}
	}
	return t.Sync()
}
