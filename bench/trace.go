package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store"
)

// The traced run wraps the three layers a caller can hand the façade — the
// substituter, the page cipher and the page store — in decorators that count
// every call and its busy time, and record spans for a sample of ops. The
// façade and engine reach a layer's optional capabilities by type assertion
// (RangeSubstituter, EpochSealer, Spacer, Vacuumer); each decorator forwards
// the ones its inner layer has, because a wrapper that dropped one would
// silently measure a different code path.

const (
	maxSpans        = 100_000 // spans one run keeps in memory
	maxSampledPages = 4096    // plaintext pages kept for the node replay
)

// span is one timed call at a layer boundary. Start and End are ns since the
// tracer was made; Op ties the spans of one operation together and Parent is
// the index of the span that caused this one (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
}

// callStat counts one kind of call: how many, their summed busy time, and
// the payload bytes they moved. Seals run on parallel workers, so the fields
// are atomic.
type callStat struct {
	calls, ns, bytes atomic.Int64
}

func (c *callStat) add(d time.Duration, bytes int) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
	c.bytes.Add(int64(bytes))
}

// callSnap is a callStat read at one instant; phases are deltas of two.
type callSnap struct{ calls, ns, bytes int64 }

func (c *callStat) snap() callSnap {
	return callSnap{c.calls.Load(), c.ns.Load(), c.bytes.Load()}
}

func (a callSnap) sub(b callSnap) callSnap {
	return callSnap{a.calls - b.calls, a.ns - b.ns, a.bytes - b.bytes}
}

func (a callSnap) add(b callSnap) callSnap {
	return callSnap{a.calls + b.calls, a.ns + b.ns, a.bytes + b.bytes}
}

// counters is every call count the decorators keep.
type counters struct {
	sub, subRange            callSnap
	open, seal               callSnap
	read, commit, sync       callSnap
	commitPages, sealUnionNs int64
}

func (a counters) minus(b counters) counters {
	return counters{
		sub: a.sub.sub(b.sub), subRange: a.subRange.sub(b.subRange),
		open: a.open.sub(b.open), seal: a.seal.sub(b.seal),
		read: a.read.sub(b.read), commit: a.commit.sub(b.commit), sync: a.sync.sub(b.sync),
		commitPages: a.commitPages - b.commitPages,
		sealUnionNs: a.sealUnionNs - b.sealUnionNs,
	}
}

func (a counters) plus(b counters) counters {
	return counters{
		sub: a.sub.add(b.sub), subRange: a.subRange.add(b.subRange),
		open: a.open.add(b.open), seal: a.seal.add(b.seal),
		read: a.read.add(b.read), commit: a.commit.add(b.commit), sync: a.sync.add(b.sync),
		commitPages: a.commitPages + b.commitPages,
		sealUnionNs: a.sealUnionNs + b.sealUnionNs,
	}
}

type interval struct{ start, end int64 }

// tracer is shared by the three decorators of one tree.
type tracer struct {
	base time.Time

	sub, subRange      callStat
	open, seal         callStat
	read, commit, sync callStat
	commitPages        atomic.Int64

	// The op loop publishes the op in flight; decorators read it, possibly
	// from the engine's seal workers. nextOp is the op loop's own count.
	nextOp  int64
	op      atomic.Int64
	sampled atomic.Bool
	root    atomic.Int64 // index of the op's root span

	mu          sync.Mutex
	spans       []span
	sealSpans   []interval // every seal of the op in flight, for the union
	sealUnionNs int64
	pages       [][]byte // reservoir of plaintext pages seen by the cipher
	pagesSeen   int
	pick        *rand.Rand
}

func newTracer(seed uint64) *tracer {
	return &tracer{base: time.Now(), pick: rand.New(rand.NewSource(int64(seed)))}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) snapshot() counters {
	t.mu.Lock()
	union := t.sealUnionNs
	t.mu.Unlock()
	return counters{
		sub: t.sub.snap(), subRange: t.subRange.snap(),
		open: t.open.snap(), seal: t.seal.snap(),
		read: t.read.snap(), commit: t.commit.snap(), sync: t.sync.snap(),
		commitPages: t.commitPages.Load(),
		sealUnionNs: union,
	}
}

// beginOp starts the next op; when sample is set its calls are recorded as
// spans.
func (t *tracer) beginOp(sample bool) {
	id := t.nextOp
	t.nextOp++
	t.op.Store(id)
	if sample {
		t.mu.Lock()
		sample = len(t.spans) < maxSpans
		if sample {
			t.root.Store(int64(len(t.spans)))
			t.spans = append(t.spans, span{Name: "facade.op", Start: t.now(), Op: id, Parent: -1})
		}
		t.mu.Unlock()
	}
	t.sampled.Store(sample)
}

// endOp closes the op in flight and folds its seal spans into the running
// wall-clock union: seals of one commit overlap on the engine's workers, and
// the op waited for the union of them, not the sum.
func (t *tracer) endOp() {
	end := t.now()
	t.mu.Lock()
	if t.sampled.Load() {
		t.spans[t.root.Load()].End = end
	}
	t.sealUnionNs += unionNs(t.sealSpans)
	t.sealSpans = t.sealSpans[:0]
	t.mu.Unlock()
	t.sampled.Store(false)
}

// unionNs is the total time covered by at least one of the intervals. It
// sorts ivs in place.
func unionNs(ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total, end int64
	for _, iv := range ivs {
		if iv.start > end {
			total += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// record notes one finished call as a span of the op in flight, if sampled.
func (t *tracer) record(name string, start, end int64) {
	if !t.sampled.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Op: t.op.Load(), Parent: int(t.root.Load())})
	}
	t.mu.Unlock()
}

// samplePage keeps a uniform reservoir of the plaintext pages that crossed
// the cipher, so the node replay decodes and encodes the workload's own pages.
func (t *tracer) samplePage(id uint64, plaintext []byte) {
	if id == 0 {
		return // the façade's header blob, not a node
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pagesSeen++
	if len(t.pages) < maxSampledPages {
		t.pages = append(t.pages, append([]byte(nil), plaintext...))
	} else if j := t.pick.Intn(t.pagesSeen); j < maxSampledPages {
		t.pages[j] = append(t.pages[j][:0], plaintext...)
	}
}

// writeSpans writes the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedSub decorates a Substituter.
type tracedSub struct {
	inner keysub.Substituter
	t     *tracer
}

func (s tracedSub) Substitute(key []byte) []byte {
	start := s.t.now()
	out := s.inner.Substitute(key)
	end := s.t.now()
	s.t.sub.add(time.Duration(end-start), len(key))
	s.t.record("keysub.Substitute", start, end)
	return out
}

func (s tracedSub) Width() int   { return s.inner.Width() }
func (s tracedSub) Name() string { return s.inner.Name() }

// tracedRangeSub decorates a RangeSubstituter, keeping the capability the
// façade's range cursors assert for.
type tracedRangeSub struct {
	tracedSub
	inner keysub.RangeSubstituter
}

func (s tracedRangeSub) SubstituteRange(from, to []byte) (lo, hi []byte) {
	start := s.t.now()
	lo, hi = s.inner.SubstituteRange(from, to)
	end := s.t.now()
	s.t.subRange.add(time.Duration(end-start), len(from)+len(to))
	s.t.record("keysub.SubstituteRange", start, end)
	return lo, hi
}

// traceSubstituter wraps inner, as a RangeSubstituter when inner is one.
func traceSubstituter(inner keysub.Substituter, t *tracer) keysub.Substituter {
	ts := tracedSub{inner: inner, t: t}
	if rs, ok := inner.(keysub.RangeSubstituter); ok {
		return tracedRangeSub{tracedSub: ts, inner: rs}
	}
	return ts
}

// tracedCipher decorates an epoch cipher. Its inner type is EpochSealer, not
// NodeCipher, so the wrapper cannot be built over a cipher without key epochs
// and then claim them to the engine.
type tracedCipher struct {
	inner cipher.EpochSealer
	t     *tracer
}

func (c tracedCipher) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	return c.inner.Seal(pageID, plaintext) // header path only: page 0, at open
}

func (c tracedCipher) SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	start := c.t.now()
	out, err := c.inner.SealEpoch(pageID, epoch, counter, plaintext)
	end := c.t.now()
	c.t.seal.add(time.Duration(end-start), len(plaintext))
	c.t.mu.Lock()
	c.t.sealSpans = append(c.t.sealSpans, interval{start, end})
	c.t.mu.Unlock()
	c.t.record("cipher.SealEpoch", start, end)
	c.t.samplePage(pageID, plaintext)
	return out, err
}

func (c tracedCipher) Open(pageID uint64, sealed []byte) ([]byte, error) {
	start := c.t.now()
	out, err := c.inner.Open(pageID, sealed)
	end := c.t.now()
	if pageID != 0 {
		c.t.open.add(time.Duration(end-start), len(out))
		c.t.record("cipher.Open", start, end)
		c.t.samplePage(pageID, out)
	}
	return out, err
}

func (c tracedCipher) SealedEpoch(sealed []byte) (uint32, bool) { return c.inner.SealedEpoch(sealed) }
func (c tracedCipher) Overhead() int                            { return c.inner.Overhead() }
func (c tracedCipher) Name() string                             { return c.inner.Name() }

// fullStore is a page store with both optional capabilities the engine
// asserts for; the file store is one.
type fullStore interface {
	store.PageStore
	store.Spacer
	store.Vacuumer
}

// tracedStore decorates a page store. Embedding forwards every method,
// Space and Vacuum included; the ones on an op's path are overridden to be
// counted.
type tracedStore struct {
	fullStore
	t *tracer
}

func (s tracedStore) ReadPage(id uint64) ([]byte, error) {
	start := s.t.now()
	out, err := s.fullStore.ReadPage(id)
	end := s.t.now()
	s.t.read.add(time.Duration(end-start), len(out))
	s.t.record("store.ReadPage", start, end)
	return out, err
}

func (s tracedStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	n := 0
	for _, p := range writes {
		n += len(p)
	}
	start := s.t.now()
	err := s.fullStore.CommitPages(writes, root, frees)
	end := s.t.now()
	s.t.commit.add(time.Duration(end-start), n)
	s.t.commitPages.Add(int64(len(writes)))
	s.t.record("store.CommitPages", start, end)
	return err
}

func (s tracedStore) Sync() error {
	start := s.t.now()
	err := s.fullStore.Sync()
	end := s.t.now()
	s.t.sync.add(time.Duration(end-start), 0)
	s.t.record("store.Sync", start, end)
	return err
}
