package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"github.com/paper-repro/ekbtree/internal/btree"
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// Replays time one layer alone, outside the tree, on inputs taken from the
// workload: the decorators cannot see inside the engine, where the B-tree
// and the node codec run, so those layers are measured by feeding them the
// workload's own substituted keys and the pages its traffic produced.

// memNodes is the bench-local NodeStore of decoded nodes the B-tree replay
// runs over: no codec, no cipher, no store underneath.
type memNodes struct {
	nodes map[uint64]*node.Node
	next  uint64
	root  uint64
	reads int
}

func (m *memNodes) Read(id uint64) (*node.Node, error) {
	m.reads++
	n, ok := m.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	return n, nil
}
func (m *memNodes) Write(id uint64, n *node.Node) error { m.nodes[id] = n; return nil }
func (m *memNodes) Alloc() (uint64, error)              { m.next++; return m.next, nil }
func (m *memNodes) Free(id uint64) error                { delete(m.nodes, id); return nil }
func (m *memNodes) Root() (uint64, error)               { return m.root, nil }
func (m *memNodes) SetRoot(id uint64) error             { m.root = id; return nil }

// btreeReplay holds the B-tree layer's own costs.
type btreeReplay struct {
	putUs, lookupUs, nodesPerLookup, iterNextNs float64
	lookupAllocs, putAllocs                     float64
}

// replayLookups is how many keys the btree and engine replays look up.
const replayLookups = 100_000

// replayChunks is how many timed chunks a replay loop is cut into.
const replayChunks = 20

// quietLoop calls fn(0..n-1) in replayChunks timed chunks and returns the
// mean time of one call over the quietSegments fastest chunks, in ns: the
// replays' counterpart of the timed phase's quiet window, so that a replayed
// unit cost and the op it is set against are both taken on a quiet box.
func quietLoop(n int, fn func(i int) error) (float64, error) {
	per := max(n/replayChunks, 1)
	var chunks []float64
	for lo := 0; lo+per <= n; lo += per {
		start := time.Now()
		for i := lo; i < lo+per; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		chunks = append(chunks, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	return quietMean(chunks), nil
}

// quietMean is the mean of the quietSegments smallest of v; it sorts v.
func quietMean(v []float64) float64 {
	slices.Sort(v)
	v = v[:min(quietSegments, len(v))]
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// replayBtree builds a tree of the workload's substituted keys by Put, looks
// a sample of them up, and iterates it once.
func replayBtree(keys, values [][]byte) (btreeReplay, error) {
	var out btreeReplay
	n := len(keys)
	st := &memNodes{nodes: make(map[uint64]*node.Node)}
	bt, err := btree.New(st, ekbtree.DefaultOrder/2)
	if err != nil {
		return out, err
	}
	mallocs := mallocCount()
	start := time.Now()
	for i, k := range keys {
		if err := bt.Put(k, values[i]); err != nil {
			return out, err
		}
	}
	out.putUs = us(time.Since(start)) / float64(n)
	out.putAllocs = float64(mallocCount()-mallocs) / float64(n)

	lookups := min(n, replayLookups)
	stride := max(n/lookups, 1)
	st.reads = 0
	mallocs = mallocCount()
	// A stride through the insertion order visits leaves in the key order's
	// pseudorandom sequence, as a uniform Get stream does.
	ns, err := quietLoop(lookups, func(i int) error {
		if _, ok, err := btree.Lookup(st, st.root, keys[i*stride]); err != nil || !ok {
			return fmt.Errorf("replay lookup %d: found=%v err=%v", i, ok, err)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.lookupUs = ns / 1e3
	out.lookupAllocs = float64(mallocCount()-mallocs) / float64(lookups)
	out.nodesPerLookup = float64(st.reads) / float64(lookups)

	it := btree.NewIter(st, st.root, nil)
	it.Seek(nil)
	if out.iterNextNs, err = quietLoop(n, func(int) error {
		if _, _, ok := it.Next(); !ok {
			return fmt.Errorf("replay iteration ended early: %v", it.Err())
		}
		return nil
	}); err != nil {
		return out, err
	}
	return out, nil
}

// engineReplay holds the engine's read-path costs with nothing beneath it:
// epoch pin, cache lookups and value copy around the B-tree's descent.
type engineReplay struct {
	getUs, seekUs, iterNextNs float64
	getAllocs                 float64
}

// replayEngine runs the real engine over an in-memory store and the
// pass-through cipher, its cache large enough to hold every node, loaded
// with the workload's substituted keys: Get, Seek and Next then cost what
// the engine and the B-tree cost and nothing else.
func replayEngine(keys, values [][]byte) (engineReplay, error) {
	var out engineReplay
	n := len(keys)
	eng, err := engine.New(engine.Config{
		Store: store.NewMem(), Cipher: cipher.Plaintext{}, Order: ekbtree.DefaultOrder,
		CachePages: n, NodeFormat: node.FormatPrefix,
	})
	if err != nil {
		return out, err
	}
	defer eng.Close()
	for i := 0; i < n; i += loadBatch {
		err := eng.Apply(func(bt *btree.Tree) error {
			for j := i; j < min(i+loadBatch, n); j++ {
				if err := bt.Put(keys[j], values[j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return out, fmt.Errorf("engine replay load: %w", err)
		}
	}
	lookups := min(n, replayLookups)
	stride := max(n/lookups, 1)
	mallocs := mallocCount()
	ns, err := quietLoop(lookups, func(i int) error {
		if _, ok, err := eng.Get(keys[i*stride]); err != nil || !ok {
			return fmt.Errorf("engine replay get %d: found=%v err=%v", i, ok, err)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.getUs = ns / 1e3
	out.getAllocs = float64(mallocCount()-mallocs) / float64(lookups)

	snap, err := eng.Snapshot()
	if err != nil {
		return out, err
	}
	defer snap.Close()
	ns, err = quietLoop(lookups, func(i int) error {
		it := snap.Iter(nil)
		it.Seek(keys[i*stride])
		if _, _, ok := it.Next(); !ok {
			return fmt.Errorf("engine replay seek %d found nothing: %v", i, it.Err())
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.seekUs = ns / 1e3
	it := snap.Iter(nil)
	it.Seek(nil)
	if out.iterNextNs, err = quietLoop(n, func(int) error {
		if _, _, ok := it.Next(); !ok {
			return fmt.Errorf("engine replay iteration ended early: %v", it.Err())
		}
		return nil
	}); err != nil {
		return out, err
	}
	return out, nil
}

// nullSub is a substituter that does nothing, so that a decorator around it
// costs what the decorator costs.
type nullSub struct{ out []byte }

func (s nullSub) Substitute([]byte) []byte { return s.out }
func (nullSub) Width() int                 { return subWidth }
func (nullSub) Name() string               { return "null" }

// replayHarness prices the benchmark's own share of one traced op, in us:
// the clock read the op's latency includes, the check of the value it
// returned, and what a decorator adds to each of the decoratedCalls calls it
// wraps.
func replayHarness(g keygen, decoratedCalls float64) float64 {
	const n = 100_000
	base := time.Now()
	var sink time.Duration
	clock, _ := quietLoop(n, func(int) error { sink += time.Since(base); return nil })
	value := fillValue(make([]byte, valueLen), g.seed, 1, 0)
	ok := true
	check, _ := quietLoop(n, func(int) error { ok = checkValue(value, g.seed, 1, 0) && ok; return nil })
	wrapped := traceSubstituter(nullSub{out: make([]byte, subWidth)}, newTracer(0))
	key := g.key(make([]byte, keyLen), 1)
	decorator, _ := quietLoop(n, func(int) error { wrapped.Substitute(key); return nil })
	_, _ = sink, ok
	return (clock + check + decorator*decoratedCalls) / 1e3
}

// nodeReplay holds the node codec's own costs over the sampled pages.
type nodeReplay struct {
	pages                      int
	decodeUs, encodeUs         float64 // per page
	pageBytes, keysPerPage     float64 // means
	decodeAllocs, encodeAllocs float64 // per page
}

// nodeChunkPages is how many pages the node replay decodes per timed chunk.
// In the tree a page is decoded straight after it was deciphered, its bytes
// still in the processor's cache; the replay copies each chunk into a scratch
// buffer first so that its input is as warm, and a chunk is small enough
// (about 700 KB) to stay so.
const nodeChunkPages = 256

// replayNode decodes every sampled plaintext page and encodes it back in the
// format it came in. Unit costs are the mean over the quietSegments fastest
// chunks.
func replayNode(pages [][]byte) (nodeReplay, error) {
	out := nodeReplay{pages: len(pages)}
	if len(pages) == 0 {
		return out, fmt.Errorf("no pages were sampled for the node replay")
	}
	np := float64(len(pages))
	var decode, encode []float64 // ns per page, one entry per chunk
	var scratch []byte
	decAllocs, encAllocs := uint64(0), uint64(0)
	for lo := 0; lo < len(pages); lo += nodeChunkPages {
		chunk := pages[lo:min(lo+nodeChunkPages, len(pages))]
		scratch = scratch[:0]
		for _, p := range chunk {
			scratch = append(scratch, p...)
		}
		nodes := make([]*node.Node, len(chunk))
		mallocs := mallocCount()
		start, off := time.Now(), 0
		for i, p := range chunk {
			n, err := node.Decode(scratch[off : off+len(p)])
			if err != nil {
				return out, fmt.Errorf("replay decode: %w", err)
			}
			nodes[i] = n
			off += len(p)
		}
		decode = append(decode, float64(time.Since(start).Nanoseconds())/float64(len(chunk)))
		decAllocs += mallocCount() - mallocs
		mallocs = mallocCount()
		start = time.Now()
		for i, n := range nodes {
			if _, err := n.EncodeFormat(node.FormatOf(chunk[i])); err != nil {
				return out, fmt.Errorf("replay encode: %w", err)
			}
		}
		encode = append(encode, float64(time.Since(start).Nanoseconds())/float64(len(chunk)))
		encAllocs += mallocCount() - mallocs
		for i, p := range chunk {
			out.pageBytes += float64(len(p))
			out.keysPerPage += float64(len(nodes[i].Keys))
		}
	}
	out.decodeUs, out.encodeUs = quietMean(decode)/1e3, quietMean(encode)/1e3
	out.decodeAllocs, out.encodeAllocs = float64(decAllocs)/np, float64(encAllocs)/np
	out.pageBytes /= np
	out.keysPerPage /= np
	return out, nil
}

// exchange is one request and its response as the wire carries them.
type exchange struct {
	req  wire.Request
	body []byte             // the OK body the server sends back
	dec  func([]byte) error // what the client does with that body
}

// wireReplay holds the wire codec's own costs per op of the workload.
type wireReplay struct {
	encReqNs, decReqNs, encRespNs, decRespNs float64
	frameBytes, loopbackRTTUs                float64
}

// replayWire times the codec on the messages the ops would be, and the
// round trip of those frames against an echo goroutine over loopback TCP:
// the floor no server can beat.
func replayWire(ops [][]exchange) (wireReplay, error) {
	var out wireReplay
	n := float64(len(ops))
	var reqs, resps [][]byte
	start := time.Now()
	for _, op := range ops {
		for _, x := range op {
			reqs = append(reqs, wire.EncodeRequest(x.req))
		}
	}
	out.encReqNs = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for _, p := range reqs {
		if _, err := wire.DecodeRequest(p); err != nil {
			return out, fmt.Errorf("replay decode request: %w", err)
		}
	}
	out.decReqNs = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for _, op := range ops {
		for _, x := range op {
			resps = append(resps, wire.EncodeOK(x.body))
		}
	}
	out.encRespNs = float64(time.Since(start).Nanoseconds()) / n
	i := 0
	start = time.Now()
	for _, op := range ops {
		for _, x := range op {
			body, err := wire.DecodeResponse(resps[i])
			if err == nil {
				err = x.dec(body)
			}
			if err != nil {
				return out, fmt.Errorf("replay decode response: %w", err)
			}
			i++
		}
	}
	out.decRespNs = float64(time.Since(start).Nanoseconds()) / n
	for i := range reqs {
		out.frameBytes += float64(len(reqs[i]) + len(resps[i]) + 8) // two 4-byte length prefixes
	}
	out.frameBytes /= n
	rtt, err := loopbackRTT(reqs, resps)
	out.loopbackRTTUs = us(rtt) / n
	return out, err
}

// loopbackRTT sends every request frame to an echo goroutine that answers
// with the matching response frame, one at a time, and returns the total.
func loopbackRTT(reqs, resps [][]byte) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for _, resp := range resps {
			if _, err = wire.ReadFrame(br); err == nil {
				if err = wire.WriteFrame(bw, resp); err == nil {
					err = bw.Flush()
				}
			}
			if err != nil {
				break
			}
		}
		echoErr <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	start := time.Now()
	for _, req := range reqs {
		if err = wire.WriteFrame(bw, req); err == nil {
			if err = bw.Flush(); err == nil {
				_, err = wire.ReadFrame(br)
			}
		}
		if err != nil {
			conn.Close() // unblocks the echo side
			<-echoErr
			return 0, fmt.Errorf("loopback ping-pong: %w", err)
		}
	}
	total := time.Since(start)
	return total, <-echoErr
}

// wireSampleOps is how many ops of the workload's stream the wire replay
// turns into messages.
const wireSampleOps = 2000

// wireOps renders the first ops of the workload's stream as the exchanges a
// wire client would make for them.
func wireOps(sp spec, g keygen) [][]exchange {
	rng := clientRand(g.seed, 0)
	key := func(i uint64) []byte { return g.key(make([]byte, keyLen), i) }
	val := func(i uint64) []byte { return fillValue(make([]byte, valueLen), g.seed, i, 0) }
	noBody := func(b []byte) error {
		if len(b) != 0 {
			return wire.ErrMalformed
		}
		return nil
	}
	get := func(i uint64) exchange {
		return exchange{req: &wire.Get{Key: key(i)}, body: wire.EncodeGetBody(val(i), true),
			dec: func(b []byte) error { _, _, err := wire.DecodeGetBody(b); return err }}
	}
	n := uint64(sp.keys)
	ops := make([][]exchange, wireSampleOps)
	for o := range ops {
		switch {
		case sp.bucketed:
			b := uint64(rng.Intn(g.buckets))
			entries := make([]wire.Entry, g.bucketSize(n, b))
			for i := range entries {
				entries[i] = wire.Entry{SubKey: make([]byte, 2+subWidth), Value: val(b)}
			}
			ops[o] = []exchange{
				{req: &wire.CursorOpen{HasLo: true, Lo: key(b), HasHi: true, Hi: key(b)}, body: wire.EncodeCursorIDBody(uint64(o)),
					dec: func(b []byte) error { _, err := wire.DecodeCursorIDBody(b); return err }},
				{req: &wire.CursorNext{Cursor: uint64(o), Max: 256}, body: wire.EncodeEntriesBody(entries, true),
					dec: func(b []byte) error { _, _, err := wire.DecodeEntriesBody(b); return err }},
			}
		case sp.name == "ingest":
			batch := make([]wire.BatchOp, 0, ingestInserts+ingestDeletes+ingestOverwrites)
			for i := 0; i < ingestInserts+ingestOverwrites; i++ {
				idx := uint64(rng.Int63n(int64(n)))
				batch = append(batch, wire.BatchOp{Key: key(idx), Value: val(idx)})
			}
			for i := 0; i < ingestDeletes; i++ {
				batch = append(batch, wire.BatchOp{Del: true, Key: key(uint64(rng.Int63n(int64(n))))})
			}
			ops[o] = []exchange{{req: &wire.BatchCommit{Ops: batch}, dec: noBody}}
		case sp.served && rng.Intn(5) == 0:
			idx := uint64(rng.Int63n(int64(n)))
			ops[o] = []exchange{{req: &wire.Put{Key: key(idx), Value: val(idx)}, dec: noBody}}
		default:
			ops[o] = []exchange{get(uint64(rng.Int63n(int64(n))))}
		}
	}
	return ops
}

// unitAllocs measures the allocations one call of fn makes, as a mean over
// n calls; the budget attributes allocations to layers with it.
func unitAllocs(n int, fn func(i int)) float64 {
	before := mallocCount()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(mallocCount()-before) / float64(n)
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
