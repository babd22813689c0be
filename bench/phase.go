package main

import (
	"math"
	"sync"
	"time"
)

// phaseResult is one run of equal-count segments over a set of clients.
type phaseResult struct {
	timing timing
	failed int
}

// phaseOpts are the ways a phase can differ from the plain timed one.
type phaseOpts struct {
	// oneByOne runs the clients one after another on the calling goroutine
	// instead of side by side.
	oneByOne bool
	// tr, when set, is told of every op and records one op in sampleEvery as
	// spans. It follows one op in flight, so it implies oneByOne.
	tr          *tracer
	sampleEvery int
	// before and after, when set, run around every segment, outside its clock.
	before, after func()
}

// runPhase executes segs segments of perSeg ops per client and times every
// op. Each client's ops are prepared before its segment's clock starts. With
// several clients the segments are barrier-aligned: all clients start a
// segment together and the segment lasts until the last one finishes.
func runPhase(rs []opRunner, segs, perSeg int, o phaseOpts) phaseResult {
	lat := make([]uint32, segs*perSeg*len(rs))
	res := phaseResult{timing: make(timing, 0, segs)}
	for s := 0; s < segs; s++ {
		segLat := lat[s*perSeg*len(rs) : (s+1)*perSeg*len(rs)]
		for _, r := range rs {
			r.prepare(perSeg)
		}
		if o.before != nil {
			o.before()
		}
		var wall time.Duration
		switch {
		case o.tr != nil:
			start := time.Now()
			for c, r := range rs {
				res.failed += tracedLoop(r, segLat[c*perSeg:(c+1)*perSeg], o.tr, o.sampleEvery)
			}
			wall = time.Since(start)
		case len(rs) == 1 || o.oneByOne:
			start := time.Now()
			for c, r := range rs {
				res.failed += clientLoop(r, segLat[c*perSeg:(c+1)*perSeg], start)
			}
			wall = time.Since(start)
		default:
			var wg sync.WaitGroup
			failed := make([]int, len(rs))
			release := make(chan struct{})
			var start time.Time
			for c, r := range rs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-release
					failed[c] = clientLoop(r, segLat[c*perSeg:(c+1)*perSeg], start)
				}()
			}
			start = time.Now()
			close(release)
			wg.Wait()
			wall = time.Since(start)
			for _, f := range failed {
				res.failed += f
			}
		}
		res.timing = append(res.timing, segment{wall: wall, lat: segLat})
		if o.after != nil {
			o.after()
		}
	}
	return res
}

// clientLoop is the timed loop of one client: a monotonic clock read on each
// side of every op. The two reads cost the same on both sides of any
// comparison.
func clientLoop(r opRunner, lat []uint32, base time.Time) (failed int) {
	for i := range lat {
		a := time.Since(base)
		ok := r.do(i)
		b := time.Since(base)
		lat[i] = uint32(min(b-a, math.MaxUint32))
		if !ok {
			failed++
		}
	}
	return failed
}

func tracedLoop(r opRunner, lat []uint32, tr *tracer, sampleEvery int) (failed int) {
	base := tr.base
	for i := range lat {
		tr.beginOp(tr.nextOp%int64(sampleEvery) == 0)
		a := time.Since(base)
		ok := r.do(i)
		b := time.Since(base)
		tr.endOp()
		lat[i] = uint32(min(b-a, math.MaxUint32))
		if !ok {
			failed++
		}
	}
	return failed
}
