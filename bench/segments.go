package main

import (
	"slices"
	"sort"
	"time"
)

// quietSegments is how many of a run's fastest segments make up its
// quiet-window estimate. Noise on a shared box only ever adds time, so the
// fastest segments are the ones least disturbed; three of them rather than
// one keeps a single lucky segment from setting the figure.
const quietSegments = 3

// segment is one equal-count slice of the timed phase.
type segment struct {
	wall time.Duration
	lat  []uint32 // one latency per op, ns; the clients' ops pooled
}

func (s segment) opsPerS() float64 {
	return float64(len(s.lat)) / s.wall.Seconds()
}

// timing is the timed phase of one run: equal-count segments in run order.
type timing []segment

func (t timing) ops() int {
	n := 0
	for _, s := range t {
		n += len(s.lat)
	}
	return n
}

func (t timing) wall() time.Duration {
	var d time.Duration
	for _, s := range t {
		d += s.wall
	}
	return d
}

// rates is every segment's throughput, in run order: how quiet the box was.
func (t timing) rates() []float64 {
	out := make([]float64, len(t))
	for i, s := range t {
		out[i] = s.opsPerS()
	}
	return out
}

// fastest returns the indices of the k segments with the highest throughput,
// fastest first (all of them when the run has fewer than k).
func (t timing) fastest(k int) []int {
	idx := make([]int, len(t))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t[idx[a]].opsPerS() > t[idx[b]].opsPerS() })
	return idx[:min(k, len(idx))]
}

// quiet is the run's quiet-window estimate: the mean throughput of the
// quietSegments fastest segments, and the median of the latencies pooled from
// those same segments.
func (t timing) quiet() (opsPerS, p50us float64) {
	var pooled []uint32
	best := t.fastest(quietSegments)
	for _, i := range best {
		opsPerS += t[i].opsPerS()
		pooled = append(pooled, t[i].lat...)
	}
	slices.Sort(pooled)
	return opsPerS / float64(len(best)), quantile(pooled, 0.5) / 1e3
}

// quietMeanUs is the mean op latency over the quietSegments fastest segments.
func (t timing) quietMeanUs() float64 {
	var ns, n float64
	for _, i := range t.fastest(quietSegments) {
		n += float64(len(t[i].lat))
		for _, l := range t[i].lat {
			ns += float64(l)
		}
	}
	return ns / n / 1e3
}

// allStats summarises every latency of the run, quiet or not. These are the
// figures a median would have given; they are reported ungated.
type allStats struct {
	n                                   int
	meanUs, p50, p99, p999              float64 // us
	medianSegOpsPerS, slowestSegOpsPerS float64
}

func (t timing) all() allStats {
	pooled := make([]uint32, 0, t.ops())
	rates := make([]float64, 0, len(t))
	var sum float64
	for _, s := range t {
		pooled = append(pooled, s.lat...)
		rates = append(rates, s.opsPerS())
		for _, l := range s.lat {
			sum += float64(l)
		}
	}
	slices.Sort(pooled)
	slices.Sort(rates)
	return allStats{
		n:                 len(pooled),
		meanUs:            sum / float64(len(pooled)) / 1e3,
		p50:               quantile(pooled, 0.5) / 1e3,
		p99:               quantile(pooled, 0.99) / 1e3,
		p999:              quantile(pooled, 0.999) / 1e3,
		medianSegOpsPerS:  medianF(rates),
		slowestSegOpsPerS: rates[0],
	}
}

// quantile reads quantile q of an ascending sample by linear interpolation
// between the two nearest ranks, in the sample's own unit.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// medianF is the median of an ascending float sample.
func medianF(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
