package file

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/keep"
)

// extent is a contiguous byte range in the data region.
type extent struct {
	off int64
	len uint32
}

func (e extent) end() int64 { return e.off + int64(e.len) }

// freeIndex is a size-bucketed view of the free-extent list, rebuilt each
// flush. Bucket b holds extents whose length has bit-length b+1 (i.e. len in
// [2^b, 2^(b+1))), so finding a fitting extent probes the request's own
// bucket and then the first non-empty larger one, instead of best-fit
// scanning the whole list per allocation (~7% of CPU under sustained ingest
// before this existed). Within the request's own bucket the scan is still
// best-fit, but candidates there are already within 2x of the request, so
// fragmentation behavior matches the old scan where it mattered: steady-state
// workloads keep reusing recycled same-size extents exactly. The store keeps
// one index and rebuilds it in the arrays it already has (see reset).
type freeIndex struct {
	buckets  [32][]extent
	n        int
	nonEmpty uint32 // bit b set iff buckets[b] is non-empty
}

// extentBytes is the size of an extent, for keep.Room.
const extentBytes = int(unsafe.Sizeof(extent{}))

// reuse empties l for the next flush, or drops it when it has more room than
// keep.Room allows for used extents.
func reuse(l []extent, used int) []extent {
	if cap(l) > keep.Room(used, extentBytes) {
		return nil
	}
	return l[:0]
}

func bucketOf(n uint32) int {
	if n == 0 {
		return 0
	}
	return bits.Len32(n) - 1
}

// reset indexes free, keeping each bucket's extents in list order, in the
// arrays the index already has: a bucket with room for its count is refilled
// in place, and the buckets without are cut from one new array, each clipped
// to its count. A fresh index thus costs one allocation and a steady-state
// flush none; a bucket that alloc's remainders grow past its room
// reallocates, and keeps the larger array for the next flush. An index with
// more room than keep.Room allows for free drops it all first.
func (fi *freeIndex) reset(free []extent) {
	var counts [len(fi.buckets)]int
	total := 0
	for _, e := range free {
		if e.len != 0 {
			counts[bucketOf(e.len)]++
			total++
		}
	}
	room := 0
	for _, b := range fi.buckets {
		room += cap(b)
	}
	if room > keep.Room(total, extentBytes) {
		fi.buckets = [len(fi.buckets)][]extent{}
	}
	need := 0
	for b, c := range counts {
		if cap(fi.buckets[b]) < c {
			need += c
		}
	}
	all := make([]extent, need)
	for b, c := range counts {
		if cap(fi.buckets[b]) < c {
			fi.buckets[b], all = all[:0:c], all[c:]
		} else {
			fi.buckets[b] = fi.buckets[b][:0]
		}
	}
	fi.n, fi.nonEmpty = 0, 0
	for _, e := range free {
		fi.add(e)
	}
}

func (fi *freeIndex) add(e extent) {
	if e.len == 0 {
		return
	}
	b := bucketOf(e.len)
	fi.buckets[b] = append(fi.buckets[b], e)
	fi.nonEmpty |= 1 << b
	fi.n++
}

// len returns the number of indexed extents.
func (fi *freeIndex) len() int { return fi.n }

// appendTo appends every remaining extent to dst, for rebuilding the free
// list after a flush's allocations.
func (fi *freeIndex) appendTo(dst []extent) []extent {
	for _, b := range fi.buckets {
		dst = append(dst, b...)
	}
	return dst
}

// take removes and returns buckets[b][i].
func (fi *freeIndex) take(b, i int) extent {
	bk := fi.buckets[b]
	e := bk[i]
	bk[i] = bk[len(bk)-1]
	fi.buckets[b] = bk[:len(bk)-1]
	if len(fi.buckets[b]) == 0 {
		fi.nonEmpty &^= 1 << b
	}
	fi.n--
	return e
}

// alloc carves n bytes out of the indexed free extents, returning false if no
// extent fits. An exact or near fit comes from the request's own bucket
// (best-fit within it); otherwise the smallest non-empty larger bucket is
// split, with the remainder re-indexed by its new size.
func (fi *freeIndex) alloc(n uint32) (extent, bool) {
	if n == 0 || fi.n == 0 {
		return extent{}, false
	}
	b := bucketOf(n)
	best := -1
	for i, e := range fi.buckets[b] {
		if e.len >= n && (best < 0 || e.len < fi.buckets[b][best].len) {
			best = i
			if e.len == n {
				break
			}
		}
	}
	if best < 0 {
		// Everything in bucket b is under n (or the bucket is empty): any
		// extent in a larger bucket fits. Take from the smallest such bucket.
		higher := fi.nonEmpty &^ (1<<(b+1) - 1)
		if higher == 0 {
			return extent{}, false
		}
		b = bits.TrailingZeros32(higher)
		best = 0
	}
	e := fi.take(b, best)
	got := extent{off: e.off, len: n}
	if e.len > n {
		fi.add(extent{off: e.off + int64(n), len: e.len - n})
	}
	return got, true
}

// allocBelow carves n bytes from the free extent with the LOWEST offset that
// fits and starts strictly below limit, returning false when none does. It
// trades the bucket probe for a full scan — vacuum relocations want data to
// migrate toward the front of the file, not to the best-fitting hole — and
// only vacuum-marked writes pay for it.
func (fi *freeIndex) allocBelow(n uint32, limit int64) (extent, bool) {
	if n == 0 || fi.n == 0 {
		return extent{}, false
	}
	bestB, bestI := -1, -1
	var bestOff int64
	for b := bucketOf(n); b < len(fi.buckets); b++ {
		if fi.nonEmpty&(1<<b) == 0 {
			continue
		}
		for i, e := range fi.buckets[b] {
			if e.len >= n && e.off < limit && (bestB < 0 || e.off < bestOff) {
				bestB, bestI, bestOff = b, i, e.off
			}
		}
	}
	if bestB < 0 {
		return extent{}, false
	}
	e := fi.take(bestB, bestI)
	got := extent{off: e.off, len: n}
	if e.len > n {
		fi.add(extent{off: e.off + int64(n), len: e.len - n})
	}
	return got, true
}

// allocExtent carves n bytes out of the index or extends the append frontier.
func (fi *freeIndex) allocExtent(end *int64, n uint32) extent {
	if e, ok := fi.alloc(n); ok {
		return e
	}
	got := extent{off: *end, len: n}
	*end += int64(n)
	return got
}

// coalesce sorts extents by offset and merges adjacent ones, bounding
// free-list growth, as far as a merged length fits its uint32.
func coalesce(exts []extent) []extent {
	if len(exts) < 2 {
		return exts
	}
	// Offsets are unique, so an unstable sort has one possible result.
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	out := exts[:1]
	for _, e := range exts[1:] {
		last := &out[len(out)-1]
		if last.end() == e.off && uint64(last.len)+uint64(e.len) <= math.MaxUint32 {
			last.len += e.len
		} else {
			out = append(out, e)
		}
	}
	return out
}
