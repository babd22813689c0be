package pagebuf

import (
	"testing"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/israce"
)

// roundup is the runtime's size class for an n-byte buffer: growing an empty
// slice by n bytes allocates the size class that holds them and reports it as
// the capacity.
func roundup(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// TestClassesFillSizeClasses: every class is one of the runtime's size
// classes, the classes ascend with no runtime class between two of them, and
// the largest is the last small-object class, past which the runtime sizes a
// buffer by pages.
func TestClassesFillSizeClasses(t *testing.T) {
	for i, c := range classes {
		if got := roundup(c); got != c {
			t.Errorf("class %d: a %d-byte buffer takes %d bytes, so %d is no size class", i, c, got, c)
		}
		if i > 0 {
			if prev := classes[i-1]; c <= prev {
				t.Fatalf("class %d is %d after %d", i, c, prev)
			} else if got := roundup(prev + 1); got != c {
				t.Errorf("the runtime has a size class of %d bytes between classes %d and %d", got, prev, c)
			}
		}
	}
	largest := classes[len(classes)-1]
	if got := roundup(largest + 1); got-largest < 4096 {
		t.Errorf("the runtime has a size class of %d bytes past the largest class %d", got, largest)
	}
}

// TestGetCapacity: Get(n) has length n and the capacity of the smallest class
// that holds it, or exactly n past the largest class; a buffer Put back comes
// out of the next Get of its class.
func TestGetCapacity(t *testing.T) {
	largest := classes[len(classes)-1]
	for _, n := range []int{0, 1, classes[0], classes[0] + 1, 1000, 4096, 4097, largest, largest + 1, 3 * largest} {
		b := Get(n)
		want := n
		for _, c := range classes {
			if c >= n {
				want = c
				break
			}
		}
		if len(b) != n || cap(b) != want {
			t.Errorf("Get(%d) has len %d, cap %d, want %d, %d", n, len(b), cap(b), n, want)
		}
	}
	if israce.Enabled {
		return // the race detector's sync.Pool drops a share of what it is given
	}
	b := Get(3000)
	Put(b)
	if got := Get(2900); unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Error("a buffer Put back did not serve the next Get of its class")
	}
}

// TestPutRefusesForeignBuffers: a buffer whose capacity is not exactly a
// class never enters a pool, neither one too small for any class nor one
// between two classes or past the largest.
func TestPutRefusesForeignBuffers(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's sync.Pool drops a share of what it is given")
	}
	for _, n := range []int{8, classes[0] - 1, 1000, classes[len(classes)-1] + 1} {
		c := Get(n)
		if cap(c) == n {
			continue // past the largest class: nothing pooled to compare with
		}
		foreign := make([]byte, n)
		Put(foreign)
		if got := Get(n); unsafe.SliceData(got) == unsafe.SliceData(foreign) {
			t.Errorf("Put took a foreign buffer of capacity %d", n)
		}
	}
}

// TestPutAllocatesNothing: returning a buffer, a class's or a foreign one,
// allocates nothing, and neither does a Get the pool can serve.
func TestPutAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	Put(Get(2000))
	if n := testing.AllocsPerRun(100, func() { Put(Get(2000)) }); n != 0 {
		t.Errorf("a pooled Get and its Put allocate %.1f times", n)
	}
	foreign := make([]byte, 1000)
	if n := testing.AllocsPerRun(100, func() { Put(foreign) }); n != 0 {
		t.Errorf("refusing a foreign buffer allocates %.1f times", n)
	}
}

// TestPutPoisonsUnderRace: under the race detector a buffer given back is
// overwritten, capacity and all, before anyone can take it again, so a reader
// that kept it reads garbage and races with the write.
func TestPutPoisonsUnderRace(t *testing.T) {
	if !israce.Enabled {
		t.Skip("poisoning is on under the race detector only")
	}
	b := Get(1000)
	for i := range b {
		b[i] = byte(i)
	}
	Put(b)
	for i, c := range b[:cap(b)] {
		if c != 0xA5 {
			t.Fatalf("byte %d of a returned buffer is %#x, want the 0xA5 poison", i, c)
		}
	}
}
