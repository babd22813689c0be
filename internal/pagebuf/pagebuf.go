// Package pagebuf recycles sealed page buffers. The cipher takes every page
// it seals from Get, and the page store gives each one back with Put once no
// reader can reach it any more (a later commit superseded or freed the page
// before its flush, or the flush that wrote it is installed), so the next seal
// reuses the buffer instead of allocating one. A recycled buffer only ever
// holds ciphertext: a sealed page, then the next sealed page over it.
//
// Buffers come in size classes that are the runtime's own, so a buffer wastes
// no more than a plain allocation of the page's size would. Each class is a
// sync.Pool, which the garbage collector may empty at any cycle: the pool
// holds what a few flushes gave back, never a working set of its own.
package pagebuf

import (
	"slices"
	"sync"
	"unsafe"

	"github.com/paper-repro/ekbtree/internal/israce"
)

// classes are the buffer capacities, each one of the runtime's size classes,
// with no runtime class between two neighbours: every class from 256 bytes to
// the largest small-object class. Smaller pages take the smallest class; a
// larger one gets a buffer of its own, which Put refuses.
// TestClassesFillSizeClasses holds them to it.
var classes = [...]int{
	256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896,
	1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456,
	4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264,
	28672, 32768,
}

// pools holds the free buffers of each class, as pointers to their first
// byte: a pointer goes into an interface without an allocation, where a
// slice header would not.
var pools [len(classes)]sync.Pool

// Get returns a buffer of length n. Its capacity is the smallest class that
// holds n bytes, the buffer a free one of that class when the pool has one;
// past the largest class it is a plain buffer of n bytes. A recycled buffer's
// bytes are whatever it last held.
func Get(n int) []byte {
	c, _ := slices.BinarySearch(classes[:], n)
	if c == len(classes) {
		return make([]byte, n)
	}
	if p, ok := pools[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*byte)(p), classes[c])[:n]
	}
	return make([]byte, n, classes[c])
}

// Put gives b to the pool of its class, for a later Get to hand out. It drops
// a buffer whose capacity is not exactly a class, so a buffer Get did not make
// rarely gets in, and it allocates nothing.
//
// The caller guarantees that nothing reads or writes b, or any slice of it,
// ever again: from here on it is the next Get caller's. Under the race
// detector the buffer is first overwritten with a fixed pattern, so a reader
// the caller missed reads garbage, and races with the write, rather than
// reading the next page's bytes unnoticed.
func Put(b []byte) {
	c, ok := slices.BinarySearch(classes[:], cap(b))
	if !ok {
		return
	}
	b = b[:cap(b)]
	if israce.Enabled {
		for i := range b {
			b[i] = 0xA5
		}
	}
	pools[c].Put(unsafe.Pointer(unsafe.SliceData(b)))
}
