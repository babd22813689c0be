package file

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/paper-repro/ekbtree/internal/keep"
	"github.com/paper-repro/ekbtree/internal/store"
)

const (
	magic      = "EKBTPG\r\n" // 8 bytes; \r\n catches ASCII-mode transfer mangling
	slot0Off   = 64
	slot1Off   = 192
	slotSize   = 48
	dataStart  = 512
	pageEntLen = 20 // id(8) + off(8) + len(4)
	freeEntLen = 12 // off(8) + len(4), in the free list older files store
	markLen    = 16 // seal mark: epoch(4) + clean(4) + counter(8)
)

// slotData is one decoded meta slot.
type slotData struct {
	txid   uint64
	root   uint64
	nextID uint64
	dir    extent
	dirCRC uint32
}

// parseSlot decodes and checksums one meta slot. An all-zero (never written)
// slot fails the CRC and reads as invalid.
func parseSlot(b []byte) (slotData, bool) {
	if crc32.ChecksumIEEE(b[:slotSize-4]) != binary.BigEndian.Uint32(b[slotSize-4:]) {
		return slotData{}, false
	}
	return slotData{
		txid:   binary.BigEndian.Uint64(b[0:]),
		root:   binary.BigEndian.Uint64(b[8:]),
		nextID: binary.BigEndian.Uint64(b[16:]),
		dir: extent{
			off: int64(binary.BigEndian.Uint64(b[24:])),
			len: binary.BigEndian.Uint32(b[32:]),
		},
		dirCRC: binary.BigEndian.Uint32(b[36:]),
	}, true
}

// serializeSlot encodes sd into b, which has room for slotSize bytes, and
// returns the slot.
func serializeSlot(b []byte, sd slotData) []byte {
	b = b[:slotSize]
	binary.BigEndian.PutUint64(b[0:], sd.txid)
	binary.BigEndian.PutUint64(b[8:], sd.root)
	binary.BigEndian.PutUint64(b[16:], sd.nextID)
	binary.BigEndian.PutUint64(b[24:], uint64(sd.dir.off))
	binary.BigEndian.PutUint32(b[32:], sd.dir.len)
	binary.BigEndian.PutUint32(b[36:], sd.dirCRC)
	binary.BigEndian.PutUint32(b[slotSize-4:], crc32.ChecksumIEEE(b[:slotSize-4]))
	return b
}

// dirSize returns the serialized directory size for the given entry counts.
func dirSize(pageCount, metaLen int) int {
	return 4 + pageCount*pageEntLen + 4 + 4 + metaLen + markLen
}

// dirBuffer returns buf cut to n bytes for the next directory. A buffer with
// more room than keep.Room allows for n is dropped, and one with too little
// grows as append grows a slice, so a directory that gains a page at a time
// does not remake its buffer at every flush. It is the one place a flush
// makes its directory buffer.
func dirBuffer(buf []byte, n int) []byte {
	if cap(buf) > keep.Room(n, 1) {
		buf = nil
	}
	return slices.Grow(buf[:0], n)[:n]
}

// serializeDir writes the directory into buf, exactly dirSize long. Its
// free-list count is zero: Open derives free space (freeGaps), and the count
// stays so that older builds read the file, as having none.
func serializeDir(buf []byte, pages map[uint64]extent, meta []byte, mark store.SealMark) {
	p := buf
	binary.BigEndian.PutUint32(p, uint32(len(pages)))
	p = p[4:]
	for id, e := range pages {
		binary.BigEndian.PutUint64(p[0:], id)
		binary.BigEndian.PutUint64(p[8:], uint64(e.off))
		binary.BigEndian.PutUint32(p[16:], e.len)
		p = p[pageEntLen:]
	}
	binary.BigEndian.PutUint32(p, 0) // free-list count
	p = p[4:]
	binary.BigEndian.PutUint32(p, uint32(len(meta)))
	copy(p[4:], meta)
	p = p[4+len(meta):]
	binary.BigEndian.PutUint32(p[0:], mark.Epoch)
	binary.BigEndian.PutUint32(p[4:], mark.Clean)
	binary.BigEndian.PutUint64(p[8:], mark.Counter)
}

// parseDir decodes a directory, skipping the free list older files store. A
// directory from before the seal mark ends at the meta, and its absent mark
// reads as zero (epoch 0, nothing reserved): the state it was written in.
func parseDir(b []byte) (pages map[uint64]extent, meta []byte, mark store.SealMark, err error) {
	bad := func(what string) error { return fmt.Errorf("%w: directory %s", ErrCorrupt, what) }
	if len(b) < 4 {
		return nil, nil, mark, bad("truncated")
	}
	pageCount := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(pageCount)*pageEntLen {
		return nil, nil, mark, bad("page table truncated")
	}
	pages = make(map[uint64]extent, pageCount)
	for i := uint32(0); i < pageCount; i++ {
		pages[binary.BigEndian.Uint64(b[0:])] = extent{
			off: int64(binary.BigEndian.Uint64(b[8:])),
			len: binary.BigEndian.Uint32(b[16:]),
		}
		b = b[pageEntLen:]
	}
	if len(b) < 4 {
		return nil, nil, mark, bad("truncated")
	}
	freeCount := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(freeCount)*freeEntLen {
		return nil, nil, mark, bad("free list truncated")
	}
	b = b[uint64(freeCount)*freeEntLen:]
	if len(b) < 4 {
		return nil, nil, mark, bad("truncated")
	}
	metaLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(metaLen) {
		return nil, nil, mark, bad("meta truncated")
	}
	meta = append([]byte(nil), b[:metaLen]...)
	b = b[metaLen:]
	// Pre-mark directories end here; zero padding decodes as the zero mark.
	if len(b) >= markLen {
		mark.Epoch = binary.BigEndian.Uint32(b[0:])
		mark.Clean = binary.BigEndian.Uint32(b[4:])
		mark.Counter = binary.BigEndian.Uint64(b[8:])
	}
	return pages, meta, mark, nil
}

// maxFileEnd (256 TiB) bounds the data region, and so what freeGaps derives.
const maxFileEnd = 1 << 48

// freeGaps derives the free list and the append frontier: every gap the pages
// (a zero-length one covers nothing) and the directory leave between dataStart
// and the end of the last of them, cut to uint32 lengths. Extents that overlap
// or leave the data region are corrupt: a flush writes into free space.
func freeGaps(pages map[uint64]extent, dir extent) (free []extent, end int64, err error) {
	used := append(make([]extent, 0, len(pages)+1), dir)
	for _, e := range pages {
		if e.len > 0 {
			used = append(used, e)
		}
	}
	slices.SortFunc(used, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	end = dataStart
	for _, e := range used {
		if e.off < end || e.off > maxFileEnd-int64(e.len) {
			return nil, 0, fmt.Errorf("%w: directory places an extent at %d, over another or outside the data region", ErrCorrupt, e.off)
		}
		for end < e.off {
			n := uint32(min(e.off-end, math.MaxUint32))
			free = append(free, extent{off: end, len: n})
			end += int64(n)
		}
		end = e.end()
	}
	return free, end, nil
}
