package file

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/paper-repro/ekbtree/internal/store"
)

const (
	magic      = "EKBTPG\r\n" // 8 bytes; \r\n catches ASCII-mode transfer mangling
	slot0Off   = 64
	slot1Off   = 192
	slotSize   = 48
	dataStart  = 512
	pageEntLen = 20 // id(8) + off(8) + len(4)
	freeEntLen = 12 // off(8) + len(4)
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

func serializeSlot(sd slotData) []byte {
	b := make([]byte, slotSize)
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
func dirSize(pageCount, freeCount, metaLen int) int {
	return 4 + pageCount*pageEntLen + 4 + freeCount*freeEntLen + 4 + metaLen + markLen
}

// serializeDir writes the directory into buf, which may be longer than the
// exact encoding; the tail stays zero (padding is covered by the CRC and
// ignored by parseDir). The seal mark rides after the meta blob: directories
// written before the mark existed end at the meta, and parseDir reads their
// (absent) mark as zero — epoch 0, nothing reserved — which is exactly the
// state such a file was written in.
func serializeDir(buf []byte, pages map[uint64]extent, free []extent, meta []byte, mark store.SealMark) {
	p := buf
	binary.BigEndian.PutUint32(p, uint32(len(pages)))
	p = p[4:]
	for id, e := range pages {
		binary.BigEndian.PutUint64(p[0:], id)
		binary.BigEndian.PutUint64(p[8:], uint64(e.off))
		binary.BigEndian.PutUint32(p[16:], e.len)
		p = p[pageEntLen:]
	}
	binary.BigEndian.PutUint32(p, uint32(len(free)))
	p = p[4:]
	for _, e := range free {
		binary.BigEndian.PutUint64(p[0:], uint64(e.off))
		binary.BigEndian.PutUint32(p[8:], e.len)
		p = p[freeEntLen:]
	}
	binary.BigEndian.PutUint32(p, uint32(len(meta)))
	copy(p[4:], meta)
	p = p[4+len(meta):]
	binary.BigEndian.PutUint32(p[0:], mark.Epoch)
	binary.BigEndian.PutUint32(p[4:], mark.Clean)
	binary.BigEndian.PutUint64(p[8:], mark.Counter)
}

func parseDir(b []byte) (pages map[uint64]extent, free []extent, meta []byte, mark store.SealMark, err error) {
	bad := func(what string) error { return fmt.Errorf("%w: directory %s", ErrCorrupt, what) }
	if len(b) < 4 {
		return nil, nil, nil, mark, bad("truncated")
	}
	pageCount := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(pageCount)*pageEntLen {
		return nil, nil, nil, mark, bad("page table truncated")
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
		return nil, nil, nil, mark, bad("truncated")
	}
	freeCount := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(freeCount)*freeEntLen {
		return nil, nil, nil, mark, bad("free list truncated")
	}
	free = make([]extent, 0, freeCount)
	for i := uint32(0); i < freeCount; i++ {
		free = append(free, extent{
			off: int64(binary.BigEndian.Uint64(b[0:])),
			len: binary.BigEndian.Uint32(b[8:]),
		})
		b = b[freeEntLen:]
	}
	if len(b) < 4 {
		return nil, nil, nil, mark, bad("truncated")
	}
	metaLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(metaLen) {
		return nil, nil, nil, mark, bad("meta truncated")
	}
	meta = append([]byte(nil), b[:metaLen]...)
	b = b[metaLen:]
	// Pre-mark directories end here; zero padding decodes as the zero mark.
	if len(b) >= markLen {
		mark.Epoch = binary.BigEndian.Uint32(b[0:])
		mark.Clean = binary.BigEndian.Uint32(b[4:])
		mark.Counter = binary.BigEndian.Uint64(b[8:])
	}
	return pages, free, meta, mark, nil
}
