// Package wire is the binary protocol spoken between ekbtreed (the networked
// multi-tenant encrypted-index server) and its clients. It is deliberately
// small and dependency-free: length-prefixed frames, a byte-oriented message
// codec, an HMAC challenge/response authentication handshake, and a
// synchronous client.
//
// # Framing
//
// Every message — request or response — travels as one frame:
//
//	uint32 big-endian payload length | payload
//
// A payload is at most MaxFrame bytes. Request payloads start with a one-byte
// opcode followed by op-specific fields; response payloads start with a
// one-byte status (StatusOK or StatusErr) followed by an op-specific body
// (OK) or an error code plus message (Err). Variable-length fields are
// encoded as a uvarint length followed by the raw bytes; integers are
// uvarints.
//
// # One buffer per connection end
//
// The codec appends into buffers its caller owns: AppendRequest, AppendOK and
// AppendErr start a whole frame in place (the body of an OK response is
// appended right after its status byte), EndFrame patches the length word,
// and ReadFrameInto reads the next frame into a buffer the caller passes back
// each time, growing it only as payload bytes arrive. The Encode*, WriteFrame
// and ReadFrame functions are allocating wrappers over the same code.
//
// What a decoder returns aliases the payload it decoded. The Client copies out
// what it hands back (a Get value, CursorNext entries, the Stats JSON), so its
// results are the caller's; ekbtreed's request fields live only until the
// request is dispatched.
//
// # Connection lifecycle
//
// A connection is authenticated before it can touch any tree:
//
//	client                          server
//	  ── Hello{version, tenant} ──▶
//	  ◀── OK {challenge (32 B)} ──
//	  ── Auth{proof} ────────────▶       proof = HMAC(authKey, label‖challenge‖tenant)
//	  ◀── OK {} ─────────────────        (or a generic StatusErr CodeAuth, then close)
//
// The tenant's master key never crosses the wire: the client derives the
// authentication subkey from it (ekbtree.DeriveMaterial) and proves knowledge
// of that subkey against a fresh random challenge. The server holds only
// derived material, and a failed proof yields the same generic CodeAuth error
// whether the tenant is unknown or the key is wrong — no oracle.
//
// After authentication the client issues Open once to attach the tenant's
// tree, then any sequence of Put/Get/Delete/Batch/Cursor*/Stats/Sync
// requests. The server answers a connection's requests one at a time, in the
// order they arrive; a client may write several before reading, and reads the
// responses back in the same order. Client itself keeps one in flight.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// MaxFrame bounds a single frame's payload. It is sized to hold a generous
// write batch while keeping a hostile peer from ballooning server memory with
// one length word.
const MaxFrame = 4 << 20

// ProtocolVersion is the protocol revision spoken by this package. A server
// rejects a Hello carrying a different version with CodeBadRequest.
const ProtocolVersion = 1

// ChallengeSize is the size of the random authentication challenge.
const ChallengeSize = 32

// frameHeader is the length word every frame starts with.
const frameHeader = 4

// readChunk is how far ReadFrameInto lets a frame's buffer run ahead of the
// payload bytes that have arrived, until those bytes pass it; from then on
// the buffer at most doubles what has arrived. So a length word alone costs a
// chunk, not the length it declares.
const readChunk = 32 << 10

// ErrFrameTooLarge is returned when an incoming frame's length prefix exceeds
// MaxFrame (or an outgoing payload would).
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrMalformed is returned when a payload does not decode as a well-formed
// message.
var ErrMalformed = errors.New("wire: malformed message")

// EndFrame finishes frame, which starts with its length word (AppendRequest,
// AppendOK and AppendErr leave it zero), by writing the payload's length into
// it. It fails with ErrFrameTooLarge, writing nothing, if the payload is over
// MaxFrame.
func EndFrame(frame []byte) error {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// WriteFrame writes one length-prefixed frame carrying payload: the length
// word, then payload itself, uncopied.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame and returns its payload. It allocates the payload
// fresh, so the caller owns it.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil, MaxFrame) }

// ReadFrameInto reads one frame into buf, overwriting what it held, and
// returns the payload: buf itself, grown if the payload needed more room. A
// frame whose length word exceeds limit fails with ErrFrameTooLarge before
// any payload is read. The buffer grows only as payload arrives — by at most
// readChunk, or by what has arrived so far if that is more — so a peer that
// declares a large frame and sends little of it costs little. On error the
// returned slice is empty, with buf's capacity kept for the next call.
func ReadFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, frameHeader)
	}
	buf = buf[:frameHeader]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	declared := binary.BigEndian.Uint32(buf)
	if uint64(declared) > uint64(limit) {
		return buf[:0], ErrFrameTooLarge
	}
	n := int(declared)
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		if have == cap(buf) {
			grown := make([]byte, have, have+min(n-have, max(have, readChunk)))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:min(cap(buf), n)]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			// A peer that vanishes mid-frame is a broken connection, not a
			// clean EOF.
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], err
		}
	}
	return buf, nil
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendBytes appends p as a uvarint length followed by the raw bytes.
func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendString is appendBytes for a string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBool appends a one-byte boolean.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder consumes a payload field by field, latching the first error so call
// sites read sequences without per-field checks and validate once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail()
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count, failing unless what is left of the payload
// can physically carry that many elements of at least min bytes each: the
// count sizes an allocation, and a hostile one must not size it beyond what
// the frame backs.
func (d *decoder) count(min uint64) uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b))/min {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// finish reports the first decode error, or ErrMalformed if trailing bytes
// remain (the codec is canonical: every byte of a payload belongs to a field).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return ErrMalformed
	}
	return nil
}

// errorf wraps ErrMalformed with context.
func errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}
