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
// requests, strictly one at a time (the protocol is synchronous per
// connection; open N connections for N in-flight requests).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// ErrFrameTooLarge is returned when an incoming frame's length prefix exceeds
// MaxFrame (or an outgoing payload would).
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrMalformed is returned when a payload does not decode as a well-formed
// message.
var ErrMalformed = errors.New("wire: malformed message")

// WriteFrame writes one length-prefixed frame carrying payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame and returns its payload. It allocates the payload
// fresh, so the caller owns it.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		// A peer that vanishes mid-frame is a broken connection, not a
		// clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendBytes appends p as a uvarint length followed by the raw bytes.
func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
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
