package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Status is the first byte of every response payload.
type Status byte

const (
	StatusOK  Status = 0x00
	StatusErr Status = 0x01
)

// ErrCode classifies a StatusErr response. Codes are deliberately coarse: in
// particular every authentication failure — unknown tenant, wrong key, stale
// proof — is the single generic CodeAuth, so the handshake leaks nothing
// about which part failed.
type ErrCode uint64

const (
	// CodeAuth: the handshake failed. Generic by design; the server closes
	// the connection after sending it.
	CodeAuth ErrCode = 1
	// CodeBadRequest: the request was malformed, out of protocol order
	// (e.g. a data op before Open), or spoke an unsupported version.
	CodeBadRequest ErrCode = 2
	// CodeTooLarge: a key or value exceeds the engine's encodable limits.
	CodeTooLarge ErrCode = 3
	// CodeDraining: the server is shutting down and no longer accepts new
	// work on this connection.
	CodeDraining ErrCode = 4
	// CodeConnLimit: the server is at its connection limit.
	CodeConnLimit ErrCode = 5
	// CodeUnknownCursor: the cursor ID is not open on this connection.
	CodeUnknownCursor ErrCode = 6
	// CodeCursorLimit: the connection has too many cursors open.
	CodeCursorLimit ErrCode = 7
	// CodeInternal: the engine failed the operation; the message carries
	// detail.
	CodeInternal ErrCode = 8
	// CodeSnapshotTooOld: the cursor's pinned snapshot aged past the
	// server's epoch-age bound. The cursor is gone; the client should
	// reopen one and restart (or resume from the last key it saw).
	CodeSnapshotTooOld ErrCode = 9
	// CodeSealsExhausted: the tenant tree's key epoch reached its hard seal
	// bound with rotation disabled, so writes fail closed rather than risk
	// nonce reuse. Reads still work; the write is not retryable until the
	// operator enables rotation or advances the epoch.
	CodeSealsExhausted ErrCode = 10
)

// String names the code.
func (c ErrCode) String() string {
	switch c {
	case CodeAuth:
		return "auth failed"
	case CodeBadRequest:
		return "bad request"
	case CodeTooLarge:
		return "too large"
	case CodeDraining:
		return "draining"
	case CodeConnLimit:
		return "connection limit"
	case CodeUnknownCursor:
		return "unknown cursor"
	case CodeCursorLimit:
		return "cursor limit"
	case CodeInternal:
		return "internal error"
	case CodeSnapshotTooOld:
		return "snapshot too old"
	case CodeSealsExhausted:
		return "seals exhausted"
	default:
		return fmt.Sprintf("error code %d", uint64(c))
	}
}

// Error is the typed error a client surfaces for a StatusErr response.
type Error struct {
	Code ErrCode
	Msg  string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: server error: %s", e.Code)
	}
	return fmt.Sprintf("wire: server error: %s: %s", e.Code, e.Msg)
}

// IsCode reports whether err is a server Error carrying code.
func IsCode(err error, code ErrCode) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == code
}

// AppendOK appends the start of a success response frame to dst: the length
// word, zero until EndFrame patches it, and the status byte. The body follows,
// appended in place by the caller (the Append*Body functions, or raw bytes for
// the handshake challenge).
func AppendOK(dst []byte) []byte { return append(dst, 0, 0, 0, 0, byte(StatusOK)) }

// AppendErr appends an error response frame to dst; EndFrame finishes it.
func AppendErr(dst []byte, code ErrCode, msg string) []byte {
	dst = appendUvarint(append(dst, 0, 0, 0, 0, byte(StatusErr)), uint64(code))
	return appendString(dst, msg)
}

// EncodeOK renders a success response payload wrapping body (which may be
// nil).
func EncodeOK(body []byte) []byte { return append(AppendOK(nil), body...)[frameHeader:] }

// DecodeResponse splits a response payload into its OK body, or returns the
// server's *Error for a StatusErr payload.
func DecodeResponse(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errorf("empty response")
	}
	switch Status(payload[0]) {
	case StatusOK:
		return payload[1:], nil
	case StatusErr:
		d := &decoder{b: payload[1:]}
		code := ErrCode(d.uvarint())
		msg := string(d.bytes())
		if err := d.finish(); err != nil {
			return nil, err
		}
		return nil, &Error{Code: code, Msg: msg}
	default:
		return nil, errorf("unknown status 0x%02x", payload[0])
	}
}

// Entry is one (substituted key, value) pair streamed by CursorNext. The key
// is substituted — the plaintext key is not recoverable from the tree, so it
// cannot cross the wire back.
type Entry struct {
	SubKey []byte
	Value  []byte
}

// AppendGetBody appends the Get OK body.
func AppendGetBody(dst, value []byte, found bool) []byte {
	dst = appendBool(dst, found)
	if found {
		dst = appendBytes(dst, value)
	}
	return dst
}

// EncodeGetBody renders the Get OK body.
func EncodeGetBody(value []byte, found bool) []byte { return AppendGetBody(nil, value, found) }

// DecodeGetBody parses the Get OK body.
func DecodeGetBody(body []byte) (value []byte, found bool, err error) {
	d := &decoder{b: body}
	if found = d.bool(); found {
		value = d.bytes()
	}
	return value, found, d.finish()
}

// AppendFoundBody appends the Delete OK body.
func AppendFoundBody(dst []byte, found bool) []byte { return appendBool(dst, found) }

// DecodeFoundBody parses the Delete OK body.
func DecodeFoundBody(body []byte) (bool, error) {
	d := &decoder{b: body}
	found := d.bool()
	return found, d.finish()
}

// AppendCursorIDBody appends the CursorOpen OK body.
func AppendCursorIDBody(dst []byte, id uint64) []byte { return appendUvarint(dst, id) }

// EncodeCursorIDBody renders the CursorOpen OK body.
func EncodeCursorIDBody(id uint64) []byte { return AppendCursorIDBody(nil, id) }

// DecodeCursorIDBody parses the CursorOpen OK body.
func DecodeCursorIDBody(body []byte) (uint64, error) {
	d := &decoder{b: body}
	id := d.uvarint()
	return id, d.finish()
}

// EntriesBody appends a CursorNext OK body in place, an entry at a time, so a
// server can encode entries straight from a cursor's views without gathering
// them first. Begin reserves room for the entry count, End writes it.
type EntriesBody struct {
	at, width int // where the count goes, and the bytes reserved for it
	n         uint64
}

// Begin starts a body of at most max entries at the end of dst.
func (e *EntriesBody) Begin(dst []byte, max uint64) []byte {
	*e = EntriesBody{at: len(dst), width: uvarintLen(max)}
	return append(dst, make([]byte, e.width)...)
}

// Append appends one entry; at most the max given to Begin may be appended.
func (e *EntriesBody) Append(dst, subKey, value []byte) []byte {
	e.n++
	return appendBytes(appendBytes(dst, subKey), value)
}

// Len is how many entries have been appended.
func (e *EntriesBody) Len() uint64 { return e.n }

// End writes the entry count, moving the entries down if it is shorter than
// the room Begin reserved, and appends the done flag.
func (e *EntriesBody) End(dst []byte, done bool) []byte {
	if w := uvarintLen(e.n); w < e.width {
		dst = append(dst[:e.at+w], dst[e.at+e.width:]...)
	}
	binary.PutUvarint(dst[e.at:], e.n)
	return appendBool(dst, done)
}

// EntrySize is how many body bytes an entry of subKey and value takes.
func EntrySize(subKey, value []byte) int {
	return uvarintLen(uint64(len(subKey))) + len(subKey) + uvarintLen(uint64(len(value))) + len(value)
}

// EncodeEntriesBody renders the CursorNext OK body: the entries followed by
// the done flag.
func EncodeEntriesBody(entries []Entry, done bool) []byte {
	var body EntriesBody
	b := body.Begin(nil, uint64(len(entries)))
	for _, e := range entries {
		b = body.Append(b, e.SubKey, e.Value)
	}
	return body.End(b, done)
}

// DecodeEntriesBody parses the CursorNext OK body.
func DecodeEntriesBody(body []byte) (entries []Entry, done bool, err error) {
	d := &decoder{b: body}
	n := d.count(2) // an entry is at least two lengths
	if n > 0 {
		entries = make([]Entry, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			entries = append(entries, Entry{SubKey: d.bytes(), Value: d.bytes()})
		}
	}
	done = d.bool()
	return entries, done, d.finish()
}

// AppendBytesBody appends an OK body that is one length-prefixed blob (the
// Stats JSON).
func AppendBytesBody(dst, p []byte) []byte { return appendBytes(dst, p) }

// DecodeBytesBody parses a one-blob OK body.
func DecodeBytesBody(body []byte) ([]byte, error) {
	d := &decoder{b: body}
	p := d.bytes()
	return p, d.finish()
}
