package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x42},
		bytes.Repeat([]byte{0xab}, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("ReadFrame on empty stream: %v, want io.EOF", err)
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized WriteFrame: %v, want ErrFrameTooLarge", err)
	}
	// A hostile length prefix must be rejected before any allocation.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized ReadFrame: %v, want ErrFrameTooLarge", err)
	}
	// A truncated frame is a broken connection, not a clean EOF.
	binary.BigEndian.PutUint32(hdr[:], 10)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3))); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated ReadFrame: %v, want io.ErrUnexpectedEOF", err)
	}
	// A length word within the limit is not a licence to allocate it: five
	// bytes declaring a whole MaxFrame used to cost 4 MiB before the payload
	// failed to arrive.
	hostile := []byte{0x00, 0x40, 0x00, 0x00, 0x01}
	var err error
	if got := allocatedBy(func() { _, err = ReadFrame(bytes.NewReader(hostile)) }); got >= 64<<10 || err != io.ErrUnexpectedEOF {
		t.Fatalf("ReadFrame of % x allocated %d bytes and returned %v, want < 64 KiB and io.ErrUnexpectedEOF", hostile, got, err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		&Hello{Version: ProtocolVersion, Tenant: "alice"},
		&Hello{Version: 7, Tenant: ""},
		&Auth{Proof: bytes.Repeat([]byte{0x11}, 32)},
		&Open{},
		&Put{Key: []byte("k"), Value: []byte("v")},
		&Put{Key: []byte{}, Value: []byte{}},
		&Get{Key: []byte("needle")},
		&Delete{Key: []byte("gone")},
		&BatchCommit{Ops: []BatchOp{
			{Key: []byte("a"), Value: []byte("1")},
			{Del: true, Key: []byte("b")},
			{Key: []byte("c"), Value: bytes.Repeat([]byte{9}, 300)},
		}},
		&BatchCommit{},
		&CursorOpen{},
		&CursorOpen{HasLo: true, Lo: []byte("from")},
		&CursorOpen{HasLo: true, Lo: []byte("from"), HasHi: true, Hi: []byte("to")},
		&CursorNext{Cursor: 3, Max: 128},
		&CursorClose{Cursor: 1 << 40},
		&Stats{},
		&Sync{},
		&Vacuum{},
	}
	for _, req := range reqs {
		payload := EncodeRequest(req)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("DecodeRequest(%s): %v", req.op(), err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(req)) {
			t.Fatalf("%s round trip: got %+v, want %+v", req.op(), got, req)
		}
	}
}

// normalize maps nil and empty byte slices onto one form so DeepEqual
// compares semantic content: the codec does not distinguish nil from empty.
func normalize(r Request) Request {
	switch m := r.(type) {
	case *Put:
		return &Put{Key: canon(m.Key), Value: canon(m.Value)}
	case *BatchCommit:
		ops := make([]BatchOp, len(m.Ops))
		for i, op := range m.Ops {
			ops[i] = BatchOp{Del: op.Del, Key: canon(op.Key), Value: canon(op.Value)}
		}
		if len(ops) == 0 {
			ops = nil
		}
		return &BatchCommit{Ops: ops}
	case *CursorOpen:
		return &CursorOpen{HasLo: m.HasLo, Lo: canon(m.Lo), HasHi: m.HasHi, Hi: canon(m.Hi)}
	}
	return r
}

func canon(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"unknown opcode":      {0xff},
		"truncated put":       EncodeRequest(&Put{Key: []byte("k"), Value: []byte("v")})[:3],
		"trailing garbage":    append(EncodeRequest(&Sync{}), 0x00),
		"bad bool":            {byte(OpCursorOpen), 0x02},
		"batch length beyond": {byte(OpBatchCommit), 0xff, 0xff, 0xff, 0xff, 0x7f},
		// Protocol 1's Vacuum carried a uvarint target (here 1 << 40), which
		// protocol 2 dropped: it must not pass for a Vacuum.
		"protocol-1 vacuum": {byte(OpVacuum), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecodeRequest = %v, want ErrMalformed", name, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	// OK with an empty body.
	body, err := DecodeResponse(EncodeOK(nil))
	if err != nil || len(body) != 0 {
		t.Fatalf("empty OK: body=%v err=%v", body, err)
	}
	// Err carries code and message, surfaced as *Error.
	_, err = DecodeResponse(AppendErr(nil, CodeAuth, "authentication failed")[frameHeader:])
	var we *Error
	if !errors.As(err, &we) || we.Code != CodeAuth || we.Msg != "authentication failed" {
		t.Fatalf("err response: %v", err)
	}
	if !IsCode(err, CodeAuth) || IsCode(err, CodeDraining) {
		t.Fatalf("IsCode misclassified %v", err)
	}

	// Typed OK bodies.
	v, found, err := DecodeGetBody(EncodeGetBody([]byte("val"), true))
	if err != nil || !found || string(v) != "val" {
		t.Fatalf("get body: %q %v %v", v, found, err)
	}
	_, found, err = DecodeGetBody(EncodeGetBody(nil, false))
	if err != nil || found {
		t.Fatalf("absent get body: %v %v", found, err)
	}
	ok, err := DecodeFoundBody(AppendFoundBody(nil, true))
	if err != nil || !ok {
		t.Fatalf("found body: %v %v", ok, err)
	}
	id, err := DecodeCursorIDBody(EncodeCursorIDBody(123456))
	if err != nil || id != 123456 {
		t.Fatalf("cursor id body: %d %v", id, err)
	}
	entries := []Entry{
		{SubKey: []byte("sk1"), Value: []byte("v1")},
		{SubKey: []byte("sk2"), Value: []byte{}},
	}
	got, done, err := DecodeEntriesBody(EncodeEntriesBody(entries, true))
	if err != nil || !done || len(got) != 2 ||
		!bytes.Equal(got[0].SubKey, []byte("sk1")) || !bytes.Equal(got[1].Value, nil) {
		t.Fatalf("entries body: %+v done=%v err=%v", got, done, err)
	}
	blob, err := DecodeBytesBody(AppendBytesBody(nil, []byte(`{"keys":1}`)))
	if err != nil || string(blob) != `{"keys":1}` {
		t.Fatalf("bytes body: %q %v", blob, err)
	}
}

func TestAuthProof(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 32)
	challenge, err := NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	if len(challenge) != ChallengeSize {
		t.Fatalf("challenge size %d", len(challenge))
	}
	proof := ProveAuth(key, challenge, "alice")
	if !VerifyAuth(key, challenge, "alice", proof) {
		t.Fatal("valid proof rejected")
	}
	// Any perturbation — key, challenge, tenant, proof bytes — must fail.
	otherKey := bytes.Repeat([]byte{0x5b}, 32)
	if VerifyAuth(otherKey, challenge, "alice", proof) {
		t.Fatal("proof verified under the wrong key")
	}
	if VerifyAuth(key, challenge, "bob", proof) {
		t.Fatal("proof verified for the wrong tenant")
	}
	other, _ := NewChallenge()
	if VerifyAuth(key, other, "alice", proof) {
		t.Fatal("proof verified against a different challenge")
	}
	mutated := append([]byte(nil), proof...)
	mutated[0] ^= 1
	if VerifyAuth(key, challenge, "alice", mutated) {
		t.Fatal("mutated proof verified")
	}
}
