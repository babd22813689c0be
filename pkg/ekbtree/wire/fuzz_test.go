package wire

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is the most decoding a payload (and encoding the result again)
// may allocate: a decoded element (a 56-byte BatchOp, a 48-byte Entry) costs
// at least two payload bytes. The fixed allowance covers the message struct,
// error values and whatever the fuzzing worker's own goroutines allocate
// meanwhile (a few KB now and then); a count the payload does not back
// overshoots it a thousandfold.
func allocBound(payload []byte) uint64 { return 64*uint64(len(payload)) + 64<<10 }

// TestHostileCountsAllocateLittle is the regression test for the pre-auth
// memory amplification: a five-byte BatchCommit claiming two million ops
// reaches DecodeRequest on a connection's first frame, before any
// authentication, and used to allocate 112 MB for them; DecodeEntriesBody had
// the same shape on the client side. A count must be backed by payload.
func TestHostileCountsAllocateLittle(t *testing.T) {
	count := appendUvarint(nil, MaxFrame/2)
	hostile := append([]byte{byte(OpBatchCommit)}, count...)
	var err error
	if got := allocatedBy(func() { _, err = DecodeRequest(hostile) }); got >= 64<<10 || !errors.Is(err, ErrMalformed) {
		t.Errorf("DecodeRequest of a %d-byte hostile batch allocated %d bytes and returned %v, want < 64 KB and ErrMalformed", len(hostile), got, err)
	}
	if got := allocatedBy(func() { _, _, err = DecodeEntriesBody(count) }); got >= 64<<10 || !errors.Is(err, ErrMalformed) {
		t.Errorf("DecodeEntriesBody of a %d-byte hostile body allocated %d bytes and returned %v, want < 64 KB and ErrMalformed", len(count), got, err)
	}

	// The bound must not bite an honest frame, including the densest one:
	// nothing but deletes of the empty key, two bytes an op.
	for _, op := range []BatchOp{{Key: []byte("key"), Value: []byte("value")}, {Del: true}} {
		honest := &BatchCommit{Ops: make([]BatchOp, 4096)}
		for i := range honest.Ops {
			honest.Ops[i] = op
		}
		got, err := DecodeRequest(EncodeRequest(honest))
		if err != nil || !reflect.DeepEqual(normalize(got), normalize(honest)) {
			t.Fatalf("a 4096-op batch of %+v did not round-trip: %v", op, err)
		}
	}
	entries := make([]Entry, 4096)
	got, done, err := DecodeEntriesBody(EncodeEntriesBody(entries, true))
	if err != nil || !done || len(got) != len(entries) {
		t.Fatalf("4096 empty entries decoded to %d entries, done=%v, err=%v", len(got), done, err)
	}
}

// FuzzDecodeRequest throws arbitrary payloads at the one decoder that reads
// bytes from an unauthenticated peer. It must never panic, never allocate
// more than a small multiple of the payload, fail only with ErrMalformed, and
// what it accepts must be a fixed point of decode → encode → decode (uvarints
// may arrive non-minimal, so the payload itself need not be reproduced).
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		&Hello{Version: ProtocolVersion, Tenant: "alice"},
		&Auth{Proof: bytes.Repeat([]byte{0x11}, 32)},
		&Open{},
		&Put{Key: []byte("k"), Value: []byte("v")},
		&Get{Key: []byte("needle")},
		&Delete{Key: []byte("gone")},
		&BatchCommit{Ops: []BatchOp{{Key: []byte("a"), Value: []byte("1")}, {Del: true, Key: []byte("b")}}},
		&CursorOpen{HasLo: true, Lo: []byte("from"), HasHi: true, Hi: []byte("to")},
		&CursorNext{Cursor: 3, Max: 128},
		&CursorClose{Cursor: 1 << 40},
		&Stats{},
		&Sync{},
		&Vacuum{Target: 1 << 40},
	} {
		f.Add(EncodeRequest(req))
	}
	f.Add(append([]byte{byte(OpBatchCommit)}, appendUvarint(nil, MaxFrame/2)...))
	f.Add([]byte{byte(OpCursorNext), 0x83, 0x00, 0x01}) // a non-minimal uvarint

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		var err error
		if got := allocatedBy(func() { req, err = DecodeRequest(payload) }); got > allocBound(payload) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), got)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeRequest failed with %v, want ErrMalformed", err)
			}
			return
		}
		again := EncodeRequest(req)
		req2, err := DecodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", req.op(), err)
		}
		if third := EncodeRequest(req2); !bytes.Equal(again, third) {
			t.Fatalf("%s is not a fixed point:\n %x\n %x", req.op(), again, third)
		}
	})
}

// FuzzDecodeResponse does the same for what a client reads back: the status
// split, and every typed OK-body decoder driven on the body.
func FuzzDecodeResponse(f *testing.F) {
	for _, body := range [][]byte{
		nil,
		EncodeGetBody([]byte("val"), true),
		EncodeGetBody(nil, false),
		EncodeFoundBody(true),
		EncodeCursorIDBody(123456),
		EncodeEntriesBody([]Entry{{SubKey: []byte("sk1"), Value: []byte("v1")}, {SubKey: []byte("sk2")}}, true),
		EncodeEntriesBody(nil, false),
		EncodeBytesBody([]byte(`{"keys":1}`)),
		appendUvarint(nil, MaxFrame/2),
	} {
		f.Add(EncodeOK(body))
	}
	f.Add(EncodeErr(CodeAuth, "authentication failed"))
	f.Add(EncodeErr(CodeSealsExhausted, ""))

	// Each body decoder, answering with what it decoded encoded again.
	decoders := map[string]func(body []byte) ([]byte, error){
		"DecodeGetBody": func(body []byte) ([]byte, error) {
			value, found, err := DecodeGetBody(body)
			return EncodeGetBody(value, found), err
		},
		"DecodeFoundBody": func(body []byte) ([]byte, error) {
			found, err := DecodeFoundBody(body)
			return EncodeFoundBody(found), err
		},
		"DecodeCursorIDBody": func(body []byte) ([]byte, error) {
			id, err := DecodeCursorIDBody(body)
			return EncodeCursorIDBody(id), err
		},
		"DecodeEntriesBody": func(body []byte) ([]byte, error) {
			entries, done, err := DecodeEntriesBody(body)
			return EncodeEntriesBody(entries, done), err
		},
		"DecodeBytesBody": func(body []byte) ([]byte, error) {
			blob, err := DecodeBytesBody(body)
			return EncodeBytesBody(blob), err
		},
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		body, err := DecodeResponse(payload)
		var we *Error
		switch {
		case err == nil:
		case errors.As(err, &we):
			if _, err2 := DecodeResponse(EncodeErr(we.Code, we.Msg)); !reflect.DeepEqual(err2, err) {
				t.Fatalf("error response is not a fixed point: %v, then %v", err, err2)
			}
			return
		case errors.Is(err, ErrMalformed):
			return
		default:
			t.Fatalf("DecodeResponse failed with %v, want *Error or ErrMalformed", err)
		}
		for name, decode := range decoders {
			var again []byte
			if got := allocatedBy(func() { again, err = decode(body) }); got > allocBound(body) {
				t.Fatalf("%s of %d bytes allocated %d", name, len(body), got)
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("%s failed with %v, want ErrMalformed", name, err)
				}
				continue
			}
			if third, err := decode(again); err != nil || !bytes.Equal(again, third) {
				t.Fatalf("%s is not a fixed point (%v):\n %x\n %x", name, err, again, third)
			}
		}
	})
}
