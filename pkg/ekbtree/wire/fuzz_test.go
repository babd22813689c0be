package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

// rereadAfterLonger returns payload as a connection end sees it: read into a
// buffer that a longer, different frame was read into first, so that a
// decoder trusting anything past the payload, or a stale byte of the buffer,
// answers differently than on a fresh copy. ok is false if payload is too
// large to frame.
func rereadAfterLonger(payload []byte) (reread []byte, ok bool) {
	longer := append(bytes.Clone(payload), 0xA5, 0x5A, 0xFF, 0x00, 0x80)
	for i := range longer {
		longer[i] ^= 0xFF
	}
	var stream bytes.Buffer
	if WriteFrame(&stream, longer) != nil || WriteFrame(&stream, payload) != nil {
		return nil, false
	}
	buf, err := ReadFrameInto(&stream, nil, MaxFrame)
	if err != nil {
		panic(err)
	}
	if buf, err = ReadFrameInto(&stream, buf, MaxFrame); err != nil {
		panic(err)
	}
	return buf, true
}

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
		if reread, ok := rereadAfterLonger(payload); ok {
			req2, err2 := DecodeRequest(reread)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("a fresh decode says %v, a decode in a reused buffer %v", err, err2)
			}
			if err == nil && !bytes.Equal(EncodeRequest(req), EncodeRequest(req2)) {
				t.Fatalf("%s decodes differently in a reused buffer", req.op())
			}
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
		AppendFoundBody(nil, true),
		EncodeCursorIDBody(123456),
		EncodeEntriesBody([]Entry{{SubKey: []byte("sk1"), Value: []byte("v1")}, {SubKey: []byte("sk2")}}, true),
		EncodeEntriesBody(nil, false),
		AppendBytesBody(nil, []byte(`{"keys":1}`)),
		appendUvarint(nil, MaxFrame/2),
	} {
		f.Add(EncodeOK(body))
	}
	f.Add(AppendErr(nil, CodeAuth, "authentication failed")[frameHeader:])
	f.Add(AppendErr(nil, CodeSealsExhausted, "")[frameHeader:])

	// Each body decoder, answering with what it decoded encoded again.
	decoders := map[string]func(body []byte) ([]byte, error){
		"DecodeGetBody": func(body []byte) ([]byte, error) {
			value, found, err := DecodeGetBody(body)
			return EncodeGetBody(value, found), err
		},
		"DecodeFoundBody": func(body []byte) ([]byte, error) {
			found, err := DecodeFoundBody(body)
			return AppendFoundBody(nil, found), err
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
			return AppendBytesBody(nil, blob), err
		},
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		body, err := DecodeResponse(payload)
		reread, rereadOK := rereadAfterLonger(payload)
		var body2 []byte
		if rereadOK {
			var err2 error
			if body2, err2 = DecodeResponse(reread); (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
				t.Fatalf("a fresh decode says %v, a decode in a reused buffer %v", err, err2)
			}
		}
		var we *Error
		switch {
		case err == nil:
		case errors.As(err, &we):
			if _, err2 := DecodeResponse(AppendErr(nil, we.Code, we.Msg)[frameHeader:]); !reflect.DeepEqual(err2, err) {
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
		if !rereadOK {
			return
		}
		for name, decode := range decoders {
			want, wantErr := decode(body)
			got, gotErr := decode(body2)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && !bytes.Equal(want, got)) {
				t.Fatalf("%s in a reused buffer: %x (%v), fresh: %x (%v)", name, got, gotErr, want, wantErr)
			}
		}
	})
}

// FuzzReadFrame drives an arbitrary byte stream through one reused buffer, the
// way both ends of a connection read it. ReadFrameInto must never panic, must
// return frame for frame what a fresh ReadFrame over the same stream returns,
// and must pay for payload only as it arrives: a call allocates at most twice
// the bytes it consumed plus 64 KiB. A declared length that never arrives
// fails with io.ErrUnexpectedEOF without allocating that length; such a cut
// off frame may have doubled its buffer once more than the bytes that came
// can fill, so its bound is four times what it consumed plus 64 KiB.
func FuzzReadFrame(f *testing.F) {
	frame := func(p []byte) []byte { return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...) }
	f.Add(frame(nil))
	f.Add(append(frame(bytes.Repeat([]byte{0xAB}, 300)), frame([]byte{1, 2})...)) // long, then short
	f.Add(append(frame(EncodeRequest(&Get{Key: []byte("k")})), frame(EncodeOK(EncodeGetBody([]byte("v"), true)))...))
	f.Add([]byte{0x00, 0x40, 0x00, 0x00, 0x01}) // MaxFrame declared, one byte sent
	f.Add([]byte{0x00, 0x00, 0x01})             // a cut off length word
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}) // past MaxFrame

	f.Fuzz(func(t *testing.T, stream []byte) {
		reused, fresh := bytes.NewReader(stream), bytes.NewReader(stream)
		var buf []byte
		for {
			before := reused.Len()
			var err error
			alloc := allocatedBy(func() { buf, err = ReadFrameInto(reused, buf, MaxFrame) })
			consumed := uint64(before - reused.Len())
			want, wantErr := ReadFrame(fresh)
			if err != wantErr || !bytes.Equal(buf, want) {
				t.Fatalf("reused buffer read %x (%v), a fresh ReadFrame %x (%v)", buf, err, want, wantErr)
			}
			bound := 2*consumed + 64<<10
			if err == io.ErrUnexpectedEOF {
				bound = 4*consumed + 64<<10
			}
			if alloc > bound {
				t.Fatalf("a read that consumed %d bytes allocated %d (%v)", consumed, alloc, err)
			}
			switch {
			case err == nil:
			case err == io.EOF && before == 0, err == io.ErrUnexpectedEOF, err == ErrFrameTooLarge:
				return
			default:
				t.Fatalf("ReadFrameInto failed with %v after %d of %d bytes", err, len(stream)-before, len(stream))
			}
		}
	})
}
