package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The frames below were rendered by the codec at 494c30d, before it appended
// into caller-owned buffers: WriteFrame over EncodeRequest for the thirteen
// FuzzDecodeRequest seeds, and over EncodeOK / EncodeErr for every response
// shape. The bytes on the wire must not move with the codec.

var goldenRequests = []struct {
	req   Request
	frame string
}{
	{&Hello{Version: ProtocolVersion, Tenant: "alice"}, "00000008010105616c696365"},
	{&Auth{Proof: bytes.Repeat([]byte{0x11}, 32)}, "0000002202201111111111111111111111111111111111111111111111111111111111111111"},
	{&Open{}, "0000000110"},
	{&Put{Key: []byte("k"), Value: []byte("v")}, "0000000511016b0176"},
	{&Get{Key: []byte("needle")}, "0000000812066e6565646c65"},
	{&Delete{Key: []byte("gone")}, "000000061304676f6e65"},
	{&BatchCommit{Ops: []BatchOp{{Key: []byte("a"), Value: []byte("1")}, {Del: true, Key: []byte("b")}}}, "0000000a14020001610131010162"},
	{&CursorOpen{HasLo: true, Lo: []byte("from"), HasHi: true, Hi: []byte("to")}, "0000000b15010466726f6d0102746f"},
	{&CursorNext{Cursor: 3, Max: 128}, "0000000416038001"},
	{&CursorClose{Cursor: 1 << 40}, "0000000717808080808020"},
	{&Stats{}, "0000000118"},
	{&Sync{}, "0000000119"},
	{&Vacuum{Target: 1 << 40}, "000000071a808080808020"},
}

var goldenEntries = []Entry{{SubKey: []byte("sk1"), Value: []byte("v1")}, {SubKey: []byte("sk2")}}

var goldenResponses = []struct {
	name   string
	body   []byte                // what EncodeOK wraps
	append func(b []byte) []byte // the same body appended in place
	frame  string
}{
	{"empty", nil, func(b []byte) []byte { return b }, "0000000100"},
	{"challenge", bytes.Repeat([]byte{0xC4}, ChallengeSize),
		func(b []byte) []byte { return append(b, bytes.Repeat([]byte{0xC4}, ChallengeSize)...) },
		"0000002100c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4c4"},
	{"get", EncodeGetBody([]byte("val"), true),
		func(b []byte) []byte { return AppendGetBody(b, []byte("val"), true) }, "0000000600010376616c"},
	{"get absent", EncodeGetBody(nil, false),
		func(b []byte) []byte { return AppendGetBody(b, nil, false) }, "000000020000"},
	{"found", AppendFoundBody(nil, true),
		func(b []byte) []byte { return AppendFoundBody(b, true) }, "000000020001"},
	{"not found", AppendFoundBody(nil, false),
		func(b []byte) []byte { return AppendFoundBody(b, false) }, "000000020000"},
	{"cursor id", EncodeCursorIDBody(123456),
		func(b []byte) []byte { return AppendCursorIDBody(b, 123456) }, "0000000400c0c407"},
	// The server reserves the count for the most entries the request allows,
	// so End has to move the entries down onto a shorter count.
	{"entries", EncodeEntriesBody(goldenEntries, true),
		func(b []byte) []byte {
			var body EntriesBody
			b = body.Begin(b, 4096)
			for _, e := range goldenEntries {
				b = body.Append(b, e.SubKey, e.Value)
			}
			return body.End(b, true)
		}, "0000000f000203736b3102763103736b320001"},
	{"no entries", EncodeEntriesBody(nil, false),
		func(b []byte) []byte {
			var body EntriesBody
			return body.End(body.Begin(b, 200), false)
		}, "00000003000000"},
	{"bytes", AppendBytesBody(nil, []byte(`{"keys":1}`)),
		func(b []byte) []byte { return AppendBytesBody(b, []byte(`{"keys":1}`)) }, "0000000c000a7b226b657973223a317d"},
}

var goldenErrors = []struct {
	code  ErrCode
	msg   string
	frame string
}{
	{CodeAuth, "authentication failed", "0000001801011561757468656e7469636174696f6e206661696c6564"},
	{CodeSealsExhausted, "", "00000003010a00"},
}

// TestGoldenFrames holds the appenders and the wrappers over them to the
// frames the parent's codec wrote. Each appender writes after a prefix, as
// into a reused buffer, and the prefix must survive.
func TestGoldenFrames(t *testing.T) {
	prefix := []byte("stale")
	check := func(name string, want string, frame []byte, payload []byte) {
		t.Helper()
		if !bytes.HasPrefix(frame, prefix) {
			t.Fatalf("%s: the appender overwrote what dst held", name)
		}
		frame = frame[len(prefix):]
		if err := EndFrame(frame); err != nil {
			t.Fatalf("%s: EndFrame: %v", name, err)
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Errorf("%s: appended frame\n got %s\nwant %s", name, got, want)
		}
		var w bytes.Buffer
		if err := WriteFrame(&w, payload); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(w.Bytes()); got != want {
			t.Errorf("%s: wrapper frame\n got %s\nwant %s", name, got, want)
		}
	}
	for _, g := range goldenRequests {
		name := g.req.op().String()
		check(name, g.frame, AppendRequest(bytes.Clone(prefix), g.req), EncodeRequest(g.req))
	}
	for _, g := range goldenResponses {
		check("OK "+g.name, g.frame, g.append(AppendOK(bytes.Clone(prefix))), EncodeOK(g.body))
	}
	for _, g := range goldenErrors {
		check("Err "+g.code.String(), g.frame, AppendErr(bytes.Clone(prefix), g.code, g.msg), AppendErr(nil, g.code, g.msg)[frameHeader:])
	}
}
