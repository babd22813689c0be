package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/israce"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// TestServedRoundTripAllocs pins what the wire adds to a served op, client
// and server together in this process over loopback: a Get allocates the
// tree's two plus the decoded request and the client's copy of the value, a
// same-value re-Put the tree's three plus the decoded request. The parent of
// this test allocated 18 and 17: headers, payloads and bodies fresh at every
// step.
func TestServedRoundTripAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	c := ts.dial(t, "alice")
	const keys = 1000
	ops := make([]wire.BatchOp, keys)
	for i := range ops {
		ops[i] = wire.BatchOp{Key: tkey("a", i), Value: tval("a", i)}
	}
	if err := c.BatchCommit(ops); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	tree, err := ts.srv.reg.lookup("alice").openTree(ts.dataDir, ts.srv.reg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, val := tkey("a", keys/2), tval("a", keys/2)

	var failed error
	check := func(err error) {
		if err != nil {
			failed = err
		}
	}
	served := map[string]float64{
		"Get": testing.AllocsPerRun(500, func() {
			v, ok, err := c.Get(key)
			check(err)
			if !ok || !bytes.Equal(v, val) {
				check(fmt.Errorf("served Get = (%q, %v), want %q", v, ok, val))
			}
		}),
		"Put": testing.AllocsPerRun(500, func() { check(c.Put(key, val)) }),
	}
	inProcess := map[string]float64{
		"Get": testing.AllocsPerRun(500, func() { _, _, err := tree.Get(key); check(err) }),
		"Put": testing.AllocsPerRun(500, func() { check(tree.Put(key, val)) }),
	}
	if failed != nil {
		t.Fatal(failed)
	}
	for _, op := range []string{"Get", "Put"} {
		t.Logf("%s: served %v allocations (client and server), in-process Tree.%s %v", op, served[op], op, inProcess[op])
		if served[op] > 4 {
			t.Errorf("a served %s allocates %v objects, want at most 4", op, served[op])
		}
	}
}

// TestPreAuthFramesAllocateLittle is the regression test for a pre-auth
// amplification: a connection's first frame is read before the peer has
// proven anything, and a five-byte length word declaring a whole MaxFrame
// used to make the server allocate the 4 MiB it declared and hold it until
// the handshake deadline. A frame before authentication is now capped at
// maxPreAuthFrame and refused as a bad request.
func TestPreAuthFramesAllocateLittle(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	hostile := []byte{0x00, 0x40, 0x00, 0x00, 0x01}
	const conns = 16

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ncs := make([]net.Conn, conns)
	for i := range ncs {
		ncs[i] = rawDial(t, ts.addr)
		if _, err := ncs[i].Write(hostile); err != nil {
			t.Fatal(err)
		}
	}
	refused := 0
	for _, nc := range ncs {
		// The parent answered nothing: it sat on the 4 MiB waiting for the
		// payload, so this read times out there.
		nc.SetReadDeadline(time.Now().Add(time.Second))
		if payload, err := wire.ReadFrame(nc); err == nil {
			if _, err := wire.DecodeResponse(payload); wire.IsCode(err, wire.CodeBadRequest) {
				refused++
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d hostile connections: live heap grew %d bytes, %d refused", conns, grown, refused)
	if grown >= 1<<20 {
		t.Errorf("%d five-byte frames grew the server's live heap by %d bytes, want < 1 MB", conns, grown)
	}
	if refused != conns {
		t.Errorf("%d of %d oversized pre-auth frames were refused with CodeBadRequest", refused, conns)
	}
}
