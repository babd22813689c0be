package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// isTransportErr reports whether err is a transport-level failure (EOF,
// reset, closed) rather than a served protocol response.
func isTransportErr(err error) bool {
	if err == nil {
		return false
	}
	var we *wire.Error
	return !errors.As(err, &we)
}

// failedHandshake runs a handshake expected to fail, returning the server's
// typed error and whether the server closed the connection afterwards.
func failedHandshake(t *testing.T, addr, tenant string, authKey []byte) (*wire.Error, bool) {
	t.Helper()
	c, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Handshake(tenant, authKey)
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("handshake error %v is not a wire error", err)
	}
	// Probe: on a closed connection the next request dies on transport, not
	// with a served response.
	_, probeErr := c.Stats()
	return we, isTransportErr(probeErr)
}

// TestAuthFailurePaths is the auth satellite: a wrong tenant key fails the
// challenge with a generic auth error — indistinguishable from an unknown
// tenant, with no ErrWrongKey detail leaking — the tenant's tree is never
// opened, and the connection is closed.
func TestAuthFailurePaths(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})

	wrongMaterial, err := ekbtree.DeriveMaterial(bytes.Repeat([]byte{0xEE}, 32))
	if err != nil {
		t.Fatal(err)
	}

	// Wrong key for an existing tenant.
	wrongKeyErr, closed := failedHandshake(t, ts.addr, "alice", wrongMaterial.AuthKey)
	if wrongKeyErr.Code != wire.CodeAuth {
		t.Fatalf("wrong key: code %v, want CodeAuth", wrongKeyErr.Code)
	}
	if !closed {
		t.Fatal("connection survived a failed handshake")
	}
	// No oracle in the message: exactly the generic text, no engine
	// wrong-key detail.
	if msg := wrongKeyErr.Msg; msg != "authentication failed" {
		t.Fatalf("auth failure message %q leaks detail (want the generic message)", msg)
	}

	// Unknown tenant: byte-for-byte the same generic failure.
	unknownErr, closed := failedHandshake(t, ts.addr, "mallory", wrongMaterial.AuthKey)
	if !closed {
		t.Fatal("connection survived a failed handshake (unknown tenant)")
	}
	if unknownErr.Code != wrongKeyErr.Code || unknownErr.Msg != wrongKeyErr.Msg {
		t.Fatalf("unknown-tenant failure (%v %q) differs from wrong-key failure (%v %q): tenant-existence oracle",
			unknownErr.Code, unknownErr.Msg, wrongKeyErr.Code, wrongKeyErr.Msg)
	}

	// The failed handshakes never opened (or created) any tree: the data
	// directory holds only the tenants file.
	entries, err := os.ReadDir(ts.dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "tenants.json" {
			t.Fatalf("failed auth created %s in the data dir — a tree was opened", e.Name())
		}
	}

	// And the registry agrees: no tenant tree is open server-side.
	for name, ten := range ts.srv.reg.tenants {
		ten.mu.Lock()
		open := ten.tree != nil
		ten.mu.Unlock()
		if open {
			t.Fatalf("tenant %s tree opened despite failed auth", name)
		}
	}

	// A correct key still works after the failures.
	c := ts.dial(t, "alice")
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeProtocolErrors: malformed handshakes are rejected cleanly and
// the connection does not survive them.
func TestHandshakeProtocolErrors(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})

	// A protocol version other than wire.ProtocolVersion — 1, whose Vacuum
	// carried a target, 0, or one from the future — is refused naming the
	// version, the connection closed, and the tenant's tree left unopened.
	for _, v := range []uint64{1, 0, 99} {
		nc := rawDial(t, ts.addr)
		if err := wire.WriteFrame(nc, wire.EncodeRequest(&wire.Hello{Version: v, Tenant: "alice"})); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wire.DecodeResponse(payload)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeBadRequest || !strings.Contains(we.Msg, fmt.Sprintf("version %d", v)) {
			t.Fatalf("Hello at version %d: %v, want CodeBadRequest naming the version", v, err)
		}
		if _, err := wire.ReadFrame(nc); err == nil {
			t.Fatalf("connection survived a Hello at version %d", v)
		}
	}
	ten := ts.srv.reg.lookup("alice")
	ten.mu.Lock()
	open := ten.tree != nil
	ten.mu.Unlock()
	if open {
		t.Fatal("a refused Hello opened the tenant's tree")
	}

	// A data op before Hello.
	nc2 := rawDial(t, ts.addr)
	if err := wire.WriteFrame(nc2, wire.EncodeRequest(&wire.Put{Key: []byte("k"), Value: []byte("v")})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(nc2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeResponse(payload); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("Put before Hello: %v, want CodeBadRequest", err)
	}
	// The connection is closed after the protocol error.
	if _, err := wire.ReadFrame(nc2); err == nil {
		t.Fatal("connection survived a pre-auth protocol error")
	}

	// Garbage bytes (undecodable frame payload) likewise get a clean typed
	// rejection.
	nc3 := rawDial(t, ts.addr)
	if err := wire.WriteFrame(nc3, []byte{0xff, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(nc3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeResponse(payload); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("garbage request: %v, want CodeBadRequest", err)
	}
}

// rawDial opens a bare TCP connection for protocol-level tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}
