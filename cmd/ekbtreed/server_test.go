package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// testServer bundles an in-process server with its provisioning state.
type testServer struct {
	srv     *server
	addr    string
	dataDir string
	masters map[string][]byte
}

// startTestServer provisions the given tenants (name → master key), starts a
// server on a loopback port, and registers a drain as cleanup.
func startTestServer(t *testing.T, masters map[string][]byte, mut ...func(*serverConfig)) *testServer {
	t.Helper()
	return startTestServerTree(t, masters, ekbtree.Options{Durability: ekbtree.DurabilityGrouped}, mut...)
}

// startTestServerTree is startTestServer with an explicit tree configuration
// (epoch-age bound, durability, seal budget).
func startTestServerTree(t *testing.T, masters map[string][]byte, tcfg ekbtree.Options, mut ...func(*serverConfig)) *testServer {
	t.Helper()
	dataDir := t.TempDir()
	tenantsPath := filepath.Join(dataDir, "tenants.json")
	for name, master := range masters {
		if err := provisionTenant(tenantsPath, name, fmt.Sprintf("%x", master)); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := loadRegistry(tenantsPath, dataDir, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{
		maxConns:     64,
		drainTimeout: 5 * time.Second,
		logf:         func(string, ...any) {},
	}
	for _, m := range mut {
		m(&cfg)
	}
	srv := newServer(ln, reg, cfg)
	go srv.serve()
	t.Cleanup(func() { srv.drain() })
	return &testServer{srv: srv, addr: ln.Addr().String(), dataDir: dataDir, masters: masters}
}

// dial opens an authenticated, Opened client for tenant.
func (ts *testServer) dial(t *testing.T, tenant string) *wire.Client {
	t.Helper()
	c := ts.dialAuthed(t, tenant)
	if err := c.Open(); err != nil {
		t.Fatalf("Open(%s): %v", tenant, err)
	}
	return c
}

// dialAuthed opens an authenticated client without issuing Open.
func (ts *testServer) dialAuthed(t *testing.T, tenant string) *wire.Client {
	t.Helper()
	m, err := ekbtree.DeriveMaterial(ts.masters[tenant])
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(ts.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Handshake(tenant, m.AuthKey); err != nil {
		t.Fatalf("Handshake(%s): %v", tenant, err)
	}
	return c
}

var (
	masterAlice = bytes.Repeat([]byte{0xA1}, 32)
	masterBob   = bytes.Repeat([]byte{0xB2}, 32)
)

// TestE2ETwoTenants is the acceptance end-to-end: two tenants driven
// concurrently over real TCP connections — puts, gets, deletes, batch
// commits, cursor streaming — with tenant isolation and point-in-time
// snapshot semantics checked over the wire.
func TestE2ETwoTenants(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice, "bob": masterBob})

	const perTenant = 300
	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			c := ts.dial(t, tenant)

			// Point ops.
			for i := 0; i < perTenant/2; i++ {
				if err := c.Put(tkey(tenant, i), tval(tenant, i)); err != nil {
					t.Errorf("%s put %d: %v", tenant, i, err)
					return
				}
			}
			// Batch commit for the other half, plus a delete-and-restage.
			var ops []wire.BatchOp
			for i := perTenant / 2; i < perTenant; i++ {
				ops = append(ops, wire.BatchOp{Key: tkey(tenant, i), Value: tval(tenant, i)})
			}
			ops = append(ops, wire.BatchOp{Del: true, Key: tkey(tenant, 0)})
			ops = append(ops, wire.BatchOp{Key: tkey(tenant, 0), Value: tval(tenant, 0)})
			if err := c.BatchCommit(ops); err != nil {
				t.Errorf("%s batch: %v", tenant, err)
				return
			}
			// Reads see the writes.
			for i := 0; i < perTenant; i += 37 {
				v, ok, err := c.Get(tkey(tenant, i))
				if err != nil || !ok || !bytes.Equal(v, tval(tenant, i)) {
					t.Errorf("%s get %d: %q %v %v", tenant, i, v, ok, err)
					return
				}
			}
			// Delete round-trips.
			if found, err := c.Delete(tkey(tenant, 7)); err != nil || !found {
				t.Errorf("%s delete: %v %v", tenant, found, err)
				return
			}
			if _, ok, _ := c.Get(tkey(tenant, 7)); ok {
				t.Errorf("%s: deleted key still visible", tenant)
				return
			}
			if err := c.Put(tkey(tenant, 7), tval(tenant, 7)); err != nil {
				t.Errorf("%s re-put: %v", tenant, err)
			}
		}(tenant)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cursor streaming: each tenant sees exactly its own entries — tenant
	// counts prove namespace isolation (values are tenant-tagged).
	for _, tenant := range []string{"alice", "bob"} {
		c := ts.dial(t, tenant)
		entries := streamAll(t, c, 57)
		if len(entries) != perTenant {
			t.Fatalf("%s cursor streamed %d entries, want %d", tenant, len(entries), perTenant)
		}
		tag := []byte(tenant + "/")
		for _, e := range entries {
			if !bytes.HasPrefix(e.Value, tag) {
				t.Fatalf("%s cursor leaked foreign value %q", tenant, e.Value)
			}
		}
	}

	// Cross-tenant reads come back empty: alice's keys do not exist in
	// bob's namespace.
	bobC := ts.dial(t, "bob")
	if _, ok, err := bobC.Get(tkey("alice", 3)); err != nil || ok {
		t.Fatalf("bob sees alice's key: ok=%v err=%v", ok, err)
	}

	// Tenant A's key cannot authenticate as tenant B.
	mAlice, _ := ekbtree.DeriveMaterial(masterAlice)
	cross, err := wire.Dial(ts.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cross.Close()
	if err := cross.Handshake("bob", mAlice.AuthKey); !wire.IsCode(err, wire.CodeAuth) {
		t.Fatalf("alice's key authenticating as bob: %v, want CodeAuth", err)
	}

	// Stats over the wire decode into ekbtree.Stats (shared JSON schema).
	statC := ts.dial(t, "alice")
	raw, err := statC.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var stats ekbtree.Stats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats JSON %s: %v", raw, err)
	}
	if stats.Keys != perTenant {
		t.Fatalf("alice stats keys = %d, want %d", stats.Keys, perTenant)
	}
	if err := statC.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestCursorSnapshotOverWire proves point-in-time semantics across the wire:
// a cursor opened before concurrent writes streams exactly the pre-write
// state, even though the writes commit (and are visible to Gets) while the
// cursor is still being consumed.
func TestCursorSnapshotOverWire(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	writer := ts.dial(t, "alice")

	const before = 120
	for i := 0; i < before; i++ {
		if err := writer.Put(tkey("snap", i), tval("snap", i)); err != nil {
			t.Fatal(err)
		}
	}

	reader := ts.dial(t, "alice")
	cur, err := reader.CursorOpen(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Consume a little, then land more writes through the other connection.
	got, done, err := reader.CursorNext(cur, 10)
	if err != nil || done {
		t.Fatalf("first CursorNext: %d entries done=%v err=%v", len(got), done, err)
	}
	count := len(got)
	for i := before; i < before+80; i++ {
		if err := writer.Put(tkey("snap", i), tval("snap", i)); err != nil {
			t.Fatal(err)
		}
	}
	// New writes are visible to fresh reads on the same tree...
	if _, ok, err := writer.Get(tkey("snap", before)); err != nil || !ok {
		t.Fatalf("post-snapshot write invisible to Get: %v %v", ok, err)
	}
	// ...but the wire cursor still streams the snapshot it pinned.
	for !done {
		var batch []wire.Entry
		batch, done, err = reader.CursorNext(cur, 33)
		if err != nil {
			t.Fatal(err)
		}
		count += len(batch)
	}
	if count != before {
		t.Fatalf("snapshot cursor streamed %d entries, want %d (writes leaked in)", count, before)
	}
	// The exhausted cursor was auto-closed server-side.
	if _, _, err := reader.CursorNext(cur, 1); !wire.IsCode(err, wire.CodeUnknownCursor) {
		t.Fatalf("exhausted cursor still open: %v", err)
	}
}

// TestCursorRangeAndCloseOverWire exercises bounded cursors and explicit
// close.
func TestCursorRangeAndCloseOverWire(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	c := ts.dial(t, "alice")
	for i := 0; i < 50; i++ {
		if err := c.Put(tkey("r", i), tval("r", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A bounded range over a PRF substituter is a substituted-order
	// interval; just prove it opens, streams a subset, and closes.
	cur, err := c.CursorOpen(tkey("r", 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, done, err := c.CursorNext(cur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		if err := c.CursorClose(cur); err != nil {
			t.Fatal(err)
		}
		// Closed cursor is gone.
		if _, _, err := c.CursorNext(cur, 1); !wire.IsCode(err, wire.CodeUnknownCursor) {
			t.Fatalf("closed cursor still streams: %v", err)
		}
	}
	_ = entries
	// Double-close is harmless.
	if err := c.CursorClose(cur); err != nil {
		t.Fatalf("double CursorClose: %v", err)
	}
}

// TestConnLimit: connections beyond -max-conns are refused with the typed
// code.
func TestConnLimit(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice},
		func(cfg *serverConfig) { cfg.maxConns = 1 })
	_ = ts.dial(t, "alice") // occupies the single slot

	m, _ := ekbtree.DeriveMaterial(masterAlice)
	c2, err := wire.Dial(ts.addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Handshake("alice", m.AuthKey); !wire.IsCode(err, wire.CodeConnLimit) {
		t.Fatalf("over-limit handshake: %v, want CodeConnLimit", err)
	}
}

// TestDataOpsRequireOpen: authenticated but un-Opened connections get
// CodeBadRequest for data ops.
func TestDataOpsRequireOpen(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice})
	c := ts.dialAuthed(t, "alice")
	if err := c.Put([]byte("k"), []byte("v")); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("Put before Open: %v, want CodeBadRequest", err)
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put after Open: %v", err)
	}
}

// TestPersistenceAcrossServerRestart: a drained server flushes tenant trees;
// a new server over the same data directory serves the same data.
func TestPersistenceAcrossServerRestart(t *testing.T) {
	masters := map[string][]byte{"alice": masterAlice}
	ts := startTestServer(t, masters)
	c := ts.dial(t, "alice")
	for i := 0; i < 20; i++ {
		if err := c.Put(tkey("p", i), tval("p", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := ts.srv.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Second server over the same data dir and tenants file.
	reg, err := loadRegistry(filepath.Join(ts.dataDir, "tenants.json"), ts.dataDir,
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(ln, reg, serverConfig{drainTimeout: 5 * time.Second, logf: func(string, ...any) {}})
	go srv2.serve()
	defer srv2.drain()

	ts2 := &testServer{srv: srv2, addr: ln.Addr().String(), dataDir: ts.dataDir, masters: masters}
	c2 := ts2.dial(t, "alice")
	v, ok, err := c2.Get(tkey("p", 13))
	if err != nil || !ok || !bytes.Equal(v, tval("p", 13)) {
		t.Fatalf("reopened tenant: %q %v %v", v, ok, err)
	}
}

func tkey(tenant string, i int) []byte {
	return []byte(fmt.Sprintf("%s/key-%06d", tenant, i))
}

func tval(tenant string, i int) []byte {
	return []byte(fmt.Sprintf("%s/value-%06d", tenant, i))
}

// streamAll drains a full-tree cursor in batches of batchSize.
func streamAll(t *testing.T, c *wire.Client, batchSize int) []wire.Entry {
	t.Helper()
	cur, err := c.CursorOpen(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []wire.Entry
	for {
		entries, done, err := c.CursorNext(cur, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, entries...)
		if done {
			return all
		}
	}
}

// TestProvisionTenant checks the provisioning round trip and file handling.
func TestProvisionTenant(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := provisionTenant(path, "alice", fmt.Sprintf("%x", masterAlice)); err != nil {
		t.Fatal(err)
	}
	if err := provisionTenant(path, "bob", fmt.Sprintf("%x", masterBob)); err != nil {
		t.Fatal(err)
	}
	// Re-provisioning replaces, not duplicates.
	if err := provisionTenant(path, "alice", fmt.Sprintf("%x", masterAlice)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Fatalf("tenants file mode %v, want 0600", perm)
	}
	reg, err := loadRegistry(path, dir, ekbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.tenants) != 2 {
		t.Fatalf("registry has %d tenants, want 2", len(reg.tenants))
	}
	// The stored material matches client-side derivation.
	m, _ := ekbtree.DeriveMaterial(masterAlice)
	if !bytes.Equal(reg.lookup("alice").material.AuthKey, m.AuthKey) {
		t.Fatal("provisioned auth key does not match derivation")
	}
	// Bad names are rejected.
	if err := provisionTenant(path, "../evil", fmt.Sprintf("%x", masterAlice)); err == nil {
		t.Fatal("path-traversal tenant name accepted")
	}
}

// TestSnapshotTooOldOverWire: with -max-epoch-age set, a wire cursor left
// open across too many commits fails its next read with the typed
// CodeSnapshotTooOld and is closed server-side.
func TestSnapshotTooOldOverWire(t *testing.T) {
	ts := startTestServerTree(t, map[string][]byte{"alice": masterAlice},
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped, MaxEpochAge: 2})
	writer := ts.dial(t, "alice")
	for i := 0; i < 100; i++ {
		if err := writer.Put(tkey("a", i), tval("a", i)); err != nil {
			t.Fatal(err)
		}
	}

	reader := ts.dial(t, "alice")
	cur, err := reader.CursorOpen(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := reader.CursorNext(cur, 10); err != nil || done {
		t.Fatalf("fresh cursor: done=%v err=%v", done, err)
	}
	// Age the snapshot past the bound with commits on another connection.
	for i := 0; i < 5; i++ {
		if err := writer.Put(tkey("b", i), tval("b", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := reader.CursorNext(cur, 10); !wire.IsCode(err, wire.CodeSnapshotTooOld) {
		t.Fatalf("stale cursor read: %v, want CodeSnapshotTooOld", err)
	}
	// The server dropped the stale cursor.
	if _, _, err := reader.CursorNext(cur, 1); !wire.IsCode(err, wire.CodeUnknownCursor) {
		t.Fatalf("stale cursor still open: %v, want CodeUnknownCursor", err)
	}
	// The connection itself is fine: a fresh cursor streams everything.
	if got := streamAll(t, reader, 50); len(got) != 105 {
		t.Fatalf("fresh cursor after staleness streamed %d entries, want 105", len(got))
	}
}
