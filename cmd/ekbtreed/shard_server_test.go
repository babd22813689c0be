package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// TestShardedTenantOverWire runs a tenant on a 3-shard tree end to end: the
// routed ops and cross-shard cursor behave identically over the wire, Stats
// reports the shard count through the shared JSON schema, the per-shard page
// files land on disk, and a restarted server with the same -shards serves
// the same data while a mismatched -shards fails the tenant's Open closed.
func TestShardedTenantOverWire(t *testing.T) {
	masters := map[string][]byte{"alice": masterAlice}
	tcfg := ekbtree.Options{Durability: ekbtree.DurabilityGrouped, Shards: 3}
	ts := startTestServerTree(t, masters, tcfg)
	c := ts.dial(t, "alice")

	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Put(tkey("s", i), tval("s", i)); err != nil {
			t.Fatal(err)
		}
	}
	var ops []wire.BatchOp
	for i := 0; i < 40; i += 2 {
		ops = append(ops, wire.BatchOp{Del: true, Key: tkey("s", i)})
	}
	if err := c.BatchCommit(ops); err != nil {
		t.Fatal(err)
	}
	want := n - 20

	// The cross-shard cursor streams one globally ordered stream of exactly the
	// live entries.
	entries := streamAll(t, c, 33)
	if len(entries) != want {
		t.Fatalf("sharded cursor streamed %d entries, want %d", len(entries), want)
	}
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i].SubKey, entries[i-1].SubKey) <= 0 {
			t.Fatalf("sharded cursor out of order at entry %d", i)
		}
	}

	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var stats ekbtree.Stats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats JSON %s: %v", raw, err)
	}
	if stats.Shards != 3 {
		t.Fatalf("wire stats Shards = %d, want 3", stats.Shards)
	}
	if stats.Keys != want {
		t.Fatalf("wire stats Keys = %d, want %d", stats.Keys, want)
	}

	// Drain flushes and closes all three shards; the files are on disk.
	c.Close()
	if err := ts.srv.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	base := filepath.Join(ts.dataDir, "alice.ekbt")
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(base + ".shard" + string(rune('0'+i))); err != nil {
			t.Fatalf("shard file %d missing after drain: %v", i, err)
		}
	}

	// Restart with the same shard count: same data.
	restart := func(tc ekbtree.Options) *testServer {
		t.Helper()
		reg, err := loadRegistry(filepath.Join(ts.dataDir, "tenants.json"), ts.dataDir, tc)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(ln, reg, serverConfig{drainTimeout: 5 * time.Second, logf: func(string, ...any) {}})
		go srv.serve()
		t.Cleanup(func() { srv.drain() })
		return &testServer{srv: srv, addr: ln.Addr().String(), dataDir: ts.dataDir, masters: masters}
	}
	ts2 := restart(tcfg)
	c2 := ts2.dial(t, "alice")
	if v, ok, err := c2.Get(tkey("s", 13)); err != nil || !ok || !bytes.Equal(v, tval("s", 13)) {
		t.Fatalf("restarted sharded tenant: %q %v %v", v, ok, err)
	}
	c2.Close()
	if err := ts2.srv.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Restart with a different shard count: the tenant's Open fails closed
	// (the shard layout is sealed into its files).
	ts3 := restart(ekbtree.Options{Durability: ekbtree.DurabilityGrouped, Shards: 2})
	c3 := ts3.dialAuthed(t, "alice")
	if err := c3.Open(); err == nil {
		t.Fatal("Open of a 3-shard tenant under -shards 2 succeeded; want config mismatch")
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
