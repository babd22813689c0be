package main

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// churnTenant rewrites the tenant's keyspace for several generations and then
// deletes most keys one by one, so the tenant's page files hold far more
// bytes than the surviving entries need. Every keepEvery'th key survives,
// with the last generation's value. (Batched deletes would not do: their
// commits recycle the freed extents so well the files end up nearly compact
// on their own — many small commits fragment the layout the way long-lived
// churn does.)
func churnTenant(t *testing.T, c *wire.Client, tenant string, n, keepEvery int) {
	t.Helper()
	const chunk = 256
	for gen := 0; gen < 4; gen++ {
		for lo := 0; lo < n; lo += chunk {
			var ops []wire.BatchOp
			for i := lo; i < n && i < lo+chunk; i++ {
				val := []byte(fmt.Sprintf("gen-%d-%s", gen, tval(tenant, i)))
				ops = append(ops, wire.BatchOp{Key: tkey(tenant, i), Value: val})
			}
			if err := c.BatchCommit(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		if i%keepEvery == 0 {
			continue
		}
		if _, err := c.Delete(tkey(tenant, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

func clientStats(t *testing.T, c *wire.Client) ekbtree.Stats {
	t.Helper()
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var st ekbtree.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	return st
}

// TestWireVacuum drives the Vacuum op end to end: churn leaves the tenant's
// file oversized, the op compacts it online, the footprint drop is visible
// through the Stats op, and every surviving key still reads back.
func TestWireVacuum(t *testing.T) {
	ts := startTestServerTree(t, map[string][]byte{"alice": masterAlice},
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped})
	c := ts.dial(t, "alice")

	const n, keep = 1500, 8
	churnTenant(t, c, "alice", n, keep)

	before := clientStats(t, c)
	if before.FileBytes == 0 || before.LiveBytes == 0 {
		t.Fatalf("no footprint over the wire: %+v", before)
	}
	if before.FileBytes < before.LiveBytes*5/4 {
		t.Fatalf("churn created too little garbage: file=%d live=%d", before.FileBytes, before.LiveBytes)
	}

	if err := c.Vacuum(0); err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
	after := clientStats(t, c)
	if after.FileBytes >= before.FileBytes {
		t.Errorf("vacuum did not shrink the tenant: file %d -> %d", before.FileBytes, after.FileBytes)
	}

	// Content intact, including a key the deletes removed staying gone.
	for i := 0; i < n; i += keep {
		v, ok, err := c.Get(tkey("alice", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("gen-3-%s", tval("alice", i)) {
			t.Fatalf("Get(%d) after vacuum = (%q, %v, %v)", i, v, ok, err)
		}
	}
	if _, ok, err := c.Get(tkey("alice", 1)); err != nil || ok {
		t.Fatalf("deleted key resurfaced after vacuum: ok=%v err=%v", ok, err)
	}

	// A satisfied target is a no-op, and a second pass converges.
	if err := c.Vacuum(uint64(after.FileBytes) * 2); err != nil {
		t.Fatalf("satisfied-target Vacuum: %v", err)
	}

	// Vacuum requires Open, like every other data-plane op.
	bare := ts.dialAuthed(t, "alice")
	if err := bare.Vacuum(0); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("Vacuum before Open = %v, want CodeBadRequest", err)
	}
}

// TestAutoVacuum proves -auto-vacuum end to end: with a garbage threshold
// passed through to the tenant tree, a churned tenant's files shrink with no
// client issuing any Vacuum — and the data survives.
func TestAutoVacuum(t *testing.T) {
	ts := startTestServerTree(t, map[string][]byte{"alice": masterAlice},
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped, AutoVacuum: 0.15})
	c := ts.dial(t, "alice")

	const n, keep = 1500, 8
	churnTenant(t, c, "alice", n, keep)

	// The sweep may already have fired mid-churn, so there is no reliable
	// "before" footprint to compare against. The sweep's contract is the
	// steady state it converges to: without it the deletes leave the file
	// several times live size, so a footprint within 1.5x of live proves a
	// compaction ran.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := clientStats(t, c)
		if st.FileBytes > 0 && st.FileBytes < st.LiveBytes*3/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-vacuum never converged: file=%d live=%d", st.FileBytes, st.LiveBytes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < n; i += keep {
		v, ok, err := c.Get(tkey("alice", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("gen-3-%s", tval("alice", i)) {
			t.Fatalf("Get(%d) after auto-vacuum = (%q, %v, %v)", i, v, ok, err)
		}
	}
}

// TestVacuumOpString keeps the op's debug name wired up.
func TestVacuumOpString(t *testing.T) {
	if got := wire.OpVacuum.String(); got != "Vacuum" {
		t.Fatalf("OpVacuum.String() = %q", got)
	}
	m := &wire.Vacuum{Target: 42}
	if got := fmt.Sprintf("%T", m); got != "*wire.Vacuum" {
		t.Fatalf("unexpected type %s", got)
	}
}
