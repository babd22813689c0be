package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/engine"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// TestSealsExhaustedOverWire forces the fail-closed path end to end: a tenant
// tree with rotation disabled whose epoch has 12 seals left before the hard
// bound must start refusing writes with CodeSealsExhausted over the wire,
// while reads keep serving. The tenant's file is made before the server opens
// it, its seal mark recorded 12 counters short of the engine's default bound,
// where the tree resumes issuing.
func TestSealsExhaustedOverWire(t *testing.T) {
	ts := startTestServerTree(t, map[string][]byte{"alice": masterAlice},
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped, SealBudget: -1})
	path := filepath.Join(ts.dataDir, "alice.ekbt")
	tr, err := ekbtree.Open(ekbtree.Options{MasterKey: masterAlice, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := file.OpenConfig(path, file.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetSealMark(store.SealMark{Counter: engine.DefaultHardSealLimit - 12}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c := ts.dial(t, "alice")

	if err := c.Put([]byte("first"), []byte("v")); err != nil {
		t.Fatalf("first put: %v", err)
	}
	var exhausted error
	for i := 0; i < 64; i++ {
		if err := c.Put([]byte(fmt.Sprintf("fill-%02d", i)), []byte("v")); err != nil {
			exhausted = err
			break
		}
	}
	if exhausted == nil {
		t.Fatal("64 puts against a 12-seal hard bound all succeeded")
	}
	if !wire.IsCode(exhausted, wire.CodeSealsExhausted) {
		t.Fatalf("exhausted write failed with %v, want CodeSealsExhausted", exhausted)
	}
	if !strings.Contains(exhausted.Error(), "seal") {
		t.Fatalf("exhaustion error %q does not mention seals", exhausted)
	}
	// Fail closed means writes stop; reads must not.
	if v, ok, err := c.Get([]byte("first")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after exhaustion = (%q, %v, %v)", v, ok, err)
	}
	// Still exhausted on retry — the bound is a wall, not a hiccup.
	if err := c.Put([]byte("again"), []byte("v")); !wire.IsCode(err, wire.CodeSealsExhausted) {
		t.Fatalf("retry after exhaustion = %v, want CodeSealsExhausted", err)
	}
}

// TestSealBudgetRotatesOverWire drives a tenant with a tiny soft budget and
// watches the server-side epoch machinery through the Stats RPC: the cipher
// epoch advances past zero and the background rotator drains the backlog of
// old-epoch pages while the tenant keeps writing.
func TestSealBudgetRotatesOverWire(t *testing.T) {
	ts := startTestServerTree(t, map[string][]byte{"alice": masterAlice},
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped, SealBudget: 16})
	c := ts.dial(t, "alice")

	for i := 0; i < 60; i++ {
		if err := c.Put([]byte(fmt.Sprintf("rot-%03d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	stats := func() ekbtree.Stats {
		t.Helper()
		raw, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var s ekbtree.Stats
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("stats json: %v", err)
		}
		return s
	}
	if s := stats(); s.CipherEpoch == 0 {
		t.Fatalf("60 puts against budget 16 left the cipher epoch at 0 (stats %+v)", s)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := stats(); s.PagesPendingReseal == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotation never drained over the wire: %+v", stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The tree is fully re-sealed under the current epoch and still serves.
	if v, ok, err := c.Get([]byte("rot-000")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after rotation = (%q, %v, %v)", v, ok, err)
	}
}

// TestProvisionTenantAtomicity checks the crash-safe provisioning path: the
// rewrite goes through a temp file that never survives, and a provision layered
// over an existing file leaves a fully parseable result with every prior
// tenant intact.
func TestProvisionTenantAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		if err := provisionTenant(path, name, fmt.Sprintf("%x", masterAlice)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s survived provisioning", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("provisioning left %d files in the directory, want only tenants.json", len(entries))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Fatalf("tenants file mode %v, want 0600 (live key material)", perm)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf tenantsFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("rewritten tenants file does not parse: %v", err)
	}
	if len(tf.Tenants) != 8 {
		t.Fatalf("tenants file holds %d entries after 8 provisions, want 8", len(tf.Tenants))
	}
}
