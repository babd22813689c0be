package engine

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestSupersededEpochsAreCollected: nothing but a pin, and the epochs older
// still, reaches an epoch older than current, so the garbage collector takes
// a superseded epoch and its undo overlay once its pins are gone — even a pin
// leaked by a Snapshot dropped without Close — while an open Snapshot keeps
// every later epoch it reads through alive. The release that leaves the
// engine with no pins drops current's own overlay, which only older pins
// read.
func TestSupersededEpochsAreCollected(t *testing.T) {
	t.Run("dropped snapshot", func(t *testing.T) {
		g := newTestEngine(t, file.NewMem(), 8)
		defer g.Close()
		putKeys(t, g, 200, "v1")
		func() {
			if _, err := g.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}()
		if err := enginePut(g, []byte("k0000"), []byte("v2")); err != nil {
			t.Fatal(err)
		}
		after := weak.Make(g.es.current.Load())
		putKeys(t, g, 300, "v3")
		runtime.GC()
		if after.Value() != nil {
			t.Fatal("an epoch published after a dropped snapshot outlived 300 later commits")
		}
	})

	t.Run("no pins", func(t *testing.T) {
		g := newTestEngine(t, file.NewMem(), 8)
		defer g.Close()
		putKeys(t, g, 200, "v1")
		prev := weak.Make(g.es.current.Load())
		if err := enginePut(g, []byte("k0100"), []byte("v2")); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if prev.Value() != nil {
			t.Fatal("with no pins, the epoch a Put superseded was not collected")
		}
		if g.es.current.Load().undo != nil {
			t.Fatal("with no pins, current's undo overlay was kept")
		}
	})

	t.Run("open snapshot", func(t *testing.T) {
		g := newTestEngine(t, file.NewMem(), 8)
		defer g.Close()
		putKeys(t, g, 200, "v1")
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if err := enginePut(g, []byte("k0000"), []byte("v2")); err != nil {
			t.Fatal(err)
		}
		after := weak.Make(g.es.current.Load())
		putKeys(t, g, 200, "v3")
		runtime.GC()
		e := after.Value()
		if e == nil {
			t.Fatal("an epoch an open snapshot reads through was collected")
		}
		if e.undo == nil {
			t.Fatal("an epoch an open snapshot reads through lost its undo overlay")
		}
		got, err := snapshotContents(snap)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if k := fmt.Sprintf("k%04d", i); got[k] != "v1" {
				t.Fatalf("snapshot reads %s = %q, want v1", k, got[k])
			}
		}
		if len(got) != 200 {
			t.Fatalf("snapshot holds %d keys, want 200", len(got))
		}
	})
}
