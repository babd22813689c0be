package faulttest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func image(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func seeded(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScheduleDiesOrHeals walks the failure schedule: which operations count,
// what the failing write leaves, and what follows the fault.
func TestScheduleDiesOrHeals(t *testing.T) {
	t.Run("dies torn", func(t *testing.T) {
		path := seeded(t, "0123456789")
		f, err := open(path, 2, 3, KeepAll, Plan{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("AB"), 0); err != nil { // op 0
			t.Fatal(err)
		}
		if err := f.Truncate(9); err != nil { // not counted
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // op 1
			t.Fatal(err)
		}
		if n, err := f.WriteAt([]byte("CDEFG"), 2); n != 3 || !errors.Is(err, ErrInjected) { // op 2: the fault
			t.Fatalf("failing write = (%d, %v), want 3 torn bytes and ErrInjected", n, err)
		}
		if !f.Fired() || f.Ops() != 3 {
			t.Fatalf("Fired, Ops = %v, %d, want true, 3", f.Fired(), f.Ops())
		}
		// Dead: nothing more is counted, torn or done.
		if n, err := f.WriteAt([]byte("zz"), 0); n != 0 || err == nil {
			t.Fatalf("write to a dead file = (%d, %v)", n, err)
		}
		if f.Sync() == nil || f.Truncate(1) == nil {
			t.Fatal("a dead file synced or truncated")
		}
		got := make([]byte, 4)
		if _, err := f.ReadAt(got, 0); err != nil || string(got) != "ABCD" {
			t.Fatalf("ReadAt on a dead file = (%q, %v): reads keep working", got, err)
		}
		if f.Ops() != 3 {
			t.Fatalf("Ops after death = %d, want 3", f.Ops())
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got := image(t, path); got != "ABCDE5678" {
			t.Fatalf("file = %q, want ABCDE5678", got)
		}
	})
	t.Run("heals", func(t *testing.T) {
		path := seeded(t, "0123456789")
		f, err := Open(path, 1, Plan{Heal: true, Err: syscall.ENOSPC, Truncates: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("A"), 0); err != nil { // op 0
			t.Fatal(err)
		}
		if err := f.Truncate(5); !errors.Is(err, syscall.ENOSPC) { // op 1: the fault
			t.Fatalf("failing Truncate = %v, want ENOSPC", err)
		}
		if err := f.Truncate(6); err != nil { // the device works again
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("B"), 1); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if !f.Fired() || f.Ops() != 5 {
			t.Fatalf("Fired, Ops = %v, %d, want true, 5", f.Fired(), f.Ops())
		}
		f.Close()
		if got := image(t, path); got != "AB2345" {
			t.Fatalf("file = %q, want AB2345", got)
		}
	})
}

// TestPowerLossTakesBackUnsyncedWrites pins the power-loss model on writes
// that overwrite, append and overlap: what survives is the synced image plus
// the newest k writes in their order, and a lost append gives its bytes back.
func TestPowerLossTakesBackUnsyncedWrites(t *testing.T) {
	for _, tc := range []struct {
		lose int
		want string
	}{
		{KeepAll, "0xYZ4abcT"},
		{0, "0s234"},
		{1, "0s234\x00\x00\x00T"}, // the torn byte alone, now past a gap
		{2, "0sYZ4\x00\x00\x00T"},
		{3, "0sYZ4abcT"},
		{4, "0xYZ4abcT"},
		{9, "0xYZ4abcT"},
	} {
		path := seeded(t, "01234")
		f, err := open(path, 5, 1, tc.lose, Plan{})
		if err != nil {
			t.Fatal(err)
		}
		steps := []func() error{
			func() error { _, err := f.WriteAt([]byte("s"), 1); return err }, // synced
			f.Sync,
			func() error { _, err := f.WriteAt([]byte("xX"), 1); return err },  // overwrites
			func() error { _, err := f.WriteAt([]byte("abc"), 5); return err }, // appends
			func() error { _, err := f.WriteAt([]byte("YZ"), 2); return err },  // overlaps the first
		}
		for i, s := range steps {
			if err := s(); err != nil {
				t.Fatalf("lose=%d step %d: %v", tc.lose, i, err)
			}
		}
		// The fault: a write past the append, torn after one byte.
		if n, err := f.WriteAt([]byte("TU"), 8); n != 1 || !errors.Is(err, ErrInjected) {
			t.Fatalf("lose=%d: the fault = (%d, %v)", tc.lose, n, err)
		}
		if got := image(t, path); got != "0xYZ4abcT" {
			t.Fatalf("lose=%d: before Close the file reads %q: the process-death view must stand until then", tc.lose, got)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got := image(t, path); got != tc.want {
			t.Errorf("lose=%d: file = %q, want %q", tc.lose, got, tc.want)
		}
	}
}

// TestPowerLossKeepsACut: a Truncate is durable at once, so taking back a
// write made before it brings nothing past the cut back.
func TestPowerLossKeepsACut(t *testing.T) {
	path := seeded(t, "0123456789")
	f, err := open(path, 2, 0, 0, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ABCD"), 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("xy"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("the fault = %v", err)
	}
	f.Close()
	if got := image(t, path); got != "012345" {
		t.Fatalf("file = %q, want 012345", got)
	}
}

// TestSweepVisitsEveryOperation runs Sweep over a four-operation workload:
// every variant visits n = 0..3 with the fault reached and ends at n = 4
// without, each on a fresh copy of the base.
func TestSweepVisitsEveryOperation(t *testing.T) {
	base := seeded(t, "base")
	var tags []string
	Sweep(t, base, Plan{Torn: []int{0, 1}, Lose: []int{KeepAll, 1}},
		func(f *File) error {
			for _, off := range []int64{0, 1, 2} {
				if _, err := f.WriteAt([]byte("W"), off); err != nil {
					return err
				}
			}
			return f.Sync()
		},
		func(tag, path string, fired bool, runErr error) {
			tags = append(tags, tag)
			if fired == (runErr == nil) {
				t.Fatalf("%s: fired = %v, run returned %v", tag, fired, runErr)
			}
			if got := image(t, path); !fired && got != "WWWe" {
				t.Fatalf("%s: a run without a fault left %q", tag, got)
			} else if len(got) != 4 || !bytes.HasSuffix([]byte(got), []byte("e")) {
				t.Fatalf("%s: the work file reads %q: not a copy of the base written at 0..2", tag, got)
			}
		})
	if len(tags) != 4*5 || tags[0] != "torn=0 n=0" || tags[len(tags)-1] != "torn=1 lose=1 n=4" {
		t.Fatalf("Sweep visited %d points, %q … %q", len(tags), tags[0], tags[len(tags)-1])
	}
}
