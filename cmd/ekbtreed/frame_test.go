package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// TestCursorNextNeverOverflowsFrame pins what the server does with entries too
// big for the response they would land in: it never builds a payload past
// wire.MaxFrame (which the client would see as a dropped connection), and the
// connection stays usable throughout.
func TestCursorNextNeverOverflowsFrame(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice, "bob": masterBob})

	// An entry that fits no frame: it went in under a one-byte key and comes
	// out under its 24-byte substituted one.
	t.Run("alone", func(t *testing.T) {
		c := ts.dial(t, "alice")
		big := bytes.Repeat([]byte{0xB1}, wire.MaxFrame-12)
		if err := c.Put([]byte("k"), big); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.Get([]byte("k")); err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("Get = (%d bytes, %v, %v)", len(v), ok, err)
		}
		cur, err := c.CursorOpen(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CursorNext(cur, 1); !wire.IsCode(err, wire.CodeTooLarge) {
			t.Fatalf("CursorNext onto the oversized entry = %v, want CodeTooLarge", err)
		}
		if _, _, err := c.CursorNext(cur, 1); !wire.IsCode(err, wire.CodeUnknownCursor) {
			t.Fatalf("CursorNext again = %v, want CodeUnknownCursor: the cursor was to be closed", err)
		}
		if _, ok, err := c.Get([]byte("k")); err != nil || !ok {
			t.Fatalf("Get on the same connection afterwards = (%v, %v)", ok, err)
		}
	})

	// An entry that fits a frame, but not the one already under way: the
	// response stops short of it and the next one starts with it.
	t.Run("held", func(t *testing.T) {
		c := ts.dial(t, "bob")
		// Learn the order the cursor visits three keys in (it is the order of
		// their substituted forms), each value naming its key.
		for _, k := range []string{"a", "b", "c"} {
			if err := c.Put([]byte(k), []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		cur, err := c.CursorOpen(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		order, done, err := c.CursorNext(cur, 10)
		if err != nil || !done || len(order) != 3 {
			t.Fatalf("CursorNext = (%d entries, %v, %v)", len(order), done, err)
		}
		// First in that order a value under the byte budget, so the server
		// goes on to the second, which the two together cannot carry.
		sizes := []int{wire.MaxFrame * 9 / 40, wire.MaxFrame * 8 / 10, 5}
		for i, e := range order {
			if err := c.Put(e.Value, bytes.Repeat([]byte{byte(i)}, sizes[i])); err != nil {
				t.Fatal(err)
			}
		}
		if cur, err = c.CursorOpen(nil, nil); err != nil {
			t.Fatal(err)
		}
		for call, want := range [][]int{{0}, {1}, {2}} {
			got, done, err := c.CursorNext(cur, 10)
			if err != nil {
				t.Fatalf("CursorNext %d: %v", call, err)
			}
			if len(got) != len(want) || done != (call == 2) {
				t.Fatalf("CursorNext %d = (%d entries, done %v), want %d", call, len(got), done, len(want))
			}
			for j, i := range want {
				if !bytes.Equal(got[j].SubKey, order[i].SubKey) || len(got[j].Value) != sizes[i] {
					t.Fatalf("CursorNext %d entry %d: %d value bytes, want entry %d with %d", call, j, len(got[j].Value), i, sizes[i])
				}
			}
		}
		if _, ok, err := c.Get(order[0].Value); err != nil || !ok {
			t.Fatalf("Get on the same connection afterwards = (%v, %v)", ok, err)
		}
	})

	// Whatever a handler builds, writeResp sends a frame.
	t.Run("oversized payload", func(t *testing.T) {
		var sent bytes.Buffer
		c := &conn{bw: bufio.NewWriter(&sent)}
		c.out = append(wire.AppendOK(nil), make([]byte, wire.MaxFrame)...)
		if !c.writeResp() {
			t.Fatal("writeResp gave the connection up")
		}
		payload, err := wire.ReadFrame(&sent)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wire.DecodeResponse(payload)
		if !wire.IsCode(err, wire.CodeInternal) {
			t.Fatalf("the peer reads %v, want CodeInternal", err)
		}
		// The size reported is the payload's, as the limit is.
		if want := fmt.Sprintf("response of %d bytes", wire.MaxFrame+1); !strings.Contains(err.Error(), want) {
			t.Fatalf("the peer reads %q, want it to say %q", err, want)
		}
	})
}
