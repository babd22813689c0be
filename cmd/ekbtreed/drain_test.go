package main

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// TestGracefulDrain is the drain satellite, run under -race in CI:
//
//   - a connection with an open cursor keeps streaming — and an in-flight
//     Put on it completes — while the drain is running;
//   - new connections are refused once the drain begins;
//   - once the connection's work is done the server closes it and the drain
//     completes well before its deadline;
//   - a second (and concurrent) drain is idempotent.
func TestGracefulDrain(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice},
		func(cfg *serverConfig) { cfg.drainTimeout = 5 * time.Second })
	c := ts.dial(t, "alice")

	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Put(tkey("d", i), tval("d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Open a cursor and consume a first batch so the connection holds live
	// work when the drain starts.
	cur, err := c.CursorOpen(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, done, err := c.CursorNext(cur, 20)
	if err != nil || done {
		t.Fatalf("pre-drain CursorNext: %d done=%v err=%v", len(first), done, err)
	}
	count := len(first)

	// Start the drain concurrently (what the SIGTERM handler does).
	drainErr := make(chan error, 2)
	go func() { drainErr <- ts.srv.drain() }()

	// Wait until the drain has taken effect: the listener is closed, so a
	// new dial must fail (or be refused with CodeDraining if it won the
	// accept race).
	deadline := time.Now().Add(2 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", ts.addr, 200*time.Millisecond)
		if err != nil {
			break // refused: drain is in effect
		}
		// Connection may have been accepted just before the listener
		// closed; the server must still refuse it explicitly.
		cl := wire.NewClient(nc)
		m, _ := ekbtree.DeriveMaterial(masterAlice)
		err = cl.Handshake("alice", m.AuthKey)
		cl.Close()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted after drain started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The draining connection still serves its in-flight work: a Put lands
	// and the open cursor streams to exhaustion.
	if err := c.Put(tkey("d", n), tval("d", n)); err != nil {
		t.Fatalf("in-flight Put during drain: %v", err)
	}
	for !done {
		var batch []wire.Entry
		batch, done, err = c.CursorNext(cur, 33)
		if err != nil {
			t.Fatalf("cursor streaming during drain: %v", err)
		}
		count += len(batch)
	}
	if count != n {
		t.Fatalf("drained cursor streamed %d entries, want %d", count, n)
	}

	// With the cursor exhausted (auto-closed) and the request done, the
	// server closes the connection: the next request fails with a transport
	// error rather than hanging.
	if _, _, err := c.CursorNext(cur, 1); err == nil {
		t.Fatal("request succeeded on a connection the drain should have closed")
	}

	// The drain completes and is idempotent — including concurrently.
	go func() { drainErr <- ts.srv.drain() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-drainErr:
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain did not complete")
		}
	}
	if err := ts.srv.drain(); err != nil {
		t.Fatalf("post-completion drain: %v", err)
	}
}

// TestDrainClosesIdleConnections: a drain with only idle (cursor-less)
// connections completes without waiting for the full deadline, and the
// tenant trees are closed (data durable) afterwards.
func TestDrainClosesIdleConnections(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice},
		func(cfg *serverConfig) { cfg.drainTimeout = 3 * time.Second })
	c := ts.dial(t, "alice")
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := ts.srv.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The idle connection is bounded by the drain deadline, not beyond it.
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("drain of idle connections took %v", elapsed)
	}

	// Trees are closed: the data is durably on disk and reopenable.
	reg, err := loadRegistry(ts.dataDir+"/tenants.json", ts.dataDir,
		ekbtree.Options{Durability: ekbtree.DurabilityGrouped})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := reg.lookup("alice").openTree(ts.dataDir, reg.cfg)
	if err != nil {
		t.Fatalf("reopen after drain (tree not closed cleanly?): %v", err)
	}
	defer reg.closeAll()
	v, ok, err := tree.Get([]byte("k"))
	if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("post-drain data: %q %v %v", v, ok, err)
	}
}

// TestDrainManyConnectionsUnderLoad drains while several connections are
// actively writing; every connection either completes its request or sees a
// clean transport/draining error, and the drain itself finishes. Run with
// -race this doubles as the drain-path race check.
func TestDrainManyConnectionsUnderLoad(t *testing.T) {
	ts := startTestServer(t, map[string][]byte{"alice": masterAlice, "bob": masterBob},
		func(cfg *serverConfig) { cfg.drainTimeout = 3 * time.Second })

	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		tenant := "alice"
		if w%2 == 1 {
			tenant = "bob"
		}
		c := ts.dial(t, tenant)
		wg.Add(1)
		go func(w int, c *wire.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the drain closes the
				// connection; they must be clean, not hangs.
				if err := c.Put(tkey("w", w*1_000_000+i), []byte("x")); err != nil {
					return
				}
			}
		}(w, c)
	}
	time.Sleep(50 * time.Millisecond) // let the workers get going
	if err := ts.srv.drain(); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stop)
	wg.Wait()
}
