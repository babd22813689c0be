package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/internal/israce"
)

// TestDialRetryConnectsToLateListener covers the reconnect loop: the listener
// only starts a few backoff periods after the first dial attempt, and
// DialWithConfig keeps retrying until it lands.
func TestDialRetryConnectsToLateListener(t *testing.T) {
	// Reserve a port, then release it so the first attempts are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	accepted := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		late, err := net.Listen("tcp", addr)
		if err != nil {
			return // port stolen between release and rebind; the dial will fail the test
		}
		defer late.Close()
		if nc, err := late.Accept(); err == nil {
			nc.Close()
			close(accepted)
		}
	}()

	c, err := DialWithConfig(addr, DialConfig{
		DialTimeout:  time.Second,
		DialRetries:  50,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial never reached the late listener: %v", err)
	}
	c.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("listener never observed the accepted connection")
	}
}

// TestDialRetryExhaustionReturnsLastError covers the bounded side: a dead
// address with N retries fails after N+1 attempts with the dial error, and the
// elapsed time shows the backoff pauses actually happened.
func TestDialRetryExhaustionReturnsLastError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = DialWithConfig(addr, DialConfig{
		DialTimeout:  time.Second,
		DialRetries:  3,
		RetryBackoff: 30 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to a released port succeeded")
	}
	// 3 retries pause 30+60+120 ms; allow generous slack below the exact sum
	// for coarse timers but catch a loop that never slept.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("4 attempts finished in %v; backoff pauses were skipped", elapsed)
	}
}

// TestReadTimeoutFailsStalledRequest covers the per-request read deadline: a
// server that swallows the request and never responds must not hang the
// client forever.
func TestReadTimeoutFailsStalledRequest(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		// Drain whatever the client writes, reply with nothing.
		buf := make([]byte, 1024)
		for {
			if _, err := srvConn.Read(buf); err != nil {
				return
			}
		}
	}()

	c := NewClient(cliConn)
	c.readTimeout = 100 * time.Millisecond
	defer c.Close()

	start := time.Now()
	_, err := c.do(&Hello{Version: ProtocolVersion, Tenant: "t"})
	if err == nil {
		t.Fatal("request against a mute server succeeded")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("stalled request failed with %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
}

// TestWriteTimeoutFailsBlockedSend covers the per-request write deadline
// against a peer that never reads: the synchronous pipe blocks the send until
// the deadline fires.
func TestWriteTimeoutFailsBlockedSend(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	// No reader on srvConn: every write blocks.

	c := NewClient(cliConn)
	c.writeTimeout = 100 * time.Millisecond
	defer c.Close()

	_, err := c.do(&Hello{Version: ProtocolVersion, Tenant: "t"})
	if err == nil {
		t.Fatal("send to a never-reading server succeeded")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("blocked send failed with %v, want a net timeout", err)
	}
}

// TestClientRoundTripAllocs pins the client's share of a round trip: against a
// responder writing pre-encoded replies, a Get allocates only the value it
// returns, and the other point calls nothing — the request, its frame and the
// response all live in the client's one buffer.
func TestClientRoundTripAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	value := []byte("the value a present key holds")
	finish := func(frame []byte) []byte { EndFrame(frame); return frame }
	var (
		empty   = finish(AppendOK(nil))
		present = finish(AppendGetBody(AppendOK(nil), value, true))
		absent  = finish(AppendGetBody(AppendOK(nil), nil, false))
		found   = finish(AppendFoundBody(AppendOK(nil), true))
	)
	go func() {
		defer srvConn.Close()
		br := bufio.NewReader(srvConn)
		var buf []byte
		for {
			var err error
			if buf, err = ReadFrameInto(br, buf, MaxFrame); err != nil {
				return
			}
			reply := empty
			switch Op(buf[0]) {
			case OpGet:
				reply = absent
				if bytes.HasSuffix(buf, []byte("present")) {
					reply = present
				}
			case OpDelete:
				reply = found
			}
			if _, err := srvConn.Write(reply); err != nil {
				return
			}
		}
	}()

	c := NewClient(cliConn)
	key, absentKey := []byte("key-present"), []byte("key-absent")
	for _, tc := range []struct {
		name string
		want float64
		call func() error
	}{
		{"Get present", 1, func() error {
			if v, ok, err := c.Get(key); err != nil || !ok || !bytes.Equal(v, value) {
				return errors.Join(err, errors.New("present key not read back"))
			}
			return nil
		}},
		{"Get absent", 0, func() error {
			if _, ok, err := c.Get(absentKey); err != nil || ok {
				return errors.Join(err, errors.New("absent key found"))
			}
			return nil
		}},
		{"Put", 0, func() error { return c.Put(key, value) }},
		{"Delete", 0, func() error { _, err := c.Delete(key); return err }},
		{"Sync", 0, func() error { return c.Sync() }},
	} {
		var err error
		if got := testing.AllocsPerRun(200, func() {
			if e := tc.call(); e != nil {
				err = e
			}
		}); got != tc.want || err != nil {
			t.Errorf("%s: %v allocations a call (err %v), want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestClientLatchesTransportErrors is the regression test for a client that
// answered one key with another's value: a request that failed in transport
// may leave its response (or half its request) on the wire, so every later
// call must fail with that first error instead of reading the stream out of
// step. Real TCP, not net.Pipe: a synchronous pipe blocks the responder on
// the stale reply and deadlocks the test.
func TestClientLatchesTransportErrors(t *testing.T) {
	listen := func(t *testing.T) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	// serve answers each Get with "value-of-<key>", the first only after
	// delay, and signals on sent once each reply is out.
	serve := func(ln net.Listener, delay time.Duration, sent chan<- struct{}) {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for i := 0; ; i++ {
			payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			req, err := DecodeRequest(payload)
			if err != nil {
				return
			}
			if i == 0 {
				time.Sleep(delay)
			}
			reply := AppendGetBody(AppendOK(nil), append([]byte("value-of-"), req.(*Get).Key...), true)
			EndFrame(reply)
			if _, err := nc.Write(reply); err != nil {
				return
			}
			sent <- struct{}{}
		}
	}
	isTimeout := func(err error) bool {
		var ne net.Error
		return errors.As(err, &ne) && ne.Timeout() && errors.Is(err, os.ErrDeadlineExceeded)
	}

	t.Run("read timeout", func(t *testing.T) {
		ln := listen(t)
		sent := make(chan struct{}, 2)
		go serve(ln, 200*time.Millisecond, sent)
		c, err := DialWithConfig(ln.Addr().String(), DialConfig{ReadTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, _, first := c.Get([]byte("k1"))
		if !isTimeout(first) {
			t.Fatalf("Get(k1) against a slow server = %v, want a deadline error", first)
		}
		<-sent // the stale reply to k1 is now on its way
		v, ok, err := c.Get([]byte("k2"))
		if err == nil || !errors.Is(err, first) || !isTimeout(err) {
			t.Fatalf("Get(k2) after the timeout = (%q, %v, %v), want the latched %v", v, ok, err, first)
		}
	})

	t.Run("write timeout", func(t *testing.T) {
		ln := listen(t)
		accepted := make(chan net.Conn, 1)
		go func() {
			if nc, err := ln.Accept(); err == nil {
				accepted <- nc // and never read from
			}
		}()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Small socket buffers, so a frame the peer does not read blocks the
		// write part-way.
		nc.(*net.TCPConn).SetWriteBuffer(16 << 10)
		srv := <-accepted
		defer srv.Close()
		srv.(*net.TCPConn).SetReadBuffer(16 << 10)
		c := NewClient(nc)
		c.writeTimeout = 100 * time.Millisecond
		defer c.Close()
		first := c.Put([]byte("k"), make([]byte, MaxFrame-64))
		if !isTimeout(first) {
			t.Fatalf("Put to a peer that never reads = %v, want a deadline error", first)
		}
		if err := c.Put([]byte("k2"), []byte("v")); !errors.Is(err, first) {
			t.Fatalf("Put after a half-written frame = %v, want the latched %v", err, first)
		}
	})

	t.Run("oversized response", func(t *testing.T) {
		ln := listen(t)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			if _, err := ReadFrame(nc); err == nil {
				nc.Write([]byte{0x7f, 0xff, 0xff, 0xff}) // a length word past MaxFrame
				ReadFrame(nc)                            // hold the connection until the client closes
			}
		}()
		c, err := Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("Get answered by an oversized frame = %v, want ErrFrameTooLarge", err)
		}
		if err := c.Sync(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("Sync after it = %v, want the latched ErrFrameTooLarge", err)
		}
	})

	// A server error or a body that does not decode leaves the stream in
	// step: the connection stays usable.
	t.Run("aligned errors do not latch", func(t *testing.T) {
		ln := listen(t)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			replies := [][]byte{
				AppendErr(nil, CodeBadRequest, "no"),
				append(AppendOK(nil), 0x07), // not a Get body
				AppendGetBody(AppendOK(nil), []byte("v"), true),
			}
			for _, reply := range replies {
				if _, err := ReadFrame(nc); err != nil {
					return
				}
				EndFrame(reply)
				nc.Write(reply)
			}
		}()
		c, err := Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// A request over MaxFrame is refused before anything is sent, and
		// the buffer it grew is not kept.
		if err := c.Put([]byte("k"), make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversized Put = %v, want ErrFrameTooLarge", err)
		}
		if cap(c.buf) > maxRetained {
			t.Fatalf("after an oversized Put the client keeps a %d-byte buffer, want at most %d", cap(c.buf), maxRetained)
		}
		if _, _, err := c.Get([]byte("k")); !IsCode(err, CodeBadRequest) {
			t.Fatalf("first Get = %v, want CodeBadRequest", err)
		}
		if _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrMalformed) {
			t.Fatalf("second Get = %v, want ErrMalformed", err)
		}
		if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
			t.Fatalf("third Get = (%q, %v, %v), want the value", v, ok, err)
		}
	})
}
