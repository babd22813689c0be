package main

import (
	"crypto/rand"
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// serverConfig is everything the accept loop and drain need to know.
type serverConfig struct {
	maxConns     int
	drainTimeout time.Duration
	logf         func(format string, args ...any)
}

// server owns the listener, the connection set, and the drain state machine.
//
// # Graceful drain
//
// drain() — triggered by SIGTERM/SIGINT or called directly — runs exactly
// once (later calls wait for and return the first run's result):
//
//  1. the listener closes: new connections are refused by the OS;
//  2. every live connection is marked draining and given the drain deadline
//     as its absolute I/O deadline;
//  3. connections keep serving requests — an in-flight Put completes, open
//     cursors keep streaming — until they close, finish their work (a
//     draining connection is closed by the server once it has no open
//     cursors and no request in flight), or hit the deadline;
//  4. when the last connection exits (deadline-bounded), every tenant tree
//     is closed — finishing its maintenance pass in flight and flushing
//     Grouped/Async durability tails to disk.
type server struct {
	cfg serverConfig
	reg *registry
	ln  net.Listener

	// dummyAuthKey stands in for the auth key of unknown tenants so the
	// handshake does the same HMAC work — and returns the same generic
	// CodeAuth failure — whether the tenant is unknown or the key is wrong.
	dummyAuthKey []byte

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool

	wg        sync.WaitGroup
	drainOnce sync.Once
	drainDone chan struct{}
	drainErr  error

	release *releaser // gives back a batch load's heap once it is over
}

func newServer(ln net.Listener, reg *registry, cfg serverConfig) *server {
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	dummy := make([]byte, 32)
	if _, err := rand.Read(dummy); err != nil {
		// Out of entropy at startup is unrecoverable anyway.
		panic(err)
	}
	return &server{
		cfg:          cfg,
		reg:          reg,
		ln:           ln,
		dummyAuthKey: dummy,
		conns:        make(map[*conn]struct{}),
		drainDone:    make(chan struct{}),
		release:      newReleaser(),
	}
}

// serve accepts connections until the listener closes (normally via drain).
func (s *server) serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c, refuse := s.register(nc)
		if refuse != 0 {
			// Refused synchronously with a bounded write so a peer that
			// won't read can't wedge the accept loop for long.
			nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
			frame := wire.AppendErr(nil, refuse, refuse.String())
			wire.EndFrame(frame)
			nc.Write(frame)
			nc.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			c.serve()
			s.unregister(c)
		}()
	}
}

// register admits a new connection unless the server is draining or full.
// The wg.Add happens under the same lock that drain takes before wg.Wait, so
// a connection is either fully tracked or refused — never half-admitted.
func (s *server) register(nc net.Conn) (*conn, wire.ErrCode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, wire.CodeDraining
	}
	if s.cfg.maxConns > 0 && len(s.conns) >= s.cfg.maxConns {
		return nil, wire.CodeConnLimit
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return c, 0
}

func (s *server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain performs the graceful shutdown described on the server type. It is
// idempotent: every call returns the single drain's result.
func (s *server) drain() error {
	s.drainOnce.Do(func() {
		s.cfg.logf("draining: closing listener, waiting up to %v for %d connection(s)",
			s.cfg.drainTimeout, s.connCount())
		s.ln.Close()
		deadline := time.Now().Add(s.cfg.drainTimeout)
		s.mu.Lock()
		s.draining = true
		for c := range s.conns {
			c.beginDrain(deadline)
		}
		s.mu.Unlock()
		// Bounded: every connection's I/O now has an absolute deadline, so
		// even a wedged peer unblocks its handler by then.
		s.wg.Wait()
		s.release.stop()
		s.drainErr = s.reg.closeAll()
		s.cfg.logf("drain complete")
		close(s.drainDone)
	})
	<-s.drainDone
	return s.drainErr
}

func (s *server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
