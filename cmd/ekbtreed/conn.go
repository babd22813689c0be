package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

const (
	// maxCursorsPerConn bounds how many snapshot pins one untrusted client
	// can hold: each open cursor pins an epoch, and pinned epochs hold
	// superseded pre-images in memory.
	maxCursorsPerConn = 64
	// maxEntriesPerNext bounds one CursorNext response's entry count.
	maxEntriesPerNext = 4096
	// nextByteBudget stops filling a CursorNext response once it holds this
	// many payload bytes. It is a soft budget, tested before an entry is
	// added, that keeps the usual response well under the frame limit; the
	// limit itself is tested against each entry (see handleCursorNext).
	nextByteBudget = 1 << 20
	// handshakeTimeout bounds how long an unauthenticated connection may sit
	// on the handshake.
	handshakeTimeout = 30 * time.Second
	// maxPreAuthFrame bounds a frame read before authentication: a Hello is
	// at most 67 bytes and an Auth 34, so a peer that has proven nothing
	// cannot make the server buffer more than this.
	maxPreAuthFrame = 1 << 10
	// maxRetained is the largest buffer a connection keeps between requests:
	// one that grew past it (a batch commit, a cursor page) is dropped after
	// its round trip rather than held for the life of the connection.
	maxRetained = 16 << 10
)

// serverCursor tracks one wire cursor: the engine cursor plus whether it has
// been positioned (the engine's First/Next pull model, flattened into the
// wire's single CursorNext stream), and whether the entry it stands on is
// still owed to the client: the one the last response had no room for.
type serverCursor struct {
	cur     *ekbtree.Cursor
	started bool
	held    bool
}

// conn serves one client connection: handshake first, then a synchronous
// request loop over the authenticated tenant's tree.
//
// A request is read into in and its response built in out. The request's
// byte fields alias in, so they live only until dispatch returns; every tree
// call copies what it keeps (Put and Batch copy keys and values, CursorRange
// substitutes its bounds), and the handshake's proof is verified before the
// next read.
type conn struct {
	srv *server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	in  []byte
	out []byte

	tenant  *tenant
	tree    *ekbtree.Tree
	cursors map[uint64]*serverCursor
	nextID  uint64

	draining atomic.Bool
	// dmu serializes deadline transitions between the handler (clearing the
	// handshake deadline) and beginDrain (imposing the drain deadline), so a
	// late clear can never erase the drain bound.
	dmu           sync.Mutex
	drainDeadline time.Time
}

func newConn(s *server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReader(nc),
		bw:      bufio.NewWriter(nc),
		cursors: make(map[uint64]*serverCursor),
	}
}

// beginDrain marks the connection draining and imposes the drain deadline on
// all its I/O. Safe to call from the drain goroutine while the handler runs:
// net.Conn deadlines are concurrency-safe and the flag is atomic.
func (c *conn) beginDrain(deadline time.Time) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.drainDeadline = deadline
	c.draining.Store(true)
	c.nc.SetDeadline(deadline)
}

// serve runs the connection to completion. It owns cleanup: cursors closed,
// socket closed.
func (c *conn) serve() {
	defer func() {
		for id, sc := range c.cursors {
			sc.cur.Close()
			delete(c.cursors, id)
		}
		c.nc.Close()
	}()
	if !c.handshake() {
		return
	}
	for {
		var err error
		if c.in, err = wire.ReadFrameInto(c.br, c.in, wire.MaxFrame); err != nil {
			// EOF, peer reset, or the drain deadline: the connection is done.
			return
		}
		req, err := wire.DecodeRequest(c.in)
		if err != nil {
			c.out = wire.AppendErr(c.out[:0], wire.CodeBadRequest, err.Error())
		} else {
			c.out = c.dispatch(c.out[:0], req)
		}
		if !c.writeResp() {
			return
		}
		// A draining connection is held open only for its remaining work:
		// once no cursors are open (the current request just completed),
		// the server closes it.
		if c.draining.Load() && len(c.cursors) == 0 {
			return
		}
	}
}

// handshake runs Hello → challenge → Auth → OK, returning false if the
// connection must close. Every failure after Hello decodes is the same
// generic CodeAuth: unknown tenant, wrong key, and malformed proof are
// indistinguishable to the peer, and no tenant tree is ever opened (or even
// looked at) on a failed handshake.
func (c *conn) handshake() bool {
	c.nc.SetDeadline(time.Now().Add(handshakeTimeout))

	req, ok := c.handshakeRequest()
	if !ok {
		return false
	}
	hello, ok := req.(*wire.Hello)
	if !ok {
		return c.fail(wire.CodeBadRequest, "handshake must start with Hello")
	}
	if hello.Version != wire.ProtocolVersion {
		return c.fail(wire.CodeBadRequest, fmt.Sprintf("unsupported protocol version %d", hello.Version))
	}
	challenge, err := wire.NewChallenge()
	if err != nil {
		return c.fail(wire.CodeInternal, "challenge generation failed")
	}
	c.out = append(wire.AppendOK(c.out[:0]), challenge...)
	if !c.writeResp() {
		return false
	}

	if req, ok = c.handshakeRequest(); !ok {
		return false
	}
	auth, ok := req.(*wire.Auth)
	if !ok {
		return c.fail(wire.CodeBadRequest, "expected Auth after Hello")
	}
	// Unknown tenants verify against a random server-lifetime dummy key:
	// same code path, same work, same (certain) failure — no oracle.
	ten := c.srv.reg.lookup(hello.Tenant)
	authKey := c.srv.dummyAuthKey
	if ten != nil {
		authKey = ten.material.AuthKey
	}
	if ten == nil || !wire.VerifyAuth(authKey, challenge, hello.Tenant, auth.Proof) {
		return c.fail(wire.CodeAuth, "authentication failed")
	}
	c.tenant = ten
	c.out = wire.AppendOK(c.out[:0])
	if !c.writeResp() {
		return false
	}
	// Authenticated: drop the handshake deadline — unless drain has already
	// imposed its deadline, which must stand.
	c.dmu.Lock()
	c.nc.SetDeadline(c.drainDeadline) // zero time = no deadline
	c.dmu.Unlock()
	return true
}

// handshakeRequest reads and decodes one request before authentication. It
// reports false if the connection must close: the frame never arrived, or it
// was over maxPreAuthFrame or did not decode, which the peer is told first.
func (c *conn) handshakeRequest() (wire.Request, bool) {
	var err error
	c.in, err = wire.ReadFrameInto(c.br, c.in, maxPreAuthFrame)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return nil, c.fail(wire.CodeBadRequest, fmt.Sprintf("a frame before authentication is at most %d bytes", maxPreAuthFrame))
	}
	if err != nil {
		return nil, false
	}
	req, err := wire.DecodeRequest(c.in)
	if err != nil {
		return nil, c.fail(wire.CodeBadRequest, err.Error())
	}
	return req, true
}

// fail answers with an error response on a connection about to close, and
// reports false for the caller to return.
func (c *conn) fail(code wire.ErrCode, msg string) bool {
	c.out = wire.AppendErr(c.out[:0], code, msg)
	c.writeResp()
	return false
}

// writeResp finishes the response frame in c.out and writes it, reporting
// success. A payload no frame can carry is a handler's bug, not a dead
// socket: the peer is told so and keeps its connection.
func (c *conn) writeResp() bool {
	if wire.EndFrame(c.out) != nil {
		payload := len(c.out) - 4 // less the length word
		c.out = wire.AppendErr(c.out[:0], wire.CodeInternal,
			fmt.Sprintf("response of %d bytes exceeds the %d-byte frame limit", payload, wire.MaxFrame))
		wire.EndFrame(c.out)
	}
	if _, err := c.bw.Write(c.out); err != nil {
		return false
	}
	if cap(c.in) > maxRetained {
		c.in = nil
	}
	if cap(c.out) > maxRetained {
		c.out = nil
	}
	return c.bw.Flush() == nil
}

// dispatch executes one authenticated request and appends its response frame
// to b. Everything but the handshake messages and Open is a data-plane
// operation and needs the tenant's tree attached.
func (c *conn) dispatch(b []byte, req wire.Request) []byte {
	switch req.(type) {
	case *wire.Hello, *wire.Auth:
		return wire.AppendErr(b, wire.CodeBadRequest, "connection is already authenticated")
	case *wire.Open:
		return c.handleOpen(b)
	}
	if c.tree == nil {
		return wire.AppendErr(b, wire.CodeBadRequest, "Open required before data operations")
	}
	switch m := req.(type) {
	case *wire.Put:
		if err := c.tree.Put(m.Key, m.Value); err != nil {
			return appendEngineErr(b, err)
		}
		return wire.AppendOK(b)
	case *wire.Get:
		v, found, err := c.tree.Get(m.Key)
		if err != nil {
			return appendEngineErr(b, err)
		}
		return wire.AppendGetBody(wire.AppendOK(b), v, found)
	case *wire.Delete:
		found, err := c.tree.Delete(m.Key)
		if err != nil {
			return appendEngineErr(b, err)
		}
		return wire.AppendFoundBody(wire.AppendOK(b), found)
	case *wire.BatchCommit:
		return c.handleBatch(b, m)
	case *wire.CursorOpen:
		return c.handleCursorOpen(b, m)
	case *wire.CursorNext:
		return c.handleCursorNext(b, m)
	case *wire.CursorClose:
		if sc, ok := c.cursors[m.Cursor]; ok {
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
		}
		return wire.AppendOK(b)
	case *wire.Stats:
		return c.handleStats(b)
	case *wire.Sync:
		if err := c.tree.Sync(); err != nil {
			return appendEngineErr(b, err)
		}
		return wire.AppendOK(b)
	case *wire.Vacuum:
		if err := c.tree.Vacuum(); err != nil {
			return appendEngineErr(b, err)
		}
		return wire.AppendOK(b)
	default:
		return wire.AppendErr(b, wire.CodeBadRequest, "unhandled request")
	}
}

func (c *conn) handleOpen(b []byte) []byte {
	if c.tree != nil {
		return wire.AppendOK(b) // idempotent
	}
	tree, err := c.tenant.openTree(c.srv.reg.dir, c.srv.reg.cfg)
	if err != nil {
		return appendEngineErr(b, err)
	}
	c.tree = tree
	return wire.AppendOK(b)
}

func (c *conn) handleBatch(b []byte, m *wire.BatchCommit) []byte {
	batch := c.tree.NewBatch()
	for _, op := range m.Ops {
		var err error
		if op.Del {
			err = batch.Delete(op.Key)
		} else {
			err = batch.Put(op.Key, op.Value)
		}
		if err != nil {
			batch.Discard()
			return appendEngineErr(b, err)
		}
	}
	if err := batch.Commit(); err != nil {
		return appendEngineErr(b, err)
	}
	c.srv.release.batched()
	return wire.AppendOK(b)
}

func (c *conn) handleCursorOpen(b []byte, m *wire.CursorOpen) []byte {
	if len(c.cursors) >= maxCursorsPerConn {
		return wire.AppendErr(b, wire.CodeCursorLimit,
			fmt.Sprintf("at most %d cursors per connection", maxCursorsPerConn))
	}
	var lo, hi []byte
	if m.HasLo {
		lo = m.Lo
	}
	if m.HasHi {
		hi = m.Hi
	}
	id := c.nextID
	c.nextID++
	c.cursors[id] = &serverCursor{cur: c.tree.CursorRange(lo, hi)}
	return wire.AppendCursorIDBody(wire.AppendOK(b), id)
}

func (c *conn) handleCursorNext(b []byte, m *wire.CursorNext) []byte {
	sc, ok := c.cursors[m.Cursor]
	if !ok {
		return wire.AppendErr(b, wire.CodeUnknownCursor,
			fmt.Sprintf("cursor %d is not open on this connection", m.Cursor))
	}
	max := min(m.Max, maxEntriesPerNext)
	// Key/Value are zero-copy views valid while the cursor stays open, and
	// after Close their bytes may hold another page: each entry is copied
	// into the response as it is read, before the cursor moves, and only then
	// (on exhaustion) is the cursor closed.
	start := len(b)
	var body wire.EntriesBody
	b = body.Begin(wire.AppendOK(b), max)
	done := false
	// size is the whole payload — status byte, entry count, entries, done
	// flag — so it is what the frame limit applies to.
	const fixed = 1 + binary.MaxVarintLen64 + 1
	size := fixed
	for body.Len() < max && size-fixed < nextByteBudget {
		switch {
		case sc.held:
			sc.held = false
		case !sc.started:
			sc.started = true
			done = !sc.cur.First()
		default:
			done = !sc.cur.Next()
		}
		if done {
			break
		}
		k, v := sc.cur.Key(), sc.cur.Value()
		n := wire.EntrySize(k, v)
		if size+n > wire.MaxFrame {
			if body.Len() > 0 {
				sc.held = true // the next call starts with it
				break
			}
			// Alone in a response it still would not fit (it was stored
			// under a request key shorter than its substituted one): no
			// CursorNext can ever get past it.
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
			return wire.AppendErr(b[:start], wire.CodeTooLarge,
				fmt.Sprintf("an entry of %d key and %d value bytes exceeds the %d-byte frame limit; cursor closed", len(k), len(v), wire.MaxFrame))
		}
		b = body.Append(b, k, v)
		size += n
	}
	if done {
		if err := sc.cur.Err(); err != nil {
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
			return appendEngineErr(b[:start], err)
		}
	}
	b = body.End(b, done)
	if done {
		sc.cur.Close()
		delete(c.cursors, m.Cursor)
	}
	return b
}

func (c *conn) handleStats(b []byte) []byte {
	stats, err := c.tree.Stats()
	if err != nil {
		return appendEngineErr(b, err)
	}
	j, err := json.Marshal(stats)
	if err != nil {
		return wire.AppendErr(b, wire.CodeInternal, err.Error())
	}
	return wire.AppendBytesBody(wire.AppendOK(b), j)
}

// appendEngineErr maps engine errors onto wire codes. The mapping is coarse
// on purpose: key-material errors cannot occur post-handshake (the façade
// layers were validated when the tree opened), so everything unexpected is
// CodeInternal.
func appendEngineErr(b []byte, err error) []byte {
	switch {
	case errors.Is(err, ekbtree.ErrTooLarge):
		return wire.AppendErr(b, wire.CodeTooLarge, err.Error())
	case errors.Is(err, ekbtree.ErrSnapshotTooOld):
		return wire.AppendErr(b, wire.CodeSnapshotTooOld, err.Error())
	case errors.Is(err, ekbtree.ErrSealsExhausted):
		return wire.AppendErr(b, wire.CodeSealsExhausted, err.Error())
	case errors.Is(err, ekbtree.ErrClosed):
		return wire.AppendErr(b, wire.CodeDraining, "tree is closed (server draining)")
	default:
		return wire.AppendErr(b, wire.CodeInternal, err.Error())
	}
}
