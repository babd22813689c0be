package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
type conn struct {
	srv *server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

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
		payload, err := wire.ReadFrame(c.br)
		if err != nil {
			// EOF, peer reset, or the drain deadline: the connection is done.
			return
		}
		req, err := wire.DecodeRequest(payload)
		var resp []byte
		if err != nil {
			resp = wire.EncodeErr(wire.CodeBadRequest, err.Error())
		} else {
			resp = c.dispatch(req)
		}
		if !c.writeResp(resp) {
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

	payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return false
	}
	req, err := wire.DecodeRequest(payload)
	if err != nil {
		c.writeResp(wire.EncodeErr(wire.CodeBadRequest, err.Error()))
		return false
	}
	hello, ok := req.(*wire.Hello)
	if !ok {
		c.writeResp(wire.EncodeErr(wire.CodeBadRequest, "handshake must start with Hello"))
		return false
	}
	if hello.Version != wire.ProtocolVersion {
		c.writeResp(wire.EncodeErr(wire.CodeBadRequest,
			fmt.Sprintf("unsupported protocol version %d", hello.Version)))
		return false
	}
	challenge, err := wire.NewChallenge()
	if err != nil {
		c.writeResp(wire.EncodeErr(wire.CodeInternal, "challenge generation failed"))
		return false
	}
	if !c.writeResp(wire.EncodeOK(challenge)) {
		return false
	}

	payload, err = wire.ReadFrame(c.br)
	if err != nil {
		return false
	}
	req, err = wire.DecodeRequest(payload)
	if err != nil {
		c.writeResp(wire.EncodeErr(wire.CodeBadRequest, err.Error()))
		return false
	}
	auth, ok := req.(*wire.Auth)
	if !ok {
		c.writeResp(wire.EncodeErr(wire.CodeBadRequest, "expected Auth after Hello"))
		return false
	}
	// Unknown tenants verify against a random server-lifetime dummy key:
	// same code path, same work, same (certain) failure — no oracle.
	ten := c.srv.reg.lookup(hello.Tenant)
	authKey := c.srv.dummyAuthKey
	if ten != nil {
		authKey = ten.material.AuthKey
	}
	if ten == nil || !wire.VerifyAuth(authKey, challenge, hello.Tenant, auth.Proof) {
		c.writeResp(wire.EncodeErr(wire.CodeAuth, "authentication failed"))
		return false
	}
	c.tenant = ten
	if !c.writeResp(wire.EncodeOK(nil)) {
		return false
	}
	// Authenticated: drop the handshake deadline — unless drain has already
	// imposed its deadline, which must stand.
	c.dmu.Lock()
	c.nc.SetDeadline(c.drainDeadline) // zero time = no deadline
	c.dmu.Unlock()
	return true
}

// writeResp frames, writes, and flushes one response, reporting success. A
// payload no frame can carry is a handler's bug, not a dead socket: the peer
// is told so and keeps its connection.
func (c *conn) writeResp(payload []byte) bool {
	if len(payload) > wire.MaxFrame {
		payload = wire.EncodeErr(wire.CodeInternal,
			fmt.Sprintf("response of %d bytes exceeds the %d-byte frame limit", len(payload), wire.MaxFrame))
	}
	if err := wire.WriteFrame(c.bw, payload); err != nil {
		return false
	}
	return c.bw.Flush() == nil
}

// dispatch executes one authenticated request and returns the response
// payload. Everything but the handshake messages and Open is a data-plane
// operation and needs the tenant's tree attached.
func (c *conn) dispatch(req wire.Request) []byte {
	switch req.(type) {
	case *wire.Hello, *wire.Auth:
		return wire.EncodeErr(wire.CodeBadRequest, "connection is already authenticated")
	case *wire.Open:
		return c.handleOpen()
	}
	if c.tree == nil {
		return wire.EncodeErr(wire.CodeBadRequest, "Open required before data operations")
	}
	switch m := req.(type) {
	case *wire.Put:
		if err := c.tree.Put(m.Key, m.Value); err != nil {
			return encodeEngineErr(err)
		}
		return wire.EncodeOK(nil)
	case *wire.Get:
		v, found, err := c.tree.Get(m.Key)
		if err != nil {
			return encodeEngineErr(err)
		}
		return wire.EncodeOK(wire.EncodeGetBody(v, found))
	case *wire.Delete:
		found, err := c.tree.Delete(m.Key)
		if err != nil {
			return encodeEngineErr(err)
		}
		return wire.EncodeOK(wire.EncodeFoundBody(found))
	case *wire.BatchCommit:
		return c.handleBatch(m)
	case *wire.CursorOpen:
		return c.handleCursorOpen(m)
	case *wire.CursorNext:
		return c.handleCursorNext(m)
	case *wire.CursorClose:
		if sc, ok := c.cursors[m.Cursor]; ok {
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
		}
		return wire.EncodeOK(nil)
	case *wire.Stats:
		return c.handleStats()
	case *wire.Sync:
		if err := c.tree.Sync(); err != nil {
			return encodeEngineErr(err)
		}
		return wire.EncodeOK(nil)
	case *wire.Vacuum:
		// A wire target past int64 is indistinguishable from "already
		// satisfied": clamp instead of erroring.
		target := int64(math.MaxInt64)
		if m.Target <= math.MaxInt64 {
			target = int64(m.Target)
		}
		if err := c.tree.Vacuum(target); err != nil {
			return encodeEngineErr(err)
		}
		return wire.EncodeOK(nil)
	default:
		return wire.EncodeErr(wire.CodeBadRequest, "unhandled request")
	}
}

func (c *conn) handleOpen() []byte {
	if c.tree != nil {
		return wire.EncodeOK(nil) // idempotent
	}
	tree, err := c.tenant.openTree(c.srv.reg.dir, c.srv.reg.cfg)
	if err != nil {
		return encodeEngineErr(err)
	}
	c.tree = tree
	return wire.EncodeOK(nil)
}

func (c *conn) handleBatch(m *wire.BatchCommit) []byte {
	b := c.tree.NewBatch()
	for _, op := range m.Ops {
		var err error
		if op.Del {
			err = b.Delete(op.Key)
		} else {
			err = b.Put(op.Key, op.Value)
		}
		if err != nil {
			b.Discard()
			return encodeEngineErr(err)
		}
	}
	if err := b.Commit(); err != nil {
		return encodeEngineErr(err)
	}
	return wire.EncodeOK(nil)
}

func (c *conn) handleCursorOpen(m *wire.CursorOpen) []byte {
	if len(c.cursors) >= maxCursorsPerConn {
		return wire.EncodeErr(wire.CodeCursorLimit,
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
	return wire.EncodeOK(wire.EncodeCursorIDBody(id))
}

func (c *conn) handleCursorNext(m *wire.CursorNext) []byte {
	sc, ok := c.cursors[m.Cursor]
	if !ok {
		return wire.EncodeErr(wire.CodeUnknownCursor,
			fmt.Sprintf("cursor %d is not open on this connection", m.Cursor))
	}
	max := m.Max
	if max > maxEntriesPerNext {
		max = maxEntriesPerNext
	}
	// Key/Value are zero-copy views valid while the cursor stays open, and
	// EncodeEntriesBody copies them into the response buffer — so the views
	// are gathered, encoded, and only then (on exhaustion) the cursor closed.
	var entries []wire.Entry
	done := false
	// size is the whole payload — status byte, entry count, entries, done
	// flag — so it is what the frame limit applies to.
	const fixed = 1 + binary.MaxVarintLen64 + 1
	size := fixed
	for uint64(len(entries)) < max && size-fixed < nextByteBudget {
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
		n := uvarintLen(len(k)) + len(k) + uvarintLen(len(v)) + len(v)
		if size+n > wire.MaxFrame {
			if len(entries) > 0 {
				sc.held = true // the next call starts with it
				break
			}
			// Alone in a response it still would not fit (it was stored
			// under a request key shorter than its substituted one): no
			// CursorNext can ever get past it.
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
			return wire.EncodeErr(wire.CodeTooLarge,
				fmt.Sprintf("an entry of %d key and %d value bytes exceeds the %d-byte frame limit; cursor closed", len(k), len(v), wire.MaxFrame))
		}
		entries = append(entries, wire.Entry{SubKey: k, Value: v})
		size += n
	}
	if done {
		if err := sc.cur.Err(); err != nil {
			sc.cur.Close()
			delete(c.cursors, m.Cursor)
			return encodeEngineErr(err)
		}
	}
	resp := wire.EncodeOK(wire.EncodeEntriesBody(entries, done))
	if done {
		sc.cur.Close()
		delete(c.cursors, m.Cursor)
	}
	return resp
}

// uvarintLen is the length of n's uvarint encoding, the wire's length prefix.
func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

func (c *conn) handleStats() []byte {
	stats, err := c.tree.Stats()
	if err != nil {
		return encodeEngineErr(err)
	}
	j, err := json.Marshal(stats)
	if err != nil {
		return wire.EncodeErr(wire.CodeInternal, err.Error())
	}
	return wire.EncodeOK(wire.EncodeBytesBody(j))
}

// encodeEngineErr maps engine errors onto wire codes. The mapping is coarse
// on purpose: key-material errors cannot occur post-handshake (the façade
// layers were validated when the tree opened), so everything unexpected is
// CodeInternal.
func encodeEngineErr(err error) []byte {
	switch {
	case errors.Is(err, ekbtree.ErrTooLarge):
		return wire.EncodeErr(wire.CodeTooLarge, err.Error())
	case errors.Is(err, ekbtree.ErrSnapshotTooOld):
		return wire.EncodeErr(wire.CodeSnapshotTooOld, err.Error())
	case errors.Is(err, ekbtree.ErrSealsExhausted):
		return wire.EncodeErr(wire.CodeSealsExhausted, err.Error())
	case errors.Is(err, ekbtree.ErrClosed):
		return wire.EncodeErr(wire.CodeDraining, "tree is closed (server draining)")
	default:
		return wire.EncodeErr(wire.CodeInternal, err.Error())
	}
}
