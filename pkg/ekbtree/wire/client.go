package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"
)

// Client is a synchronous connection to an ekbtreed server: one request in
// flight at a time, in protocol order. It is NOT safe for concurrent use by
// multiple goroutines — open one Client per worker (that is also how the
// server's connection-level parallelism is meant to be exercised).
//
// One buffer carries each round trip: the request frame is built in it and
// the response is read back into it, so what a call returns — a Get value,
// CursorNext entries, the Stats JSON — is copied out, and is the caller's.
// Put, Delete, Sync, Open and CursorClose allocate nothing.
//
// A request that fails in transport — an I/O error, a deadline, a response
// frame over MaxFrame — may leave part of a frame on the wire in either
// direction, so the client latches that error and returns it from every later
// call rather than read one request's response as another's. A server *Error
// or a malformed body leaves the stream aligned and does not latch.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	// Per-request I/O deadlines; zero means none. Set via DialConfig.
	readTimeout  time.Duration
	writeTimeout time.Duration

	buf []byte // the round trip's frame; dropped once it outgrows maxRetained
	err error  // the latched transport error

	// The point requests, reused so a call does not allocate one; their
	// slices are cleared after each call.
	get    Get
	put    Put
	del    Delete
	cclose CursorClose
}

// maxRetained is the largest buffer a connection end keeps between round
// trips: one that grew past it (a batch commit, a cursor page) is dropped
// after its round trip rather than held for the life of the connection.
const maxRetained = 16 << 10

// DialConfig tunes how DialWithConfig establishes a connection and the I/O
// deadlines the resulting client applies per request. The zero value means:
// one dial attempt with defaultDialTimeout, no request deadlines.
type DialConfig struct {
	// DialTimeout bounds each connection attempt; zero means
	// defaultDialTimeout.
	DialTimeout time.Duration
	// DialRetries is how many additional attempts follow a failed dial
	// (total attempts = DialRetries+1). Zero means fail on the first error.
	DialRetries int
	// RetryBackoff is the pause before the first retry, doubling per attempt
	// and capped at maxRetryBackoff; zero means defaultRetryBackoff.
	RetryBackoff time.Duration
	// ReadTimeout bounds waiting for each response; zero means no deadline.
	// A request that outlives it fails with a net timeout error and the
	// connection is no longer usable (the protocol is synchronous).
	ReadTimeout time.Duration
	// WriteTimeout bounds sending each request; zero means no deadline.
	WriteTimeout time.Duration
}

const (
	defaultDialTimeout  = 5 * time.Second
	defaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = 2 * time.Second
)

// Dial connects to an ekbtreed server with a single attempt and no request
// deadlines. The returned client is connected but not yet authenticated; call
// Handshake next.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialWithConfig(addr, DialConfig{DialTimeout: timeout})
}

// DialWithConfig connects to an ekbtreed server, retrying failed dials with
// bounded exponential backoff per cfg, and arms the client's per-request I/O
// deadlines. The returned client is connected but not yet authenticated; call
// Handshake next.
func DialWithConfig(addr string, cfg DialConfig) (*Client, error) {
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			c := NewClient(nc)
			c.readTimeout = cfg.ReadTimeout
			c.writeTimeout = cfg.WriteTimeout
			return c, nil
		}
		lastErr = err
		if attempt >= cfg.DialRetries {
			return nil, lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// NewClient wraps an established connection (useful for tests and custom
// transports).
func NewClient(nc net.Conn) *Client {
	return &Client{nc: nc, br: bufio.NewReader(nc)}
}

// Close closes the underlying connection. Server-side, closing releases every
// cursor the connection still holds.
func (c *Client) Close() error { return c.nc.Close() }

// do sends one request and returns the OK body of its response, applying the
// client's per-request deadlines around the write and the response read. The
// body aliases the client's buffer: it is valid until the next call.
func (c *Client) do(req Request) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	c.buf = AppendRequest(c.buf[:0], req)
	// A request over MaxFrame is not sent, so the stream is still aligned.
	err := EndFrame(c.buf)
	if err == nil {
		if err = c.roundTrip(); err != nil {
			c.err = err
		}
	}
	payload := c.buf
	if cap(c.buf) > maxRetained {
		c.buf = nil // the caller copies out of payload; then it is garbage
	}
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// roundTrip writes the request frame in c.buf and reads the response frame
// back into it.
func (c *Client) roundTrip() error {
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	if _, err := c.nc.Write(c.buf); err != nil {
		return err
	}
	if c.readTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return err
		}
	}
	var err error
	c.buf, err = ReadFrameInto(c.br, c.buf, MaxFrame)
	return err
}

// Handshake authenticates the connection as tenant, proving knowledge of the
// tenant's authentication subkey (ekbtree.DeriveMaterial(master).AuthKey).
// On failure the server closes the connection; the client is then unusable.
func (c *Client) Handshake(tenant string, authKey []byte) error {
	body, err := c.do(&Hello{Version: ProtocolVersion, Tenant: tenant})
	if err != nil {
		return err
	}
	if len(body) != ChallengeSize {
		return errorf("challenge is %d bytes, want %d", len(body), ChallengeSize)
	}
	challenge := bytes.Clone(body) // the Auth request reuses the buffer
	_, err = c.do(&Auth{Proof: ProveAuth(authKey, challenge, tenant)})
	return err
}

// Open attaches the authenticated tenant's tree; required once before any
// data-plane call.
func (c *Client) Open() error {
	_, err := c.do(&Open{})
	return err
}

// Put stores value under the plaintext key.
func (c *Client) Put(key, value []byte) error {
	c.put = Put{Key: key, Value: value}
	_, err := c.do(&c.put)
	c.put = Put{}
	return err
}

// Get returns a copy of the value stored under the plaintext key.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	c.get = Get{Key: key}
	body, err := c.do(&c.get)
	c.get = Get{}
	if err != nil {
		return nil, false, err
	}
	value, found, err := DecodeGetBody(body)
	if err != nil || !found {
		return nil, false, err
	}
	return bytes.Clone(value), true, nil
}

// Delete removes the plaintext key, reporting whether it was present.
func (c *Client) Delete(key []byte) (bool, error) {
	c.del = Delete{Key: key}
	body, err := c.do(&c.del)
	c.del = Delete{}
	if err != nil {
		return false, err
	}
	return DecodeFoundBody(body)
}

// BatchCommit applies ops in order as one atomic commit.
func (c *Client) BatchCommit(ops []BatchOp) error {
	_, err := c.do(&BatchCommit{Ops: ops})
	return err
}

// CursorOpen opens a snapshot cursor over [lo, hi) in plaintext bounds (nil =
// unbounded), pinned to the tree version current at the call, and returns its
// ID.
func (c *Client) CursorOpen(lo, hi []byte) (uint64, error) {
	req := &CursorOpen{HasLo: lo != nil, Lo: lo, HasHi: hi != nil, Hi: hi}
	body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	return DecodeCursorIDBody(body)
}

// CursorNext streams up to max entries from cursor id. done is true once the
// cursor is exhausted (the server has closed it; no CursorClose needed). The
// entries' bytes are copied out of the response into one block the caller
// owns.
func (c *Client) CursorNext(id uint64, max int) (entries []Entry, done bool, err error) {
	if max <= 0 {
		return nil, false, fmt.Errorf("wire: CursorNext max must be positive")
	}
	body, err := c.do(&CursorNext{Cursor: id, Max: uint64(max)})
	if err != nil {
		return nil, false, err
	}
	if entries, done, err = DecodeEntriesBody(body); err != nil {
		return nil, false, err
	}
	size := 0
	for _, e := range entries {
		size += len(e.SubKey) + len(e.Value)
	}
	block := make([]byte, 0, size)
	own := func(p []byte) []byte {
		at := len(block)
		block = append(block, p...)
		return block[at:len(block):len(block)]
	}
	for i := range entries {
		entries[i] = Entry{SubKey: own(entries[i].SubKey), Value: own(entries[i].Value)}
	}
	return entries, done, nil
}

// CursorClose releases cursor id and its snapshot pin.
func (c *Client) CursorClose(id uint64) error {
	c.cclose = CursorClose{Cursor: id}
	_, err := c.do(&c.cclose)
	return err
}

// Stats returns the tenant tree's stats as JSON (unmarshal into
// ekbtree.Stats).
func (c *Client) Stats() ([]byte, error) {
	body, err := c.do(&Stats{})
	if err != nil {
		return nil, err
	}
	blob, err := DecodeBytesBody(body)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(blob), nil
}

// Sync blocks until every write acknowledged before the call is durable on
// the server.
func (c *Client) Sync() error {
	_, err := c.do(&Sync{})
	return err
}

// Vacuum compacts the tenant tree's backing files online until their total
// size is at or below target bytes, or as far as the layout allows for 0. It
// returns when the pass completes; other connections' traffic proceeds
// throughout.
func (c *Client) Vacuum(target uint64) error {
	_, err := c.do(&Vacuum{Target: target})
	return err
}
