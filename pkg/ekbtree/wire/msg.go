package wire

// Op identifies a request's operation; it is the first byte of every request
// payload.
type Op byte

const (
	// Handshake ops — the only ops accepted before authentication completes.
	OpHello Op = 0x01
	OpAuth  Op = 0x02

	// Data-plane ops, accepted only after authentication.
	OpOpen        Op = 0x10
	OpPut         Op = 0x11
	OpGet         Op = 0x12
	OpDelete      Op = 0x13
	OpBatchCommit Op = 0x14
	OpCursorOpen  Op = 0x15
	OpCursorNext  Op = 0x16
	OpCursorClose Op = 0x17
	OpStats       Op = 0x18
	OpSync        Op = 0x19
	OpVacuum      Op = 0x1A
)

// String names the op for logs and errors.
func (op Op) String() string {
	switch op {
	case OpHello:
		return "Hello"
	case OpAuth:
		return "Auth"
	case OpOpen:
		return "Open"
	case OpPut:
		return "Put"
	case OpGet:
		return "Get"
	case OpDelete:
		return "Delete"
	case OpBatchCommit:
		return "BatchCommit"
	case OpCursorOpen:
		return "CursorOpen"
	case OpCursorNext:
		return "CursorNext"
	case OpCursorClose:
		return "CursorClose"
	case OpStats:
		return "Stats"
	case OpSync:
		return "Sync"
	case OpVacuum:
		return "Vacuum"
	default:
		return "Op(unknown)"
	}
}

// Request is one client→server message. AppendRequest (or EncodeRequest)
// produces its frame; DecodeRequest parses one back into its typed form.
type Request interface {
	op() Op
	enc(b []byte) []byte
}

// AppendRequest appends req to dst as a whole frame — the length word, zero
// until EndFrame patches it, then opcode and fields — and returns the
// extended buffer.
func AppendRequest(dst []byte, req Request) []byte {
	return req.enc(append(dst, 0, 0, 0, 0, byte(req.op())))
}

// EncodeRequest renders req as a frame payload (opcode + fields).
func EncodeRequest(req Request) []byte { return AppendRequest(nil, req)[frameHeader:] }

// DecodeRequest parses a frame payload into its typed request, whose byte
// fields alias payload. Unknown opcodes and malformed bodies return an error
// wrapping ErrMalformed. Each opcode calls its message's decoder directly, so
// the decoder state stays on the stack: the typed request is the only
// allocation a fixed-size request costs.
func DecodeRequest(payload []byte) (Request, error) {
	if len(payload) == 0 {
		return nil, errorf("empty request")
	}
	d := decoder{b: payload[1:]}
	var req Request
	switch Op(payload[0]) {
	case OpHello:
		req = new(Hello).dec(&d)
	case OpAuth:
		req = new(Auth).dec(&d)
	case OpOpen:
		req = &Open{}
	case OpPut:
		req = new(Put).dec(&d)
	case OpGet:
		req = new(Get).dec(&d)
	case OpDelete:
		req = new(Delete).dec(&d)
	case OpBatchCommit:
		req = new(BatchCommit).dec(&d)
	case OpCursorOpen:
		req = new(CursorOpen).dec(&d)
	case OpCursorNext:
		req = new(CursorNext).dec(&d)
	case OpCursorClose:
		req = new(CursorClose).dec(&d)
	case OpStats:
		req = &Stats{}
	case OpSync:
		req = &Sync{}
	case OpVacuum:
		req = &Vacuum{}
	default:
		return nil, errorf("unknown opcode 0x%02x", payload[0])
	}
	if err := d.finish(); err != nil {
		return nil, errorf("%s: %v", req.op(), err)
	}
	return req, nil
}

// Hello opens the handshake: it names the tenant the connection wants and the
// protocol version it speaks. The server answers with a fresh random
// challenge (OK body: ChallengeSize bytes).
type Hello struct {
	Version uint64
	Tenant  string
}

func (*Hello) op() Op { return OpHello }
func (m *Hello) enc(b []byte) []byte {
	b = appendUvarint(b, m.Version)
	return appendString(b, m.Tenant)
}
func (m *Hello) dec(d *decoder) Request {
	m.Version = d.uvarint()
	m.Tenant = string(d.bytes())
	return m
}

// Auth answers the server's challenge with an HMAC proof of the tenant's
// authentication subkey (see ProveAuth). OK body: empty.
type Auth struct {
	Proof []byte
}

func (*Auth) op() Op                   { return OpAuth }
func (m *Auth) enc(b []byte) []byte    { return appendBytes(b, m.Proof) }
func (m *Auth) dec(d *decoder) Request { m.Proof = d.bytes(); return m }

// Open attaches the authenticated tenant's tree to the connection; it must be
// issued once before any other data-plane op. OK body: empty.
type Open struct{}

func (*Open) op() Op                { return OpOpen }
func (m *Open) enc(b []byte) []byte { return b }

// Put stores Value under the plaintext Key (the server's façade substitutes
// it before it reaches the tree). OK body: empty.
type Put struct {
	Key   []byte
	Value []byte
}

func (*Put) op() Op { return OpPut }
func (m *Put) enc(b []byte) []byte {
	b = appendBytes(b, m.Key)
	return appendBytes(b, m.Value)
}
func (m *Put) dec(d *decoder) Request {
	m.Key = d.bytes()
	m.Value = d.bytes()
	return m
}

// Get looks up the plaintext Key. OK body: found flag + value.
type Get struct {
	Key []byte
}

func (*Get) op() Op                   { return OpGet }
func (m *Get) enc(b []byte) []byte    { return appendBytes(b, m.Key) }
func (m *Get) dec(d *decoder) Request { m.Key = d.bytes(); return m }

// Delete removes the plaintext Key. OK body: found flag.
type Delete struct {
	Key []byte
}

func (*Delete) op() Op                   { return OpDelete }
func (m *Delete) enc(b []byte) []byte    { return appendBytes(b, m.Key) }
func (m *Delete) dec(d *decoder) Request { m.Key = d.bytes(); return m }

// BatchOp is one staged operation inside a BatchCommit.
type BatchOp struct {
	Del   bool
	Key   []byte
	Value []byte // ignored for deletes
}

// BatchCommit applies Ops in order as one atomic commit: a concurrent reader
// (or wire cursor) observes all of the batch or none of it. OK body: empty.
type BatchCommit struct {
	Ops []BatchOp
}

func (*BatchCommit) op() Op { return OpBatchCommit }
func (m *BatchCommit) enc(b []byte) []byte {
	b = appendUvarint(b, uint64(len(m.Ops)))
	for _, op := range m.Ops {
		b = appendBool(b, op.Del)
		b = appendBytes(b, op.Key)
		if !op.Del {
			b = appendBytes(b, op.Value)
		}
	}
	return b
}
func (m *BatchCommit) dec(d *decoder) Request {
	n := d.count(2) // an op is at least a flag and a key length
	if d.err != nil {
		return m
	}
	m.Ops = make([]BatchOp, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		op := BatchOp{Del: d.bool()}
		op.Key = d.bytes()
		if !op.Del {
			op.Value = d.bytes()
		}
		m.Ops = append(m.Ops, op)
	}
	return m
}

// CursorOpen creates a server-side snapshot cursor over the tenant's tree,
// pinned to the tree version current at open. Nil bounds are unbounded; the
// bounds are plaintext keys, mapped exactly as Tree.CursorRange maps them.
// OK body: cursor ID.
type CursorOpen struct {
	HasLo bool
	Lo    []byte
	HasHi bool
	Hi    []byte
}

func (*CursorOpen) op() Op { return OpCursorOpen }
func (m *CursorOpen) enc(b []byte) []byte {
	b = appendBool(b, m.HasLo)
	if m.HasLo {
		b = appendBytes(b, m.Lo)
	}
	b = appendBool(b, m.HasHi)
	if m.HasHi {
		b = appendBytes(b, m.Hi)
	}
	return b
}
func (m *CursorOpen) dec(d *decoder) Request {
	if m.HasLo = d.bool(); m.HasLo {
		m.Lo = d.bytes()
	}
	if m.HasHi = d.bool(); m.HasHi {
		m.Hi = d.bytes()
	}
	return m
}

// CursorNext streams up to Max entries from cursor Cursor. OK body: entry
// count, that many (substituted key, value) pairs, and a done flag that is
// true once the cursor is exhausted (the server closes and forgets an
// exhausted cursor; a later CursorNext on its ID is CodeUnknownCursor).
type CursorNext struct {
	Cursor uint64
	Max    uint64
}

func (*CursorNext) op() Op { return OpCursorNext }
func (m *CursorNext) enc(b []byte) []byte {
	b = appendUvarint(b, m.Cursor)
	return appendUvarint(b, m.Max)
}
func (m *CursorNext) dec(d *decoder) Request {
	m.Cursor = d.uvarint()
	m.Max = d.uvarint()
	return m
}

// CursorClose releases a cursor and its snapshot pin. Closing an unknown (or
// already exhausted) cursor is not an error — close races exhaustion
// harmlessly. OK body: empty.
type CursorClose struct {
	Cursor uint64
}

func (*CursorClose) op() Op                   { return OpCursorClose }
func (m *CursorClose) enc(b []byte) []byte    { return appendUvarint(b, m.Cursor) }
func (m *CursorClose) dec(d *decoder) Request { m.Cursor = d.uvarint(); return m }

// Stats asks for the tenant tree's ekbtree.Stats. OK body: the Stats JSON
// (ekbtree.Stats.MarshalJSON).
type Stats struct{}

func (*Stats) op() Op                { return OpStats }
func (m *Stats) enc(b []byte) []byte { return b }

// Sync is the durability barrier: it returns once every write acknowledged
// before it is durable on the tenant's store. OK body: empty.
type Sync struct{}

func (*Sync) op() Op                { return OpSync }
func (m *Sync) enc(b []byte) []byte { return b }

// Vacuum compacts the tenant tree's backing files online until no further
// batch improves them. Reads and writes on other connections proceed
// throughout. OK body: empty.
type Vacuum struct{}

func (*Vacuum) op() Op                { return OpVacuum }
func (m *Vacuum) enc(b []byte) []byte { return b }
