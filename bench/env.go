package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// verifyGets is how many sampled Gets the end-of-run check makes.
const verifyGets = 10_000

// env is one workload's system under test, set up and ready for ops.
type env interface {
	// setup builds the system from nothing in dir: open, bulk load, final
	// Sync, and whatever leaves it in the state the first warm-up op meets.
	setup(dir string) error
	// discard tears down what setup built, so setup can run again.
	discard() error
	runners() []opRunner
	// sync makes every acknowledged write durable.
	sync() error
	// space reports the page file's size, its live part and the live keys,
	// as of the last sync.
	space() (fileBytes, liveBytes int64, keys int, err error)
	// treePID is the process holding the tree: 0 for this one.
	treePID() int
	// verify closes the system, reopens its file and checks the contents
	// against what the seed and the op stream predict.
	verify() error
}

// libEnv is a library workload: the tree lives in this process.
type libEnv struct {
	sp   spec
	g    keygen
	path string
	tr   *tracer // decorates the layers when set
	tree *ekbtree.Tree
	l    layers // the tree's undecorated layers
	rs   []opRunner
}

// retargeter is a runner whose tree can be swapped when the file is reopened
// between the phases of a traced run; its model of the contents carries over.
type retargeter interface{ retarget(t *ekbtree.Tree) }

func (r *getRunner) retarget(t *ekbtree.Tree)    { r.t = t }
func (r *scanRunner) retarget(t *ekbtree.Tree)   { r.t = t }
func (r *ingestRunner) retarget(t *ekbtree.Tree) { r.t = t }
func (r *mixRunner) retarget(t *ekbtree.Tree)    { r.t = t }

func newLibEnv(sp spec, seed uint64) *libEnv {
	return &libEnv{sp: sp, g: sp.keygen(seed)}
}

func (e *libEnv) config() treeConfig {
	return treeConfig{path: e.path, cachePages: e.sp.cachePages, bucketed: e.sp.bucketed}
}

// setup is one full set-up: create the page file, bulk load, Sync, Close,
// and reopen. The reopen is inside it so that work a change moves into Open
// shows in setup_s, and so that every phase — traced or not — starts from the
// same state: a synced file and an empty cache.
func (e *libEnv) setup(dir string) error {
	e.path = filepath.Join(dir, e.sp.name+".ekbt")
	t, _, err := openTree(e.config(), nil)
	if err != nil {
		return err
	}
	if err := bulkLoad(t, e.g, e.sp.keys); err != nil {
		t.Close()
		return fmt.Errorf("bulk load: %w", err)
	}
	if err := t.Close(); err != nil {
		return fmt.Errorf("close after load: %w", err)
	}
	return e.reopen()
}

// reopen opens the existing file and points the runners at it, making them
// on first use.
func (e *libEnv) reopen() error {
	t, l, err := openTree(e.config(), e.tr)
	if err != nil {
		return err
	}
	e.tree, e.l = t, l
	if e.rs == nil {
		e.rs = e.newRunners()
	}
	for _, r := range e.rs {
		r.(retargeter).retarget(t)
	}
	return nil
}

// traceClone copies the synced page file and opens a second tree over the
// copy with tr decorating its layers. The receiver's tree is closed for the
// copy and reopened after it.
func (e *libEnv) traceClone(tr *tracer) (*libEnv, error) {
	if err := e.tree.Close(); err != nil {
		return nil, fmt.Errorf("close before copy: %w", err)
	}
	raw, err := os.ReadFile(e.path)
	if err != nil {
		return nil, err
	}
	te := &libEnv{sp: e.sp, g: e.g, path: e.path + ".traced", tr: tr}
	if err := os.WriteFile(te.path, raw, 0o600); err != nil {
		return nil, err
	}
	if err := e.reopen(); err != nil {
		return nil, err
	}
	return te, te.reopen()
}

func (e *libEnv) newRunners() []opRunner {
	n, rng := uint64(e.sp.keys), clientRand(e.g.seed, 0)
	switch {
	case e.sp.bucketed:
		return []opRunner{&scanRunner{g: e.g, n: n, rng: rng}}
	case e.sp.name == "ingest":
		return []opRunner{&ingestRunner{g: e.g, rng: rng, hi: n, ver: make([]uint32, n)}}
	case e.sp.served:
		// The served op stream replayed against a library tree.
		rs := make([]opRunner, e.sp.clients)
		for c := range rs {
			rs[c] = newMixRunner(nil, e.g, n, c, e.sp.clients)
		}
		return rs
	default:
		return []opRunner{&getRunner{g: e.g, n: n, rng: rng}}
	}
}

func (e *libEnv) discard() error {
	e.rs = nil
	if err := e.tree.Close(); err != nil {
		return err
	}
	return os.Remove(e.path)
}

func (e *libEnv) runners() []opRunner { return e.rs }
func (e *libEnv) sync() error         { return e.tree.Sync() }
func (e *libEnv) treePID() int        { return 0 }

func (e *libEnv) space() (int64, int64, int, error) {
	st, err := e.tree.Stats()
	return st.FileBytes, st.LiveBytes, st.Keys, err
}

// expect is what the seed and the op stream predict for index idx.
func (e *libEnv) expect(idx uint64) (present bool, version int64) {
	switch r := e.rs[0].(type) {
	case *ingestRunner:
		if idx < r.lo || idx >= r.hi {
			return false, 0
		}
		return true, int64(r.ver[idx])
	case *mixRunner:
		owner := e.rs[idx%uint64(len(e.rs))].(*mixRunner)
		return idx < owner.n, int64(owner.ver[idx])
	}
	return idx < uint64(e.sp.keys), 0
}

// indexSpan is the range sampled indices are drawn from: every index that
// was ever live.
func (e *libEnv) indexSpan() uint64 {
	if r, ok := e.rs[0].(*ingestRunner); ok {
		return r.hi
	}
	return uint64(e.sp.keys)
}

func (e *libEnv) verify() error {
	if err := e.tree.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	t, _, err := openTree(e.config(), nil)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer t.Close()
	return checkContents(t, e.g, e.sp.keys, e.indexSpan(), e.expect)
}

// checkContents counts the tree's entries by a full cursor scan and makes
// verifyGets sampled Gets, a twentieth of them for never-inserted keys.
func checkContents(t *ekbtree.Tree, g keygen, wantKeys int, span uint64, expect func(uint64) (bool, int64)) error {
	c := t.Cursor()
	count := 0
	for ok := c.First(); ok; ok = c.Next() {
		count++
	}
	err := c.Err()
	c.Close()
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if count != wantKeys {
		return fmt.Errorf("full scan found %d keys, want %d", count, wantKeys)
	}
	return sampleGets(t, g, span, expect)
}

func sampleGets(t kv, g keygen, span uint64, expect func(uint64) (bool, int64)) error {
	rng := rand.New(rand.NewSource(int64(mix64(g.seed ^ 0x7e57))))
	var kb [keyLen]byte
	for i := 0; i < verifyGets; i++ {
		idx := uint64(rng.Int63n(int64(span)))
		present, version := expect(idx)
		if i%20 == 0 {
			idx, present = idx|absentBit, false
		}
		v, ok, err := t.Get(g.key(kb[:], idx))
		switch {
		case err != nil:
			return fmt.Errorf("verify Get of index %d: %w", idx, err)
		case ok != present:
			return fmt.Errorf("verify Get of index %d: present=%v, want %v", idx, ok, present)
		case ok && !checkValue(v, g.seed, idx, version):
			return fmt.Errorf("verify Get of index %d: wrong value (want version %d)", idx, version)
		}
	}
	return nil
}

// srvEnv is the served workload: the tree lives in an ekbtreed child and ops
// cross the wire on one connection per client.
type srvEnv struct {
	sp    spec
	g     keygen
	bin   string
	srv   *server
	ctl   *wire.Client // preload, Stats, Sync and the end-of-run check
	conns []*wire.Client
	rs    []opRunner
}

func (e *srvEnv) setup(dir string) error {
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		return err
	}
	srv, err := startServer(e.bin, dataDir)
	if err != nil {
		return err
	}
	e.srv = srv
	if e.ctl, err = srv.dial(); err != nil {
		return err
	}
	if err := preload(e.ctl, e.g, e.sp.keys); err != nil {
		return err
	}
	e.rs = make([]opRunner, e.sp.clients)
	for c := range e.rs {
		conn, err := srv.dial()
		if err != nil {
			return err
		}
		e.conns = append(e.conns, conn)
		e.rs[c] = newMixRunner(conn, e.g, uint64(e.sp.keys), c, e.sp.clients)
	}
	return nil
}

func (e *srvEnv) closeConns() {
	for _, c := range append(e.conns, e.ctl) {
		if c != nil {
			c.Close()
		}
	}
	e.conns, e.ctl = nil, nil
}

func (e *srvEnv) discard() error {
	e.closeConns()
	if err := e.srv.drain(); err != nil {
		return err
	}
	return os.RemoveAll(e.srv.dataDir)
}

// abort stops the child on an error path, where a clean drain is moot.
func (e *srvEnv) abort() {
	e.closeConns()
	if e.srv != nil {
		e.srv.kill()
	}
}

func (e *srvEnv) runners() []opRunner { return e.rs }
func (e *srvEnv) sync() error         { return e.ctl.Sync() }
func (e *srvEnv) treePID() int        { return e.srv.cmd.Process.Pid }

func (e *srvEnv) space() (int64, int64, int, error) {
	st, err := serverStats(e.ctl)
	return st.FileBytes, st.LiveBytes, st.Keys, err
}

func (e *srvEnv) expect(idx uint64) (bool, int64) {
	return true, int64(e.rs[idx%uint64(len(e.rs))].(*mixRunner).ver[idx])
}

// verify checks sampled keys over the wire, requires a clean SIGTERM drain,
// then reopens the tenant's page file in this process and counts its keys.
func (e *srvEnv) verify() error {
	if err := sampleGets(e.ctl, e.g, uint64(e.sp.keys), e.expect); err != nil {
		return err
	}
	e.closeConns()
	if err := e.srv.drain(); err != nil {
		return err
	}
	m, err := ekbtree.DeriveMaterial(tenantMaster)
	if err != nil {
		return err
	}
	t, err := ekbtree.OpenWithMaterial(m, ekbtree.Options{Path: e.srv.tenantFile()})
	if err != nil {
		return fmt.Errorf("reopen tenant file: %w", err)
	}
	defer t.Close()
	return checkContents(t, e.g, e.sp.keys, uint64(e.sp.keys), e.expect)
}
