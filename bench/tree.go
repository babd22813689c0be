package main

import (
	"fmt"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/store/file"
	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// flushPolicy is printed with every library run: the store never flushes on
// its own account, so every flush is at an op count the workload states.
const flushPolicy = "DurabilityAsync, MaxUnflushed=256MB (back-pressure never fires); flushes only at Tree.Sync calls the workload makes at fixed op counts and at the engine's seal-counter reservations (every 4096 seals)"

// maxUnflushed is far above anything a run accumulates between two Syncs, so
// the store's timing-dependent back-pressure flush never starts.
const maxUnflushed = 256 << 20

// subWidth is the HMAC substituter's output width, the façade's own default.
const subWidth = 24

// The layer secrets are fixed: the seed varies the data, not the keys of the
// system under test.
var (
	subSecret = []byte("bench-keysub-secret-0123456789ab")
	cipherKey = []byte("bench-cipher-key-0123456789abcde")
)

// treeConfig is what distinguishes one workload's tree from another's.
type treeConfig struct {
	path       string
	cachePages int
	bucketed   bool // order-preserving bucketed substituter, 16 prefix bits
}

// layers are the three undecorated layers under a tree; the replays call
// them directly.
type layers struct {
	sub ekbtree.Substituter
	nc  *cipher.EpochAESGCM
	st  *file.Store
}

// openTree builds the three layers explicitly and opens a tree over them,
// the same way whether or not tr decorates them. The façade's own
// NewFileStoreConfig cannot set MaxUnflushed, hence the internal store
// constructor.
func openTree(cfg treeConfig, tr *tracer) (*ekbtree.Tree, layers, error) {
	var l layers
	var err error
	if cfg.bucketed {
		l.sub, err = ekbtree.NewBucketedSubstituter(subSecret, subWidth, 16)
	} else {
		l.sub, err = ekbtree.NewHMACSubstituter(subSecret, subWidth)
	}
	if err != nil {
		return nil, l, fmt.Errorf("substituter: %w", err)
	}
	// ekbtree.NewEpochAESGCMCipher is this constructor behind the NodeCipher
	// interface; the concrete type lets the decorator hold an EpochSealer.
	if l.nc, err = cipher.NewEpochAESGCM(cipherKey); err != nil {
		return nil, l, fmt.Errorf("cipher: %w", err)
	}
	l.st, err = file.OpenConfig(cfg.path, file.Config{Durability: file.Async, MaxUnflushed: maxUnflushed})
	if err != nil {
		return nil, l, fmt.Errorf("open page file: %w", err)
	}
	opts := ekbtree.Options{Substituter: l.sub, Cipher: l.nc, Store: l.st, CachePages: cfg.cachePages}
	if tr != nil {
		opts.Substituter = traceSubstituter(l.sub, tr)
		opts.Cipher = tracedCipher{inner: l.nc, t: tr}
		opts.Store = tracedStore{fullStore: l.st, t: tr}
	}
	t, err := ekbtree.Open(opts)
	if err != nil {
		l.st.Close() // a caller-provided store stays the caller's on failure
		return nil, l, fmt.Errorf("open tree: %w", err)
	}
	return t, l, nil
}
