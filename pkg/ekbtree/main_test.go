package ekbtree

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// TestMain lets the whole façade suite run unmodified against other
// configurations: with EKBTREE_BACKEND=file, every test that opens a tree
// without an explicit Store gets a fresh crash-safe file-backed store instead
// of the in-memory one, and with EKBTREE_SHARDS=N (N > 1), every such tree is
// range-sharded across N engines — so the routed Put/Get/Delete paths, the
// per-shard batch fan-out, and the cross-shard cursor face the entire suite's
// assertions, not just the shard-specific tests. CI and `make test` run the
// backends; the shard-matrix CI job runs EKBTREE_SHARDS=3, and the cursor,
// scan and model tests at 16, where most shards of a small tree are empty.
func TestMain(m *testing.M) {
	if s := os.Getenv("EKBTREE_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "invalid EKBTREE_SHARDS %q (want a positive integer)\n", s)
			os.Exit(1)
		}
		testDefaultShards = n
	}
	switch backend := os.Getenv("EKBTREE_BACKEND"); backend {
	case "", "mem":
		os.Exit(m.Run())
	case "file":
		dir, err := os.MkdirTemp("", "ekbtree-file-backend-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "backend setup:", err)
			os.Exit(1)
		}
		var n atomic.Uint64
		newDefaultStore = func() (store.PageStore, error) {
			return file.Open(filepath.Join(dir, fmt.Sprintf("t%d.ekb", n.Add(1))))
		}
		code := m.Run()
		os.RemoveAll(dir)
		os.Exit(code)
	default:
		fmt.Fprintf(os.Stderr, "unknown EKBTREE_BACKEND %q (want mem or file)\n", backend)
		os.Exit(1)
	}
}
