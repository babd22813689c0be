package ekbtree

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestMain lets the whole façade suite run unmodified range-sharded: with
// EKBTREE_SHARDS=N (N > 1), every test tree that does not pin Shards or pass
// a Store is split across N engines — so the routed Put/Get/Delete paths, the
// per-shard batch fan-out, and the cross-shard cursor face the entire suite's
// assertions, not just the shard-specific tests. The shard-matrix CI job runs
// EKBTREE_SHARDS=3, and the cursor, scan and model tests at 16, where most
// shards of a small tree are empty.
func TestMain(m *testing.M) {
	if s := os.Getenv("EKBTREE_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "invalid EKBTREE_SHARDS %q (want a positive integer)\n", s)
			os.Exit(1)
		}
		testDefaultShards = n
	}
	os.Exit(m.Run())
}
