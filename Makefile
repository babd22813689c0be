GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

BENCH_PKGS = ./internal/keysub/ ./internal/cipher/ ./internal/node/ ./internal/btree/ ./internal/store/file/ ./pkg/ekbtree/

.PHONY: all build binaries vet fmt-check lint test test-sharded race bench-raw bench-smoke benchmark benchmark-pairs soak-smoke fuzz-smoke clean

all: vet fmt-check lint build test

build:
	$(GO) build ./...

# binaries builds the server into ./bin.
binaries:
	$(GO) build -o bin/ekbtreed ./cmd/ekbtreed

# The second vet covers the build-tagged soak file plain vet skips.
vet:
	$(GO) vet ./...
	$(GO) vet -tags large ./pkg/ekbtree/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint holds the repository's structural rules: each `git grep` names code
# that must not come back, and fails printing where it did.
lint:
# One crash model: internal/faulttest, once. A test that declares its own
# faulting file double is a second model, which is how three came to share
# two holes. bench/ keeps its tracing decorators.
	@if git grep -nE 'func \(.*\) WriteAt' -- '*_test.go' ':!bench'; then echo "a _test.go file declares a WriteAt method; fault a file with internal/faulttest instead"; exit 1; fi
# Vacuum asks, the committer moves: the committer goroutine, the only one that
# recycles or truncates extents, copies them. A file call in vacuum.go is a
# read that has to be guarded against both again.
	@if git grep -nE 's\.f\.(ReadAt|WriteAt|Truncate|Sync)\(' -- internal/store/file/vacuum.go; then echo "vacuum.go calls the backing file; hand the committer a page ID instead (group.moves)"; exit 1; fi
# A served round trip allocates only what it hands back: the product builds
# frames in buffers it reuses. The allocating wrappers are for bench/ and tests.
	@if git grep -nE 'wire\.(ReadFrame|WriteFrame|EncodeRequest|EncodeOK)\(' -- cmd pkg ':!*_test.go'; then echo "build the frame in the connection's buffer instead (wire.Append*, wire.EndFrame, wire.ReadFrameInto)"; exit 1; fi
# Maintenance lives in the library (pkg/ekbtree/maintain.go): a server that
# starts a timer of its own grows a second loop a library user never gets.
	@if git grep -nE 'time\.(NewTicker|Tick)\(' -- cmd ':!*_test.go'; then echo "cmd/ starts a ticker; put background work in the tree's maintain loop and pass its policy through ekbtree.Options"; exit 1; fi
# A seal-counter reservation records a mark and nothing more: the file store
# makes the mark durable ahead of the pages sealed under it, so a Sync here
# would flush the whole pending group once per reservation.
	@if git grep -n 'Sync()' -- pkg/ekbtree/engine/seal.go; then echo "seal.go calls Sync; SetSealMark alone orders the mark before the pages (store.PageStore.SetSealMark)"; exit 1; fi
# One page store: a tree without a Path, and every engine and façade test,
# runs internal/store/file over a page file in memory. store.Mem is left only
# for bench/'s replay engine.
	@if git grep -nE 'store\.NewMem\(' -- '*.go' ':!bench' ':!internal/store'; then echo "use file.NewMem(), the file store over a page file in memory; store.Mem is kept only for bench/"; exit 1; fi
# One commit path and one failure rule: a root move is an ordinary optimistic
# commit, and a failed store commit stops its shard's writers with its epoch
# left linked.
	@if git grep -nE 'commitNeedsExclusive|failedSince|unlinkLocked' -- '*.go'; then echo "root moves commit optimistically and a store failure stops the shard; see Engine.tryCommit and epochs.finalize"; exit 1; fi
# The page format is the file's, not the caller's: the option that once chose
# it is gone, and no test helper may bring its names back.
	@if git grep -nwE 'NodeEncoding|EncodingAuto|EncodingPrefix|EncodingFull' -- '*.go'; then echo "the node-encoding option was removed; see README, Space management"; exit 1; fi
# One flush rule: holdLocked decides when a group flushes from the durability
# mode alone. The Grouped window is a constant, not a setting.
	@if git grep -nE '\bGroupWindow\b|DefaultGroupWindow|group-window|pubCount' -- '*.go'; then echo "the Grouped window is file.groupWindow, a constant; see holdLocked in internal/store/file/commit.go"; exit 1; fi
# Only the surface a caller uses: Space and Vacuum are PageStore methods, not
# side doors to assert for; a wire client's deadlines are set on its net.Conn.
	@if git grep -nE '\.\(store\.(Spacer|Vacuumer)\)|DialConfig|DialWithConfig' -- '*.go' ':!bench'; then echo "call Space and Vacuum on the PageStore; set deadlines on the net.Conn handed to wire.NewClient"; exit 1; fi
# One Stats type: the engine's, which the façade aliases and folds over shards.
	@out="$$(git grep -nE '^type Stats struct \{' -- pkg)"; if [ "$$(wc -l <<< "$$out")" != 1 ] || [[ "$$out" != pkg/ekbtree/engine/* ]]; then echo "$$out"; echo "declare Stats once, in pkg/ekbtree/engine; fold shards with Stats.Add"; exit 1; fi
# The page is the node: a read path may be handed a view, whose Keys, Values
# and Children are empty, so it reads a node only through its accessors. The
# tree's read paths live in iter.go and read.go; the engine caches, seals and
# scans nodes but never edits one (btree.go edits the copies Edit
# materialises), so none of its code indexes the fields.
	@if git grep -nE '\.(Keys|Values|Children)(\[|\)|\.\.\.)|range .*\.(Keys|Values|Children)\b' -- internal/btree/iter.go internal/btree/read.go 'pkg/ekbtree/engine/*.go' ':!*_test.go'; then echo "read a node on a read path through Len, Key, Value, Child and Search; a view's fields are empty"; exit 1; fi
# One node constructor: every node the write path builds comes from node.New
# (Materialize included), which allocates a node and its arrays as one object.
	@if git grep -nF '&node.Node{' -- '*.go' ':!*_test.go' ':!internal/node'; then echo "build a node with node.New, not a composite literal"; exit 1; fi
# Substitution allocates per chunk, not per key: keysub.go makes a byte buffer
# in one place, the chunk refill (subState.take), and cuts every result from
# the chunk.
	@if [ "$$(git grep -cE 'make\(\[\]byte' -- internal/keysub/keysub.go)" != "internal/keysub/keysub.go:1" ]; then git grep -nE 'make\(\[\]byte' -- internal/keysub/keysub.go; echo "cut substitution results from the pooled chunk (subState.take), not from a buffer of their own"; exit 1; fi

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, then repeats the legs a
# single run rarely loses:
#  - background vacuum against concurrent committers (x10);
#  - the fault sweeps (internal/faulttest) and commit-group walks: a flush
#    places pages in map-iteration order, so every run meets a new layout;
#  - the sweeps above the store: rotation's re-seal commits, a Sync whose group
#    raises the seal mark ahead of its pages, a whole tree whose background
#    rotator interleaves differently every run, the rotator backing off over a
#    store that refuses it, the same loop auto-vacuuming a churned tree, and
#    the engine's one commit path (failed commits stay invisible, root moves
#    commit optimistically);
#  - copy-on-write nodes: a transaction that altered a shared node in place,
#    an in-place decoder that saw a shared buffer, or anything that wrote into
#    a cached view's page, a committed batch's slab chunk or a substitution
#    chunk, is a data race only an overlapping reader shows, and racing
#    commits hand the one recycled workspace back and forth;
#  - the wire's two ends over real sockets, where each run lands the
#    responder's and the client's goroutines differently: a client's latched
#    transport error and a pre-auth frame refused.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestModelConcurrentWriters/vacuum' ./pkg/ekbtree/
	$(GO) test -race -count=5 -run 'FaultSweeps|AtomicityUnderFaults|TestGroupPageTable|TestAppliedHeaderThroughOverlays|TestInitCrashLeavesFreshFile|TestTransientFaultFailStops|TestVacuumStaleSelectionIsDropped' ./internal/store/file/
	$(GO) test -race -count=5 -run 'TestRotationCommitAtomicityUnderFaults|TestSealMarkPrecedesPagesUnderFaults|TestSealReservationDoesNotFlush|TestTreeCrashAtEveryFileOp|TestRotatorBacksOffOnPersistentFailure|TestFailedCommitsStayInvisible|TestRootMovesCommitOptimistically|TestAutoVacuum' ./pkg/ekbtree/engine/ ./pkg/ekbtree/
	$(GO) test -race -count=5 -run '^TestSharedNodesAreNeverAltered$$' ./internal/btree/
	$(GO) test -race -count=5 -run '^TestSnapshotSurvivesCopyOnWriteCommits$$|TestCachedViewsAreNeverWritten|TestTxnPageTable|TestRecycledWorkspaceIsEmpty|TestBatchSlabOwnership|TestSubstitutionResultsAreNotKept|TestResultsNeverOverlap' ./pkg/ekbtree/engine/ ./pkg/ekbtree/ ./internal/keysub/
	$(GO) test -race -count=5 -run 'TestColdReadsShareNothing|TestHotLeafBeatsColdIndexNode' ./pkg/ekbtree/...
	$(GO) test -race -count=5 -run 'TestClientLatchesTransportErrors|TestPreAuthFramesAllocateLittle' ./pkg/ekbtree/wire/ ./cmd/ekbtreed/

# test-sharded repeats the façade suite with every test tree defaulting to
# three range shards (EKBTREE_SHARDS repoints Options.Shards; see
# pkg/ekbtree/main_test.go), then the model harness under -race at three
# shards. At three shards a test with hundreds of keys fills every shard; the
# last leg spreads the cursor, scan and model tests over sixteen so that a
# cursor meets runs of empty shards.
test-sharded:
	EKBTREE_SHARDS=3 $(GO) test ./pkg/ekbtree/
	EKBTREE_SHARDS=3 $(GO) test -race -run TestModel ./pkg/ekbtree/
	EKBTREE_SHARDS=16 $(GO) test -run 'Cursor|Scan|Model' ./pkg/ekbtree/

# bench-raw prints the unprocessed go test -bench output.
bench-raw:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# bench-smoke runs every Go benchmark short-form (one iteration each): a
# cheap CI guard that the benchmark code itself still builds, runs, and
# exercises every durability mode.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# benchmark runs the repository benchmark (bench/, declared in
# BENCHMARK.json) in smoke form: every workload, untraced and traced, on a
# tree shrunk ~200-fold. benchmark-pairs compares two checkouts at full
# length against BENCHMARK.json's bounds:  make benchmark-pairs A=../parent B=.
benchmark:
	$(GO) run ./bench -smoke

A ?= .
B ?= .
benchmark-pairs:
	$(GO) run ./bench/cmd/repeat -a $(A) -b $(B)

# soak-smoke runs the build-tagged `large` ingest/soak tier (see
# pkg/ekbtree/ekbtree_large_test.go): millions of keys through the sharded
# file backend with vacuum and epoch rotation interleaved, full oracle
# readback, and the vacuumed file held to 1.5x its live bytes — one leg.
# SOAK_KEYS scales it (CI smoke 2M; the nightly tier runs 20M; the knob goes
# to 100M); -v prints the measured bytes/key, throughput and reopen time.
SOAK_KEYS ?= 2000000
SOAK_SHARDS ?= 3
soak-smoke:
	EKBTREE_LARGE_KEYS=$(SOAK_KEYS) EKBTREE_LARGE_SHARDS=$(SOAK_SHARDS) \
	$(GO) test -tags large -run '^TestLargeIngestSoak$$' -timeout 120m -v ./pkg/ekbtree/

# fuzz-smoke runs each fuzz target briefly (the f.Add seeds and the checked-in
# corpora under */testdata/fuzz always run as plain tests; this actually
# mutates). FUZZTIME=5m fuzz-smoke for a longer local session.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePrefixTruncated$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/keysub/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRange$$' -fuzztime $(FUZZTIME) ./internal/keysub/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/

clean:
	$(GO) clean ./...
