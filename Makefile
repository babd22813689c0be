GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

BENCH_PKGS = ./internal/keysub/ ./internal/cipher/ ./internal/node/ ./internal/btree/ ./internal/store/file/ ./pkg/ekbtree/

.PHONY: all build binaries vet fmt-check test test-sharded race bench-raw bench-smoke benchmark benchmark-pairs soak-smoke fuzz-smoke clean

all: vet fmt-check build test

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

test:
	$(GO) test ./...

# The second line repeats the fault sweeps (internal/faulttest) and
# commit-group walks: a flush places pages in map-iteration order, so every
# run meets a new layout. The third is the sweeps above the store: rotation's
# re-seal commits and a whole tree, whose background rotator interleaves
# differently every run, the rotator backing off over a store that refuses
# it, the same loop auto-vacuuming a tree while nothing else touches it, and
# the engine's one commit path (failed commits stay invisible, root moves
# commit optimistically).
# The last is the wire's two ends over real sockets, where each run lands the
# responder's and the client's goroutines differently: a client's latched
# transport error and a pre-auth frame refused.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run 'FaultSweeps|AtomicityUnderFaults|TestGroupPageTable|TestAppliedHeaderThroughOverlays|TestInitCrashLeavesFreshFile|TestTransientFaultFailStops|TestVacuumStaleSelectionIsDropped' ./internal/store/file/
	$(GO) test -race -count=5 -run 'TestRotationCommitAtomicityUnderFaults|TestSealMarkPrecedesPagesUnderFaults|TestSealReservationDoesNotFlush|TestTreeCrashAtEveryFileOp|TestRotatorBacksOffOnPersistentFailure|TestFailedCommitsStayInvisible|TestRootMovesCommitOptimistically|TestAutoVacuum' ./pkg/ekbtree/engine/ ./pkg/ekbtree/
	$(GO) test -race -count=5 -run 'TestClientLatchesTransportErrors|TestPreAuthFramesAllocateLittle' ./pkg/ekbtree/wire/ ./cmd/ekbtreed/

# test-sharded repeats the façade suite with every test tree defaulting to
# three range shards (EKBTREE_SHARDS repoints Options.Shards; see
# pkg/ekbtree/main_test.go). At three shards a test with hundreds of keys
# fills every shard; the last leg spreads the cursor, scan and model tests
# over sixteen so that a cursor meets runs of empty shards.
test-sharded:
	EKBTREE_SHARDS=3 $(GO) test ./pkg/ekbtree/
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
