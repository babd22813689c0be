GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

BENCH_PKGS = ./internal/keysub/ ./internal/cipher/ ./internal/node/ ./internal/btree/ ./internal/store/file/ ./pkg/ekbtree/
BENCH_NOTE ?= local run

.PHONY: all build binaries vet fmt-check test test-sharded race bench bench-raw bench-smoke benchmark benchmark-pairs bench-server server-smoke soak-smoke fuzz-smoke clean

all: vet fmt-check build test

build:
	$(GO) build ./...

# binaries builds the server and its load driver into ./bin.
binaries:
	$(GO) build -o bin/ekbtreed ./cmd/ekbtreed
	$(GO) build -o bin/ekbtree-bench ./cmd/ekbtree-bench

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The façade suite runs twice: once over the in-memory backend and once over
# the crash-safe file backend (EKBTREE_BACKEND=file repoints the default
# store; see pkg/ekbtree/main_test.go).
test:
	$(GO) test ./...
	EKBTREE_BACKEND=file $(GO) test ./pkg/...

race:
	$(GO) test -race ./...
	EKBTREE_BACKEND=file $(GO) test -race ./pkg/...

# test-sharded repeats the façade suite with every test tree defaulting to
# three range shards (EKBTREE_SHARDS repoints Options.Shards the same way
# EKBTREE_BACKEND repoints the store); the file flavor runs -short because
# sharded trees triple the fsync traffic of the slow durability sweeps.
test-sharded:
	EKBTREE_SHARDS=3 $(GO) test ./pkg/ekbtree/
	EKBTREE_BACKEND=file EKBTREE_SHARDS=3 $(GO) test -short ./pkg/ekbtree/

# bench regenerates BENCH_btree.json-style output on stdout; redirect to
# refresh the checked-in file:  make bench BENCH_NOTE="PR N: ..." > BENCH_btree.json
bench:
	@$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) | $(GO) run ./tools/benchjson -note "$(BENCH_NOTE)"

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

# bench-server runs the live load driver against a freshly started ekbtreed
# on a temp dir and refreshes BENCH_server.json: zipfian/uniform/scan mixes at
# three concurrency levels, p50/p99/p999 recorded per point. Tune with
# BENCH_SERVER_DURATION / BENCH_SERVER_KEYS; a shard sweep is one run per
# count, e.g.  make bench-server BENCH_SERVER_SHARDS=4 \
#   BENCH_SERVER_MIXES=ingest BENCH_SERVER_OUT=bench-shards4.json
BENCH_SERVER_DURATION ?= 3s
BENCH_SERVER_KEYS ?= 10000
BENCH_SERVER_OUT ?= BENCH_server.json
BENCH_SERVER_MIXES ?= zipfian,uniform,scan
BENCH_SERVER_CONNS ?= 1,4,16
BENCH_SERVER_SHARDS ?= 1
BENCH_SERVER_BATCH ?= 64
bench-server: binaries
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	master=$$(printf 'b%.0s' $$(seq 64)); \
	./bin/ekbtreed -data "$$dir/data" -provision bench -master-hex "$$master"; \
	./bin/ekbtreed -data "$$dir/data" -addr 127.0.0.1:0 -addr-file "$$dir/addr" \
		-shards $(BENCH_SERVER_SHARDS) & pid=$$!; \
	for i in $$(seq 50); do [ -s "$$dir/addr" ] && break; sleep 0.1; done; \
	./bin/ekbtree-bench -addr "$$(cat $$dir/addr)" -tenant bench -master-hex "$$master" \
		-mixes $(BENCH_SERVER_MIXES) -conns $(BENCH_SERVER_CONNS) \
		-shards $(BENCH_SERVER_SHARDS) -batch $(BENCH_SERVER_BATCH) \
		-duration $(BENCH_SERVER_DURATION) -keys $(BENCH_SERVER_KEYS) \
		-out $(BENCH_SERVER_OUT) -note "$(BENCH_NOTE)"; \
	kill -TERM $$pid; wait $$pid

# server-smoke is the CI guard for the networked path: start ekbtreed on a
# temp dir, push a short load through every mix (including batched ingest),
# then SIGTERM and require a clean drain exit. SERVER_SMOKE_SHARDS=3 runs
# the same smoke against a range-sharded tenant.
SERVER_SMOKE_SHARDS ?= 1
server-smoke: binaries
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	master=$$(printf 'b%.0s' $$(seq 64)); \
	./bin/ekbtreed -data "$$dir/data" -provision smoke -master-hex "$$master"; \
	./bin/ekbtreed -data "$$dir/data" -addr 127.0.0.1:0 -addr-file "$$dir/addr" \
		-shards $(SERVER_SMOKE_SHARDS) & pid=$$!; \
	for i in $$(seq 50); do [ -s "$$dir/addr" ] && break; sleep 0.1; done; \
	./bin/ekbtree-bench -addr "$$(cat $$dir/addr)" -tenant smoke -master-hex "$$master" \
		-mixes zipfian,uniform,scan,ingest -conns 2 -duration 300ms -keys 500 \
		-shards $(SERVER_SMOKE_SHARDS) \
		-out "$$dir/bench.json" -note smoke; \
	kill -TERM $$pid; wait $$pid; \
	echo "server-smoke: clean drain exit (shards=$(SERVER_SMOKE_SHARDS))"

# soak-smoke runs the build-tagged `large` ingest/soak tier (see
# pkg/ekbtree/ekbtree_large_test.go): millions of keys through the sharded
# file backend with vacuum and epoch rotation interleaved, full oracle
# readback, and the prefix-vs-full bytes/key comparison. SOAK_KEYS scales it
# (CI smoke 2M; the nightly tier runs 20M; the knob goes to 100M);
# SOAK_OUT captures the measured report.
SOAK_KEYS ?= 2000000
SOAK_SHARDS ?= 3
SOAK_OUT ?=
soak-smoke:
	EKBTREE_LARGE_KEYS=$(SOAK_KEYS) EKBTREE_LARGE_SHARDS=$(SOAK_SHARDS) \
	EKBTREE_LARGE_OUT=$(SOAK_OUT) \
	$(GO) test -tags large -run '^TestLargeIngestSoak$$' -timeout 120m -v ./pkg/ekbtree/

# fuzz-smoke runs each fuzz target briefly (the checked-in seed corpora under
# internal/*/testdata/fuzz always run as plain tests; this actually mutates).
# FUZZTIME=5m fuzz-smoke for a longer local session.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePrefixTruncated$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/keysub/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRange$$' -fuzztime $(FUZZTIME) ./internal/keysub/

clean:
	$(GO) clean ./...
