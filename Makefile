GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

BENCH_PKGS = ./internal/keysub/ ./internal/cipher/ ./internal/node/ ./internal/btree/ ./internal/store/file/ ./pkg/ekbtree/engine/ ./pkg/ekbtree/

.PHONY: all build binaries vet fmt-check lint test race bench-raw bench-smoke benchmark benchmark-pairs soak-smoke fuzz-smoke clean

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
# Vacuum asks, the committer chooses: vacuum.go chooses pages, purely, and
# flushGroup copies them on the committer goroutine, the only one that
# recycles or truncates extents. A file call in vacuum.go is a read that has to
# be guarded against both again.
	@if git grep -nE 's\.f\.(ReadAt|WriteAt|Truncate|Sync)\(' -- internal/store/file/vacuum.go; then echo "vacuum.go calls the backing file; choose pages there (pass.choose) and copy them in flushGroup"; exit 1; fi
# A vacuum step names its pass and never a page: the flush that runs it chooses
# from the durable state it replaces, so no selection can go stale and none is
# re-checked.
	@if git grep -nE 'vacuumQuietLocked|moves +map\[|relocate\(\[\]uint64' -- internal/store/file; then echo "a vacuum step enqueues its pass (relocate(pass{...})); flushGroup chooses the pages"; exit 1; fi
# One writer, one install: a flush edits the durable page map in place as it
# places each page, and flip installs the rest once the slot is durable. A map
# copy or a durableState value in commit.go is a flush rebuilding the state.
	@if git grep -nE 'make\(map\[uint64\]extent|durableState\{' -- internal/store/file/commit.go; then echo "commit.go rebuilds the durable state; edit s.pages in place in flushGroup and install the rest in flip"; exit 1; fi
# A served round trip allocates only what it hands back: the product builds
# frames in buffers it reuses. The allocating wrappers are for bench/ and tests.
	@if git grep -nE 'wire\.(ReadFrame|WriteFrame|EncodeRequest|EncodeOK)\(' -- cmd pkg ':!*_test.go'; then echo "build the frame in the connection's buffer instead (wire.Append*, wire.EndFrame, wire.ReadFrameInto)"; exit 1; fi
# Nothing polls: the tree's one background loop (pkg/ekbtree/maintain.go)
# rotates when an epoch advance kicks it, every flush packs, and Vacuum runs
# when a caller asks. A ticker in the library or a server is a poll coming
# back; tests and bench/ may keep their own.
	@if git grep -nE 'time\.(NewTicker|Tick)\(' -- '*.go' ':!*_test.go' ':!bench'; then echo "a ticker outside tests and bench/; background work is the rotator, kicked by epoch advances (maintain.go), and compaction is Tree.Vacuum on request"; exit 1; fi
# Vacuum takes no target: from the wire op down to the store, compaction is
# one call that goes as far as the layout allows. A target file size had no
# caller; a bound on compaction, if one comes back, is an I/O budget.
	@if git grep -nE 'Vacuum\([a-zA-Z]+ u?int64\)|Target +uint64|target +int64|target: *dataStart|negative vacuum target' -- '*.go' ':!bench'; then echo "Vacuum takes no target: compaction is one call with no parameter (store.Vacuumer, Tree.Vacuum, wire.Vacuum)"; exit 1; fi
# A seal-counter reservation records a mark and nothing more: the file store
# makes the mark durable ahead of the pages sealed under it, so a Sync here
# would flush the whole pending group once per reservation.
	@if git grep -n 'Sync()' -- pkg/ekbtree/engine/seal.go; then echo "seal.go calls Sync; SetSealMark alone orders the mark before the pages (store.PageStore.SetSealMark)"; exit 1; fi
# One page store: a tree without a Path, and every engine and façade test,
# runs internal/store/file over a page file in memory. store.Mem is left only
# for bench/'s replay engine.
	@if git grep -nE 'store\.NewMem\(' -- '*.go' ':!bench' ':!internal/store'; then echo "use file.NewMem(), the file store over a page file in memory; store.Mem is kept only for bench/"; exit 1; fi
# One commit path and one failure rule: the engine's writers take turns, so a
# commit, root move or not, is never validated, conflicted or retried, and a
# failed store commit stops the writers with its epoch left linked.
	@if git grep -nE 'commitNeedsExclusive|failedSince|unlinkLocked|errConflict|commitBackoff|maxOptimisticAttempts|validateAndPrepare' -- '*.go'; then echo "the engine's writers take turns and a store failure stops them; see Engine.commit and epochs.finalize"; exit 1; fi
# The page format is the file's, not the caller's: the option that once chose
# it is gone, and no test helper may bring its names back.
	@if git grep -nwE 'NodeEncoding|EncodingAuto|EncodingPrefix|EncodingFull' -- '*.go'; then echo "the node-encoding option was removed; see README, Space management"; exit 1; fi
# One flush rule: holdLocked decides when a group flushes from the durability
# mode alone. The Grouped window is a constant, not a setting.
	@if git grep -nE '\bGroupWindow\b|DefaultGroupWindow|group-window|pubCount' -- '*.go'; then echo "the Grouped window is file.groupWindow, a constant; see holdLocked in internal/store/file/commit.go"; exit 1; fi
# One group commit per tree: CommitPages calls on one store never overlap and
# every call names its root, so the store holds no group open for a wave of
# committers and has no root to keep.
	@if git grep -nwE 'fullHold|lastGroup|KeepRoot' -- '*.go'; then echo "the tree's one group commit is Engine.commit, under its write turn; the file store takes a Full group at once and every CommitPages names its root"; exit 1; fi
# Only the surface a caller uses: Space and Vacuum are PageStore methods, not
# side doors to assert for; a wire client's deadlines are set on its net.Conn.
	@if git grep -nE '\.\(store\.(Spacer|Vacuumer)\)|DialConfig|DialWithConfig' -- '*.go' ':!bench'; then echo "call Space and Vacuum on the PageStore; set deadlines on the net.Conn handed to wire.NewClient"; exit 1; fi
# One Stats type: the engine's, which the façade aliases.
	@out="$$(git grep -nE '^type Stats struct \{' -- pkg)"; if [ "$$(wc -l <<< "$$out")" != 1 ] || [[ "$$out" != pkg/ekbtree/engine/* ]]; then echo "$$out"; echo "declare Stats once, in pkg/ekbtree/engine; the façade aliases it"; exit 1; fi
# One tree, one engine: range sharding, its router, its nonce partition and
# the test seam that ran the suite sharded are gone. A layout a sharded tree
# left behind is refused at Open (checkUnsharded, checkHeader).
	@if git grep -nwE 'ShardRouter|MaxShards|CounterBase|testDefaultShards|EKBTREE_SHARDS' -- '*.go'; then echo "a Tree drives one engine over one store; range sharding was removed (README, Sharding)"; exit 1; fi
# The page is the node: a read path may be handed a view, whose Keys, Values
# and Children are empty, so it reads a node only through its accessors. The
# tree's read paths live in iter.go and read.go; the engine caches, seals and
# scans nodes but never edits one (btree.go edits the copies Edit
# materialises), so none of its code indexes the fields.
	@if git grep -nE '\.(Keys|Values|Children)(\[|\)|\.\.\.)|range .*\.(Keys|Values|Children)\b' -- internal/btree/iter.go internal/btree/read.go 'pkg/ekbtree/engine/*.go' ':!*_test.go'; then echo "read a node on a read path through Len, Key, Value, Child and Search; a view's fields are empty"; exit 1; fi
# The page is the node: a version-2 page holds its keys in a stride array, so
# a view reads them by arithmetic on the page. A per-key offset table, or a
# side buffer for keys rebuilt outside the page, is a second view layout.
	@if git grep -nE 'inSide|\[viewRoom\]entry|^\s+side\s' -- internal/node; then echo "a view answers from its page and header fields (node.Node: page, nkeys, width, vals); no offset table or side buffer"; exit 1; fi
# One format written: the tree writes version-2 pages, and only bench/'s
# replay and the tests that build an older file's pages ask for version 1.
	@if git grep -nE 'NodeFormat:\s*node\.Format(Prefix|Full)' -- '*.go' ':!bench' ':!*_test.go'; then echo "product code writes node.FormatStride (the zero value); version-1 pages are only read, by transcoding"; exit 1; fi
# One node constructor: every node the write path builds comes from node.New
# (Materialize included), which allocates a node and its arrays as one object.
	@if git grep -nF '&node.Node{' -- '*.go' ':!*_test.go' ':!internal/node'; then echo "build a node with node.New, not a composite literal"; exit 1; fi
# Substitution allocates per chunk, not per key: keysub.go makes a byte buffer
# in one place, the chunk refill (subState.take), and cuts every result from
# the chunk.
	@if [ "$$(git grep -cE 'make\(\[\]byte' -- internal/keysub/keysub.go)" != "internal/keysub/keysub.go:1" ]; then git grep -nE 'make\(\[\]byte' -- internal/keysub/keysub.go; echo "cut substitution results from the pooled chunk (subState.take), not from a buffer of their own"; exit 1; fi
# A steady-state flush makes no garbage: flushGroup and flip rebuild the free
# index, the released list, the next free list, the directory and the slot
# in the committer's scratch (Store.scratch), whose byte buffers only
# keptBuffer remakes. A byte or extent slice made in commit.go is a flush
# allocating its directory or an extent list again.
	@if git grep -nE 'make\(\[\](byte|extent)|var [a-zA-Z]+ \[\]extent' -- internal/store/file/commit.go; then echo "reuse the committer's scratch (Store.scratch: freeIndex.reset, released, free, dir and page through keptBuffer, slot) instead of a slice per flush"; exit 1; fi
# A batch stages into the tree's scratch: its op slice and slab chunks go back
# to the tree when Commit or Discard returns, and Batch.refill is the one
# place batch.go makes a chunk, kept by the scratch while it has room.
	@if [ "$$(git grep -c 'make(\[\]byte' -- pkg/ekbtree/batch.go)" != "pkg/ekbtree/batch.go:1" ]; then git grep -n 'make(\[\]byte' -- pkg/ekbtree/batch.go; echo "take slab chunks through Batch.refill, which reuses the tree's scratch (Tree.scratch)"; exit 1; fi
# Sealed pages come back: the cipher takes every page it seals from
# pagebuf.Get, and the file store gives each one back once no reader can reach
# it. A buffer made in cipher.go is a seal allocating its page again.
	@if git grep -n 'make(\[\]byte' -- internal/cipher/cipher.go; then echo "take a sealed page's buffer from pagebuf.Get (see EpochAESGCM.SealEpoch); the store returns it with pagebuf.Put"; exit 1; fi
# Say it once: the B-tree order is the sealed header's (a new tree takes
# DefaultOrder, or the unexported test seam), and the unflushed bound is the
# file store's Config. Neither is an Options field again.
	@if git grep -nE '^\s+(Order|MaxUnflushed)\s' -- pkg/ekbtree/options.go; then echo "Options states neither the order (checkHeader reads the header's) nor MaxUnflushed (set file.Config.MaxUnflushed on a store passed as Options.Store)"; exit 1; fi
# One moment reclaims: the release that leaves the engine with no pins drops
# current's undo overlay and recycles the limbo; an older epoch is reachable
# only from its pins, and the collector takes it. Per-epoch pin counts, a
# chain head and a second reclaim path are that rule kept twice.
	@if git grep -nE 'reclaimLocked|es\.head\b|es\.published\b|\brefs\b' -- pkg/ekbtree/engine ':!*_test.go'; then echo "the engine reclaims at one moment, the release that leaves no pins; see epochs.release"; exit 1; fi

# A read miss is one allocation at most: product code reads a page with
# PageStore.ReadPageInto, into the block that will hold its view. ReadPage
# allocates a buffer of its own; the stores implement it for bench/ and tests.
	@if git grep -nE '\.ReadPage\(' -- cmd pkg internal ':!*_test.go' ':!internal/store'; then echo "read pages with ReadPageInto into memory the caller provides (a block from node.Blocks on a read miss); see nodeIO.fetch"; exit 1; fi
# One page read: nodeIO.fetch reads, opens and decodes every page the engine
# reads, and its view records the key epoch the page was sealed under. The
# rotator's staleness scan reads that epoch from views (Node.SealedEpoch); a
# second raw read is the scan reading every page twice.
	@if git grep -n 'ReadPageInto(' -- cmd pkg internal ':!*_test.go' ':!internal/store' ':!pkg/ekbtree/engine/nodeio.go'; then echo "read pages through nodeIO.fetch; a view knows its seal's epoch (node.Node.SealedEpoch)"; exit 1; fi
# ... and in the steady state none: every read path takes its block from the
# free list (node.Blocks.Block), which allocates only when it has none of the
# page's class. A block made with node.NewBlock bypasses recycling.
	@if git grep -nF 'node.NewBlock(' -- '*.go' ':!*_test.go'; then echo "take a read miss's block from the free list (node.Blocks.Block; its zero value is an empty list), not node.NewBlock; see nodeIO.fetch"; exit 1; fi
# The free list keeps every block it is given: the views its blocks held,
# which the cache and the limbo bound, bound it. A limit of its own drops
# blocks the next miss allocates again.
	@if git grep -nE 'NewBlocks' -- '*.go'; then echo "node.Blocks has no bound of its own; use its zero value (see the node.Blocks doc comment)"; exit 1; fi
# The cache keeps views, a writer's copies stay in its transaction: a commit
# caches views of the pages it sealed, and a copy is rebuilt for the next
# commit, never cached. So no view is lent past its pin, and the engine makes
# its copies with MaterializeInto, from the workspace's spares.
	@if git grep -nwE 'Lend|lent|isLent' -- '*.go'; then echo "views are never lent: promoteTxn caches views of what a commit sealed, and writeTxn.Edit's copies never leave the transaction"; exit 1; fi
	@if git grep -nF '.Materialize()' -- 'pkg/ekbtree/engine/*.go' ':!*_test.go'; then echo "writeTxn.Edit rebuilds a spare copy (MaterializeInto), and promoteTxn caches views of what a commit sealed, never a copy"; exit 1; fi
# One model harness: writers that queue for the write turn and share
# commits, checked against a tick-window oracle (TestModelConcurrency runs it
# with one writer). An oracle that holds a lock across tree mutations never
# reaches the turn, so it is a second, weaker harness.
	@if git grep -nE 'modelOracle|runModel\(|modelScanCheck' -- '*.go'; then echo "one model harness: pkg/ekbtree/model_test.go"; exit 1; fi
# One descent rule per B-tree mutation: Delete fills every child it enters
# to t keys (rotate from a sibling, else merge), so a key met in an index node
# always has a filled child to its left and is replaced by its predecessor.
# A successor case, or a separate delete for index-node hits, is a second rule.
	@if git grep -nE 'deleteInternal|minEntry|write3' -- internal/btree; then echo "delete fills the child it enters, and an index-node hit takes its predecessor (see the internal/btree package doc)"; exit 1; fi

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, then repeats the legs a
# single run rarely loses:
#  - background vacuum against concurrent committers (x10: the model
#    harness's on-disk vacuum leg alone, not its in-memory one), and against
#    writers and a reader that must never see a page's bytes change while a
#    flush edits the page map (x50: a single run meets a copy's window only
#    sometimes);
#  - the vacuum flush's own contract, which every flush now keeps, since every
#    flush packs pages from the tail into the holes in front: it never moves a
#    page its group writes or frees, a Vacuum with nothing to do writes nothing,
#    two Vacuum calls at once take turns, flushes pay down a rewritten store's
#    garbage, a flush that fills every hole moves nothing, and a flush that
#    writes and packs is atomic under faults;
#  - the fault sweeps (internal/faulttest), commit-group walks and the
#    directory checks at Open (a free list derived from the page map, and
#    overlapping extents refused): a flush places pages in map-iteration
#    order, so every run meets a new layout;
#  - the sweeps above the store: rotation's re-seal commits, a Sync whose group
#    raises the seal mark ahead of its pages, a whole tree whose background
#    rotator interleaves differently every run, the rotator backing off over a
#    store that refuses it, and the engine's one commit path (failed commits
#    stay invisible, root moves commit like any other, and the turn holder
#    combines queued writers: one epoch, each caller's own error, a store
#    error for all, Close, and never two CommitPages in flight beside epoch
#    advances, rotation and vacuum);
#  - copy-on-write nodes: a transaction that altered a shared node in place,
#    an in-place decoder that saw a shared buffer, a commit that cached a copy
#    its workspace rebuilds, or anything that wrote into a cached view's page,
#    a committed batch's slab chunk or a substitution chunk, is a data race
#    only an overlapping reader shows, and a combined commit hands its one
#    transaction between the writers' goroutines (internal/btree's
#    TestSharedNodesAreNeverAltered is not repeated: it runs on one goroutine
#    from fixed seeds, so each run replays the same sequence with nothing to
#    race, and the first line runs it once);
#  - recycled blocks: a view's block handed to the next read miss while a
#    Get, a cursor, a writer's transaction or a failed commit's undo overlay
#    could still read it races with the free list's overwrite, and only some
#    interleavings show it; so does a sealed page the store gives back to
#    pagebuf while a reader may still copy it from a commit group;
#  - the wire's two ends over real sockets, where each run lands the
#    responder's and the client's goroutines differently: a client's latched
#    transport error and a pre-auth frame refused.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^TestModelConcurrentWriters$$/^vacuum$$/^file$$/^grouped$$' ./pkg/ekbtree/
	$(GO) test -race -count=50 -run '^TestVacuumConcurrentWithCommits$$' ./internal/store/file/
	$(GO) test -race -count=5 -run 'FaultSweeps|AtomicityUnderFaults|TestGroupPageTable|TestAppliedHeaderThroughOverlays|TestInitCrashLeavesFreshFile|TestTransientFaultFailStops|TestVacuumNeverMovesItsGroupsPages|TestVacuumWithNothingToMoveWritesNothing|TestConcurrentVacuums|TestFlushesPayDownGarbage|TestFlushThatFillsEveryHoleMovesNothing|TestPayDownAtomicityUnderFaults|TestOpenRefusesOverlappingExtents|TestOldLayoutDirectoryDerivesStoredFreeList|TestFlushedDirectoryStoresNoFreeList|TestReleasedPagesAreUnreachable' ./internal/store/file/
	$(GO) test -race -count=5 -run 'TestRotationCommitAtomicityUnderFaults|TestSealMarkPrecedesPagesUnderFaults|TestSealReservationDoesNotFlush|TestTreeCrashAtEveryFileOp|TestRotatorBacksOffOnPersistentFailure|TestFailedCommitsStayInvisible|TestRootMovesCommitLikeAnyOther|TestQueuedMutationsCommitAsOne|TestQueuedErrorStaysItsOwn|TestStoreErrorFailsEveryCombinedWriter|TestCloseFailsQueuedWriters|TestCommitPagesNeverOverlap' ./pkg/ekbtree/engine/ ./pkg/ekbtree/
	$(GO) test -race -count=5 -run '^TestSnapshotSurvivesCopyOnWriteCommits$$|TestCachedViewsAreNeverWritten|TestCommitCachesViews|TestTxnPageTable|TestRecycledWorkspaceIsEmpty|TestBatchSlabOwnership|TestRecycledSlabIsUnreachable|TestSubstitutionResultsAreNotKept|TestResultsNeverOverlap' ./pkg/ekbtree/engine/ ./pkg/ekbtree/ ./internal/keysub/
	$(GO) test -race -count=5 -run 'TestColdReadsShareNothing|TestHotLeafBeatsColdIndexNode|TestRecycledBlocksAreUnreachable|TestFailedCommitPreImagesAreNeverRecycled' ./pkg/ekbtree/...
	$(GO) test -race -count=5 -run 'TestClientLatchesTransportErrors|TestPreAuthFramesAllocateLittle' ./pkg/ekbtree/wire/ ./cmd/ekbtreed/

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
# pkg/ekbtree/ekbtree_large_test.go): millions of keys through the file
# backend, one tree, with vacuum and epoch rotation interleaved, full oracle
# readback, and the vacuumed file held to 1.5x its live bytes — one leg.
# SOAK_KEYS scales it (CI smoke 2M; the nightly tier runs 20M; the knob goes
# to 100M); -v prints the measured bytes/key, throughput and reopen time.
SOAK_KEYS ?= 2000000
soak-smoke:
	EKBTREE_LARGE_KEYS=$(SOAK_KEYS) $(GO) test -tags large -run '^TestLargeIngestSoak$$' -timeout 120m -v ./pkg/ekbtree/

# fuzz-smoke runs each fuzz target briefly (the f.Add seeds and the checked-in
# corpora under */testdata/fuzz always run as plain tests; this actually
# mutates). FUZZTIME=5m fuzz-smoke for a longer local session.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePrefixTruncated$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeV2$$' -fuzztime $(FUZZTIME) ./internal/node/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/keysub/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstituteRange$$' -fuzztime $(FUZZTIME) ./internal/keysub/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./pkg/ekbtree/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDirectory$$' -fuzztime $(FUZZTIME) ./internal/store/file/

clean:
	$(GO) clean ./...
