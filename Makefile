GO ?= go

# STRICT=1 (set in CI) turns missing optional analyzers (staticcheck,
# govulncheck) into hard failures instead of skips, so the CI gate can never
# silently narrow. hwlint is never optional: it is built from this tree with
# no dependencies beyond the toolchain.
STRICT ?=

.PHONY: all build vet hwlint lint lint-report loc test race race-core race-repeat check fuzz-smoke bench bench-layers perf perf-smoke experiments clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hwlint is the house-rule gate: the internal/analysis suite (ctxfirst,
# seededrand, senterr, pairedresource, hotalloc, goroleak, lockorder,
# atomiconly, commitproto) over every package. Non-zero on any violation.
# Lock copies are go vet's copylocks check, in the same lint gate.
hwlint:
	$(GO) run ./cmd/hwlint

# lint is the full static-analysis gate: go vet and hwlint always;
# staticcheck and govulncheck when installed (always, under STRICT=1).
lint: vet hwlint
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif [ -n "$(STRICT)" ]; then echo "lint: staticcheck required under STRICT but not installed" >&2; exit 1; \
	else echo "lint: staticcheck not installed, skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	elif [ -n "$(STRICT)" ]; then echo "lint: govulncheck required under STRICT but not installed" >&2; exit 1; \
	else echo "lint: govulncheck not installed, skipped (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# lint-report prints every hwlint diagnostic as file:line:col (editor-
# jumpable) and always exits 0: the editor-loop companion to the hard gate.
lint-report:
	@$(GO) run ./cmd/hwlint || true

# loc prints the figure a [simplicity] PR is judged by: non-test Go lines
# outside cmd/hwperf (the frozen benchmark). CI prints it in the lint step, so
# "net negative" is read off two logs, not asserted in prose.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/hwperf/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core re-runs the concurrency-heavy layers race-enabled and uncached:
# the serving, scheduling, memory-governance, and network-frontend suites are
# where a data race would land first, so they get a fresh pass even when the
# full race target is cache-warm. store joined when the checkpoint/recovery
# paths went concurrent (PR 7/8); cluster, concurrent, and metrics are the
# remaining shared-mutable-state tiers; hashtab is the table pool every concurrent join and group-sum
# draws from (serve's TestPooledTablesAreNotShared is its eight-client test).
race-core:
	$(GO) test -race -count=1 ./internal/serve ./internal/sched ./internal/mem ./internal/frontend ./internal/vecexec ./internal/compress ./internal/shard ./internal/store ./internal/cluster ./internal/concurrent ./internal/metrics ./internal/hashtab

# race-repeat runs the tests that guard a recycling or ordering rule ten more
# times under -race, because one run rarely hits what they guard. The
# modeled-cycle golden guards serve's drain-releases-first rule (the dispatch loop steps every release an
# executor sent before it steps the next arrival or idle, so a pass never
# starts short of cores a finished request already returned). The hedge-loser
# test guards the router's pool rule (a fan-out's state is recycled only once
# every attempt it launched has reported), which needs a loser still running
# when its request returns. The cancelled-Submit test guards serve's pool rule
# (a request's pending is recycled only after its executor's done send, never
# by a Submit that returned on its context), which needs a cancel to land
# while the executor still holds the pending. The lease tests guard the rule
# one level up (a request's leased columns go back only after the frontend,
# every router attempt and every serve executor holding them has released):
# a hedge loser or a cancelled Submit's executor must still be reading when
# its caller lets go. The table-lease tests guard the same rule for a
# registered table's payload (recycled only after the table map, the store
# entry, every scan batch and every checkpoint job holding it has released,
# and never once Store.Load has handed it out): a replacing Register must
# land while a pass or a segment write still reads the old version, and a
# store Drop while a segment write still reads the dropped table. The
# group-sum lease tests guard it for an answer's map, which holders take
# from a lease they already share, so the lease's map list has its own lock.
# The revival tests guard the router's one-server rule (a node's server is
# published once, after it holds its stripes and tenant caps, and never past
# Close), which needs a cap set, a second publish or a Close to land while a
# recovery runs. The kill tests guard its crash-stop rule (a node is dead only
# once its server has stopped, so neither KillNode nor a racing Close returns
# while it still runs, and a revived node copies its stripes from a live
# replica), which needs a Close to land while a kill drains.
race-repeat:
	$(GO) test -race -count=10 -run 'TestSimCyclesGolden|TestHedgeLoserNeverSeesRecycledState|TestHedgeLoserHoldsLease|TestLeasedRequestsOverHedgedRouter|TestRevivedNodeKeepsTenantCaps|TestPublishKeepsTheFirstServer|TestRecoverRacingCloseLeavesNoServer|TestKillRacingCloseLeavesNoServer|TestKilledNodeNeverCommits|TestEmptyRecoveredNodeFailsOver' ./internal/shard
	$(GO) test -race -count=10 -timeout 5m -run 'TestCancelledSubmitNeverSeesRecycledState|TestLeaseOutlivesCancelledSubmit|TestRetiredTableOutlivesHeldPass|TestLoadPinsLeasedTable|TestChurnAnswersMatchAVersion|TestGroupsLiveUntilLastRelease' ./internal/serve
	$(GO) test -race -count=10 -run 'TestLeaseMapConcurrentTakes|TestLeaseMapClasses' ./internal/mem
	$(GO) test -race -count=10 -run 'TestCheckpointHoldsReplacedTable|TestDropDuringCheckpointCommitsSnapshot' ./internal/store

# check is the full verification gate: compile everything, run the static
# analyzers, run the whole suite once without the race detector (the pooled
# allocation pins — agg, join, sched, serve, shard — skip under -race, where
# sync.Pool drops Puts on purpose) and once under it (core concurrency
# packages uncached), then race-repeat.
check:
	$(GO) build ./...
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) race-core
	$(GO) test -race ./...
	$(MAKE) race-repeat

# fuzz-smoke gives each native fuzz target ten seconds of mutation past its
# seed corpus (plain `go test` only replays the seeds). One target per
# invocation: -fuzz takes a single match.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQuery -fuzztime=10s ./internal/frontend/v1
	$(GO) test -run='^$$' -fuzz=FuzzToServe -fuzztime=10s ./internal/frontend/v1
	$(GO) test -run='^$$' -fuzz=FuzzAppendResponse -fuzztime=10s ./internal/frontend/v1
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalColumn -fuzztime=10s ./internal/compress
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSegment -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDispatch -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzScatterMatchesOracle -fuzztime=10s ./internal/shard

bench:
	$(GO) test -bench=BenchmarkE -benchtime=1x .

# bench-layers runs the per-layer benches of the request path's front half
# (v1 decode and response encode; auth + governance + decode + encode against
# a stub backend; join partitioning; morsel scheduling), of the inline
# operators (group-sum per strategy, one stripe's NPO join), of serve's
# admission + batching (Submit to answer over a 64 K-row table, one client and
# a cohort of eight), of the router (one scan scattered over a 3x2 router's
# stripes and merged, clustered and uniform filter column, one client), of the
# block decode/filter layer (one shared scan pass over a 350 K-row stripe,
# clustered and uniform filter column, a batch of one and of eight; and the
# block kernel alone, one block per op, FOR widths 4/17/40 and RLE, on a
# straddling and a covering range) and of the
# write path (block encode per column shape; one
# Register + Checkpoint cycle and one restart-to-first-answer of the
# benchmark's 1 M x 2 table, MB/s over user bytes) and of the metrics
# histogram every layer records into (one Record, serial and from
# GOMAXPROCS goroutines) with allocations, five times each. CI runs it once per bench
# (BENCHFLAGS='-benchtime=1x -count=1') to catch one that stops compiling or
# starts failing; host times are read by people, not gated.
BENCHFLAGS ?= -count=5
bench-layers:
	$(GO) test -run='^$$' -bench='BenchmarkDecodeQuery|BenchmarkAppendResponse|BenchmarkHandleQuery|BenchmarkSplitJoin|BenchmarkMorsels|BenchmarkGroupSum|BenchmarkNPO|BenchmarkEncode|BenchmarkSubmit|BenchmarkScatter|BenchmarkScanPass|BenchmarkSelectBlock|BenchmarkCheckpoint|BenchmarkRecover|BenchmarkHistogramRecord' -benchmem $(BENCHFLAGS) \
		./internal/frontend/v1 ./internal/frontend ./internal/shard ./internal/sched ./internal/agg ./internal/join ./internal/compress ./internal/vecexec ./internal/serve ./internal/metrics

# perf runs hwperf, the repository's benchmark (BENCHMARK.json): four
# workloads over loopback HTTP, one process each. perf-smoke is its toy-scale
# test, deterministic asserts only.
perf:
	$(GO) run ./cmd/hwperf -seed 1

perf-smoke:
	$(GO) test ./cmd/hwperf

experiments:
	$(GO) run ./cmd/hwbench

clean:
	$(GO) clean ./...
