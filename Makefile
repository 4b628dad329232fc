# Convenience targets for the XR-tree reproduction.

GO ?= go

.PHONY: all build test bench-test bench-record bench-counts race bench inline-check microbench microbench-smoke serve-smoke cluster-smoke examples examples-check experiments clean fmt-check lint vet vet-analyzers vet-run test-debug fuzz-smoke crash-smoke ci

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark module's own tests (bench/ has its own go.mod, so the root
# `go test ./...` does not reach them): result schema vs BENCHMARK.json,
# determinism, and -compare verdicts.
bench-test:
	$(GO) test -C bench ./...

# One point of the performance trajectory: an untraced and a traced
# bench/xrperf run at seed 1, whose result files are copied verbatim to
# BENCH_<n>.json and BENCH_<n>.trace.json at the root, where
# `xrperf -compare` reads them. Usage: make bench-record PR=<n>
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>" >&2; exit 2; }
	$(GO) run -C bench ./xrperf -seed 1
	cp bench/out/result.json BENCH_$(PR).json
	$(GO) run -C bench ./xrperf -seed 1 -trace 1
	cp bench/out/result-trace.json BENCH_$(PR).trace.json

# The counted metrics as a gate: a one-second traced xrperf pass (~20 s)
# must reproduce every page, probe and allocation count of the newest
# BENCH_<n>.trace.json exactly (allocation counts only under the record's
# Go release); scripts/benchcounts lists them, and its -records flag
# prints the same diff between the two newest records.
bench-counts:
	$(GO) run ./scripts/benchcounts -go $(GO)

race:
	$(GO) test -race ./...

# One testing.B benchmark per paper table/figure; see bench_test.go.
bench:
	$(GO) test -bench=. -benchmem -run XXX .

# The join cursors step over the page an iterator holds through two small
# methods per paged iterator, StepInPage and PeekInPage, which pay off only
# when the compiler inlines them into the cursor; no test fails when it
# stops. Fail when `-gcflags=-m` stops reporting one of the four as
# inlinable.
inline-check:
	@out="$$($(GO) build -gcflags=-m ./internal/blink ./internal/elemlist 2>&1)" || { printf '%s\n' "$$out"; exit 1; }; \
	for f in blink/iterator.go elemlist/elemlist.go; do \
		for m in StepInPage PeekInPage; do \
			printf '%s\n' "$$out" | grep -Eq "^internal/$$f:[0-9:]+ can inline \(\*Iterator\)\.$$m( |$$)" || { \
				echo "inline-check: (*Iterator).$$m in internal/$$f is no longer inlined" >&2; exit 1; }; \
		done; \
	done; echo "inline-check: in-page steps inlinable"

# Storage-stack microbenchmarks (allocation counts are the regression
# signal, hence -benchmem; -count=5 for a spread benchstat can consume):
# the pool pin/unpin fast path, one page's latch taken shared by parallel
# readers, a full leaf-chain scan, the XR-tree's stab-list upkeep on delete
# and insert, its ancestor probe (pages per op too) and its range probe
# (results per op), the XR-stack
# (ancestor-descendant and parent-child), B+ and no-index joins end to end
# on a cold and a warm pool (pages/op and ns/pair too),
# the parallel driver on dense and output-light partitions, the admitted
# join and query handlers without sockets (response bytes per request too),
# and one durable WAL commit of three page images through its fsync
# (fsyncs per commit too; the log sits in TMPDIR, which must be on disk).
microbench:
	$(GO) test -run XXX -bench 'BenchmarkPoolFetch|BenchmarkRLockRUnlock|BenchmarkLeafChainScan|BenchmarkStabInsertDelete|BenchmarkFindAncestors|BenchmarkFindDescendants|BenchmarkXRStackJoin|BenchmarkBPlusJoin|BenchmarkStackTreeDescJoin|BenchmarkParallel|BenchmarkServe|BenchmarkCommit' \
		-benchmem -count=5 ./internal/bufferpool ./internal/platch ./internal/elemlist ./internal/core ./internal/join ./internal/server ./internal/wal

# Every microbenchmark body under internal/ run once, so a benchmark that
# no longer builds, fails or finds no pairs breaks CI; no timing is judged.
microbench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/...

# End-to-end smoke of the serving subsystem: boot xrserve on a temp
# store, saturate it with xrblast (bounded admission, zero leaked pins),
# fire short-deadline requests, then SIGTERM and assert a clean drain.
serve-smoke:
	GO="$(GO)" sh ./scripts/serve_smoke.sh

# End-to-end smoke of the distributed-serving subsystem: three DocId
# shards plus a router, scatter-gather correctness, hedge visibility,
# refusal of overlapping ownership claims, SIGKILL of one shard mid-run
# (degraded responses with shards_failed, healthy results intact), and a
# clean router drain.
cluster-smoke:
	GO="$(GO)" sh ./scripts/cluster_smoke.sh

# Project-specific invariant checkers (cmd/xrvet). vet-analyzers runs
# the analyzers' own suites (per-analyzer `// want` testdata plus the
# harness meta-tests); vet-run applies all eight checkers over the whole
# module and stock `go vet` (copylocks and friends) alongside, over the
# nested bench module too.
vet-analyzers:
	$(GO) test ./internal/analysis/...

vet-run:
	$(GO) run ./cmd/xrvet ./...
	$(GO) vet ./...
	$(GO) vet -C bench ./...

vet: vet-analyzers vet-run

# The whole test suite with the xrtreedebug runtime assertions compiled
# in: resting-page checksums, the net-pin ledger, per-operation pin
# balance, and sampled whole-tree invariant checks after every mutation.
test-debug:
	$(GO) test -tags xrtreedebug ./...

# Short coverage-guided runs of the fuzz targets (parser robustness,
# path-expression round-tripping, WAL replay, and the parallel join
# driver's run-log replay against the sequential loop); CI runs the same
# budget.
fuzz-smoke:
	$(GO) test -run FuzzParseDocument -fuzz FuzzParseDocument -fuzztime 10s ./internal/xmldoc
	$(GO) test -run FuzzPathExpr -fuzz FuzzPathExpr -fuzztime 10s ./internal/pathexpr
	$(GO) test -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -run FuzzParallelReplay -fuzz FuzzParallelReplay -fuzztime 10s ./internal/join

# Crash-recovery gate: 30 randomized kill points in the log's headers and
# records, and 6 more in new segments' zero fill, against a WAL-enabled
# store (the crossing log write torn partway), each reopened through redo
# and re-verified against the Definition 4 oracle and the acknowledged
# commit set, plus the concurrent-writer group-commit phase (fsyncs <
# commits). CI runs the same budget in the `crash` job.
crash-smoke:
	$(GO) run ./cmd/xrcrash -n 30

# gofmt as a check: fail when any file needs reformatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Prefer golangci-lint (config in .golangci.yml), fall back to staticcheck,
# then to go vet when neither tool is installed.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "golangci-lint/staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Everything the CI pipeline runs, in the same order, runnable locally.
ci: build inline-check fmt-check lint vet test bench-test bench-counts race test-debug microbench-smoke serve-smoke cluster-smoke crash-smoke examples-check
	@echo "ci: all checks passed"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/department
	$(GO) run ./examples/conference
	$(GO) run ./examples/maintenance
	$(GO) run ./examples/persistence

# The examples drive the public facade and print only counts, so their
# output repeats byte for byte; diff it against the recorded run.
examples-check:
	@out="$$($(MAKE) -s examples)" && printf '%s\n' "$$out" | diff -u testdata/examples.golden -

# Regenerate every table and figure of the paper (EXPERIMENTS.md records
# the reference output).
experiments:
	$(GO) run ./cmd/xrbench -exp all -scale 1.0

clean:
	$(GO) clean ./...
