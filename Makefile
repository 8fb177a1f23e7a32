GO ?= go

# staticcheck is pinned so CI and laptops agree on the finding set; bump
# deliberately, with a pass over any new findings.
STATICCHECK_VERSION ?= 2025.1

CAARLINT := bin/caarlint

# The full analyzer suite, in the order cmd/caarlint registers it. Used by
# the per-analyzer finding summary below; keep in sync with
# tools/cmd/caarlint/main.go (`caarlint -list` prints the same set).
CAARLINT_ANALYZERS := cowmut readpathlock metricname fsyncrename errstatus lockorder goroutinelife atomicfield batchalias

.PHONY: all check lint vet staticcheck caarlint tools-test canonbench-test build test race race-matrix fuzz-smoke bench bench-smoke bench-contention bench-hot bench-ingest hot-smoke ingest-smoke soak-smoke capture-smoke bench-diff clean

all: check

# check is the full pre-merge gate: static analysis (go vet, staticcheck,
# the project's own caarlint suite), compilation of every package, the test
# suite under the race detector, the canonical benchmark module's own tests,
# and the hot-key and ingest smoke drills.
check: lint build race canonbench-test hot-smoke ingest-smoke

# lint folds the three static-analysis layers into one gate.
lint: vet staticcheck caarlint

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools checks when the binary is on PATH and
# skips gracefully when it is not, so the gate works in minimal containers
# without network access to install it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# caarlint builds the project's go/analysis suite (tools/ is a nested module
# so the x/tools dependency stays out of the main module) and runs it over
# the tree through go vet's -vettool protocol. The analyzers enforce the
# invariants DESIGN.md documents under "Enforced invariants": COW snapshot
# immutability, read-path lock-freedom, metric naming, fsync-before-rename,
# and the error→status table.
# Every diagnostic message carries its analyzer name as a "name: " prefix,
# so the summary is a plain grep over the vet output. The target fails iff
# go vet failed; the summary is printed either way.
caarlint: $(CAARLINT)
	@out=$$($(GO) vet -vettool=$(CAARLINT) ./... 2>&1); status=$$?; \
	if [ -n "$$out" ]; then printf '%s\n' "$$out"; fi; \
	echo "caarlint: findings per analyzer:"; \
	for a in $(CAARLINT_ANALYZERS); do \
		n=$$(printf '%s\n' "$$out" | grep -c ": $$a: "); \
		printf '  %-14s %s\n' "$$a" "$$n"; \
	done; \
	exit $$status

$(CAARLINT): $(wildcard tools/caarlint/*/*.go tools/cmd/caarlint/*.go)
	cd tools && $(GO) build -o ../$(CAARLINT) ./cmd/caarlint

# canonbench-test vets and tests the canonical benchmark (canonbench/ is its
# own module, replacing caar with this tree, so `go test ./...` here never
# builds it). -short skips the test that runs the whole stack.
canonbench-test:
	cd canonbench && $(GO) vet . && $(GO) test -short .

# tools-test runs the analyzer suite's own golden tests (fixtures under
# tools/caarlint/testdata/src, driven by the internal atest harness).
tools-test:
	cd tools && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers every package under the race detector; the root package and
# internal/core carry the concurrency-sensitive paths (COW directory swaps,
# shard locking, dynBuf aging) and their stress tests.
race:
	$(GO) test -race ./...

# race-matrix is the concurrency gate: the full test suite plus the three
# end-to-end smokes, all race-built with GORACE=halt_on_error=1 so the
# first data race aborts the run, and all with the caarlockwatch build tag
# plus CAAR_LOCKWATCH armed so any mutex held past the bound dumps every
# goroutine stack (CAAR_LOCKWATCH_OUT, default lockwatch-stacks.txt) and
# panics instead of hanging CI. The tag also compiles in the watchdog's own
# trip/release/disarm tests, which plain `make race` skips.
race-matrix: export GORACE = halt_on_error=1
race-matrix: export CAAR_LOCKWATCH = 5s
race-matrix:
	$(GO) test -race -tags caarlockwatch ./...
	$(GO) run -race -tags caarlockwatch ./cmd/adbench -ingest-smoke
	$(GO) run -race -tags caarlockwatch ./cmd/adbench -hot-smoke
	$(GO) build -race -tags caarlockwatch -o bin/adserver ./cmd/adserver
	$(GO) build -race -tags caarlockwatch -o bin/adsoak ./cmd/adsoak
	./bin/adsoak -server-bin bin/adserver -addr 127.0.0.1:9785 \
		-users 80 -ads 200 -messages 2500 -events-per-cycle 150 \
		-kills 3 -out BENCH_SOAK_RACE.json

# fuzz-smoke gives each fuzz target a short budget — enough to catch a
# regression in the journal frame decoder, crash recovery, or the request
# parsers without holding up the gate.
fuzz-smoke:
	$(GO) test ./journal/ -fuzz FuzzDecodeLine -fuzztime 10s -run '^$$'
	$(GO) test ./journal/ -fuzz FuzzRecoverTornTail -fuzztime 10s -run '^$$'
	$(GO) test ./journal/ -fuzz FuzzAppendBatchRecover -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/ -fuzz FuzzSanitizeRequestID -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/ -fuzz FuzzParsePolicy -fuzztime 10s -run '^$$'
	$(GO) test ./internal/sketch/ -fuzz FuzzCountMinEstimate -fuzztime 10s -run '^$$'
	$(GO) test ./internal/sketch/ -fuzz FuzzWindowedDecay -fuzztime 10s -run '^$$'

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-smoke runs the same workload twice — flight recorder off, then
# capturing every request — and fails if the /v1/metrics scrape is empty,
# if the traced phase captured no traces, or if full-rate tracing grew the
# recommend p99 by more than 10%.
bench-smoke:
	$(GO) run ./cmd/adbench -serve-bench 5s -bench-out BENCH_PR3.json

# soak-smoke is the crash-recovery soak in its CI-sized configuration: both
# binaries built with the race detector, 3 random SIGKILL cycles plus the 3
# named crash points (journal pre-fsync, snapshot post-fsync-pre-rename,
# journal mid-replay), every restart machine-checked against the client-side
# ack ledger, and the double-replay self-test at the end. Exits non-zero if
# any invariant fails; writes BENCH_SOAK.json. Runs in well under a minute.
soak-smoke:
	$(GO) build -race -o bin/adserver ./cmd/adserver
	$(GO) build -race -o bin/adsoak ./cmd/adsoak
	./bin/adsoak -server-bin bin/adserver -addr 127.0.0.1:9784 \
		-users 80 -ads 200 -messages 2500 -events-per-cycle 150 \
		-kills 3 -out BENCH_SOAK.json

# bench-contention drives parallel Recommend workers against a live engine
# while a writer churns AddAd/RemoveAd, at 1/4/8 workers, and writes the
# per-phase throughput, exact latency quantiles, and speedup-vs-1-worker to
# BENCH_PR4.json.
bench-contention:
	$(GO) run ./cmd/adbench -contention 6s -contention-out BENCH_PR4.json

# bench-hot measures what always-on hot-key telemetry costs the serving
# path: the same ABBA-interleaved workload with tracking disabled vs enabled
# (live aggregator goroutine), gated at 5% recommend-p99 growth. Also
# verifies the hot-on phase's /v1/hot names the workload's hot keys. Writes
# BENCH_PR8.json.
bench-hot:
	$(GO) run ./cmd/adbench -hot-bench 6s -hot-out BENCH_PR8.json

# bench-ingest measures what group commit buys the write path: synchronous
# journaled posts (one fsync each) vs the batched ingest pipeline (one fsync
# per group commit), both on real files with -fsync always. Gated at 2x
# posts/s, 5x fewer fsyncs per post with a mean batch of at least 8, and
# at most 10% recommend-p99 growth under a matched paced write load. Writes
# BENCH_PR9.json.
bench-ingest:
	$(GO) run ./cmd/adbench -ingest-bench 6s -ingest-out BENCH_PR9.json

# ingest-smoke is the end-to-end backpressure drill, race-built: a live
# server with a deliberately tiny ingest ring behind a slow journal must
# shed part of a concurrent burst with 429 + Retry-After, land every shed
# post on client-style retry, account for every ack in /v1/invariants after
# the pipeline drains, and replay the journal to the same state.
ingest-smoke:
	$(GO) run -race ./cmd/adbench -ingest-smoke

# hot-smoke is the end-to-end /v1/hot drill, race-built: a live server with
# a planted celebrity poster and hot consumer must name both through
# /v1/hot and export the caar_hot_* metric families.
hot-smoke:
	$(GO) run -race ./cmd/adbench -hot-smoke

# capture-smoke proves the incident pipeline end to end: arms the
# serving-path delay fault, drives load until the SLO burn-rate watchdog
# trips, and fails unless the resulting capture bundle holds a CPU profile
# in which the injected delay site is attributable. Writes
# BENCH_CAPTURE_SMOKE.json and keeps the bundle under capture-smoke/ so CI
# can upload it.
capture-smoke:
	$(GO) run ./cmd/adbench -capture-smoke -capture-smoke-dir capture-smoke

# bench-diff compares the checked-in benchmark artifacts across PRs and
# writes BENCH_TRAJECTORY.json. The four files come from different harnesses
# (and, for checked-in baselines, different hardware), so consecutive pairs
# are cross-kind and reported informationally; regenerate a same-kind pair
# (e.g. two -contention runs) to get a gated verdict with the default 10%
# budget.
bench-diff:
	$(GO) run ./cmd/benchdiff -out BENCH_TRAJECTORY.json \
		BENCH_PR2.json BENCH_PR3.json BENCH_PR4.json BENCH_SOAK.json BENCH_PR8.json BENCH_PR9.json

clean:
	$(GO) clean ./...
	rm -f $(CAARLINT)
