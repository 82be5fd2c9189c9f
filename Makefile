GO ?= go

.PHONY: all build test race vet fmt check bench bench-sign bench-strategies bench-scale bench-verify bench-e2e bench-all test-faults

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass; the dedicated concurrency tests
# (internal/fl/race_test.go and the telemetry suite) are written to
# exercise the parallel round loop and concurrent store reads here.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fault-tolerance suite under the race detector: injected faults,
# retry/deadline/quorum handling and context cancellation across the
# round engine, unlearner and baseline strategies.
test-faults:
	$(GO) test -race -run 'Fault|Quorum|Corrupt|Cancel|Bootstrap|Legacy|Sentinel' \
		./internal/faults/ ./internal/fl/ ./internal/unlearn/ ./internal/unlearn/strategy/ ./internal/iov/ .

# check is the tier-1 verification path, defined once in
# scripts/check.sh: formatting, lints, static analysis, build, the full
# test suite, the bench/ module and the harness smokes.
check:
	scripts/check.sh

# bench runs the compute-kernel micro-benchmarks and records the
# results in BENCH_kernels.json (see scripts/bench.sh).
bench:
	scripts/bench.sh

# bench-sign runs the sign-kernel and history-tier micro-benchmarks
# (compress, LUT expand, packed accumulate, record round, spilled
# reads) and records the results in BENCH_sign.json.
bench-sign:
	scripts/bench.sh -sign

# bench-strategies runs the comparative unlearning harness — every
# registered unlearn.Strategy on one seeded CI-scale scenario — and
# records the per-strategy table in BENCH_strategies.json.
bench-strategies:
	scripts/bench.sh -strategies

# bench-scale runs the streamed sharded-aggregation scale sweep —
# fleets of 10k/100k/1M clients folded through fl.ShardedFedAvg with
# flat accumulator memory — and records the table in BENCH_scale.json.
bench-scale:
	scripts/bench.sh -scale

# bench-verify runs the forgetting-verification harness — every
# registered strategy erases the malicious clients of a backdoored
# CI-scale deployment, scored by shadow-model membership inference,
# backdoor retention and relearn time — and records the per-strategy
# scorecards in BENCH_verify.json.
bench-verify:
	scripts/bench.sh -verify

# bench-e2e runs the loopback RSU benchmark declared in BENCHMARK.json
# (bench/README.md): all four workloads untraced, then traced, one JSON
# document last. ARGS passes flags through, e.g.
#   make bench-e2e ARGS='--workload ingest_dense --seed 1 --seconds 25 --trace 0'
bench-e2e:
	bash bench/run.sh $(ARGS)

# bench-all sweeps every benchmark in the repo, including the
# experiment-scale ones, without writing the JSON record.
bench-all:
	$(GO) test -bench . -benchmem -run '^$$' ./...
