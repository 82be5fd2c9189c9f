#!/bin/sh
# Tier-1 verification — the one definition; `make check` runs this
# script: formatting, the ctx and doc lints, static analysis, build,
# tests, a run of every example, the bench/ module's vet and test, and
# the harness smokes.
# Usage: scripts/check.sh [-race] [-faults] [-sim]
#   -race    additionally run the test suite under the race detector
#            (covers the parallel round loop and concurrent store reads).
#   -faults  additionally run the fault-tolerance suite under the race
#            detector (injected faults, retry/deadline/quorum handling,
#            context cancellation).
#   -sim     additionally run the scenario-simulation smoke batch under
#            the race detector plus a coverage report, enforcing floors
#            on internal/{sign,history,unlearn,verify}.
set -eu

cd "$(dirname "$0")/.."

fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt_out" >&2
	exit 1
fi

# API lint: every exported Run*/Unlearn* entry point in the public
# surface (facade, round engine, unlearner, strategies) is ctx-first,
# so callers can always cancel. internal/experiments needs no grep: the
# registry's RunFunc type demands ctx-first at compile time.
api_files=$(ls fuiov.go internal/fl/*.go internal/unlearn/*.go internal/unlearn/strategy/*.go | grep -v _test)
not_ctx_first=$(grep -nE '^func (\([^)]*\) )?(Run|Unlearn)[A-Za-z]*\(' $api_files | grep -v '(ctx context\.Context' || true)
if [ -n "$not_ctx_first" ]; then
	echo "ctx lint: exported Run*/Unlearn* entry points must take ctx context.Context first:" >&2
	echo "$not_ctx_first" >&2
	exit 1
fi

# Doc lint: every exported top-level identifier in the facade, the
# networked serving layer, the round engine, the unlearner, the
# strategy registry and the telemetry registry must carry a doc comment
# — these are the surfaces external operators read via go doc, and
# PROTOCOL.md leans on their accuracy.
doc_files=$(ls fuiov.go internal/server/*.go internal/agent/*.go internal/fl/*.go internal/unlearn/*.go internal/unlearn/strategy/*.go internal/telemetry/*.go | grep -v _test)
doc_missing=$(awk '
	/^\/\// { prev_comment = 1; next }
	/^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
		if (!prev_comment) print FILENAME ":" FNR ": " $0
	}
	{ prev_comment = 0 }
' $doc_files)
if [ -n "$doc_missing" ]; then
	echo "doc lint: exported identifiers missing doc comments:" >&2
	echo "$doc_missing" >&2
	exit 1
fi

go vet ./...
# The portable fallbacks of the AVX2 kernels (internal/sign, tensor,
# nn) build only off amd64.
GOARCH=arm64 go vet ./...

# FMA lint: each Go loop behind a vector kernel is that kernel's oracle
# and must round every product before its add, as the vector bodies
# do. The explicit float64(...) conversions forbid fusion; this fails
# if an arm64 build of those loops (and of the GEMM drivers that call
# them) shows a fused multiply-add anyway, or if one of them is missing
# from the binary (renamed or inlined: update the list). FedAvg's
# reductions (AggregateRange, the sharded fold and tree) run through
# tensor.AxpyInPlace and are held to the scalar loop the same way. The
# recovery sweep (tensor.DotsInto, lbfgs.(*Approx).sweep) is listed
# too, so the model bits it feeds are the same off amd64.
fma_funcs='tensor.saxpy tensor.saxpyGo tensor.AxpyInPlace tensor.Dot tensor.DotsInto lbfgs.(*Approx).sweep tensor.gemmRows tensor.gemmGo tensor.gemmNTRows tensor.gemmNTGo sign.accumulateGo fl.FedAvg.AggregateRange fl.(*ShardedFedAvg).fold fl.(*ShardedFedAvg).Resolve'
fma_bin=$(mktemp)
GOARCH=arm64 go build -o "$fma_bin" ./cmd/fuiov
fma_re=$(echo "$fma_funcs" | sed 's/[.()*]/\\&/g; s/ /|/g')
fma_dump=$(go tool objdump -s "^fuiov/internal/($fma_re)\$" "$fma_bin")
rm -f "$fma_bin"
for fn in $fma_funcs; do
	if ! echo "$fma_dump" | grep -qF "TEXT fuiov/internal/$fn(SB)"; then
		echo "FMA lint: $fn not found in the arm64 build" >&2
		exit 1
	fi
done
fused=$(echo "$fma_dump" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' || true)
if [ -n "$fused" ]; then
	echo "FMA lint: fused multiply-add in a kernel oracle (wrap the product in float64(...)):" >&2
	echo "$fused" >&2
	exit 1
fi
go build ./...
go test ./...

# Pinned bits, as CI runs them: the pipeline's SHA-256 golden hashes
# through the AVX2 kernels and through the portable Go loops, at one
# and two procs; exported internal names held to their callers and
# option-struct fields to their setters.
go test -count=1 -cpu 1,2 -run '^TestGoldenBits(Portable)?$' ./internal/experiments/
go test -count=1 -run 'TestInternalNamesHaveCallers|TestConfigFieldsAreSet' .

# The examples are the facade's only callers outside the scenario
# harness, and go build only proves they compile: run each one and
# fail on a non-zero exit (~6 s for all of them).
for ex in ./examples/*/; do
	go run "$ex" >/dev/null
done

# The benchmark is a module of its own (bench/, replacing fuiov with
# ../), so the commands above never see it — yet it calls the
# kernel, store and unlearner entry points directly. Vet it and run
# its smoke (all four workloads at tiny sizes, BENCHMARK.json diffed
# against the metric registry) so a change next to those entry points
# cannot break the benchmark unnoticed.
go -C bench vet ./...
go -C bench test ./...

# Bench harness smoke: one iteration per kernel benchmark, JSON parsed
# to a temp file — catches bench.sh or benchmark rot without the cost
# of a real measurement run. Both suites (compute kernels, sign+history).
scripts/bench.sh -smoke >/dev/null
scripts/bench.sh -smoke -sign >/dev/null

# Strategy-harness smoke: the comparative unlearning harness must run
# every registered strategy at CI scale and emit a parseable
# BENCH_strategies.json (written to a temp file here).
scripts/bench.sh -smoke -strategies >/dev/null

# Scale-harness smoke: one 10k-client streamed round through the
# sharded aggregation path — proves the million-client sweep's
# machinery (sampler, shard folds, tree resolve, JSON artefact) without
# the full fleet sizes.
scripts/bench.sh -smoke -scale >/dev/null

# Verify-harness smoke: the forgetting-verification suite at its CI
# smoke size (two reference strategies, small shadow population),
# emitting a parseable BENCH_verify.json to a temp file.
scripts/bench.sh -smoke -verify >/dev/null

# Unlearn-queue smoke: the async service's queue round-trip — submit,
# coalesce, dedup, commit — under the race detector, since the queue's
# whole job is overlapping recovery with live round commits.
go test -race -count=1 -run '^TestQueue' ./internal/unlearn/

# Forgetting-property smoke: retraining must score ≈ chance against
# the membership attack and the paper scheme within epsilon of it,
# under the race detector (the relearn probe runs parallel federated
# rounds).
go test -race -count=1 -run '^TestVerifyForgettingProperty$' ./internal/experiments/

# The one data-parallel loop under the race detector: par.Loop and
# par.Workers, and the RangeAggregator (the parallel FedAvg of the
# engine's commit and of recovery) against AggregateInto at forced
# widths 1-3.
go test -race -count=1 ./internal/par/
go test -race -count=1 -run '^TestRangeAggregatorMatchesFedAvg$' ./internal/fl/

# Recovery-kernel equivalence under the race detector: the two-sweep
# estimate against the retained reference composition (bit-identical
# est, clip count and fallback flag), the pass's zero-allocation round
# at Parallelism 1 and 2, and, because the estimate loop refreshes
# shared pair columns and FedAvg runs split by element range, the whole
# pass's byte budget, the failed-refresh path against a cloning
# reference, and eq. 7's clip bound on every aggregated estimate of a
# pass run round by round.
go test -race -count=1 -run '^(TestEstimateMatchesReferenceComposition|TestRecoveryRoundAllocs|TestRecoveryPassAllocBytes|TestFailedRefreshKeepsPreviousApprox|TestRecoveryEstimatesRespectClipBound)$' ./internal/unlearn/

# Dense upload frames under the race detector: the coordinator recycles
# them, and one must not come back while its round still holds it —
# every served model against an in-process twin, through refused,
# duplicate, under-quorum and abandoned uploads.
go test -race -count=1 -run '^TestDenseFramesRecycledOnlyAfterCommit$' ./internal/server/

# Client-compute equivalence under the race detector: the micro-batched
# training step against the whole-batch reference composition
# (bit-identical loss, correct count and gradient at GOMAXPROCS 1 and
# 2), and the steady-state training round's allocation pin — the
# returned gradient plus the round's RNG, at -cpu 1 where the layers'
# per-sample dispatch builds no closure.
go test -race -count=1 -run '^TestLossAndGradMatchesWholeBatch$' ./internal/nn/
go test -count=1 -cpu 1 -run '^TestComputeGradientAllocs$' ./internal/fl/

# Storage-tier smoke: the disk spill path must round-trip snapshots
# byte-for-byte, and the packed accumulate kernel must stay
# allocation-free (the recovery loop depends on it per round).
go test -count=1 -run '^TestSpillRoundTrip$' ./internal/history/
go test -count=1 -run '^TestAccumulateIntoAllocs$' ./internal/sign/

for arg in "$@"; do
	case "$arg" in
	-race)
		go test -race ./...
		;;
	-faults)
		go test -race -run 'Fault|Quorum|Corrupt|Cancel|Bootstrap|Legacy|Sentinel' \
			./internal/faults/ ./internal/fl/ ./internal/unlearn/ ./internal/unlearn/strategy/ ./internal/iov/ .
		;;
	-sim)
		# Scenario smoke: the deterministic simulation harness
		# (invariant checks over a batch of generated schedules) under
		# the race detector — the CI configuration.
		go test -race -count=1 ./internal/simtest/
		# Coverage floors on the packages the paper's guarantees rest
		# on. Floors sit below current coverage (100/91/88 as of the
		# harness PR) so routine changes don't trip them, but a test
		# regression does.
		go test -cover ./internal/sign/ ./internal/history/ ./internal/unlearn/ ./internal/verify/ |
			awk '
			BEGIN { floor["sign"] = 95; floor["history"] = 85; floor["unlearn"] = 80; floor["verify"] = 75 }
			{
				n = split($2, parts, "/"); pkg = parts[n]
				cov = ""
				for (i = 1; i <= NF; i++) if ($i ~ /%/) { cov = $i; sub(/%.*/, "", cov) }
				printf "coverage %-10s %s%%  (floor %s%%)\n", pkg, cov, floor[pkg]
				if (cov == "" || cov + 0 < floor[pkg]) { bad = 1 }
			}
			END { if (bad) { print "coverage floor violated" > "/dev/stderr"; exit 1 } }'
		;;
	*)
		echo "check.sh: unknown flag $arg" >&2
		exit 2
		;;
	esac
done

echo "check: OK"
