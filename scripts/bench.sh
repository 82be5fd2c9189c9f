#!/bin/sh
# Kernel micro-benchmark harness: runs the compute-kernel benchmarks
# (GEMM, conv, dense, client gradient, HVP, recovery round) with
# -benchmem and writes
# the results to BENCH_kernels.json as
#   {"cpu": ..., "benchmarks": [{"op", "gomaxprocs", "ns_op", "b_op", "allocs_op"}]}
# (gomaxprocs is the -N suffix go test prints after the name, 1 when
# there is none; run under GOMAXPROCS=1 for the single-core rows the
# docs quote).
# Usage: scripts/bench.sh [-smoke] [-sign] [-strategies] [-scale] [-verify]
#   -smoke  run every benchmark for a single iteration and write the
#           JSON to a temp file — a fast harness check for check.sh.
#   -sign   run the sign-kernel + history-tier benchmarks instead and
#           write BENCH_sign.json (same schema).
#   -strategies  run the unlearning-strategy comparison harness (every
#           registered unlearn.Strategy on one seeded CI-scale
#           scenario) and write BENCH_strategies.json
#           ({"experiment": "strategies", "strategies": [...]}).
#   -scale  run the streamed sharded-aggregation scale sweep (folds up
#           to a million synthetic uploads per round through
#           fl.ShardedFedAvg) and write BENCH_scale.json
#           ({"experiment": "scale", "rows": [...]}). With -smoke the
#           sweep shrinks to one 10k-client fleet.
#   -verify run the forgetting-verification harness (every registered
#           strategy erases the malicious clients of a backdoored
#           CI-scale deployment, scored by shadow-model MIA, backdoor
#           retention and relearn time) and write BENCH_verify.json
#           ({"experiment": "verify", "rows": [...]}). Seed 47 matches
#           TestVerifyForgettingProperty, so the checked-in artefact
#           satisfies the asserted bounds. With -smoke the suite
#           shrinks to two strategies and three shadow models.
set -eu

cd "$(dirname "$0")/.."

out=BENCH_kernels.json
benchtime=1s
suite=kernels
for arg in "$@"; do
	case "$arg" in
	-smoke)
		benchtime=1x
		out=$(mktemp)
		trap 'rm -f "$out"' EXIT
		;;
	-sign)
		suite=sign
		;;
	-strategies)
		suite=strategies
		;;
	-scale)
		suite=scale
		;;
	-verify)
		suite=verify
		;;
	*)
		echo "bench.sh: unknown flag $arg" >&2
		exit 2
		;;
	esac
done

# The strategies suite is not a go-bench run: it drives the comparative
# harness in internal/experiments through `fuiov strategies -out`,
# which emits the JSON artefact itself.
# The scale suite drives the streaming-aggregation sweep in
# internal/experiments through cmd/fuiov; -smoke trims it to a single
# 10k-client fleet with one round so check.sh can afford it.
# The verify suite drives the forgetting-verification harness in
# internal/experiments through cmd/fuiov; -smoke trims it to the two
# reference strategies with a small shadow population so check.sh can
# afford it.
if [ "$suite" = verify ]; then
	case "$out" in
	BENCH_kernels.json) out=BENCH_verify.json ;;
	esac
	if [ "$benchtime" = 1x ]; then
		go run ./cmd/fuiov verify -seed 47 -strategies retrain,paper \
			-shadows 3 -relearn-cap 8 -out "$out"
	else
		go run ./cmd/fuiov verify -seed 47 -out "$out"
	fi
	count=$(grep -c '"mia_advantage_after"' "$out" || true)
	if [ "$count" -eq 0 ]; then
		echo "bench.sh: no verify results parsed" >&2
		exit 1
	fi
	echo "bench.sh: wrote $count verify rows to $out"
	exit 0
fi

if [ "$suite" = scale ]; then
	case "$out" in
	BENCH_kernels.json) out=BENCH_scale.json ;;
	esac
	if [ "$benchtime" = 1x ]; then
		go run ./cmd/fuiov scale -clients 10000 -rounds 1 -out "$out"
	else
		go run ./cmd/fuiov scale -out "$out"
	fi
	count=$(grep -c '"registered"' "$out" || true)
	if [ "$count" -eq 0 ]; then
		echo "bench.sh: no scale results parsed" >&2
		exit 1
	fi
	echo "bench.sh: wrote $count scale rows to $out"
	exit 0
fi

if [ "$suite" = strategies ]; then
	case "$out" in
	BENCH_kernels.json) out=BENCH_strategies.json ;;
	esac
	go run ./cmd/fuiov strategies -out "$out"
	count=$(grep -c '"strategy"' "$out" || true)
	if [ "$count" -eq 0 ]; then
		echo "bench.sh: no strategy results parsed" >&2
		exit 1
	fi
	echo "bench.sh: wrote $count strategy results to $out"
	exit 0
fi

case "$suite" in
sign)
	case "$out" in
	BENCH_kernels.json) out=BENCH_sign.json ;;
	esac
	pattern='^(BenchmarkSignCompress|BenchmarkSignCompressInto|BenchmarkSignDenseLUT|BenchmarkSignAccumulate|BenchmarkSignDecode|BenchmarkHistoryRecordRound|BenchmarkModelIntoSpilled)$'
	pkgs="./internal/sign/ ./internal/history/"
	;;
*)
	pattern='^(BenchmarkMatMul|BenchmarkMatMulNaive|BenchmarkMatMulInto|BenchmarkMulVec|BenchmarkConvForward|BenchmarkConvForwardNaive|BenchmarkConvBackward|BenchmarkConvBackwardNaive|BenchmarkDenseForward|BenchmarkDenseForwardNaive|BenchmarkDenseBackward|BenchmarkClientGradient|BenchmarkHVP|BenchmarkHVPInto|BenchmarkRecoveryRound)$'
	pkgs="./internal/tensor/ ./internal/nn/ ./internal/fl/ ./internal/lbfgs/ ."
	;;
esac

raw=$(mktemp)
go test -bench "$pattern" -benchmem -benchtime "$benchtime" -run '^$' $pkgs | tee "$raw"

awk '
/^cpu:/ && cpu == "" { cpu = substr($0, index($0, ":") + 2) }
/^Benchmark/ {
	name = $1
	procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	ns = ""; bo = "null"; al = "null"
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "B/op") bo = $i
		else if ($(i + 1) == "allocs/op") al = $i
	}
	if (ns == "") next
	row = sprintf("    {\"op\": \"%s\", \"gomaxprocs\": %s, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", name, procs, ns, bo, al)
	rows = rows (rows == "" ? "" : ",\n") row
}
END {
	printf("{\n  \"cpu\": \"%s\",\n  \"benchmarks\": [\n%s\n  ]\n}\n", cpu, rows)
}
' "$raw" >"$out"
rm -f "$raw"

count=$(grep -c '"op"' "$out" || true)
if [ "$count" -eq 0 ]; then
	echo "bench.sh: no benchmark results parsed" >&2
	exit 1
fi
echo "bench.sh: wrote $count results to $out"
