#!/usr/bin/env bash
# Runs the decode-fast-path benchmark suite and emits BENCH_5.json with
# ns/op, B/op, and allocs/op per benchmark. Usage:
#
#   scripts/bench.sh [output.json]
#
# The benchtime is pinned to a fixed iteration count so runs are comparable
# across machines of similar class; override with BENCHTIME=200x.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_5.json}"
BENCHTIME="${BENCHTIME:-50x}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Root-level end-to-end benches plus the decoder/kernels micro benches.
go test -run '^$' -bench 'BenchmarkFig4ReconstructionVsM|BenchmarkEndToEndCampaign|BenchmarkFig5AdaptiveZones|BenchmarkFig6CHSAlgorithm|BenchmarkC2MeasurementBound|BenchmarkA4DecoderComparison' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP"
# 2-D grid decode: dense reference vs matrix-free operator at 64×64, plus
# the 1024×1024 decode that only exists on the operator path. One decode of
# the 1024² grid is the datum — it runs ~0.5 s, so iterations are pinned low.
go test -run '^$' -bench 'BenchmarkDecode64GridDense|BenchmarkDecode64GridOperator' \
    -benchmem -benchtime "${GRID_BENCHTIME:-20x}" . | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkDecode1024Grid' \
    -benchmem -benchtime "${GRID1024_BENCHTIME:-1x}" . | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkOMP256M30|BenchmarkIHT256|BenchmarkCoSaMP256' \
    -benchmem -benchtime "$BENCHTIME" ./internal/cs/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkMul64|BenchmarkQR128x32' \
    -benchmem -benchtime "$BENCHTIME" ./internal/mat/ | tee -a "$TMP"
# Fast-transform kernels: operator vs dense synthesize/analyze pairs, and
# the separable 2-D DCT (analysis + synthesis of one n×n field).
go test -run '^$' -bench 'BenchmarkOperatorDCT64|BenchmarkOperatorDCT1024|BenchmarkOperatorDCT2D|BenchmarkDenseDCT64|BenchmarkDenseDCT1024' \
    -benchmem -benchtime "${KERNEL_BENCHTIME:-2000x}" ./internal/basis/ | tee -a "$TMP"
# Observability overhead: the disabled path must stay ~free, the enabled
# path cheap; a fixed large iteration count keeps sub-ns timings stable.
go test -run '^$' -bench 'BenchmarkObsDisabledCounter|BenchmarkObsEnabledCounter' \
    -benchmem -benchtime "${OBS_BENCHTIME:-2000000x}" ./internal/obs/ | tee -a "$TMP"
# Continuous-service mode: warm vs cold window decode (the warm-start win
# on a slowly-varying field), snapshot publish + lock-free read path, and
# the mixed query-serving path under a live publisher.
go test -run '^$' -bench 'BenchmarkWarmStartWindow|BenchmarkColdStartWindow' \
    -benchmem -benchtime "${SERVICE_BENCHTIME:-20x}" ./internal/stream/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkSnapshotSwap|BenchmarkSnapshotLatestParallel' \
    -benchmem -benchtime "${SWAP_BENCHTIME:-20000x}" ./internal/snapshot/ | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkQueryServe' \
    -benchmem -benchtime "${QUERY_BENCHTIME:-20000x}" ./internal/serve/ | tee -a "$TMP"
# Fleet backend: the struct-of-arrays population. The 100k campaign is the
# repeatable datum; the 10^6-node campaign is env-gated (it skips unless
# FLEET_BENCH_FULL=1) and pinned to one iteration — a single full campaign
# is the headline number. The shard step micro-bench rides along.
go test -run '^$' -bench 'BenchmarkFleetCampaign100k' \
    -benchmem -benchtime "${FLEET_BENCHTIME:-5x}" . | tee -a "$TMP"
FLEET_BENCH_FULL=1 go test -run '^$' -bench 'BenchmarkMillionNodeCampaign' \
    -benchmem -benchtime 1x -timeout 30m . | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkStepWaypoints4096' \
    -benchmem -benchtime "$BENCHTIME" ./internal/mobility/ | tee -a "$TMP"

awk -v go_version="$(go version | awk '{print $3}')" '
BEGIN { n = 0 }
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    # Walk value/unit pairs instead of assuming column positions: benches
    # that emit custom metrics (e.g. the fleet campaigns report "nmse")
    # would otherwise shift B/op and allocs/op into the wrong columns.
    ns_v = 0; b_v = 0; a_v = 0
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns_v = $i
        else if ($(i+1) == "B/op") b_v = $i
        else if ($(i+1) == "allocs/op") a_v = $i
    }
    ns[n] = ns_v; bytes[n] = b_v; allocs[n] = a_v; names[n] = name
    n++
}
END {
    printf "{\n  \"go\": \"%s\",\n  \"benchtime\": \"'"$BENCHTIME"'\",\n  \"benchmarks\": [\n", go_version
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            names[i], ns[i], bytes[i], allocs[i], (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$TMP" > "$OUT"

echo "wrote $OUT"
