#!/usr/bin/env bash
# Static checks plus the race-enabled test suite. The parallel trial/zone
# fan-out must stay race-clean; run this before every commit that touches
# internal/cs, internal/mat, internal/cloud, or internal/experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== sdlint =="
# Project-invariant static analysis (internal/lint). The summary line on
# stderr doubles as a self-check: a refactor that breaks package loading
# would report zero packages analyzed and "pass" vacuously, so gate on
# the package count AND the analyzer count (a suite wiring regression
# that silently dropped the interprocedural analyzers would also pass
# vacuously). The wall-clock budget keeps the call-graph/lock-order
# layer honest: whole-tree analysis must stay interactive.
SDLINT_START=$SECONDS
SDLINT_OUT="$(go run ./cmd/sdlint ./... 2>&1)" || {
    echo "$SDLINT_OUT"
    echo "FAIL: sdlint reported findings (or could not load the tree)"
    exit 1
}
SDLINT_SECS=$((SECONDS - SDLINT_START))
echo "$SDLINT_OUT"
if ! echo "$SDLINT_OUT" | grep -Eq 'analyzed [1-9][0-9]* packages'; then
    echo "FAIL: sdlint analyzed zero packages — loader or pattern expansion is broken"
    exit 1
fi
if ! echo "$SDLINT_OUT" | grep -Eq 'with 13 analyzers'; then
    echo "FAIL: sdlint ran without the full 13-analyzer suite — check ProjectAnalyzers wiring"
    exit 1
fi
if [ "$SDLINT_SECS" -gt 35 ]; then
    echo "FAIL: sdlint took ${SDLINT_SECS}s (> 35s budget) — the interprocedural layer regressed"
    echo "per-analyzer wall time (sdlint -json .timings):"
    go run ./cmd/sdlint -json ./... 2>/dev/null | sed -n '/"timings"/,/\]/p' || true
    exit 1
fi
echo "sdlint wall clock: ${SDLINT_SECS}s (budget 35s)"
# The machine-readable report must stay parseable and agree with the
# human run: a clean tree is an empty findings list with all 13
# analyzers present.
SDLINT_JSON="$(go run ./cmd/sdlint -json ./... 2>/dev/null)" || {
    echo "FAIL: sdlint -json exited non-zero on a tree the plain run passed"
    exit 1
}
if ! echo "$SDLINT_JSON" | grep -q '"version": 2'; then
    echo "FAIL: sdlint -json output missing the version marker"
    exit 1
fi
if ! echo "$SDLINT_JSON" | grep -q '"findings": \[\]'; then
    echo "FAIL: sdlint -json reports findings the plain run did not"
    exit 1
fi

echo "== topic graph freshness =="
# docs/topicgraph.txt is the committed protocol map; a bus call site
# added without regenerating it means the review never saw the protocol
# change. Mirrors the lockgraph freshness gate in CI.
if ! go run ./cmd/sdlint -topicgraph ./... | diff -u docs/topicgraph.txt - >/dev/null; then
    echo "FAIL: docs/topicgraph.txt is stale — regenerate with:"
    echo "  go run ./cmd/sdlint -topicgraph ./... > docs/topicgraph.txt"
    exit 1
fi

echo "== experiment tables freshness =="
# experiments_output.txt is the committed copy of every table in
# EXPERIMENTS.md; a change that moves a printed digit (or adds a runner)
# without regenerating it means the review never saw the new numbers. The
# "(id completed in 12ms)" lines are wall clock: mask the duration, keep
# the line.
MASK_TIMING='s/ completed in .*)$/ completed in _)/'
if ! go run ./cmd/experiments all | sed "$MASK_TIMING" \
    | diff -u <(sed "$MASK_TIMING" experiments_output.txt) - >/dev/null; then
    echo "FAIL: experiments_output.txt is stale — regenerate with:"
    echo "  go run ./cmd/experiments all > experiments_output.txt"
    exit 1
fi

echo "== fuzz smoke =="
# A few seconds per target: enough to catch a decoder that started
# panicking on NaN/Inf or a frame parser that accepts garbage, without
# turning the pre-commit gate into a fuzzing campaign. One -fuzz flag
# per invocation (the go tool fuzzes exactly one target at a time).
go test -run '^$' -fuzz '^FuzzDecodeOMP$' -fuzztime 3s ./internal/cs
go test -run '^$' -fuzz '^FuzzDecodeIHT$' -fuzztime 3s ./internal/cs
go test -run '^$' -fuzz '^FuzzOperatorRoundTrip$' -fuzztime 3s ./internal/basis
go test -run '^$' -fuzz '^FuzzParseFrame$' -fuzztime 3s ./internal/bus
go test -run '^$' -fuzz '^FuzzTopicMatch$' -fuzztime 3s ./internal/bus
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 3s ./internal/lint
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 3s ./internal/query

echo "== go test -race =="
GOMAXPROCS="${GOMAXPROCS:-4}" go test -race ./...

echo "== chaos (fault injection) =="
# The end-to-end resilience gate: a full hierarchy campaign under a
# scripted partition + infra outage, burst loss, and crash/restart must
# complete, degrade within bounds, and replay identically across
# schedules. -count=1 defeats test caching so the run above never
# satisfies this gate by cache hit.
GOMAXPROCS="${GOMAXPROCS:-4}" go test -race -count=1 -run Chaos ./internal/testutil/chaos/

echo "== obs overhead guard =="
# The disabled instrumentation path must stay free: if a counter op on a
# disabled registry ever allocates, or drifts past 10 ns/op, the whole
# "permanently instrumented hot paths" contract of DESIGN.md §6 is broken.
OBS_BENCH="$(go test -run '^$' -bench 'BenchmarkObsDisabledCounter|BenchmarkObsEnabledCounter' \
    -benchmem -benchtime 2000000x ./internal/obs/)"
echo "$OBS_BENCH"
echo "$OBS_BENCH" | awk '
/^BenchmarkObsDisabledCounter/ {
    if ($7 != 0) { printf "FAIL: disabled counter path allocates (%s allocs/op)\n", $7; bad = 1 }
    if ($3 + 0 > 10) { printf "FAIL: disabled counter path too slow (%s ns/op > 10)\n", $3; bad = 1 }
    seen = 1
}
END {
    if (!seen) { print "FAIL: BenchmarkObsDisabledCounter did not run"; bad = 1 }
    exit bad
}'

echo "all checks passed"
