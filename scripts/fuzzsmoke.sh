#!/usr/bin/env bash
# Fuzz smoke: every Fuzz target in the module, each for a short while.
#
#   scripts/fuzzsmoke.sh [fuzztime]    # default 3s per target
#
# The targets come from `go test -list '^Fuzz'` rather than a hand-kept
# list: a -fuzz pattern that matches no target still passes, so a stale
# entry would keep "passing" and a new target would never be fuzzed. One
# `go test -fuzz` per target, since the go tool fuzzes one at a time.
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${1:-3s}"
# -list prints a package's matching names, then its "ok <pkg> <time>" line.
targets="$(go test -list '^Fuzz' ./... | awk '
    /^Fuzz/ { names[n++] = $1; next }
    /^ok/   { for (i = 0; i < n; i++) print $2, names[i] }
            { n = 0 }')"
if [ -z "$targets" ]; then
    echo "FAIL: go test -list found no Fuzz targets"
    exit 1
fi
while read -r pkg target; do
    echo "-- $target ($pkg, $fuzztime)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg" </dev/null
done <<<"$targets"
