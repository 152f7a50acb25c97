#!/usr/bin/env bash
# Fused multiply-add instructions per decode package in an arm64 build:
# the FMADDD, FMSUBD, FNMADDD and FNMSUBD that `go tool objdump` finds in
# each of internal/mat, internal/fft, internal/basis and internal/cs. The
# Go compiler fuses x*y + z on arm64 but never on amd64, and a fused
# result can differ from the unfused one in its last bit, so each is a
# place where arm64 and amd64 decodes may part (ROADMAP item 28). A
# report, not a gate.
#
# Usage: scripts/fmacount.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf '%-34s %7s\n' package fused
for p in mat fft basis cs; do
    GOARCH=arm64 go build -o "$tmp/$p.a" "./internal/$p"
    # objdump writes a file first so that set -e catches its failure; the
    # || true covers only grep -c's exit status 1 on zero matches.
    go tool objdump "$tmp/$p.a" >"$tmp/$p.dis"
    n=$(grep -cE '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' "$tmp/$p.dis" || true)
    printf '%-34s %7d\n' "internal/$p" "$n"
done
