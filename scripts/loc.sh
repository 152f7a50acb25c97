#!/usr/bin/env bash
# Non-test Go lines per package and in total: the one line count behind
# the size targets in ROADMAP.md. A line is a physical line (wc -l),
# blank lines and comments included. _test.go files and everything under
# a testdata/ directory are left out; bench/ (the benchmark harness) is
# reported on its own line and kept out of the total; assembly (.s) files
# are counted separately.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# sources EXT lists the tracked-or-not source files with extension EXT,
# one per line, outside .git and testdata/, without _test.go files.
sources() {
    find . -path ./.git -prune -o -path '*/testdata' -prune -o \
        -type f -name "*.$1" ! -name '*_test.go' -print | sed 's|^\./||' | sort
}

# count reads file names on stdin and prints "<dir> <lines>" per package
# directory, sorted by directory.
count() {
    while IFS= read -r f; do
        printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done | awk '{n[$1] += $2} END {for (d in n) print d, n[d]}' | sort
}

go_lines=$(sources go | count)
printf '%-34s %7s\n' package lines
echo "$go_lines" | awk '$1 != "bench" && $1 !~ /^bench\// {printf "%-34s %7d\n", $1, $2; t += $2}
    END {printf "%-34s %7d\n", "total (outside bench/)", t}'
echo "$go_lines" | awk '$1 == "bench" || $1 ~ /^bench\// {t += $2}
    END {printf "%-34s %7d\n", "bench/", t}'
sources s | count | awk '{printf "%-34s %7d\n", $1 " (.s)", $2; t += $2}
    END {printf "%-34s %7d\n", "assembly total", t}'
