#!/usr/bin/env bash
# Fails when a test selection in the CI workflow has gone stale: every
# "|"-separated alternative of each `go test -run` or `-bench` pattern must
# match some Test, Benchmark, Fuzz or Example function that `go test -list`
# finds in that command's packages. A renamed or deleted test then fails
# here instead of silently dropping out of a repeated step.
#
# Usage: scripts/runlists.sh [workflow]   (default .github/workflows/ci.yml)
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

# One `go test` command per line, backslash continuations joined.
commands=$(sed -e ':a' -e '/\\$/{N;s/\\\n[[:space:]]*/ /;ba' -e '}' "$workflow" |
    grep -E 'go test .*-(run|bench) ' || true)
if [ -z "$commands" ]; then
    echo "runlists: no go test -run or -bench command in $workflow" >&2
    exit 1
fi

stale=0
checked=0
while IFS= read -r cmd; do
    read -ra words <<<"$(tr -d "'\"" <<<"$cmd")"
    pkgs=()
    patterns=()
    for ((i = 0; i < ${#words[@]}; i++)); do
        case ${words[i]} in
        -run | -bench) patterns+=("${words[i + 1]}") ;;
        . | ./*) pkgs+=("${words[i]}") ;;
        esac
    done
    names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
    for pattern in "${patterns[@]}"; do
        [ "$pattern" = '^$' ] || [ "$pattern" = . ] && continue
        IFS='|' read -ra alternatives <<<"$pattern"
        for alt in "${alternatives[@]}"; do
            checked=$((checked + 1))
            if ! grep -Eq -- "${alt%%/*}" <<<"$names"; then
                echo "runlists: -run/-bench name '$alt' matches no test in ${pkgs[*]}" >&2
                stale=$((stale + 1))
            fi
        done
    done
done <<<"$commands"
echo "runlists: $checked selected names checked, $stale stale"
[ "$stale" -eq 0 ]
