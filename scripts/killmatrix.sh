#!/usr/bin/env bash
# Seeded-bug kill matrix for the sdlint analyzers.
#
# Every file internal/lint/testdata/mutants/<analyzer>.json lists mutants
# aimed at that analyzer: {name, file, anchor, replacement, bug}. A mutant
# is one small edit to real tree code that still compiles and plants a
# bug of the class the analyzer's Doc line names. For each mutant this
# script edits a scratch copy of the tree (the anchor must occur exactly
# once) and runs three checks on the result:
#
#   vet   go vet on the mutated package and the packages importing it
#   test  plain go test -count=1 on the same packages, then, if that
#         passes, go test -race -count=1 on them three times: the
#         allocation guards of some packages skip under the race
#         detector, which randomizes sync.Pool retention, and the race
#         detector sees only the interleavings a run happens to take.
#         The column reads K if the plain run fails or every race run
#         does, and k if only some race runs fail (an intermittent
#         race); the reruns cost little, since the build cache keeps the
#         race build. Each run has a 120 s timeout, so a planted deadlock
#         or leak that hangs a test is a kill.
#   sdlint -json ./..., one column per analyzer
#
# A check kills a mutant when it fails on it. A unique kill is a mutant
# exactly one analyzer kills, with vet passing and the test column not
# K: a k does not take a unique kill from an analyzer, because a race
# the tests catch only sometimes is not a check one can rely on. The matrix
# prints as a markdown table, one row per mutant, followed by a summary
# per analyzer. Usage: scripts/killmatrix.sh (no arguments; needs jq and
# perl; takes tens of minutes, most of it race-enabled test builds).
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir -p "$tree"
tar --exclude=.git -cf - . | tar -xf - -C "$tree"
cd "$tree"
go build -o "$work/sdlint" ./cmd/sdlint

# The clean tree must pass every check, or a kill means nothing.
"$work/sdlint" -json ./... > "$work/clean.json" 2> /dev/null || {
    echo "killmatrix: sdlint is not clean on the unmutated tree" >&2
    exit 1
}
mapfile -t analyzers < <(jq -r '.analyzers[]' "$work/clean.json")

# Direct importers of every module package, from one go list.
go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... > "$work/imports.txt"
importers() { # import path -> that package and its direct importers
    echo "$1"
    awk -v p="$1" '{ for (i = 2; i <= NF; i++) if ($i == p) { print $1; break } }' "$work/imports.txt"
}

header="| mutant | target | vet | test |"
rule="|---|---|---|---|"
for a in "${analyzers[@]}"; do
    header+=" $a |"
    rule+="---|"
done
header+=" unique |"
rule+="---|"
echo "$header"
echo "$rule"

declare -A targeted killed unique
for f in "$repo"/internal/lint/testdata/mutants/*.json; do
    target=$(basename "$f" .json)
    n=$(jq length "$f")
    for ((i = 0; i < n; i++)); do
        name=$(jq -r ".[$i].name" "$f")
        file=$(jq -r ".[$i].file" "$f")
        targeted[$target]=$((${targeted[$target]:-0} + 1))
        cp "$file" "$work/orig.go"
        ANCHOR=$(jq -r ".[$i].anchor" "$f") REPL=$(jq -r ".[$i].replacement" "$f") \
            perl -0pi -e '$n = () = /\Q$ENV{ANCHOR}\E/g; die "anchor count $n\n" if $n != 1; s/\Q$ENV{ANCHOR}\E/$ENV{REPL}/' "$file" ||
            { echo "| $name | $target | anchor not found once |"; cp "$work/orig.go" "$file"; continue; }
        pkg=$(go list "./$(dirname "$file")")
        mapfile -t pkgs < <(importers "$pkg")
        if ! go build "${pkgs[@]}" > /dev/null 2>&1; then
            echo "| $name | $target | does not compile |"
            cp "$work/orig.go" "$file"
            continue
        fi
        row="| $name | $target |"
        kills=()
        if go vet "${pkgs[@]}" > /dev/null 2>&1; then row+=" . |"; else row+=" K |"; kills+=(vet); fi
        raced=3
        if go test -count=1 -timeout 120s "${pkgs[@]}" > /dev/null 2>&1; then
            raced=0
            for r in 1 2 3; do
                go test -race -count=1 -timeout 120s "${pkgs[@]}" > /dev/null 2>&1 || raced=$((raced + 1))
            done
        fi
        case $raced in
        0) row+=" . |" ;;
        3) row+=" K |"; kills+=(test) ;;
        *) row+=" k |" ;;
        esac
        "$work/sdlint" -json ./... > "$work/mut.json" 2> /dev/null || true
        for a in "${analyzers[@]}"; do
            if jq -e --arg a "$a" 'any(.findings[]; .check == $a)' "$work/mut.json" > /dev/null; then
                row+=" K |"
                kills+=("$a")
                killed[$a]=$((${killed[$a]:-0} + 1))
            else
                row+=" . |"
            fi
        done
        if [ "${#kills[@]}" -eq 1 ] && [ "${kills[0]}" != vet ] && [ "${kills[0]}" != test ]; then
            row+=" ${kills[0]} |"
            unique[${kills[0]}]=$((${unique[${kills[0]}]:-0} + 1))
        else
            row+=" |"
        fi
        echo "$row"
        cp "$work/orig.go" "$file"
    done
done

echo
echo "| analyzer | mutants aimed at it | mutants it kills | unique kills |"
echo "|---|---|---|---|"
for a in "${analyzers[@]}"; do
    echo "| $a | ${targeted[$a]:-0} | ${killed[$a]:-0} | ${unique[$a]:-0} |"
done
