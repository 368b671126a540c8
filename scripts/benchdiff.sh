#!/usr/bin/env bash
# benchdiff.sh — run the solver benchmarks (Table4, Fig9, Fig13) against the
# working tree, compare allocs/op and ns/op with a recorded baseline, and
# emit BENCH_astar.json at the repo root.
#
# Usage:
#   scripts/benchdiff.sh                 # run fresh, compare vs bench/baseline_astar.txt
#   scripts/benchdiff.sh old.txt         # compare a fresh run vs old.txt
#   scripts/benchdiff.sh old.txt new.txt # compare two recorded runs (no bench run)
#   scripts/benchdiff.sh --check         # re-validate the committed BENCH_astar.json
#                                        # gate without running anything (CI mode)
#
# Baselines are plain `go test -bench` output; record one with:
#   go test -run XXX -bench 'Fig9|Fig13|Table4' -benchmem -benchtime=1x . > bench/baseline_astar.txt
#
# Note: -benchtime=1x makes the comparison deterministic per run but noisy
# in ns/op; allocs/op is exact (the GC statistics are not sampled), which
# is why the acceptance gate reads allocs_reduction.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--check" ]]; then
    if [[ ! -f BENCH_astar.json ]]; then
        echo "benchdiff: --check: BENCH_astar.json not found (run scripts/benchdiff.sh first)" >&2
        exit 1
    fi
    fail=0
    seen=0
    while IFS= read -r line; do
        case "$line" in
            *'"allocs_reduction":'*)
                seen=1
                v="${line##*: }"; v="${v%,}"
                awk -v v="$v" 'BEGIN { exit (v >= 2.0) ? 0 : 1 }' || fail=1
                ;;
        esac
    done < BENCH_astar.json
    if [[ "$seen" -eq 0 || "$fail" -ne 0 ]]; then
        echo "benchdiff: --check FAIL — BENCH_astar.json is empty or under the 2x allocs/op gate" >&2
        exit 1
    fi
    echo "benchdiff: --check ok — recorded gate holds (>= 2x allocs/op reduction)" >&2
    exit 0
fi

OLD="${1:-bench/baseline_astar.txt}"
NEW="${2:-}"

if [[ ! -f "$OLD" ]]; then
    echo "benchdiff: baseline $OLD not found" >&2
    exit 1
fi

if [[ -z "$NEW" ]]; then
    NEW="$(mktemp)"
    trap 'rm -f "$NEW"' EXIT
    echo "benchdiff: running solver benchmarks (several minutes: Fig9 is a full sweep)..." >&2
    go test -run XXX -bench 'Fig9|Fig13|Table4' -benchmem -benchtime=1x . | tee "$NEW" >&2
fi

awk -v old_file="$OLD" -v new_file="$NEW" '
function parse(file, dest,    line, n, parts, name, i) {
    while ((getline line < file) > 0) {
        if (line !~ /^Benchmark/) continue
        n = split(line, parts, /[ \t]+/)
        name = parts[1]
        sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= n; i++) {
            if (parts[i] == "ns/op")     dest[name, "ns"] = parts[i-1]
            if (parts[i] == "B/op")      dest[name, "b"]  = parts[i-1]
            if (parts[i] == "allocs/op") dest[name, "a"]  = parts[i-1]
        }
        dest[name] = 1
    }
    close(file)
}
BEGIN {
    parse(old_file, old)
    parse(new_file, new)
    printf "{\n"
    printf "  \"benchmark_cmd\": \"go test -run XXX -bench '"'"'Fig9|Fig13|Table4'"'"' -benchmem -benchtime=1x .\",\n"
    printf "  \"baseline_file\": \"%s\",\n", old_file
    printf "  \"gate\": \"allocs_reduction >= 2.0 on every solver benchmark\",\n"
    printf "  \"benchmarks\": {\n"
    count = 0
    for (name in new) {
        if (index(name, SUBSEP) > 0) continue
        if (!(name in old)) continue
        names[++count] = name
    }
    # stable order
    for (i = 1; i <= count; i++)
        for (j = i + 1; j <= count; j++)
            if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
    for (i = 1; i <= count; i++) {
        name = names[i]
        ar = (new[name, "a"] > 0) ? old[name, "a"] / new[name, "a"] : 0
        tr = (new[name, "ns"] > 0) ? old[name, "ns"] / new[name, "ns"] : 0
        printf "    \"%s\": {\n", name
        printf "      \"old\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", old[name, "ns"], old[name, "b"], old[name, "a"]
        printf "      \"new\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", new[name, "ns"], new[name, "b"], new[name, "a"]
        printf "      \"allocs_reduction\": %.2f,\n", ar
        printf "      \"speedup\": %.2f\n", tr
        printf "    }%s\n", (i < count) ? "," : ""
    }
    printf "  }\n}\n"
}' > BENCH_astar.json

echo "benchdiff: wrote BENCH_astar.json" >&2
fail=0
while IFS= read -r line; do
    case "$line" in
        *'"allocs_reduction":'*)
            v="${line##*: }"; v="${v%,}"
            awk -v v="$v" 'BEGIN { exit (v >= 2.0) ? 0 : 1 }' || fail=1
            ;;
    esac
done < BENCH_astar.json
if [[ "$fail" -ne 0 ]]; then
    echo "benchdiff: FAIL — a solver benchmark is under the 2x allocs/op gate" >&2
    exit 1
fi
echo "benchdiff: all solver benchmarks >= 2x allocs/op reduction" >&2
