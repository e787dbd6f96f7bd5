#!/bin/sh
# bench.sh runs the scan-kernel micro-benchmarks and records them in
# BENCH_gir.json, so a kernel change shows up in review with its spread:
#
#   internal/algo  BenchmarkClassifyRowD6, BenchmarkClassifyRowD16
#                  (the Case 1/2 classify loop, one row per call)
#   internal/vec   BenchmarkDot (Case-3 refinement and f_w(q), d=4..64)
#   internal/topk  BenchmarkKRankHeap, BenchmarkRankBoundedEarlyExit
#
# Each benchmark runs -count=5 times; the file records the median, min
# and max of ns/op over those runs plus a machine fingerprint (CPU,
# nproc, GOMAXPROCS, Go version). End-to-end and per-layer numbers are
# gridbench's job (bash gridbench/run.sh), not this file's.
#
# Usage: scripts/bench.sh [-short]
#
#   -short   100ms per run instead of 1s (the CI bench job).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME=1s
if [ "${1:-}" = "-short" ]; then
    BENCHTIME=100ms
fi
COUNT=5

OUT=BENCH_gir.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

bench() {
    go test -run '^$' -bench "$2" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" "$1" | tee -a "$RAW"
}
bench ./internal/algo '^BenchmarkClassifyRowD(6|16)$'
bench ./internal/vec '^BenchmarkDot$'
bench ./internal/topk '^Benchmark(KRankHeap|RankBoundedEarlyExit)$'

# Collect ns/op per benchmark name across the -count runs, then print
# median/min/max. A result line looks like:
#   BenchmarkDot/d=6-8  	 1000000	  2.5 ns/op	  0 B/op	  0 allocs/op
awk -v bt="$BENCHTIME" -v count="$COUNT" -v nproc="$(nproc 2>/dev/null || echo 0)" \
    -v gover="$(go env GOVERSION)" -v maxprocs="${GOMAXPROCS:-}" '
/^cpu:/ { cpu = substr($0, 6); gsub(/^[ \t]+|"/, "", cpu) }
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (!(name in n)) { order[++names] = name; pkgOf[name] = pkg }
    for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/op") ns[name, ++n[name]] = $i
        if ($(i + 1) == "allocs/op") allocs[name] = $i
    }
}
END {
    if (maxprocs == "") maxprocs = (procs == "" ? 1 : procs)
    print "{"
    printf "  \"fingerprint\": {\"cpu\": \"%s\", \"nproc\": %s, \"gomaxprocs\": %s, \"go\": \"%s\"},\n", cpu, nproc, maxprocs, gover
    printf "  \"benchtime\": \"%s\",\n  \"count\": %s,\n  \"benchmarks\": [\n", bt, count
    for (b = 1; b <= names; b++) {
        name = order[b]
        k = n[name]
        for (i = 1; i <= k; i++) v[i] = ns[name, i] + 0
        for (i = 2; i <= k; i++) {           # insertion sort, k is tiny
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
        med = (k % 2) ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
        printf "    {\"name\": \"%s\", \"package\": \"%s\", \"runs\": %d, \"ns_per_op\": {\"median\": %s, \"min\": %s, \"max\": %s}, \"allocs_per_op\": %s}%s\n", \
            name, pkgOf[name], k, med, v[1], v[k], allocs[name] + 0, (b < names ? "," : "")
    }
    print "  ]"
    print "}"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
