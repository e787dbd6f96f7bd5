#!/bin/sh
# check_bce.sh fails when the compiler inserts more bounds checks into
# the hot scan kernels than the recorded budget. The classify loop, the
# Dot/Dot2 kernels and the top-k heap run per group per preference — a
# bounds check that slips into one of them
# (say, by reordering an index expression the prover no longer sees
# through) is a silent performance regression no test catches.
#
# The budgets are per file, counted from `-d=ssa/check_bce` output, and
# deliberately equal to the current counts: most remaining checks are
# data-dependent table loads (bnd[off + 2*code]) the prover cannot
# eliminate, so any increase means a kernel change regressed. After a
# deliberate kernel change, re-run with -update semantics by editing the
# budgets below, justifying the new count in the commit.
set -eu
cd "$(dirname "$0")/.."

out=$(go build -gcflags='-d=ssa/check_bce/debug=1' \
    ./internal/vec ./internal/topk ./internal/algo 2>&1 |
    grep -E 'Found Is(In|Slice)Bounds' || true)
if [ -z "$out" ]; then
    echo "check_bce: no compiler output — toolchain change?" >&2
    exit 1
fi

bad=0
check() {
    file=$1
    budget=$2
    n=$(printf '%s\n' "$out" | awk -F: -v f="$file" '$1 == f' | wc -l | tr -d ' ')
    if [ "$n" -gt "$budget" ]; then
        echo "new bounds checks in $file: $n, budget $budget:" >&2
        printf '%s\n' "$out" | awk -F: -v f="$file" '$1 == f' | sed 's/^/  /' >&2
        bad=1
    else
        echo "$file: $n bounds checks (budget $budget)"
    fi
}

check internal/algo/gir.go 23
check internal/vec/vec.go 2
check internal/topk/topk.go 25

if [ "$bad" -ne 0 ]; then
    echo "hot-kernel bounds checks grew; see -gcflags='-d=ssa/check_bce' output above" >&2
    exit 1
fi
echo "hot-kernel bounds checks within budget"
