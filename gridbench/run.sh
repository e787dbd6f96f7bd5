#!/usr/bin/env bash
# Builds the gridrank benchmark from the checkout that holds this script
# and runs it from the checkout root. All build and run output (Go build
# cache, the binary, catalog files, span dumps, result history) stays
# under .bench_build/ in the checkout.
#
#   bash gridbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#   bash gridbench/run.sh compare old.jsonl new.jsonl
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/gridbench" && go build -o "$out/bin/gridbench" .)
cd "$root"
exec "$out/bin/gridbench" "$@"
