#!/bin/sh
# forensics_smoke.sh boots a real rrqserver with tracing on, drives a
# mixed load (queries, a mutation, a metrics scrape in both exposition
# flavors), then exercises the whole forensic surface end to end:
# /debug/flight must show the traffic, the OpenMetrics scrape must end
# in `# EOF`, and /debug/bundle — fetched with rrqdiag, which
# manifest-validates before writing — must inspect cleanly. The /debug
# routes live on the operator listener (-pprof-addr), and the query
# port must answer them 404. It is the CI proof that the
# incident-forensics workflow in README.md works against a live binary,
# not just in unit tests.
#
# Usage: scripts/forensics_smoke.sh [addr [admin-addr]]
#        (defaults 127.0.0.1:18080 and 127.0.0.1:18081)
set -eu
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:18080}"
ADMIN_ADDR="${2:-127.0.0.1:18081}"
BASE="http://$ADDR"
ADMIN="http://$ADMIN_ADDR"
WORK=$(mktemp -d)
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/rrqserver" ./cmd/rrqserver
go build -o "$WORK/rrqdiag" ./cmd/rrqdiag

echo "== boot rrqserver on $ADDR (admin $ADMIN_ADDR)"
"$WORK/rrqserver" -demo -np 2000 -nw 1000 -d 4 -addr "$ADDR" \
    -pprof-addr "$ADMIN_ADDR" -trace-sample 1 -log off &
SRV_PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1 &&
    curl -sf "$ADMIN/debug/flight" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: server never became healthy" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== mixed load"
for p in 1 2 3 4 5; do
    curl -sf -d "{\"product\": $p, \"k\": 10}" "$BASE/v1/reverse-topk" >/dev/null
done
curl -sf -d '{"product": 1, "k": 5}' "$BASE/v1/reverse-kranks" >/dev/null
curl -sf -d '{"products": [[1, 2, 3, 4]]}' "$BASE/v1/products" >/dev/null

echo "== forensic routes are not on the query port"
for path in /debug/flight /debug/bundle /debug/traces; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE$path")
    [ "$code" = 404 ] || {
        echo "FAIL: query port answered $path with $code, want 404" >&2; exit 1; }
done

echo "== flight recorder saw the traffic"
FLIGHT=$(curl -sf "$ADMIN/debug/flight")
echo "$FLIGHT" | grep -q '"enabled":true' || {
    echo "FAIL: flight recorder not enabled: $FLIGHT" >&2; exit 1; }
echo "$FLIGHT" | grep -q '"records":\[{' || {
    echo "FAIL: flight ring empty after load: $FLIGHT" >&2; exit 1; }

echo "== OpenMetrics scrape with exemplars"
OM=$(curl -sf -H 'Accept: application/openmetrics-text' "$BASE/metrics")
printf '%s\n' "$OM" | tail -1 | grep -q '^# EOF$' || {
    echo "FAIL: OpenMetrics scrape does not end with # EOF" >&2; exit 1; }
printf '%s\n' "$OM" | grep -q 'trace_id=' || {
    echo "FAIL: no exemplar in OpenMetrics scrape" >&2; exit 1; }
curl -sf "$BASE/metrics" | grep -q '# EOF' && {
    echo "FAIL: classic scrape contains # EOF" >&2; exit 1; }

echo "== fetch and validate the diagnostics bundle"
"$WORK/rrqdiag" -server "$ADMIN" -out "$WORK/bundle.tar.gz"
"$WORK/rrqdiag" -inspect "$WORK/bundle.tar.gz"
for entry in goroutines.txt metrics.om flight.json traces.json config.json; do
    "$WORK/rrqdiag" -inspect "$WORK/bundle.tar.gz" | grep -q "$entry" || {
        echo "FAIL: bundle manifest missing $entry" >&2; exit 1; }
done

echo "forensics smoke OK"
