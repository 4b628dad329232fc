#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the serving subsystem, run by
# `make serve-smoke` and CI. Exercises the acceptance criteria directly:
#
#   1. 64 closed-loop clients against max-concurrent=8/max-queue=16 must
#      see real work done AND real 429 rejections (bounded admission, not
#      unbounded goroutine pileup), with zero transport errors and zero
#      pinned buffer pages afterwards.
#   2. Requests with a ~1ms-class deadline are answered 503 and leak no
#      pinned pages.
#   3. A traced request (xrblast -trace) must surface in /debug/traces
#      with its xrblast-reported trace id, and /metrics must be a clean
#      Prometheus text exposition (xrtrace -promlint).
#   4. Concurrent ingest (xrblast -ingest against POST /api/v1/insert)
#      must complete without errors while readers keep flowing: reader
#      p99 under ingest is bounded relative to a read-only baseline.
#   5. SIGTERM drains in-flight requests and the server exits 0 with
#      "drained cleanly".
set -eu

GO=${GO:-go}
TMP=$(mktemp -d /tmp/xrtree_serve_smoke.XXXXXX)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== build"
$GO build -o "$TMP" ./cmd/xrgen ./cmd/xrload ./cmd/xrserve ./cmd/xrblast \
    ./cmd/xrtrace

echo "== corpus + store"
"$TMP/xrgen" -dtd department -out "$TMP/dept.xml"
"$TMP/xrload" -in "$TMP/dept.xml" -store "$TMP/dept.db" -tags department,employee,name

echo "== boot xrserve"
"$TMP/xrserve" -store dept="$TMP/dept.db" -addr 127.0.0.1:0 \
    -addr-file "$TMP/addr.txt" -max-concurrent 8 -max-queue 16 \
    -drain 10s >"$TMP/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$TMP/addr.txt" ] && break
    sleep 0.1
done
[ -s "$TMP/addr.txt" ] || { echo "server never wrote addr file"; cat "$TMP/server.log"; exit 1; }
BASE="http://$(cat "$TMP/addr.txt")"
echo "   serving at $BASE"

echo "== saturation: 64 closed-loop clients vs 8 slots + queue of 16"
"$TMP/xrblast" -url "$BASE" -wait-ready 10s -label saturate \
    -target '/api/v1/join?anc=employee&desc=name&alg=xr' \
    -clients 64 -duration 3s \
    -min-ok 10 -min-rejected 1 -max-errors 0 -assert-no-pins

echo "== short deadlines: 1ms-class timeout must 503 and leak nothing"
OUT=$("$TMP/xrblast" -url "$BASE" -label deadline \
    -target '/api/v1/join?anc=employee&desc=name&timeout=1ns' \
    -clients 1 -requests 4 -duration 30s \
    -max-errors 0 -assert-no-pins)
echo "$OUT"
echo "$OUT" | grep -q 'timeouts=4' || { echo "FAIL: expected all 4 short-deadline requests to time out (503)"; exit 1; }

echo "== trace smoke: propagated traceparent must land in /debug/traces"
OUT=$("$TMP/xrblast" -url "$BASE" -label traced \
    -target '/api/v1/join?anc=employee&desc=name&alg=xr&stats=1' \
    -clients 1 -requests 3 -duration 30s -trace 1 -trace-seed 7 \
    -min-ok 3 -max-errors 0)
echo "$OUT"
TID=$(echo "$OUT" | awk '/slow trace/ {print $3; exit}')
[ -n "$TID" ] || { echo "FAIL: xrblast reported no trace handles"; exit 1; }
"$TMP/xrtrace" -url "$BASE" -trace "$TID" >"$TMP/trace.txt" \
    || { echo "FAIL: xrtrace found no trace $TID in /debug/traces"; exit 1; }
cat "$TMP/trace.txt"
grep -q "trace $TID" "$TMP/trace.txt" || { echo "FAIL: trace $TID missing from xrtrace output"; exit 1; }

echo "== /metrics must be a clean Prometheus text exposition"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
grep -q 'xrtree_serve_requests_total' "$TMP/metrics.txt" || { echo "FAIL: serving counters missing from /metrics"; exit 1; }
"$TMP/xrtrace" -promlint "$TMP/metrics.txt"

echo "== ingest: concurrent inserts must not starve readers"
# 4 readers + 2 insert workers stay under the 8 execution slots, so the
# measured inflation is latching, not admission queueing. The bound is
# deliberately loose — it catches a return to coarse blocking (readers
# queueing behind whole insert transactions), not scheduling jitter.
"$TMP/xrblast" -url "$BASE" -label ingest \
    -target '/api/v1/join?anc=employee&desc=name&alg=xr' \
    -clients 4 -duration 2s -ingest 2 -ingest-set employee -ingest-batch 16 \
    -min-inserted 64 -max-p99-inflation 25 -assert-no-pins

echo "== graceful drain on SIGTERM"
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
cat "$TMP/server.log"
[ "$STATUS" -eq 0 ] || { echo "FAIL: xrserve exited $STATUS"; exit 1; }
grep -q 'drained cleanly' "$TMP/server.log" || { echo "FAIL: no 'drained cleanly' in server log"; exit 1; }

echo "serve-smoke: all checks passed"
