#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the distributed-serving subsystem,
# run by `make cluster-smoke` and CI. Exercises the acceptance criteria:
#
#   1. A router over three DocId-sharded xrserve nodes answers a join with
#      exactly the sum of the shards' pairs (scatter-gather correctness;
#      the byte-identical-merge proof lives in the router unit tests).
#   2. A config with overlapping ownership claims is refused at startup.
#   3. Under load with -hedge-after 5ms, hedged sub-requests fire and are
#      visible in xrblast's cluster section (-min-hedges). With -cluster,
#      xrblast also asserts that the router knows exactly the three shards,
#      that its health verdicts match xrblast's own /healthz probes, that
#      degraded responses never outnumber successes, and that sub-requests
#      ran with non-empty latency histograms.
#   4. SIGKILL of one shard mid-run degrades, never hangs: partial=1
#      responses carry shards_failed=["c"], the healthy shards' pairs stay
#      correct, and xr_cluster_shard_up{shard="c"} drops to 0 on /metrics.
#   5. The router's /metrics is a clean Prometheus text exposition
#      (xrtrace -promlint), and the router drains cleanly on SIGTERM.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d /tmp/xrtree_cluster_smoke.XXXXXX)
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== build"
$GO build -o "$TMP" ./cmd/xrgen ./cmd/xrserve ./cmd/xrblast ./cmd/xrtrace

echo "== corpus: six department documents"
for i in 1 2 3 4 5 6; do
    "$TMP/xrgen" -dtd department -seed "$i" -scale 0.2 -out "$TMP/d$i.xml"
done

# Shards get generous admission: the router hedges aggressively in this
# smoke (-hedge-after 5ms), which roughly doubles shard load, and a queue
# wait long enough to hit the sub-request budget would read as a degraded
# fleet when nothing is actually broken.
boot_shard() { # name owns docspecs
    "$TMP/xrserve" -xml "docs=$3" -owns "$2" -addr 127.0.0.1:0 \
        -max-concurrent 16 -max-queue 64 \
        -addr-file "$TMP/$1.addr" >"$TMP/$1.log" 2>&1 &
    PIDS="$PIDS $!"
    eval "PID_$1=$!"
}
wait_addr() {
    for _ in $(seq 1 100); do
        [ -s "$TMP/$1.addr" ] && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never wrote its addr file"; cat "$TMP/$1.log"; exit 1
}

echo "== boot three shards (DocIds 1-2 / 3-4 / 5-6)"
boot_shard a 1-2 "$TMP/d1.xml@1,$TMP/d2.xml@2"
boot_shard b 3-4 "$TMP/d3.xml@3,$TMP/d4.xml@4"
boot_shard c 5-6 "$TMP/d5.xml@5,$TMP/d6.xml@6"
wait_addr a; wait_addr b; wait_addr c
A="http://$(cat "$TMP/a.addr")"; B="http://$(cat "$TMP/b.addr")"; C="http://$(cat "$TMP/c.addr")"

# Replicas point back at the shard itself: hedges then exercise the full
# two-attempt path and still succeed.
cat >"$TMP/cluster.conf" <<EOF
# smoke fleet: explicit DocId claims
a $A replica=$A range=1-2
b $B replica=$B range=3-4
c $C range=5-6
EOF

echo "== overlapping ownership claims must be refused"
cat >"$TMP/bad.conf" <<EOF
a $A range=1-4
b $B range=4-6
EOF
if OUT=$("$TMP/xrserve" -cluster "$TMP/bad.conf" 2>&1); then
    echo "FAIL: router started on overlapping claims"; exit 1
fi
echo "$OUT" | grep -qi overlap || { echo "FAIL: refusal does not name the overlap: $OUT"; exit 1; }

echo "== boot router"
"$TMP/xrserve" -cluster "$TMP/cluster.conf" -addr 127.0.0.1:0 \
    -addr-file "$TMP/router.addr" -hedge-after 5ms \
    -probe-interval 100ms -drain 10s >"$TMP/router.log" 2>&1 &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"
wait_addr router
BASE="http://$(cat "$TMP/router.addr")"
echo "   router at $BASE over a=$A b=$B c=$C"

JOIN='/api/v1/join?anc=employee&desc=name'

echo "== scatter-gather correctness: router pairs == sum of shard pairs"
PA=$(curl -fsS "$A$JOIN" | jq .pairs)
PB=$(curl -fsS "$B$JOIN" | jq .pairs)
PC=$(curl -fsS "$C$JOIN" | jq .pairs)
PR=$(curl -fsS "$BASE$JOIN" | jq .pairs)
[ "$PR" -gt 0 ] || { echo "FAIL: router join found nothing"; exit 1; }
[ "$PR" -eq $((PA + PB + PC)) ] || { echo "FAIL: router pairs $PR != $PA+$PB+$PC"; exit 1; }
echo "   $PR pairs ($PA + $PB + $PC)"

echo "== healthy load: hedges must fire and reach the cluster section"
"$TMP/xrblast" -url "$BASE" -wait-ready 10s -label cluster \
    -target "$JOIN&partial=1" -clients 4 -duration 3s \
    -min-ok 10 -max-errors 0 -min-hedges 1 \
    -cluster "a=$A,b=$B,c=$C" -json >"$TMP/healthy.json"
jq -e '.cluster.hedges >= 1 and .cluster.degraded == 0' "$TMP/healthy.json" >/dev/null \
    || { echo "FAIL: healthy cluster section wrong"; jq .cluster "$TMP/healthy.json"; exit 1; }

echo "== SIGKILL shard c mid-run: degraded responses, no hangs"
"$TMP/xrblast" -url "$BASE" -label cluster \
    -target "$JOIN&partial=1" -clients 4 -duration 6s \
    -min-ok 10 -max-errors 0 -min-degraded 1 \
    -cluster "a=$A,b=$B,c=$C" -json >"$TMP/degraded.json" &
BLAST_PID=$!
sleep 1.5
kill -9 "$PID_c"
wait "$BLAST_PID" || { echo "FAIL: degraded-run assertions failed"; jq .cluster "$TMP/degraded.json" || true; exit 1; }
jq -e '.cluster.degraded >= 1' "$TMP/degraded.json" >/dev/null \
    || { echo "FAIL: no degraded responses recorded"; jq .cluster "$TMP/degraded.json"; exit 1; }

echo "== degraded correctness: healthy shards' results survive"
BODY=$(curl -fsS "$BASE$JOIN&partial=1")
echo "$BODY" | jq -e '.shards_failed == ["c"] and .degraded == true' >/dev/null \
    || { echo "FAIL: shards_failed missing: $BODY"; exit 1; }
PR2=$(echo "$BODY" | jq .pairs)
[ "$PR2" -eq $((PA + PB)) ] || { echo "FAIL: degraded pairs $PR2 != $PA+$PB"; exit 1; }
curl -fsS -o /dev/null -w '%{http_code}' "$BASE$JOIN" | grep -q 502 \
    || { echo "FAIL: fail-fast request to a degraded fleet was not 502"; exit 1; }
echo "   degraded responses carry shards_failed=[c], $PR2 pairs ($PA + $PB)"

echo "== router /metrics: shard c down, exposition lint-clean"
DOWN=0
for _ in $(seq 1 30); do
    curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
    if grep -q 'xr_cluster_shard_up{shard="c"} 0' "$TMP/metrics.txt"; then DOWN=1; break; fi
    sleep 0.1
done
[ "$DOWN" -eq 1 ] || { echo "FAIL: shard c never marked down on /metrics"; exit 1; }
grep -q 'xr_cluster_hedges_total' "$TMP/metrics.txt" || { echo "FAIL: hedge counters missing"; exit 1; }
grep -q 'xr_cluster_degraded_total' "$TMP/metrics.txt" || { echo "FAIL: degraded counter missing"; exit 1; }
"$TMP/xrtrace" -promlint "$TMP/metrics.txt"

echo "== graceful drain on SIGTERM"
kill -TERM "$ROUTER_PID"
STATUS=0
wait "$ROUTER_PID" || STATUS=$?
cat "$TMP/router.log"
[ "$STATUS" -eq 0 ] || { echo "FAIL: router exited $STATUS"; exit 1; }
grep -q 'drained cleanly' "$TMP/router.log" || { echo "FAIL: no 'drained cleanly' in router log"; exit 1; }

echo "cluster-smoke: all checks passed"
