#!/usr/bin/env bash
# cluster-chaos: fault-injection gate on the elastic cluster execution
# layer (internal/cluster + cmd/tightschedd + cmd/tightschedw).
#
# A Table I campaign runs as leased work units on a 4-worker fleet while
# the harness injects the two failures the layer exists to survive:
#
#   1. kill -9 a random worker mid-unit — its lease must expire and the
#      unit requeue to the survivors;
#   2. kill -9 the coordinator daemon mid-campaign, then restart it —
#      RecoverClusters must resume the campaign from the lease log and
#      journal on disk, and the surviving workers must reconnect through
#      their retry backoff.
#
# The acceptance bar is byte-identity: after all of that, the Table I
# artifact served by the daemon must equal what cmd/tables prints for
# the same spec sequentially. Everything (binaries, logs, journals,
# artifacts) lands in E2E_DIR so CI can upload it on failure. Needs
# curl and jq.
set -euo pipefail

E2E_DIR=${E2E_DIR:-$(mktemp -d)}
ADDR=${ADDR:-127.0.0.1:8078}
BASE="http://$ADDR"
mkdir -p "$E2E_DIR"
echo "cluster-chaos: working in $E2E_DIR"

DAEMON_PID=""
WORKER_PIDS=()
# cleanup stops the workers and the daemon, waits for every process it
# signalled, and kill -9s any still running after a 10 s grace period,
# so that nothing the script started outlives it.
cleanup() {
    local pids=() pid deadline
    for pid in "${WORKER_PIDS[@]:-}" "$DAEMON_PID"; do
        if [ -n "$pid" ] && kill "$pid" 2>/dev/null; then pids+=("$pid"); fi
    done
    deadline=$((SECONDS + 10))
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] || continue
        while kill -0 "$pid" 2>/dev/null && [ "$SECONDS" -lt "$deadline" ]; do sleep 0.1; done
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

fail() {
    echo "cluster-chaos: FAIL: $*" >&2
    echo "--- daemon log tail ---" >&2
    tail -50 "$E2E_DIR/daemon.log" >&2 || true
    echo "--- worker log tails ---" >&2
    tail -20 "$E2E_DIR"/worker*.log >&2 || true
    exit 1
}

start_daemon() {
    "$E2E_DIR/tightschedd" -addr "$ADDR" -data "$E2E_DIR/data" \
        >>"$E2E_DIR/daemon.log" 2>&1 &
    DAEMON_PID=$!
    for i in $(seq 1 50); do
        curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
        sleep 0.2
    done
    fail "daemon never became healthy on $BASE"
}

start_worker() {
    local i=$1
    "$E2E_DIR/tightschedw" -coordinator "$BASE" -name "chaos-w$i" \
        -parallel 2 -batch 8 -poll 200ms \
        >>"$E2E_DIR/worker$i.log" 2>&1 &
    WORKER_PIDS[$i]=$!
}

campaign_field() {
    curl -sf "$BASE/v1/campaigns/$1" | jq -r "$2"
}

wait_terminal() {
    local id=$1 deadline=$((SECONDS + 180)) state
    while :; do
        state=$(campaign_field "$id" .state || echo polling)
        case "$state" in
        succeeded | failed | cancelled) echo "$state"; return 0 ;;
        esac
        [ "$SECONDS" -lt "$deadline" ] || fail "campaign $id still '$state' after 180s"
        sleep 0.2
    done
}

metric() {
    grep -F "$1 " "$E2E_DIR/metrics.txt" | awk '{print $2}'
}

echo "cluster-chaos: building tightschedd, tightschedw and tables"
go build -o "$E2E_DIR/tightschedd" ./cmd/tightschedd
go build -o "$E2E_DIR/tightschedw" ./cmd/tightschedw
go build -o "$E2E_DIR/tables" ./cmd/tables

start_daemon
echo "cluster-chaos: daemon healthy on $BASE (pid $DAEMON_PID)"

# A quick-scale Table I grid, leased out in 12 units with a short TTL so
# the killed worker's lease expires within seconds.
cat >"$E2E_DIR/chaos.yaml" <<'EOF'
version: 1
name: chaos-table1
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1, 2, 3]
  scenarios: 2
  trials: 3
  cap: 50000
  seed: 20130522
run:
  # The coordinator journal (the dedup and completion authority) rides
  # the binary codec here, so the chaos gate also proves crash recovery
  # over the TSBL container.
  format: binary
  cluster:
    units: 12
    leaseTtl: 3s
    gcInterval: 500ms
    reshard: true
EOF

ID=$(curl -sf -X POST -H 'Content-Type: application/yaml' \
    --data-binary @"$E2E_DIR/chaos.yaml" "$BASE/v1/campaigns" | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || fail "submit returned no campaign id"
TOTAL=$(campaign_field "$ID" .progress.total)
echo "cluster-chaos: submitted cluster campaign $ID ($TOTAL instances)"

for i in 0 1 2 3; do start_worker "$i"; done
echo "cluster-chaos: 4 workers up (pids ${WORKER_PIDS[*]})"

# Let the fleet make real progress before pulling anything out.
deadline=$((SECONDS + 60))
while :; do
    DONE=$(campaign_field "$ID" .progress.completed)
    [ "${DONE:-0}" -ge 10 ] 2>/dev/null && break
    [ "$SECONDS" -lt "$deadline" ] || fail "campaign made no progress (completed=$DONE)"
    sleep 0.2
done

# ---- chaos 1: kill -9 a random worker -------------------------------------
VICTIM=$((RANDOM % 4))
echo "cluster-chaos: $DONE/$TOTAL instances in — kill -9 worker $VICTIM (pid ${WORKER_PIDS[$VICTIM]})"
kill -9 "${WORKER_PIDS[$VICTIM]}" 2>/dev/null || fail "victim worker already gone"
wait "${WORKER_PIDS[$VICTIM]}" 2>/dev/null || true
WORKER_PIDS[$VICTIM]=""

# ---- chaos 2: kill -9 the coordinator, restart it -------------------------
STATE=$(campaign_field "$ID" .state)
[ "$STATE" = running ] || fail "campaign already '$STATE' before the coordinator kill — grow the spec"
echo "cluster-chaos: kill -9 coordinator daemon (pid $DAEMON_PID)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

sleep 1 # survivors notice and start their retry backoff
start_daemon
echo "cluster-chaos: daemon restarted (pid $DAEMON_PID)"
grep -q "resuming cluster campaign $ID" "$E2E_DIR/daemon.log" ||
    fail "restarted daemon did not resume campaign $ID from its lease log"

STATE=$(wait_terminal "$ID")
[ "$STATE" = succeeded ] || fail "campaign $ID ended '$STATE' after recovery"
curl -sf "$BASE/v1/campaigns/$ID" | jq . >"$E2E_DIR/status.json"
echo "cluster-chaos: campaign $ID succeeded after recovery ($(jq -r .progress.completed "$E2E_DIR/status.json")/$TOTAL instances)"

# ---- acceptance: byte-identical Table I vs the sequential CLI -------------
curl -sf "$BASE/v1/campaigns/$ID/tables/1" >"$E2E_DIR/cluster_table1.txt"
"$E2E_DIR/tables" -table 1 -quiet -scenarios 2 -trials 3 -wmins 1,2,3 \
    -cap 50000 -seed 20130522 | grep -v '^#' >"$E2E_DIR/sequential_table1.txt"
cmp "$E2E_DIR/cluster_table1.txt" "$E2E_DIR/sequential_table1.txt" ||
    fail "cluster artifact differs from sequential cmd/tables output (see $E2E_DIR/{cluster,sequential}_table1.txt)"
echo "cluster-chaos: Table I artifact is byte-identical to the sequential run"

# ---- lease lifecycle is visible in /metrics -------------------------------
curl -sf "$BASE/metrics" >"$E2E_DIR/metrics.txt"
GRANTED=$(metric 'tightsched_cluster_leases_total{event="granted"}')
EXPIRED=$(metric 'tightsched_cluster_leases_total{event="expired"}')
LEASED=$(metric 'tightsched_cluster_units{state="leased"}')
AVAILABLE=$(metric 'tightsched_cluster_units{state="available"}')
UNITS_DONE=$(metric 'tightsched_cluster_units{state="done"}')
[ "${GRANTED:-0}" -ge 1 ] || fail "no leases granted after restart (granted=$GRANTED)"
[ "${EXPIRED:-0}" -ge 1 ] || fail "the killed worker's lease never expired (expired=$EXPIRED)"
[ "${UNITS_DONE:-0}" -ge 12 ] || fail "units done = $UNITS_DONE, want >= 12"
[ "${LEASED:-1}" -eq 0 ] && [ "${AVAILABLE:-1}" -eq 0 ] ||
    fail "terminal campaign still shows leased=$LEASED available=$AVAILABLE units"
echo "cluster-chaos: lease metrics consistent (granted=$GRANTED expired=$EXPIRED done=$UNITS_DONE)"

echo "cluster-chaos: PASS"
