#!/usr/bin/env bash
# daemon-e2e: black-box gate on cmd/tightschedd, holding the daemon to its
# two headline contracts:
#
#   1. Artifact parity — the Table I artifact served by
#      GET /v1/campaigns/{id}/tables/1 is byte-identical to what
#      cmd/tables prints for the same campaign spec.
#   2. Graceful shutdown — SIGTERM mid-campaign exits 0 and leaves a
#      journal that `tables -resume` completes bit-identically to an
#      uninterrupted run.
#
# Plus the binary-journal leg (contract 1a): the same campaign with
# run.format: binary must serve the identical Table I from a journal
# carrying the TSBL binary magic — the artifact is format-independent.
#
# Plus format parity (contract 1c): one malformed spec submitted as YAML
# and as JSON draws byte-identical 400 bodies, and a JSON spec with a
# repeated key is a 400 rather than a silently last-wins document.
#
# Plus the online extension (contract 1b): a grid campaign submitted as
# a JSON spec must serve a Table IV byte-identical to
# `tables -table 4 -quiet`, and export the tightsched_grid_* metric
# families (gauges drained to zero, a nonzero deadline-miss counter).
#
# Everything (binaries, logs, journals, fetched artifacts) lands in
# E2E_DIR so CI can upload it as a failure artifact. Needs curl and jq.
set -euo pipefail

E2E_DIR=${E2E_DIR:-$(mktemp -d)}
ADDR=${ADDR:-127.0.0.1:8077}
BASE="http://$ADDR"
mkdir -p "$E2E_DIR"
echo "daemon-e2e: working in $E2E_DIR"

DAEMON_PID=""
cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

fail() {
    echo "daemon-e2e: FAIL: $*" >&2
    echo "--- daemon log tail ---" >&2
    tail -50 "$E2E_DIR/daemon.log" >&2 || true
    exit 1
}

# Poll a campaign until it reaches a terminal state; prints the final state.
wait_terminal() {
    local id=$1 deadline=$((SECONDS + 180)) state
    while :; do
        state=$(curl -sf "$BASE/v1/campaigns/$id" | jq -r .state)
        case "$state" in
        succeeded | failed | cancelled) echo "$state"; return 0 ;;
        esac
        [ "$SECONDS" -lt "$deadline" ] || fail "campaign $id still '$state' after 180s"
        sleep 0.2
    done
}

echo "daemon-e2e: building tightschedd and tables"
go build -o "$E2E_DIR/tightschedd" ./cmd/tightschedd
go build -o "$E2E_DIR/tables" ./cmd/tables

"$E2E_DIR/tightschedd" -addr "$ADDR" -data "$E2E_DIR/data" -runners 2 \
    >"$E2E_DIR/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
    [ "$i" -lt 50 ] || fail "daemon never became healthy on $BASE"
    sleep 0.2
done
echo "daemon-e2e: daemon healthy on $BASE"

# ---- contract 1: artifact parity with cmd/tables --------------------------

cat >"$E2E_DIR/table1.yaml" <<'EOF'
version: 1
name: e2e-table1
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1, 2]
  scenarios: 1
  trials: 1
  cap: 50000
  seed: 20130522
EOF

ID=$(curl -sf -X POST -H 'Content-Type: application/yaml' \
    --data-binary @"$E2E_DIR/table1.yaml" "$BASE/v1/campaigns" | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || fail "submit returned no campaign id"
echo "daemon-e2e: submitted campaign $ID"

STATE=$(wait_terminal "$ID")
[ "$STATE" = succeeded ] || fail "campaign $ID ended '$STATE'"
curl -sf "$BASE/v1/campaigns/$ID" | jq . >"$E2E_DIR/status1.json"
echo "daemon-e2e: campaign $ID succeeded ($(jq -r .progress.completed "$E2E_DIR/status1.json") instances)"

curl -sf "$BASE/v1/campaigns/$ID/tables/1" >"$E2E_DIR/daemon_table1.txt"
# cmd/tables with the flag spelling of the same spec; the CLI prefixes the
# artifact with '#' preamble lines, stripped for the byte-compare.
"$E2E_DIR/tables" -table 1 -quiet -scenarios 1 -trials 1 -wmins 1,2 -cap 50000 |
    grep -v '^#' >"$E2E_DIR/cli_table1.txt"
cmp "$E2E_DIR/daemon_table1.txt" "$E2E_DIR/cli_table1.txt" ||
    fail "daemon artifact differs from cmd/tables output (see $E2E_DIR/{daemon,cli}_table1.txt)"
echo "daemon-e2e: Table I artifact is byte-identical to cmd/tables"

# The metrics endpoint reflects the finished campaign.
curl -sf "$BASE/metrics" >"$E2E_DIR/metrics.txt"
grep -q 'tightsched_campaigns{state="succeeded"} 1' "$E2E_DIR/metrics.txt" ||
    fail "metrics do not count the succeeded campaign"
# The cluster lease families are always exported (all-zero here: this
# campaign ran in-process). ci/cluster_chaos.sh asserts their values.
for sample in \
    'tightsched_cluster_units{state="available"} 0' \
    'tightsched_cluster_units{state="leased"} 0' \
    'tightsched_cluster_units{state="done"} 0' \
    'tightsched_cluster_workers 0' \
    'tightsched_cluster_leases_total{event="granted"} 0' \
    'tightsched_cluster_heartbeats_total 0' \
    'tightsched_cluster_uploads_total{outcome="accepted"} 0'; do
    grep -qF "$sample" "$E2E_DIR/metrics.txt" ||
        fail "metrics missing cluster sample: $sample"
done

# ---- contract 1a: binary-journal campaign, same artifact byte for byte ----

# The same campaign journaled in the binary container (run.format:
# binary) must serve a Table I byte-identical to the JSONL-backed run
# above, and the journal on disk must carry the TSBL magic.
cat >"$E2E_DIR/table1_bin.yaml" <<'EOF'
version: 1
name: e2e-table1-binary
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1, 2]
  scenarios: 1
  trials: 1
  cap: 50000
  seed: 20130522
run:
  journal: true
  format: binary
EOF

IDB=$(curl -sf -X POST -H 'Content-Type: application/yaml' \
    --data-binary @"$E2E_DIR/table1_bin.yaml" "$BASE/v1/campaigns" | jq -r .id)
[ -n "$IDB" ] && [ "$IDB" != null ] || fail "binary submit returned no campaign id"
echo "daemon-e2e: submitted binary-journal campaign $IDB"

STATEB=$(wait_terminal "$IDB")
[ "$STATEB" = succeeded ] || fail "binary campaign $IDB ended '$STATEB'"

JOURNALB=$(curl -sf "$BASE/v1/campaigns/$IDB" | jq -r .journal)
[ -n "$JOURNALB" ] && [ "$JOURNALB" != null ] || fail "binary campaign reports no journal"
[ "$(head -c 4 "$JOURNALB")" = "TSBL" ] ||
    fail "journal $JOURNALB does not start with the TSBL binary magic"

curl -sf "$BASE/v1/campaigns/$IDB/tables/1" >"$E2E_DIR/daemon_table1_bin.txt"
cmp "$E2E_DIR/daemon_table1_bin.txt" "$E2E_DIR/cli_table1.txt" ||
    fail "binary-journal campaign serves a different Table I (see $E2E_DIR/daemon_table1_bin.txt)"
echo "daemon-e2e: binary-journal campaign serves the identical Table I"

# ---- contract 1b: online grid campaign, Table IV parity + grid metrics ----

# Grid specs ride the same endpoint as sweeps; the quick preset is the
# same campaign `tables -table 4 -quiet` runs, so the served Table IV
# must be byte-identical to the CLI rendering.
cat >"$E2E_DIR/table4.json" <<'EOF'
{"version": 1, "name": "e2e-table4", "preset": "quick", "grid": {}}
EOF

ID4=$(curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$E2E_DIR/table4.json" "$BASE/v1/campaigns" | jq -r .id)
[ -n "$ID4" ] && [ "$ID4" != null ] || fail "grid submit returned no campaign id"
echo "daemon-e2e: submitted grid campaign $ID4"

STATE4=$(wait_terminal "$ID4")
[ "$STATE4" = succeeded ] || fail "grid campaign $ID4 ended '$STATE4'"

curl -sf "$BASE/v1/campaigns/$ID4/tables/4" >"$E2E_DIR/daemon_table4.txt"
"$E2E_DIR/tables" -table 4 -quiet | grep -v '^#' >"$E2E_DIR/cli_table4.txt"
cmp "$E2E_DIR/daemon_table4.txt" "$E2E_DIR/cli_table4.txt" ||
    fail "daemon Table IV differs from cmd/tables output (see $E2E_DIR/{daemon,cli}_table4.txt)"
echo "daemon-e2e: Table IV artifact is byte-identical to cmd/tables"

# The grid telemetry families: both gauges drained back to zero once the
# campaign finished, and the quick campaign's impossible deadlines left a
# nonzero miss counter.
curl -sf "$BASE/metrics" >"$E2E_DIR/metrics_grid.txt"
grep -qF 'tightsched_grid_queue_depth 0' "$E2E_DIR/metrics_grid.txt" ||
    fail "grid queue-depth gauge missing or not drained"
grep -qF 'tightsched_grid_running_apps 0' "$E2E_DIR/metrics_grid.txt" ||
    fail "grid running-apps gauge missing or not drained"
MISSES=$(awk '$1 == "tightsched_grid_deadline_misses_total" {print $2}' "$E2E_DIR/metrics_grid.txt")
[ -n "$MISSES" ] || fail "metrics missing tightsched_grid_deadline_misses_total"
[ "$MISSES" -gt 0 ] 2>/dev/null ||
    fail "grid deadline-miss counter is '$MISSES', want > 0 for the quick campaign"
echo "daemon-e2e: grid metrics exported (deadline misses: $MISSES)"

# ---- contract 1c: YAML and JSON specs validate identically ----------------

# submit_status posts a spec file with a content type, saves the response
# body to $3 and prints the HTTP status (no -f: a 400 is the expected
# outcome here).
submit_status() {
    curl -s -o "$3" -w '%{http_code}' -X POST -H "Content-Type: $2" \
        --data-binary @"$1" "$BASE/v1/campaigns"
}

printf 'version: 1\npreset: quick\nsweep:\n  m: 5\n  ncoms: [5, many]\n' >"$E2E_DIR/bad.yaml"
printf '{"version": 1, "preset": "quick", "sweep": {"m": 5, "ncoms": [5, "many"]}}\n' >"$E2E_DIR/bad.json"
CODE=$(submit_status "$E2E_DIR/bad.yaml" application/yaml "$E2E_DIR/bad_yaml.out")
[ "$CODE" = 400 ] || fail "malformed YAML spec returned $CODE, want 400"
CODE=$(submit_status "$E2E_DIR/bad.json" application/json "$E2E_DIR/bad_json.out")
[ "$CODE" = 400 ] || fail "malformed JSON spec returned $CODE, want 400"
cmp "$E2E_DIR/bad_yaml.out" "$E2E_DIR/bad_json.out" ||
    fail "YAML and JSON renderings of one malformed spec draw different 400 bodies (see $E2E_DIR/bad_{yaml,json}.out)"

printf '{"version": 1, "preset": "quick", "sweep": {"m": 5, "m": 10}}\n' >"$E2E_DIR/dup.json"
CODE=$(submit_status "$E2E_DIR/dup.json" application/json "$E2E_DIR/dup_json.out")
[ "$CODE" = 400 ] || fail "JSON spec with a repeated key returned $CODE, want 400"
echo "daemon-e2e: YAML and JSON specs draw identical 400s; repeated JSON keys are refused"

# ---- contract 2: SIGTERM mid-campaign, journal resumes bit-identically ----

cat >"$E2E_DIR/slow.yaml" <<'EOF'
version: 1
name: e2e-sigterm
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
  scenarios: 1
  trials: 1
  cap: 100000
  seed: 777
run:
  workers: 1
EOF

ID2=$(curl -sf -X POST -H 'Content-Type: application/yaml' \
    --data-binary @"$E2E_DIR/slow.yaml" "$BASE/v1/campaigns" | jq -r .id)
[ -n "$ID2" ] && [ "$ID2" != null ] || fail "second submit returned no campaign id"
JOURNAL=$(curl -sf "$BASE/v1/campaigns/$ID2" | jq -r .journal)
[ -n "$JOURNAL" ] && [ "$JOURNAL" != null ] || fail "campaign $ID2 reports no journal"

deadline=$((SECONDS + 60))
while :; do
    DONE=$(curl -sf "$BASE/v1/campaigns/$ID2" | jq -r .progress.completed)
    [ "${DONE:-0}" -ge 5 ] 2>/dev/null && break
    [ "$SECONDS" -lt "$deadline" ] || fail "campaign $ID2 made no progress"
    sleep 0.2
done
echo "daemon-e2e: campaign $ID2 at $DONE instances — sending SIGTERM"

kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" -eq 0 ] || fail "daemon exited $RC on SIGTERM, want 0"
echo "daemon-e2e: daemon exited 0 on SIGTERM"

[ -s "$JOURNAL" ] || fail "journal $JOURNAL missing or empty after shutdown"

# Resume the interrupted journal through the CLI, and run the identical
# campaign uninterrupted; the two Table I artifacts must match byte for
# byte (the resume contract: bit-identical to a run that never stopped).
"$E2E_DIR/tables" -table 1 -quiet -scenarios 1 -trials 1 -cap 100000 -seed 777 \
    -resume -journal "$JOURNAL" | grep -v '^#' >"$E2E_DIR/resumed_table1.txt"
"$E2E_DIR/tables" -table 1 -quiet -scenarios 1 -trials 1 -cap 100000 -seed 777 |
    grep -v '^#' >"$E2E_DIR/straight_table1.txt"
cmp "$E2E_DIR/resumed_table1.txt" "$E2E_DIR/straight_table1.txt" ||
    fail "resumed journal renders a different Table I than an uninterrupted run"
echo "daemon-e2e: interrupted journal resumed bit-identically"

echo "daemon-e2e: PASS"
