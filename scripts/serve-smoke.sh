#!/usr/bin/env bash
# End-to-end smoke test of `nocdr serve`: synthesize a benchmark design,
# submit it to /v1/remove over HTTP, poll the job to completion, and
# assert (with jq) that the repaired design is deadlock-free. It also
# posts a sweep over the per-flow path bound, a simulation of more lanes
# than one request may run, and a simulated sweep of one cell at a
# million loads, and asserts a 400 with no job created for each.
# Exercises the same path the CI serve-smoke job gates.
set -euo pipefail

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building binaries"
go build -o "$DIR/nocdr" ./cmd/nocdr

echo "== preparing a D36_8 design (its 10-switch synthesis has a cyclic CDG) (traffic -> synth -> topology+routes)"
"$DIR/nocdr" bench -name D36_8 -out "$DIR/traffic.json"
"$DIR/nocdr" synth -traffic "$DIR/traffic.json" -switches 10 \
    -out-topology "$DIR/topology.json" -out-routes "$DIR/routes.json"

echo "== starting nocdr serve on :$PORT"
"$DIR/nocdr" serve -addr "127.0.0.1:${PORT}" &
SERVE_PID=$!
for i in $(seq 1 50); do
    curl -fsS "$BASE/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null

# refuse PATH BODYFILE PATTERN: the POST must answer 400 reporting
# invalid input, with PATTERN in the error, and leave the job list empty.
refuse() {
    STATUS=$(curl -sS -o "$DIR/refused.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        --data @"$2" "$BASE$1")
    if [ "$STATUS" != "400" ]; then
        echo "over-bound $1 body answered $STATUS, want 400" >&2
        cat "$DIR/refused.json" >&2
        exit 1
    fi
    jq -e --arg p "$3" '.error | test("invalid input") and test($p)' "$DIR/refused.json" > /dev/null
    curl -fsS "$BASE/v1/jobs" | jq -e '.jobs | length == 0' > /dev/null
    echo "   400, no job created"
}

echo "== refusing a sweep over the per-flow path bound (max_paths 2^30)"
echo '{"grid":{"benchmarks":["mesh:16x16:transpose"],"routings":["min-adaptive"],"max_paths":1073741824}}' > "$DIR/paths.json"
refuse /v1/sweep "$DIR/paths.json" "max-paths"

echo "== refusing a simulation of 100 seeds x 100 loads (10,000 lanes)"
jq -n --slurpfile topo "$DIR/topology.json" --slurpfile routes "$DIR/routes.json" --slurpfile traffic "$DIR/traffic.json" \
    '{topology: $topo[0], routes: $routes[0], traffic: $traffic[0],
      config: {max_cycles: 1000, seeds: [range(100)], loads: [range(1; 101) / 100]}}' > "$DIR/lanes.json"
refuse /v1/simulate "$DIR/lanes.json" "lanes exceed"

echo "== refusing a simulated sweep of one cell at 10^6 distinct loads"
jq -n '{grid: {benchmarks: ["torus:4x4:uniform"], loads: [range(1; 1000001) / 1000000]}, simulate: true}' > "$DIR/loads.json"
refuse /v1/sweep "$DIR/loads.json" "lanes exceed"

echo "== submitting /v1/remove"
jq -n --slurpfile topo "$DIR/topology.json" --slurpfile routes "$DIR/routes.json" \
    '{topology: $topo[0], routes: $routes[0]}' > "$DIR/request.json"
JOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    --data @"$DIR/request.json" "$BASE/v1/remove" | jq -r .id)
echo "   job: $JOB"

echo "== polling job to completion"
for i in $(seq 1 100); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB" | jq -r .state)
    [ "$STATE" = "done" ] && break
    if [ "$STATE" = "failed" ] || [ "$STATE" = "canceled" ]; then
        echo "job ended in state $STATE" >&2
        curl -fsS "$BASE/v1/jobs/$JOB" | jq . >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "$BASE/v1/jobs/$JOB" > "$DIR/job.json"

echo "== asserting the result is deadlock-free (acyclic CDG)"
jq -e '.state == "done"' "$DIR/job.json" > /dev/null
jq -e '.result.deadlock_free == true' "$DIR/job.json" > /dev/null
jq -e '.result.topology.links | length > 0' "$DIR/job.json" > /dev/null
jq -e '.result.added_vcs >= 1' "$DIR/job.json" > /dev/null
echo "   deadlock_free: true, added_vcs: $(jq .result.added_vcs "$DIR/job.json")"

echo "== checking the SSE event stream replays"
# Buffer the stream to a file: piping into `grep -q` would EPIPE curl
# once grep matches and fail the script under pipefail.
curl -fsS --max-time 5 "$BASE/v1/jobs/$JOB/events" > "$DIR/events.sse"
grep -q "event: cycle_broken" "$DIR/events.sse"
grep -q "event: state" "$DIR/events.sse"

echo "serve-smoke: OK"
