#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end 2-node ring against real opgated
# processes, the contract no in-process fleet test touches: two nodes
# with independent stores and consistent-hash routing over real
# sockets. Expectations held: a report computed cold on node A is
# served byte-identical from node B with ZERO additional emulations
# anywhere in the fleet; a short ogload burst across both nodes
# finishes with zero request errors and a nonzero serving hit rate;
# and after node A dies by SIGKILL, node B reports the peer unhealthy
# yet keeps answering cold submissions by local compute — the ring
# decides placement, never availability.
#
# Needs curl + jq (standard on CI runners). Exits non-zero on the
# first violated expectation.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR_A="127.0.0.1:18501"
ADDR_B="127.0.0.1:18502"
BASE_A="http://$ADDR_A"
BASE_B="http://$ADDR_B"
PEERS="$BASE_A,$BASE_B"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/opgated"
LOAD="$WORK/ogload"

go build -o "$BIN" ./cmd/opgated
go build -o "$LOAD" ./cmd/ogload

"$BIN" -addr "$ADDR_A" -quick -workers 2 -store "$WORK/store-a" -journal off \
  -peers "$PEERS" -self "$BASE_A" 2> "$WORK/a.err" &
PID_A=$!
"$BIN" -addr "$ADDR_B" -quick -workers 2 -store "$WORK/store-b" -journal off \
  -peers "$PEERS" -self "$BASE_B" 2> "$WORK/b.err" &
PID_B=$!
trap 'kill -9 $PID_A $PID_B 2>/dev/null || true;
      sed "s/^/node-a: /" "$WORK/a.err" >&2 || true;
      sed "s/^/node-b: /" "$WORK/b.err" >&2 || true;
      rm -rf "$WORK"' EXIT

poll() { # poll <deadline-seconds> <cmd...> — retry until success
  local deadline=$((SECONDS + $1)); shift
  until "$@" 2>/dev/null; do
    [ $SECONDS -lt $deadline ] || { echo "timed out: $*" >&2; return 1; }
    sleep 0.1
  done
}

ready() { [ "$(curl -s -o /dev/null -w '%{http_code}' "$1/readyz")" = "200" ]; }
poll 15 ready "$BASE_A"
poll 15 ready "$BASE_B"

submit() { curl -s -X POST "$1/v1/experiments" -d "$2"; }
status() { curl -s "$1/v1/jobs/$2" | jq -r .status; }
emulations() { # total emulation count across the whole fleet
  echo $(( $(curl -s "$BASE_A/healthz" | jq -r .emulations) \
         + $(curl -s "$BASE_B/healthz" | jq -r .emulations) ))
}
run() { # run <base> <request-json> — submit, wait for done, print report key
  local base=$1 id key
  id=$(submit "$base" "$2" | jq -r .id)
  [ -n "$id" ] && [ "$id" != "null" ] || { echo "submit failed on $base" >&2; return 1; }
  local deadline=$((SECONDS + 120))
  until [ "$(status "$base" "$id")" = "done" ]; do
    [ $SECONDS -lt $deadline ] || { echo "job $id never finished on $base" >&2; return 1; }
    sleep 0.2
  done
  curl -s "$base/v1/jobs/$id" | jq -r .report_key
}

# Cold on A: real emulation happens somewhere in the fleet.
KEY=$(run "$BASE_A" '{"experiment":"fig2"}')
curl -s "$BASE_A/v1/reports/$KEY" > "$WORK/report.a"
[ -s "$WORK/report.a" ] || { echo "empty report from node A" >&2; exit 1; }
EMUS_COLD=$(emulations)
[ "$EMUS_COLD" -gt 0 ] || { echo "cold run emulated nothing — probe broken" >&2; exit 1; }
echo "ok: cold fig2 on A ($EMUS_COLD emulations fleet-wide)"

# Warm from B: byte-identical report, zero additional emulations.
KEY_B=$(run "$BASE_B" '{"experiment":"fig2"}')
[ "$KEY" = "$KEY_B" ] || { echo "nodes derive different report keys: $KEY vs $KEY_B" >&2; exit 1; }
curl -s "$BASE_B/v1/reports/$KEY_B" > "$WORK/report.b"
cmp "$WORK/report.a" "$WORK/report.b" || { echo "report bytes differ across nodes" >&2; exit 1; }
EMUS_WARM=$(emulations)
[ "$EMUS_WARM" = "$EMUS_COLD" ] || {
  echo "warm serve from B re-emulated ($EMUS_COLD -> $EMUS_WARM)" >&2; exit 1; }
echo "ok: B served fig2 byte-identical with zero additional emulations"

# A short mixed load across both nodes: zero errors, nonzero hit rate.
"$LOAD" -addr "$PEERS" -clients 4 -duration 5s -mix warm=8,cold=1,sweep=1 \
  -max-errors 0 -min-hit-rate 0.1 -json > "$WORK/ogload.json" \
  || { echo "ogload smoke violated its gates" >&2; cat "$WORK/ogload.json" >&2; exit 1; }
jq -r '"ok: ogload \(.requests) requests, \(.errors) errors, hit rate \(.hitRate)"' "$WORK/ogload.json"

# Kill A outright: B must notice and keep answering on its own.
kill -9 $PID_A
wait $PID_A 2>/dev/null || true
peer_unhealthy() {
  [ "$(curl -s "$BASE_B/healthz" | jq -r '.fleet.peers[0].healthy')" = "false" ]
}
poll 15 peer_unhealthy
echo "ok: B reports its dead peer unhealthy"

# Cold keys at a fresh threshold: whichever of these owns on dead A
# must be computed locally by B, with no request errors.
for exp in fig2 table1; do
  K=$(run "$BASE_B" "{\"experiment\":\"$exp\",\"threshold\":60}")
  BYTES=$(curl -s "$BASE_B/v1/reports/$K" | wc -c)
  [ "$BYTES" -gt 0 ] || { echo "$exp: empty report from degraded B" >&2; exit 1; }
done
echo "ok: B answers cold submissions with its peer dead"

kill -TERM $PID_B
wait $PID_B || { echo "node B did not drain cleanly" >&2; exit 1; }
trap 'rm -rf "$WORK"' EXIT
echo "ok: fleet contract holds"
