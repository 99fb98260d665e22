#!/usr/bin/env bash
# crash_smoke.sh — end-to-end SIGKILL recovery against a real opgated
# process, the contract no graceful-drain test touches: kill -9 a server
# mid-job and prove the journal + content-addressed store put the world
# back. Expectations held: the restarted process re-adopts the in-flight
# job under its ORIGINAL job ID and drives it to "done"; a report fetched
# before the crash is byte-identical after it; and resubmitting finished
# work is served from the store without a single re-emulation (zero store
# misses across the resubmit).
#
# Needs curl + jq (standard on CI runners). Exits non-zero on the first
# violated expectation.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18437"
BASE="http://$ADDR"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/opgated"
STORE="$WORK/store"
ERRLOG="$WORK/opgated.err"

go build -o "$BIN" ./cmd/opgated

start() { # start — launch opgated with the same store (+auto journal)
  "$BIN" -addr "$ADDR" -quick -workers 1 -queue 8 -store "$STORE" 2>> "$ERRLOG" &
  PID=$!
}
start
trap 'kill -9 $PID 2>/dev/null || true; sed "s/^/opgated: /" "$ERRLOG" >&2 || true; rm -rf "$WORK"' EXIT

poll() { # poll <deadline-seconds> <cmd...> — retry until success
  local deadline=$((SECONDS + $1)); shift
  until "$@" 2>/dev/null; do
    [ $SECONDS -lt $deadline ] || { echo "timed out: $*" >&2; return 1; }
    sleep 0.1
  done
}

ready() { [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = "200" ]; }
poll 15 ready

submit() { curl -s -X POST "$BASE/v1/experiments" -d "$1"; }
status() { curl -s "$BASE/v1/jobs/$1" | jq -r .status; }

# A quick job to completion first: its report is the byte-identity probe.
FAST=$(submit '{"experiment":"fig2"}' | jq -r .id)
fast_done() { [ "$(status "$FAST")" = "done" ]; }
poll 60 fast_done
KEY=$(curl -s "$BASE/v1/jobs/$FAST" | jq -r .report_key)
curl -s "$BASE/v1/reports/$KEY" > "$WORK/report.before"
[ -s "$WORK/report.before" ] || { echo "empty pre-crash report" >&2; exit 1; }

# The slowest request we can make, so the SIGKILL lands mid-run.
SLOW=$(submit '{"experiment":"all","synthetic":"all"}' | jq -r .id)
slow_running() { [ "$(status "$SLOW")" = "running" ]; }
poll 30 slow_running

kill -9 $PID
wait $PID 2>/dev/null || true
echo "ok: killed -9 with $SLOW running"

# Restart on the same store + journal: the job must come back under its
# original ID (re-adopted, not 404) and finish.
start
poll 15 ready
grep -q 'journal.*recovered.*requeued' "$ERRLOG" || { echo "no recovery log line" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs/$SLOW")
[ "$CODE" = "200" ] || { echo "recovered job $SLOW returned $CODE, want 200" >&2; exit 1; }
echo "ok: $SLOW re-adopted after restart"
slow_done() { [ "$(status "$SLOW")" = "done" ]; }
poll 300 slow_done
echo "ok: $SLOW reached done under its original ID"

# The pre-crash report is byte-identical after recovery.
curl -s "$BASE/v1/reports/$KEY" > "$WORK/report.after"
cmp "$WORK/report.before" "$WORK/report.after" || { echo "report changed across the crash" >&2; exit 1; }
echo "ok: pre-crash report byte-identical after restart"

# Resubmitting finished work costs zero re-emulation: the store's miss
# counter must not move while the resubmitted job is served from cache.
MISSES_BEFORE=$(curl -s "$BASE/healthz" | jq -r .store.Misses)
AGAIN=$(submit '{"experiment":"fig2"}' | jq -r .id)
again_done() { [ "$(status "$AGAIN")" = "done" ]; }
poll 60 again_done
curl -s "$BASE/v1/jobs/$AGAIN" | jq -r '.progress[].msg' | grep -q 'served from cache' \
  || { echo "resubmitted job was not served from cache" >&2; exit 1; }
MISSES_AFTER=$(curl -s "$BASE/healthz" | jq -r .store.Misses)
[ "$MISSES_BEFORE" = "$MISSES_AFTER" ] || { echo "resubmit missed the store ($MISSES_BEFORE -> $MISSES_AFTER)" >&2; exit 1; }
echo "ok: resubmit served from cache with zero store misses"

kill -TERM $PID
wait $PID || true
trap 'rm -rf "$WORK"' EXIT
echo "ok: crash recovery contract holds"
