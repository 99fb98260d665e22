#!/usr/bin/env bash
# lifecycle_smoke.sh — end-to-end drain contract against a real opgated
# process, the part no httptest harness can cover: SIGTERM a live server
# with one running and one queued job and hold it to the documented
# semantics — /readyz flips 503, new submissions bounce with 503 +
# Retry-After, the queued job lands terminal "aborted", the running job
# is allowed to finish, and the process exits 0 logging a clean drain.
#
# Needs curl + jq (standard on CI runners). Exits non-zero on the first
# violated expectation.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18436"
BASE="http://$ADDR"
BIN=$(mktemp -d)/opgated
ERRLOG=$(mktemp)
HDRS=
cleanup() { rm -rf "$(dirname "$BIN")" "$ERRLOG" ${HDRS:+"$HDRS"}; }
trap cleanup EXIT

go build -o "$BIN" ./cmd/opgated

# One worker so the second job is guaranteed to still be queued when the
# drain begins; a generous drain window so the running job finishes
# naturally rather than being cancelled. The server runs on reference
# inputs (no -quick) so that job holds the drain open well past the
# probes below.
"$BIN" -addr "$ADDR" -workers 1 -queue 8 -drain-timeout 120s 2> "$ERRLOG" &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; sed "s/^/opgated: /" "$ERRLOG" >&2 || true; cleanup' EXIT

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

# The holding job: "all" over 180 large generated workloads, ~16 s of CPU
# (about 9 s of wall time on two cores, timed with ogbench). A shorter job
# can finish the drain and exit the server before the probes run.
SYNS=$(for seed in $(seq 1 30); do
  for fam in narrow wide pointer branchy stream churn; do printf 'syn:%s/large/%d,' "$fam" "$seed"; done
done)
RUNNING=$(submit "{\"experiment\":\"all\",\"synthetic\":\"${SYNS%,}\"}" | jq -r .id)
QUEUED=$(submit '{"experiment":"table1"}' | jq -r .id)
[ -n "$RUNNING" ] && [ -n "$QUEUED" ] || { echo "submissions failed" >&2; exit 1; }

is_running() { [ "$(status "$RUNNING")" = "running" ]; }
poll 30 is_running
[ "$(status "$QUEUED")" = "queued" ] || { echo "second job not queued" >&2; exit 1; }

kill -TERM $PID

# Mid-drain probes: the long-running job keeps the server alive while we
# check the refusal surface.
unready() { [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = "503" ]; }
poll 10 unready
echo "ok: /readyz unready during drain"

HDRS=$(mktemp)
CODE=$(curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' -X POST "$BASE/v1/experiments" -d '{"experiment":"fig2"}')
[ "$CODE" = "503" ] || { echo "submit during drain returned $CODE, want 503" >&2; exit 1; }
grep -qi '^retry-after:' "$HDRS" || { echo "drain 503 carries no Retry-After" >&2; exit 1; }
echo "ok: drain refuses submissions with 503 + Retry-After"

aborted() { [ "$(status "$QUEUED")" = "aborted" ]; }
poll 10 aborted
echo "ok: queued job aborted"

# The process itself must exit cleanly once the running job finishes.
WAITED=0
if wait $PID; then WAITED=$?; else WAITED=$?; fi
[ "$WAITED" = "0" ] || { echo "opgated exited $WAITED, want 0" >&2; exit 1; }
grep -q 'drained cleanly' "$ERRLOG" || { echo "no clean-drain log line" >&2; exit 1; }
grep -q 'aborted 1 queued job' "$ERRLOG" || { echo "no aborted-queued-job log line" >&2; exit 1; }
trap cleanup EXIT
echo "ok: clean exit (drained cleanly, 1 queued job aborted)"
