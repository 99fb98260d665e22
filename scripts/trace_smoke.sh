#!/usr/bin/env bash
# trace_smoke.sh — end-to-end trace round-trip against the real CLIs and
# a real opgated process. Expectations held: a workload exported to a
# trace blob and re-imported under a "trace:" name produces byte-identical
# report cells with zero emulations (the trace-ingestion frontend's core
# invariant, here across process boundaries instead of in-process tests);
# and the upload API enforces its body cap with 413 before ingesting
# anything.
#
# Needs curl + jq (standard on CI runners). Exits non-zero on the first
# violated expectation.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STORE="$WORK/store"
TWIN="syn:narrow/small/5"

go build -o "$WORK/ogbench" ./cmd/ogbench
go build -o "$WORK/ogtrace" ./cmd/ogtrace
go build -o "$WORK/opgated" ./cmd/opgated

# Native pass: kernels + the synthetic twin, traces captured to the store.
"$WORK/ogbench" -experiment fig12 -quick -store "$STORE" -synthetic "$TWIN" -format json \
  > "$WORK/native.json" 2> "$WORK/native.err"
cat "$WORK/native.err"

# Export the twin natively, inspect it, import it under a trace: name.
"$WORK/ogtrace" export -workload "$TWIN" -class train -o "$WORK/twin.ogtr"
"$WORK/ogtrace" inspect "$WORK/twin.ogtr"
"$WORK/ogtrace" import -store "$STORE" -name narrowtwin -class train "$WORK/twin.ogtr"
"$WORK/ogtrace" list -store "$STORE" | grep -q '^trace:narrowtwin' \
  || { echo "import missing from ogtrace list" >&2; exit 1; }

# Traced pass: the same experiment with the twin served purely by replay
# must render byte-identical reports without a single emulation.
"$WORK/ogbench" -experiment fig12 -quick -store "$STORE" -synthetic trace:narrowtwin -format json \
  > "$WORK/traced.json" 2> "$WORK/traced.err"
cat "$WORK/traced.err"
cmp "$WORK/native.json" "$WORK/traced.json" \
  || { echo "fig12 drifted across the trace round trip" >&2; exit 1; }
grep -q 'emulations=0 ' "$WORK/traced.err" \
  || { echo "traced run emulated something" >&2; exit 1; }
echo "ok: trace round trip is byte-identical with zero emulations"

# The daemon's upload surface: a live opgated accepts the blob under the
# cap (201, then evaluable by name) and refuses an oversized body (413).
ADDR="127.0.0.1:18439"
BASE="http://$ADDR"
"$WORK/opgated" -addr "$ADDR" -quick -workers 1 -store "$STORE" 2>> "$WORK/opgated.err" &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; sed "s/^/opgated: /" "$WORK/opgated.err" >&2 || true; rm -rf "$WORK"' EXIT

poll() { # poll <deadline-seconds> <cmd...> — retry until success
  local deadline=$((SECONDS + $1)); shift
  until "$@" 2>/dev/null; do
    [ $SECONDS -lt $deadline ] || { echo "timed out: $*" >&2; return 1; }
    sleep 0.1
  done
}
ready() { [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = "200" ]; }
poll 15 ready

CODE=$(curl -s -o "$WORK/upload.json" -w '%{http_code}' --data-binary "@$WORK/twin.ogtr" \
  "$BASE/v1/traces?name=uptwin&class=train")
[ "$CODE" = "201" ] || { echo "upload returned $CODE, want 201" >&2; exit 1; }
jq -e '.name == "trace:uptwin"' "$WORK/upload.json" > /dev/null \
  || { echo "upload response misnames the import" >&2; exit 1; }
JOB=$(curl -s -X POST "$BASE/v1/experiments" -d '{"experiment":"fig12","synthetic":"trace:uptwin"}' | jq -r .id)
job_done() { [ "$(curl -s "$BASE/v1/jobs/$JOB" | jq -r .status)" = "done" ]; }
poll 60 job_done
echo "ok: uploaded trace evaluates by name through the job API"

head -c $((65 * 1024 * 1024)) /dev/zero > "$WORK/huge.bin"
CODE=$(curl -s -o /dev/null -w '%{http_code}' --data-binary "@$WORK/huge.bin" \
  "$BASE/v1/traces?name=huge")
[ "$CODE" = "413" ] || { echo "oversized upload returned $CODE, want 413" >&2; exit 1; }
echo "ok: oversized upload refused with 413"

kill -TERM $PID
wait $PID || true
trap 'rm -rf "$WORK"' EXIT
echo "ok: trace ingestion contract holds"
