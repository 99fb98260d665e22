#!/usr/bin/env sh
# Regenerate BENCH_sim.json, the machine-readable trajectory of the
# simulation-substrate benchmarks: emulated MIPS, trace capture/replay
# throughput, the trace codec (encode/decode MB/s) and a warm store read
# (read MB/s), the fused timing core
# and its meter bank (records/s at 1, 2 and 6 gating modes, at the two
# three-mode groups base-trio and opt-trio, at 6 modes plus one software
# overlay, and through the energy-only sink of a width-only rewrite), the
# figure matrices live and over a warm store (a cold run fills it
# before timing starts), and the single-pass threshold
# sweep (grid cells/s vs independent per-threshold runs, and fresh
# thresholds on a warm suite), plus one VRP
# analysis of gcc's ref binary (ns/op).
#
#   scripts/bench_sim.sh              # default: 3 timed iterations, 3 samples
#   BENCHTIME=1x COUNT=1 scripts/bench_sim.sh # quick smoke
#
# -cpu 1 keeps benchmark names free of the "-<GOMAXPROCS>" suffix, so the
# document's names match a gate run on a host of any CPU count.
#
# COUNT > 1 keeps several samples per benchmark in the document; the
# benchjson -compare regression gate scores each benchmark by its best
# sample, which makes the committed baseline robust to scheduler noise.
set -e
cd "$(dirname "$0")/.."

BENCHES='BenchmarkEmuMIPS|BenchmarkVRPAnalyze|BenchmarkTraceReplayMIPS|BenchmarkTraceStore|BenchmarkReplayModes|BenchmarkFigure3Matrix|BenchmarkFigureFamilyMatrix|BenchmarkThresholdSweep'

# Run the benchmarks to a temp file first so a failing run aborts the
# script (POSIX sh has no pipefail) instead of overwriting the committed
# trajectory with an empty document.
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$BENCHES" -cpu 1 -benchtime "${BENCHTIME:-3x}" -count "${COUNT:-3}" . > "$out"
cat "$out" >&2
go run ./tools/benchjson < "$out" > BENCH_sim.json

echo "wrote BENCH_sim.json" >&2
