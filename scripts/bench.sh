#!/usr/bin/env bash
# Regenerates the machine-readable benchmark artifacts checked in at the
# repository root:
#
#   BENCH_fig2.json, BENCH_fig3.json, BENCH_fig4.json, BENCH_ml_tail.json
#                      — the virtual-clock artifacts, written by
#                        scripts/sim_artifacts.sh (exactly reproducible
#                        run-to-run);
#   BENCH_micro.json   — engine hot-path micro-costs in real host
#                        nanoseconds (google-benchmark aggregate rows:
#                        mean/median/stddev plus p99/p999/max over
#                        repetitions — host-dependent, indicative only);
#   BENCH_scale.json   — discrete-event core throughput: calendar queue
#                        vs the heap baseline at 4/64/1k-rank pending
#                        sets, plus the 1k-rank alltoall / 10k-flow
#                        incast / soak scenarios with their allocation
#                        counters (host events/sec — indicative only,
#                        but the speedup ratio is the acceptance gate).
#
# Usage: scripts/bench.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
if [ ! -d "$BUILD" ]; then
  cmake -B "$BUILD" -S .
fi
cmake --build "$BUILD" -j --target micro_engine scale

scripts/sim_artifacts.sh "$BUILD" .

"$BUILD"/bench/micro_engine \
  --benchmark_repetitions=25 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out=BENCH_micro.json

# The scale bench exits non-zero by itself if any scenario allocated
# during steady state; the python check below enforces the scheduler
# speedup floor at the 1k-rank pending set.
"$BUILD"/bench/scale --json=BENCH_scale.json
python3 - <<'PY'
import json
rows = json.load(open("BENCH_scale.json"))["rows"]
churn_1k = [r for r in rows
            if r["section"] == "queue_micro"
            and r["shape"] == "churn" and r["ranks_equiv"] == 1024]
assert churn_1k, "BENCH_scale.json is missing the 1k-rank churn row"
speedup = churn_1k[0]["speedup"]
assert speedup >= 5.0, \
    f"calendar queue speedup {speedup:.2f}x at 1k ranks is below the 5x floor"
print(f"scale gate: {speedup:.2f}x over the heap baseline at 1k ranks")
PY

echo "artifacts: BENCH_fig2.json BENCH_fig3.json BENCH_fig4.json" \
     "BENCH_micro.json BENCH_ml_tail.json BENCH_scale.json"
