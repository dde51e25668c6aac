#!/usr/bin/env bash
# Regenerates the four virtual-clock benchmark artifacts into OUTDIR:
#
#   BENCH_fig2.json    — raw ping-pong, mean + p99/p999/max per
#                        (net, impl, size) row;
#   BENCH_fig3.json    — multi-segment ping-pong latency + MAD-MPI gain
#                        per (net, segments, impl, size) row;
#   BENCH_fig4.json    — indexed-datatype transfer time + gain per
#                        (net, impl, element-count) row;
#   BENCH_ml_tail.json — ML-style traffic (ring-allreduce, PS incast)
#                        under the flapping-rail profile (spray vs split)
#                        AND the gray-rail profile (adaptive vs static
#                        election, rail 1 dropping 5% while beaconing),
#                        per-round tail quantiles.
#
# All four run on the simulator's clock, so they are exactly reproducible:
# regenerating into a temp dir and `cmp`-ing against the committed files
# checks that a change left the simulated behaviour alone.
#
# Usage: scripts/sim_artifacts.sh BUILD OUTDIR
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD OUTDIR" >&2
  exit 2
fi
BUILD="$1"
OUT="$2"

cmake --build "$BUILD" -j --target \
  fig2_pingpong fig3_multiseg fig4_datatype ml_tail

"$BUILD"/bench/fig2_pingpong --json="$OUT"/BENCH_fig2.json --iters=200
"$BUILD"/bench/fig3_multiseg --json="$OUT"/BENCH_fig3.json
"$BUILD"/bench/fig4_datatype --json="$OUT"/BENCH_fig4.json
"$BUILD"/bench/ml_tail --rounds=200 --json="$OUT"/BENCH_ml_tail.json \
  2>/dev/null
