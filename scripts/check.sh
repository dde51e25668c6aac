#!/usr/bin/env bash
# Tier-1 verification under sanitizers: configures a separate build tree
# with -DNMAD_SANITIZE=ON (ASan + UBSan, no recovery) and runs the full
# test suite through it. A clean pass means the reliability layer's
# timer/retransmit machinery holds up under memory and UB checking, not
# just functionally. The suite includes the rail-lifecycle, spray and
# adaptive tests and the explorer's 200-schedule sweeps (default mix,
# --fault=rail-flap, --fault=spray-reorder, --fault=gray-rail and
# --fault=peer-crash), so heartbeat death, epoch-fenced revival, drain,
# spray reassembly/failover, gray-failure scoring/election, and the
# peer-crash lifecycle (kPeerDead unwind, incarnation fence, rejoin)
# all run sanitized.
set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------------
# Layer-seam lint: the three core layers (collect / schedule / transfer)
# talk only through layer_ifaces.hpp and the event bus. No layer may
# include another layer's header (or the façade), declare friends, or
# reach into the gate sub-struct another layer owns.
# ---------------------------------------------------------------------------
lint_fail=0
lint() { echo "seam lint: $*" >&2; lint_fail=1; }

COLLECT="src/nmad/core/collect_layer.hpp src/nmad/core/collect_layer.cpp"
SCHED="src/nmad/core/schedule_layer.hpp src/nmad/core/schedule_layer.cpp"
TRANSFER="src/nmad/core/transfer_engine.hpp src/nmad/core/transfer_engine.cpp"
LAYERS="$COLLECT $SCHED $TRANSFER"

# shellcheck disable=SC2086
if grep -nE '#include *"nmad/core/(collect_layer|schedule_layer|transfer_engine|core)\.hpp"' \
    $LAYERS | grep -v -e 'collect_layer.cpp:.*collect_layer.hpp' \
                      -e 'schedule_layer.cpp:.*schedule_layer.hpp' \
                      -e 'transfer_engine.cpp:.*transfer_engine.hpp'; then
  lint "a layer includes another layer's header (talk through layer_ifaces.hpp)"
fi
# shellcheck disable=SC2086
if grep -n 'friend' $LAYERS src/nmad/core/layer_ifaces.hpp; then
  lint "friend declarations are banned in layer files"
fi
# shellcheck disable=SC2086
if grep -n '\.sched\b\|sched\.window\|sched\.ready_bulk' $COLLECT; then
  lint "the collect layer reached into Gate::sched (ScheduleLayer owns it)"
fi
# shellcheck disable=SC2086
if grep -n '\.collect\b' $SCHED $TRANSFER; then
  lint "a layer reached into Gate::collect (CollectLayer owns it)"
fi
# shellcheck disable=SC2086
if grep -n '\.sched\b' $TRANSFER; then
  lint "the transfer layer reached into Gate::sched (ScheduleLayer owns it)"
fi
# Spray splits across the seam: reassembly state (spray_recv/spray_done)
# is collect-owned; the fragment cutter and suspect-rail re-issue are
# schedule-owned. Neither side may name the other's half.
# shellcheck disable=SC2086
if grep -n 'spray_recv\|spray_done' $SCHED $TRANSFER; then
  lint "spray reassembly state is collect-owned (Gate::collect.spray_recv)"
fi
# shellcheck disable=SC2086
if grep -n 'spray_job\|on_rail_suspect' $COLLECT $TRANSFER; then
  lint "spray send/failover is schedule-owned (ScheduleLayer::spray_job)"
fi
# The adaptive loop splits across the seam the same way: score
# accumulation (loss EWMA, latency digest, throughput window, the
# degraded state machine) is transfer-owned; what to DO about a score —
# electing stripe sets, evicting degraded rails, re-issuing in-flight
# fragments — is schedule-owned. Neither side may name the other's half.
# shellcheck disable=SC2086
if grep -n 'loss_ewma\|lat_ewma_us\|tp_est_\|win_tx_bytes_\|update_degraded' \
    $SCHED $COLLECT; then
  lint "rail score accumulation is transfer-owned (TransferEngine)"
fi
# shellcheck disable=SC2086
if grep -n 'on_rail_degraded\|degraded_evictions\|adaptive_elections' \
    $COLLECT $TRANSFER; then
  lint "degraded election policy is schedule-owned (ScheduleLayer)"
fi
# ---------------------------------------------------------------------------
# Runtime-seam lint: the engine core is clock-agnostic. Everything under
# src/nmad/core/ reaches time, timers, cpu charging and identity only
# through runtime::IRuntime (layer_ifaces' EngineContext.rt) — a simnet
# include there would quietly re-couple the engine to the simulator.
# ---------------------------------------------------------------------------
if grep -rn '#include *"simnet/' src/nmad/core/; then
  lint "src/nmad/core/ includes a simnet header (use nmad/runtime/ instead)"
fi
if grep -rn 'simnet::' src/nmad/core/; then
  lint "src/nmad/core/ names a simnet type (the core is runtime-agnostic)"
fi

if [ "$lint_fail" -ne 0 ]; then
  echo "seam lint failed" >&2
  exit 1
fi
echo "seam lint: OK"

BUILD_DIR=${BUILD_DIR:-build-asan}

# -Werror as in CI; detect_stack_use_after_return catches a list or
# pointer that outlives the stack frame of what it points at.
cmake -B "$BUILD_DIR" -S . -DNMAD_SANITIZE=ON -DNMAD_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"
ASAN_OPTIONS=detect_stack_use_after_return=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Library split: nmad_core is the engine alone and must link no simulator
# code. The include lint above also catches header-only uses, which leave
# no symbol behind.
core_undefined=$(nm -C --undefined-only "$BUILD_DIR"/src/nmad/libnmad_core.a)
if grep 'simnet::' <<<"$core_undefined"; then
  echo "libnmad_core.a references simnet symbols (move the file to nmad_sim)" >&2
  exit 1
fi
echo "library split: nmad_core links no simnet symbol"
# The wall-clock tier links the engine and the oracle, never the simulator.
for t in test_ring test_wallclock_runtime test_wall_shm; do
  wall_symbols=$(nm -C "$BUILD_DIR/tests/$t")
  if grep 'simnet::' <<<"$wall_symbols"; then
    echo "$t links simnet symbols (link it against nmad_core or nmad_oracle)" >&2
    exit 1
  fi
done
echo "library split: the wall-clock test binaries link no simnet symbol"

# Thread tier: the wall-clock stack (rings, the runtime's timer queue and
# pump thread, shm driver with its per-endpoint pump threads, the oracle's
# audit of both engines) rebuilt under TSan and run alone — the
# virtual-clock tests are single-threaded by design, so only the threaded
# targets pay the ~10x TSan tax.
TSAN_DIR=${TSAN_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DNMAD_SANITIZE=thread -DNMAD_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j"$(nproc)" \
  --target test_ring test_wallclock_runtime test_wall_shm
ctest --test-dir "$TSAN_DIR" --output-on-failure -j"$(nproc)" \
  -R 'SpscRing|MpscRing|WallClockRuntime|WallShm'
