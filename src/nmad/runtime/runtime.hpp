// The runtime seam: time, timers and host-cost modelling behind one
// interface (ROADMAP "threaded runtime + a real transport backend").
//
// The engine core (collect / schedule / transfer layers and the Core
// façade) is generic over *when things happen*: it asks the runtime for
// the current time, arms cancellable timers, defers work off the current
// stack, and charges modelled host CPU cost. Two implementations exist:
//
//  - SimRuntime: a pass-through adapter over the SimWorld event loop.
//    Byte-identical to the engine calling SimWorld directly — same
//    schedule-call sequence, same generation-stamped ids, same replay of
//    every seed and BENCH artifact.
//  - WallClockRuntime: steady_clock time plus a timer queue pumped by a
//    progress thread, for real transports (the shm driver).
//
// Both keep their timers in the same calendar queue (util/event_queue).
//
// Nothing in this header may depend on simnet: this is the line that
// keeps `src/nmad/core/` simulation-free (lint-enforced in check.sh).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/event_queue.hpp"

namespace nmad::runtime {

// Cancellable-timer handle: the queue's generation-stamped EventId (slot
// index + generation), so a stale cancel — the timer already fired, was
// cancelled, or its slot was recycled — is fenced instead of hitting a
// neighbour. 0 is never a valid id.
using TimerId = util::EventId;

// 64 inline bytes cover every engine timer lambda; larger captures spill
// to the heap and bump util::inline_fn_heap_allocs() for the
// allocation-regression tests.
using TimerFn = util::EventFn;

// Timer-queue counters surfaced through Core::AllocStats. The capacity
// fields only grow while the queue warms up; a flat snapshot across a
// steady-state phase proves the timer hot path allocated nothing.
using TimerStats = util::EventQueue::Stats;

// The points where the engine spends its own software time: what §5.1
// measures as the < 0.5 µs MAD-MPI overhead (the extra header plus the
// scheduler inspecting the ready list). The engine names the point; the
// runtime prices it.
enum class Cost : uint8_t {
  kSubmit,       // collect layer, per isend/irecv
  kSubmitChunk,  // schedule layer, per chunk registered
  kElect,        // optimizer, per packet election
  kParsePacket,  // receive path, per packet
  kParseChunk,   // receive path, per chunk
};
inline constexpr size_t kCostCount = 5;

// Modelled host CPU cost. The simulation charges virtual time against the
// node's CpuModel (cost points, eager-copy memcpys); wall-clock runtimes
// charge nothing — the host really does the work. `charge_memcpy`
// returns the completion time of the copy in runtime time, so callers
// can schedule continuations "when the memcpy finishes".
class ICpuCharge {
 public:
  virtual ~ICpuCharge() = default;
  virtual void charge(Cost cost) = 0;
  virtual double charge_memcpy(size_t bytes) = 0;
};

class IRuntime {
 public:
  virtual ~IRuntime() = default;

  // Current time, µs. Virtual time for the simulation, steady-clock
  // microseconds since runtime construction for wall-clock runs.
  [[nodiscard]] virtual double now_us() const = 0;

  // Arms `fn` at absolute time `at_us` / after `delay_us`. Returns a
  // generation-stamped id for cancel(); never 0.
  virtual TimerId schedule_at(double at_us, TimerFn fn) = 0;
  virtual TimerId schedule_after(double delay_us, TimerFn fn) = 0;

  // Runs `fn` as soon as possible *off the current stack* — the engine's
  // "the sink is still on the delivery stack right now" idiom.
  virtual void defer(TimerFn fn) = 0;

  // Cancels a pending timer; a stale id (fired / cancelled / recycled)
  // is fenced and ignored.
  virtual void cancel(TimerId id) = 0;

  // Identity of the local endpoint: the node id and its incarnation
  // number (bumped on every restart, fencing packets from earlier
  // lives — the peer-lifecycle machinery).
  [[nodiscard]] virtual uint32_t local_id() const = 0;
  [[nodiscard]] virtual uint32_t incarnation() const = 0;

  [[nodiscard]] virtual ICpuCharge& cpu() = 0;

  [[nodiscard]] virtual TimerStats timer_stats() const = 0;

  // Makes progress for blocking helpers (Core::drain): runs one pending
  // event for the simulation, or briefly yields for wall-clock runtimes
  // whose progress lives on pump threads. On a threaded runtime the
  // caller holds the exec lock, and advance() releases it while it
  // waits. Returns false when no further progress is possible without
  // external input.
  virtual bool advance() = 0;
};

// Serializes every engine entry point when driver/pump threads exist.
// The engine itself is single-threaded by contract: the wall-clock
// runtime's timer thread, the shm driver's rx pump threads and the
// application thread all take this lock around any call into the Core.
class IExecLock {
 public:
  virtual ~IExecLock() = default;
  virtual void lock() = 0;
  virtual void unlock() = 0;
};

// RAII guard over IExecLock.
class ExecGuard {
 public:
  explicit ExecGuard(IExecLock& lock) : lock_(lock) { lock_.lock(); }
  ~ExecGuard() { lock_.unlock(); }
  ExecGuard(const ExecGuard&) = delete;
  ExecGuard& operator=(const ExecGuard&) = delete;

 private:
  IExecLock& lock_;
};

}  // namespace nmad::runtime
