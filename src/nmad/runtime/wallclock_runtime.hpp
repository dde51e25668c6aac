// WallClockRuntime: real time for real transports.
//
// now_us() is steady_clock microseconds since construction; timers live
// in the calendar queue the simulator runs on (util::EventQueue), pumped
// by a background progress thread. Because real drivers deliver from
// their own pump threads, the runtime also provides the exec lock
// (IExecLock) that serializes every entry into the engine: the timer
// thread fires callbacks under it, driver rx threads deliver under it,
// and the application thread wraps its isend/irecv/wait calls in it.
// The engine itself stays single-threaded by contract — exactly one
// thread is ever inside a Core.
//
// Host cost modelling is a no-op here: the host really does the work, so
// charge() records nothing and charge_memcpy() returns the current time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "nmad/runtime/runtime.hpp"
#include "util/event_queue.hpp"

namespace nmad::runtime {

class WallClockRuntime final : public IRuntime, public IExecLock {
 public:
  struct Options {
    // Without the thread the owner pumps poll_timers() itself —
    // deterministic single-threaded mode for tests.
    bool background_thread = true;
    uint32_t local_id = 0;
  };

  WallClockRuntime() : WallClockRuntime(Options{}) {}
  explicit WallClockRuntime(Options options);
  ~WallClockRuntime() override;

  WallClockRuntime(const WallClockRuntime&) = delete;
  WallClockRuntime& operator=(const WallClockRuntime&) = delete;

  // IRuntime ----------------------------------------------------------
  [[nodiscard]] double now_us() const override;
  TimerId schedule_at(double at_us, TimerFn fn) override;
  TimerId schedule_after(double delay_us, TimerFn fn) override;
  void defer(TimerFn fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] uint32_t local_id() const override { return local_id_; }
  // A wall endpoint is never restarted in place: it lives once.
  [[nodiscard]] uint32_t incarnation() const override { return 0; }
  [[nodiscard]] ICpuCharge& cpu() override { return cpu_; }
  [[nodiscard]] TimerStats timer_stats() const override;
  // Real time passes on its own: release the exec lock for a brief wait
  // (or fire the due timers in threadless mode) and report "maybe more
  // progress". Callers bound their waits with deadlines, not with this
  // return value.
  bool advance() override;

  // IExecLock ---------------------------------------------------------
  void lock() override { exec_mu_.lock(); }
  void unlock() override { exec_mu_.unlock(); }

  // Fires every timer due at the current time (takes the exec lock).
  // The pump thread does this continuously; threadless mode calls it
  // explicitly. Returns the number of timers fired.
  size_t poll_timers();

 private:
  // poll_timers() without taking the exec lock: the caller holds it.
  size_t fire_due();
  void pump();

  class NullCpu final : public ICpuCharge {
   public:
    explicit NullCpu(WallClockRuntime& rt) : rt_(rt) {}
    void charge(Cost) override {}
    double charge_memcpy(size_t) override { return rt_.now_us(); }

   private:
    WallClockRuntime& rt_;
  };

  const std::chrono::steady_clock::time_point epoch_;
  const uint32_t local_id_;
  NullCpu cpu_;

  mutable std::mutex timers_mu_;  // guards timers_ (and the cv below)
  util::EventQueue timers_;
  std::condition_variable timers_cv_;

  std::mutex exec_mu_;  // serializes all engine entry (see header)

  std::atomic<bool> stop_{false};
  std::thread pump_thread_;
};

}  // namespace nmad::runtime
