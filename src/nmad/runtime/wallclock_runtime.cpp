#include "nmad/runtime/wallclock_runtime.hpp"

#include <algorithm>

namespace nmad::runtime {

WallClockRuntime::WallClockRuntime(Options options)
    : epoch_(std::chrono::steady_clock::now()),
      local_id_(options.local_id),
      cpu_(*this) {
  if (options.background_thread) {
    pump_thread_ = std::thread([this] { pump(); });
  }
}

WallClockRuntime::~WallClockRuntime() {
  stop_.store(true, std::memory_order_release);
  {
    // The pump waits on the cv with the timer lock held; taking it here
    // orders the stop flag before the notify, so the wakeup is not lost.
    std::lock_guard<std::mutex> wl(timers_mu_);
    timers_cv_.notify_all();
  }
  if (pump_thread_.joinable()) pump_thread_.join();
}

double WallClockRuntime::now_us() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

TimerId WallClockRuntime::schedule_at(double at_us, TimerFn fn) {
  TimerId id;
  {
    std::lock_guard<std::mutex> wl(timers_mu_);
    id = timers_.schedule_at(std::max(at_us, 0.0), std::move(fn));
    timers_cv_.notify_all();  // a new deadline may be the earliest
  }
  return id;
}

TimerId WallClockRuntime::schedule_after(double delay_us, TimerFn fn) {
  return schedule_at(now_us() + std::max(delay_us, 0.0), std::move(fn));
}

void WallClockRuntime::defer(TimerFn fn) {
  // A zero-delay timer: fires on the pump thread, off the caller's stack.
  schedule_at(now_us(), std::move(fn));
}

void WallClockRuntime::cancel(TimerId id) {
  std::lock_guard<std::mutex> wl(timers_mu_);
  timers_.cancel(id);
}

TimerStats WallClockRuntime::timer_stats() const {
  std::lock_guard<std::mutex> wl(timers_mu_);
  return timers_.stats();
}

size_t WallClockRuntime::poll_timers() {
  // Exec first, timers second — the lock order every thread uses.
  std::lock_guard<std::mutex> eg(exec_mu_);
  return fire_due();
}

size_t WallClockRuntime::fire_due() {
  // Holding exec across the whole batch gives sim-equivalent cancel
  // semantics: a callback cancelling a not-yet-fired due timer really
  // stops it.
  size_t fired = 0;
  for (;;) {
    TimerFn fn;
    {
      std::lock_guard<std::mutex> wl(timers_mu_);
      if (!timers_.pop_due(now_us(), &fn)) break;
    }
    fn();
    ++fired;
  }
  return fired;
}

bool WallClockRuntime::advance() {
  if (pump_thread_.joinable()) {
    // Progress happens on the pump and driver threads, and each of them
    // needs the exec lock the caller holds: let go of it while waiting.
    exec_mu_.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    exec_mu_.lock();
  } else {
    fire_due();
  }
  return true;
}

void WallClockRuntime::pump() {
  std::unique_lock<std::mutex> wl(timers_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    const double next = timers_.next_time();
    const double now = now_us();
    if (next > now) {
      // Sleep until the earliest deadline (capped so shutdown and
      // far-future timers stay responsive) or a new timer arrives.
      const double wait_us = std::min(next - now, 1000.0);
      timers_cv_.wait_for(
          wl, std::chrono::duration<double, std::micro>(wait_us));
      continue;
    }
    wl.unlock();
    poll_timers();
    wl.lock();
  }
}

}  // namespace nmad::runtime
