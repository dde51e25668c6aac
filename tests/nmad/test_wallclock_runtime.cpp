// WallClockRuntime: the IRuntime surface over the shared timer queue
// (whose ordering and fencing contract test_event_queue_property checks
// against the reference heap), driven in threadless mode
// (background_thread = false, poll_timers pumped by the test) so its
// schedule/cancel/defer surface is deterministic, and once with the pump
// thread on.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "nmad/runtime/wallclock_runtime.hpp"

namespace nmad::runtime {
namespace {

WallClockRuntime::Options threadless() {
  WallClockRuntime::Options options;
  options.background_thread = false;
  return options;
}

TEST(WallClockRuntime, ThreadlessScheduleCancelDefer) {
  WallClockRuntime rt(threadless());
  std::vector<int> order;

  // defer() is a timer dated now_us(); a timer dated 0.0 (the epoch,
  // i.e. further in the past) is due ahead of it despite being
  // submitted later — ordering is (deadline, submission).
  rt.defer([&order] { order.push_back(0); });
  rt.defer([&order] { order.push_back(1); });
  rt.schedule_at(0.0, [&order] { order.push_back(2); });
  const TimerId victim = rt.schedule_at(0.0, [&order] { order.push_back(99); });
  rt.cancel(victim);
  rt.cancel(victim);  // double cancel: fenced, no effect

  size_t fired = rt.poll_timers();
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));

  // A far-future timer does not fire until real time reaches it.
  const TimerId far = rt.schedule_after(60e6, [&order] { order.push_back(3); });
  EXPECT_EQ(rt.poll_timers(), 0u);
  rt.cancel(far);
  EXPECT_EQ(rt.poll_timers(), 0u);

  const TimerStats stats = rt.timer_stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.cancelled, 2u);
}

TEST(WallClockRuntime, ThreadlessNowIsMonotone) {
  WallClockRuntime rt(threadless());
  double last = rt.now_us();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = rt.now_us();
    EXPECT_GE(now, last);
    last = now;
  }
}

// A timer scheduled slightly ahead fires once real time passes it, both
// through poll_timers() and through advance() called under the exec lock
// the way Core::drain calls it.
TEST(WallClockRuntime, ThreadlessTimerFiresWhenDue) {
  WallClockRuntime rt(threadless());
  bool fired = false;
  rt.schedule_after(200.0, [&fired] { fired = true; });
  const double deadline = rt.now_us() + 5e6;
  while (!fired) {
    ASSERT_LT(rt.now_us(), deadline) << "timer never became due";
    rt.poll_timers();
  }
  EXPECT_TRUE(fired);

  fired = false;
  ExecGuard guard(rt);
  rt.schedule_after(200.0, [&fired] { fired = true; });
  while (!fired) {
    ASSERT_LT(rt.now_us(), deadline) << "advance() never fired the timer";
    rt.advance();
  }
}

// Background-thread mode: the pump thread fires the timer on its own;
// the waiter only watches the flag under the exec lock.
TEST(WallClockRuntime, BackgroundThreadFiresTimers) {
  WallClockRuntime rt;  // background thread on by default
  std::atomic<int> fired{0};
  {
    ExecGuard guard(rt);
    rt.schedule_after(100.0, [&fired] { fired.fetch_add(1); });
    rt.schedule_after(300.0, [&fired] { fired.fetch_add(1); });
    const TimerId victim = rt.schedule_after(200.0, [&fired] {
      fired.fetch_add(100);  // must never run
    });
    rt.cancel(victim);
  }
  const double deadline = rt.now_us() + 5e6;
  while (fired.load() < 2) {
    ASSERT_LT(rt.now_us(), deadline) << "pump thread never fired the timers";
    ExecGuard guard(rt);  // advance() lets go of it while it waits
    rt.advance();
  }
  EXPECT_EQ(fired.load(), 2);
}

}  // namespace
}  // namespace nmad::runtime
