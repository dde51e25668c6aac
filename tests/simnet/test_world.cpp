// Event queue ordering, virtual clock, and CPU model semantics.
#include <gtest/gtest.h>

#include <vector>

#include "simnet/cpu.hpp"
#include "simnet/world.hpp"
#include "util/event_queue.hpp"

namespace nmad::simnet {
namespace {

using util::EventId;
using util::EventQueue;
using util::kNever;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  SimTime now = 0.0;
  while (q.run_one(&now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(now, 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  SimTime now = 0.0;
  while (q.run_one(&now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId victim = q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.cancel(victim);
  EXPECT_EQ(q.size(), 2u);
  SimTime now = 0.0;
  while (q.run_one(&now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.schedule_at(1.0, [] {});
  q.schedule_at(5.0, [] {});
  q.cancel(first);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, EmptyBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  SimTime now = 0.0;
  EXPECT_FALSE(q.run_one(&now));
}

TEST(SimWorld, AfterSchedulesRelative) {
  SimWorld world;
  double fired_at = -1.0;
  world.after(2.5, [&] { fired_at = world.now(); });
  world.run_to_quiescence();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
  EXPECT_DOUBLE_EQ(world.now(), 2.5);
}

TEST(SimWorld, EventsCanScheduleEvents) {
  SimWorld world;
  std::vector<double> times;
  world.after(1.0, [&] {
    times.push_back(world.now());
    world.after(1.0, [&] { times.push_back(world.now()); });
  });
  world.run_to_quiescence();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(SimWorld, RunUntilStopsAtPredicate) {
  SimWorld world;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    world.after(i, [&] { ++count; });
  }
  EXPECT_TRUE(world.run_until([&] { return count == 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(world.now(), 3.0);
  EXPECT_EQ(world.pending_events(), 7u);
}

TEST(SimWorld, RunUntilReportsQuiescence) {
  SimWorld world;
  world.after(1.0, [] {});
  EXPECT_FALSE(world.run_until([] { return false; }));
  EXPECT_TRUE(world.idle());
}

TEST(CpuModel, ChargesSerialize) {
  SimWorld world;
  CpuModel cpu(world, CpuProfile{});
  EXPECT_DOUBLE_EQ(cpu.free_at(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.charge(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cpu.charge(2.0), 3.0);  // starts after the first
  EXPECT_DOUBLE_EQ(cpu.free_at(), 3.0);
  EXPECT_DOUBLE_EQ(cpu.busy_total(), 3.0);
}

TEST(CpuModel, IdleGapResetsStart) {
  SimWorld world;
  CpuModel cpu(world, CpuProfile{});
  cpu.charge(1.0);
  world.after(5.0, [] {});
  world.run_to_quiescence();  // now == 5, past busy_until
  EXPECT_DOUBLE_EQ(cpu.free_at(), 5.0);
  EXPECT_DOUBLE_EQ(cpu.charge(1.0), 6.0);
}

TEST(CpuModel, MemcpyPiecewiseBandwidth) {
  SimWorld world;
  CpuProfile profile;
  profile.memcpy_hot_mbps = 4000.0;
  profile.memcpy_cold_mbps = 1000.0;
  profile.memcpy_hot_threshold = 1024;
  profile.memcpy_call_us = 0.1;
  CpuModel cpu(world, profile);
  // Hot: 1024 bytes at 4000 MB/s = 0.256 µs + call.
  EXPECT_NEAR(cpu.memcpy_cost(1024), 0.1 + 1024.0 / 4000.0, 1e-12);
  // Cold: 1 byte over the threshold switches to the cold rate.
  EXPECT_NEAR(cpu.memcpy_cost(1025), 0.1 + 1025.0 / 1000.0, 1e-12);
  EXPECT_NEAR(cpu.memcpy_cost(0), 0.1, 1e-12);
}

TEST(CpuModel, ChargeMemcpyAdvancesClock) {
  SimWorld world;
  CpuModel cpu(world, CpuProfile{});
  const SimTime done = cpu.charge_memcpy(4096);
  EXPECT_DOUBLE_EQ(done, cpu.memcpy_cost(4096));
  EXPECT_DOUBLE_EQ(cpu.free_at(), done);
}

}  // namespace
}  // namespace nmad::simnet

namespace nmad::simnet {
namespace {

TEST(CpuModel, HeterogeneousNodesProgressIndependently) {
  // A slow node's copies must not delay the fast node's CPU.
  SimWorld world;
  CpuProfile fast;
  CpuProfile slow;
  slow.memcpy_hot_mbps = fast.memcpy_hot_mbps / 10.0;
  slow.memcpy_cold_mbps = fast.memcpy_cold_mbps / 10.0;
  CpuModel cpu_fast(world, fast);
  CpuModel cpu_slow(world, slow);

  const SimTime t_fast = cpu_fast.charge_memcpy(64 * 1024);
  const SimTime t_slow = cpu_slow.charge_memcpy(64 * 1024);
  EXPECT_GT(t_slow, t_fast * 5.0);
  // The fast CPU is free again as soon as its own work ends.
  EXPECT_DOUBLE_EQ(cpu_fast.free_at(), t_fast);
}

}  // namespace
}  // namespace nmad::simnet
