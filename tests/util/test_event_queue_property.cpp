// Differential/property suite for the calendar-queue EventQueue, the one
// timer queue of both clocks.
//
// The scheduler was rewritten from a binary heap to a calendar queue; the
// old implementation survives as ReferenceHeapQueue. Both must be
// observationally identical — pop order (including same-timestamp
// insertion-order ties), next_time()/size() accounting, and lazy-cancel
// skip semantics — so seed-driven random workloads run against both in
// lockstep and any divergence fails with the seed plus the shortest
// failing operation prefix (found by binary search, replayable verbatim).
// Each workload runs in two shapes: the simulation's (run_one jumps the
// clock to the earliest event) and the wall clock's (deadlines behind
// the clock, and pop_due at a clock that often lags the earliest one).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/event_queue.hpp"
#include "util/inline_fn.hpp"
#include "util/rng.hpp"

namespace nmad::util {
namespace {

enum class Clock { kSim, kWall };

// The wall's pop: take the earliest callback due at `now`, then run it.
template <class Queue>
bool pop_due_and_run(Queue& q, double now) {
  EventFn fn;
  if (!q.pop_due(now, &fn)) return false;
  fn();
  return true;
}

struct DiffResult {
  bool ok = true;
  size_t fail_op = 0;  // index of the first diverging operation
  std::string what;
};

// Runs `nops` operations drawn deterministically from `seed` against both
// queues and cross-checks after every operation. Operations on the prefix
// are identical for any nops, so a failure shrinks by re-running with a
// smaller count.
DiffResult run_diff(uint64_t seed, size_t nops, Clock clock) {
  util::Rng rng(seed);
  EventQueue cal;
  ReferenceHeapQueue ref;
  double now_cal = 0.0;
  double now_ref = 0.0;
  const bool wall = clock == Clock::kWall;

  struct Live {
    EventId cal_id;
    EventId ref_id;
    double at;
    uint64_t label;
  };
  std::vector<Live> live;
  std::vector<uint64_t> popped_cal;
  std::vector<uint64_t> popped_ref;
  uint64_t next_label = 0;

  auto fail = [](size_t op, std::string what) {
    return DiffResult{false, op, std::move(what)};
  };

  for (size_t op = 0; op < nops; ++op) {
    const uint64_t dice = rng.next_below(100);
    if (dice < 50 || live.empty()) {
      // Schedule. Mix near-future spacings with exact ties on a pending
      // timestamp (insertion-order tie-break coverage), events at the
      // current instant, and rare far-future outliers (calendar years
      // ahead — exercises the direct-search fallback and width choice).
      double at;
      const uint64_t shape = rng.next_below(10);
      if (shape < 5 || live.empty()) {
        at = now_cal + static_cast<double>(rng.next_below(1000)) * 0.25;
      } else if (shape < 8) {
        at = live[rng.next_below(live.size())].at;  // exact tie
        if (at < now_cal && !wall) at = now_cal;
      } else if (shape == 8) {
        at = now_cal;  // fires this instant, behind pending peers
      } else {
        at = now_cal + 1e6 + static_cast<double>(rng.next_below(1000)) * 50.0;
      }
      // A wall timer can be armed for an instant the clock has passed;
      // it is due at once and pulls the year cursor back.
      if (wall && rng.next_below(8) == 0) at = now_cal * 0.5;
      const uint64_t label = next_label++;
      Live entry;
      entry.at = at;
      entry.label = label;
      entry.cal_id = cal.schedule_at(
          at, [&popped_cal, label] { popped_cal.push_back(label); });
      entry.ref_id = ref.schedule_at(
          at, [&popped_ref, label] { popped_ref.push_back(label); });
      live.push_back(entry);
    } else if (dice < 70) {
      // Cancel a random pending event in both queues.
      const size_t pick = rng.next_below(live.size());
      cal.cancel(live[pick].cal_id);
      ref.cancel(live[pick].ref_id);
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Pop: the simulation jumps its clock to the earliest event; the
      // wall clock moves on by itself, often not as far as the earliest
      // deadline, and only what is due pops.
      bool ran_cal;
      bool ran_ref;
      if (wall) {
        now_cal += static_cast<double>(rng.next_below(400)) * 0.25;
        now_ref = now_cal;
        ran_cal = pop_due_and_run(cal, now_cal);
        ran_ref = pop_due_and_run(ref, now_ref);
      } else {
        ran_cal = cal.run_one(&now_cal);
        ran_ref = ref.run_one(&now_ref);
      }
      if (ran_cal != ran_ref) return fail(op, "pop returned differently");
      if (ran_cal) {
        if (popped_cal.size() != popped_ref.size() ||
            popped_cal.back() != popped_ref.back()) {
          return fail(op, "pop order diverged");
        }
        if (now_cal != now_ref) return fail(op, "clock diverged");
        // Drop the popped event from the live list.
        const uint64_t done = popped_cal.back();
        for (size_t i = 0; i < live.size(); ++i) {
          if (live[i].label == done) {
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
      }
    }
    if (cal.size() != ref.size()) return fail(op, "size() diverged");
    if (cal.empty() != ref.empty()) return fail(op, "empty() diverged");
    if (cal.next_time() != ref.next_time()) {
      return fail(op, "next_time() diverged");
    }
  }

  // Drain both queues completely and compare the full pop sequences.
  while (true) {
    const bool ran_cal =
        wall ? pop_due_and_run(cal, kNever) : cal.run_one(&now_cal);
    const bool ran_ref =
        wall ? pop_due_and_run(ref, kNever) : ref.run_one(&now_ref);
    if (ran_cal != ran_ref) return fail(nops, "drain pop diverged");
    if (!ran_cal) break;
  }
  if (popped_cal != popped_ref) return fail(nops, "drain pop order diverged");
  if (now_cal != now_ref) return fail(nops, "drain clock diverged");
  return DiffResult{};
}

TEST(EventQueueProperty, DifferentialAgainstReferenceHeap) {
  for (const Clock clock : {Clock::kSim, Clock::kWall}) {
    for (uint64_t s = 0; s < 40; ++s) {
      const uint64_t seed = 0x9E3779B97F4A7C15ull * (s + 1);
      const size_t nops = 4000;
      const DiffResult full = run_diff(seed, nops, clock);
      if (full.ok) continue;
      // Shrink: binary-search the shortest failing prefix so the replay
      // in the failure message is minimal.
      size_t lo = 1;
      size_t hi = full.fail_op + 1;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (run_diff(seed, mid, clock).ok) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      FAIL() << "calendar queue diverged from reference heap: " << full.what
             << "\n  replay: run_diff(/*seed=*/" << seed << "u, /*nops=*/"
             << lo << ", Clock::" << (clock == Clock::kWall ? "kWall" : "kSim")
             << ")";
    }
  }
}

// The engine's dominant cancel shape: retransmit/deadline timers are
// scheduled on every packet and almost always cancelled before firing.
// The old sorted-vector cancel was O(n) per call; this workload is what
// the generation-stamped O(1) cancel exists for.
TEST(EventQueueProperty, CancelHeavyTimerWorkload) {
  EventQueue q;
  util::Rng rng(42);
  std::vector<uint64_t> fired;
  std::vector<uint64_t> expected;
  double now = 0.0;
  constexpr size_t kTimers = 50000;
  std::vector<EventId> pending;
  pending.reserve(kTimers);
  for (uint64_t i = 0; i < kTimers; ++i) {
    const double at = 100.0 + static_cast<double>(i) * 0.01;
    pending.push_back(q.schedule_at(at, [&fired, i] { fired.push_back(i); }));
    // 95% of timers are "acked" (cancelled) before they can fire.
    if (rng.next_bool(0.95)) {
      EXPECT_TRUE(q.cancel(pending.back()));
    } else {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(q.size(), expected.size());
  while (q.run_one(&now)) {
  }
  EXPECT_EQ(fired, expected);
  const EventQueue::Stats stats = q.stats();
  EXPECT_EQ(stats.scheduled, kTimers);
  EXPECT_EQ(stats.executed, expected.size());
  EXPECT_EQ(stats.cancelled, kTimers - expected.size());
  EXPECT_EQ(stats.pending, 0u);
}

// Generation stamps must fence every form of dead id: double cancel,
// cancel after the event fired (through either pop), and a stale id whose
// slot was recycled by a newer event. cancel() reports which it was.
TEST(EventQueueProperty, CancelFencing) {
  EventQueue q;
  double now = 0.0;
  int fired_a = 0;
  int fired_b = 0;

  // Double cancel: second call is a no-op, size stays consistent.
  const EventId dup = q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.cancel(dup));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.cancel(dup));
  EXPECT_EQ(q.size(), 0u);

  // Cancel after fire: must not disturb later events.
  const EventId fires = q.schedule_at(2.0, [&fired_a] { ++fired_a; });
  EXPECT_TRUE(q.run_one(&now));
  EXPECT_EQ(fired_a, 1);
  EXPECT_FALSE(q.cancel(fires));  // already fired; fenced

  // Slot reuse: the slot freed by `fires` may be handed to `fresh`. The
  // stale id must not cancel the new tenant.
  const EventId fresh = q.schedule_at(3.0, [&fired_b] { ++fired_b; });
  ASSERT_NE(fresh, fires);
  EXPECT_FALSE(q.cancel(fires));  // stale generation; fenced
  EXPECT_EQ(q.size(), 1u);
  EventFn fn;
  EXPECT_FALSE(q.pop_due(2.5, &fn));  // not due yet
  ASSERT_TRUE(q.pop_due(3.0, &fn));
  fn();
  EXPECT_EQ(fired_b, 1);
  EXPECT_FALSE(q.cancel(fresh));  // popped by pop_due; fenced

  // Ids are never zero (0 is a safe "no event armed" sentinel).
  EXPECT_NE(q.schedule_at(4.0, [] {}), 0u);
}

// Insertion-order ties must survive bucket-array resizes: the rebuild
// re-sorts by (at, seq), so a burst big enough to force several grows
// still pops in submission order — the first half through the wall's
// pop_due at the burst's deadline, the rest through run_one.
TEST(EventQueueProperty, TiesSurviveResize) {
  EventQueue q;
  std::vector<int> order;
  constexpr int kBurst = 1000;  // >> kMinBuckets: forces repeated grows
  for (int i = 0; i < kBurst; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_GE(q.stats().resizes, 1u);
  for (int i = 0; i < kBurst / 2; ++i) {
    ASSERT_TRUE(pop_due_and_run(q, 5.0));
  }
  double now = 0.0;
  while (q.run_one(&now)) {
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(order[i], i);
}

// Widely spaced timers (idle-rail probes parked virtual-hours out) must
// still pop in order — this drives the year-scan's direct-search fallback.
TEST(EventQueueProperty, SparseFarFutureEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(0); });
  q.schedule_at(1e6, [&] { order.push_back(1); });      // one second out
  q.schedule_at(3.6e9, [&] { order.push_back(2); });    // one hour out
  q.schedule_at(7.2e9, [&] { order.push_back(3); });    // two hours out
  double now = 0.0;
  while (q.run_one(&now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(now, 7.2e9);
}

// Steady state must be allocation-free: once the slab/slot/bucket
// capacities cover the working set, a pop+push loop touches no allocator,
// whichever clock pops. The queue's own capacity counters and the
// InlineFunction spill counter are the witnesses.
TEST(EventQueueProperty, SteadyStateIsAllocationFree) {
  EventQueue q;
  double now = 0.0;
  util::Rng rng(7);
  // Warm up: reach a stable pending population.
  constexpr size_t kPending = 1024;
  for (size_t i = 0; i < kPending; ++i) {
    q.schedule_at(now + static_cast<double>(rng.next_below(100)), [] {});
  }
  for (int i = 0; i < 2000; ++i) {
    q.run_one(&now);
    q.schedule_at(now + static_cast<double>(rng.next_below(100)) + 0.1, [] {});
  }
  const EventQueue::Stats warm = q.stats();
  const uint64_t spills = util::inline_fn_heap_allocs();

  // Steady state: population constant, hundreds of thousands of ops,
  // popped alternately the simulation's way and the wall's way (at the
  // earliest deadline).
  for (int i = 0; i < 200000; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(q.run_one(&now));
    } else {
      now = q.next_time();
      ASSERT_TRUE(pop_due_and_run(q, now));
    }
    q.schedule_at(now + static_cast<double>(rng.next_below(100)) + 0.1, [] {});
  }
  const EventQueue::Stats steady = q.stats();
  EXPECT_EQ(steady.node_slabs, warm.node_slabs);
  EXPECT_EQ(steady.node_capacity, warm.node_capacity);
  EXPECT_EQ(steady.slot_capacity, warm.slot_capacity);
  EXPECT_EQ(steady.buckets, warm.buckets);
  EXPECT_EQ(steady.resizes, warm.resizes);
  EXPECT_EQ(util::inline_fn_heap_allocs(), spills);
  EXPECT_EQ(steady.pending, kPending);
}

// InlineFunction itself: captures within capacity stay inline; oversized
// captures spill to the heap exactly once and are counted.
TEST(InlineFunction, InlineAndSpillPaths) {
  const uint64_t before = util::inline_fn_heap_allocs();
  int hits = 0;
  util::InlineFunction<64> small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(util::inline_fn_heap_allocs(), before);

  // Move transfers ownership; the source becomes empty.
  util::InlineFunction<64> moved(std::move(small));
  moved();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)

  struct Big {
    char pad[96];
  };
  Big big{};
  big.pad[0] = 1;
  util::InlineFunction<64> large([big, &hits] { hits += big.pad[0]; });
  EXPECT_EQ(util::inline_fn_heap_allocs(), before + 1);
  large();
  EXPECT_EQ(hits, 3);
  util::InlineFunction<64> large2(std::move(large));  // heap move: no copy
  EXPECT_EQ(util::inline_fn_heap_allocs(), before + 1);
  large2();
  EXPECT_EQ(hits, 4);
}

}  // namespace
}  // namespace nmad::util
