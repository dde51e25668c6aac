// Per-layer unit tests for the three-layer core split, plus the event
// bus that connects them: CollectLayer submission / unexpected-store
// ordering, ScheduleLayer window election determinism, TransferEngine
// health transitions, and the bus's ordering + trace-ring contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "nmad/api/session.hpp"
#include "nmad/core/core.hpp"
#include "nmad/core/events.hpp"
#include "nmad/runtime/sim_runtime.hpp"
#include "simnet/fabric.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"

namespace nmad::core {
namespace {

using api::Cluster;
using api::ClusterOptions;

// ---------------------------------------------------------------------------
// EventBus: delivery order, counters, and the trace ring.
// ---------------------------------------------------------------------------

TEST(EventBus, DeliversSynchronouslyInSubscriptionOrder) {
  simnet::SimWorld world;
  simnet::Fabric fabric(world);
  fabric.add_node(simnet::opteron_2006_profile());
  runtime::SimRuntime rt(world, fabric.node(0));
  EventBus bus(rt);

  std::vector<int> order;
  bus.subscribe(EventKind::kElected, [&](const Event&) { order.push_back(1); });
  bus.subscribe(EventKind::kElected, [&](const Event&) { order.push_back(2); });
  bus.subscribe(EventKind::kAcked, [&](const Event&) { order.push_back(3); });

  bus.publish({.kind = EventKind::kElected, .gate = 7, .a = 11});
  // Synchronous: both kElected subscribers already ran, in order.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  bus.publish({.kind = EventKind::kAcked});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  EXPECT_EQ(bus.published(), 2u);
  EXPECT_EQ(bus.count(EventKind::kElected), 1u);
  EXPECT_EQ(bus.count(EventKind::kAcked), 1u);
  EXPECT_EQ(bus.count(EventKind::kWireTx), 0u);
}

TEST(EventBus, StampsVirtualTimeAndKeepsOperands) {
  simnet::SimWorld world;
  simnet::Fabric fabric(world);
  fabric.add_node(simnet::opteron_2006_profile());
  runtime::SimRuntime rt(world, fabric.node(0));
  EventBus bus(rt);
  world.at(12.5, [&] {
    bus.publish({.kind = EventKind::kWireTx, .gate = 3, .rail = 1,
                 .seq = 9, .a = 1024, .b = 2});
  });
  while (world.run_one()) {
  }
  ASSERT_EQ(bus.trace_size(), 1u);
  const Event ev = bus.trace().front();
  EXPECT_DOUBLE_EQ(ev.t, 12.5);
  EXPECT_EQ(ev.gate, 3u);
  EXPECT_EQ(ev.rail, 1);
  EXPECT_EQ(ev.seq, 9u);
  EXPECT_EQ(ev.a, 1024u);
  EXPECT_EQ(ev.b, 2u);
}

TEST(EventBus, TraceRingKeepsNewestOldestFirst) {
  simnet::SimWorld world;
  simnet::Fabric fabric(world);
  fabric.add_node(simnet::opteron_2006_profile());
  runtime::SimRuntime rt(world, fabric.node(0));
  EventBus bus(rt, /*trace_capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    bus.publish({.kind = EventKind::kPacketBuilt, .a = i});
  }
  EXPECT_EQ(bus.published(), 10u);
  EXPECT_EQ(bus.trace_size(), 4u);
  const std::vector<Event> kept = bus.trace();
  ASSERT_EQ(kept.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].a, 6 + i) << i;  // the newest four, oldest first
  }

  std::ostringstream out;
  bus.dump_trace(out, 2);
  const std::string text = out.str();
  EXPECT_NE(text.find("trace (last 2 of 10 events)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("packet-built"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// CollectLayer: submission and unexpected-store ordering.
// ---------------------------------------------------------------------------

TEST(CollectLayer, UnexpectedStoreMatchesInArrivalOrder) {
  Cluster cluster;
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);

  // Two same-tag eager sends land before any receive is posted: both
  // park in the unexpected store, in arrival order.
  std::vector<std::byte> m0(512), m1(512);
  util::fill_pattern({m0.data(), m0.size()}, 10);
  util::fill_pattern({m1.data(), m1.size()}, 20);
  auto* s0 = a.isend(cluster.gate(0, 1), 5, util::ConstBytes{m0.data(), 512});
  auto* s1 = a.isend(cluster.gate(0, 1), 5, util::ConstBytes{m1.data(), 512});
  cluster.wait(s0);
  cluster.wait(s1);
  while (cluster.world().run_one()) {
  }

  Gate& rx_gate = b.gate(cluster.gate(1, 0));
  EXPECT_EQ(b.collector().gate_counts(rx_gate).unexpected, 2u);
  const auto [bytes, chunks] = b.collector().count_store(rx_gate);
  EXPECT_EQ(bytes, 1024u);
  EXPECT_EQ(chunks, 2u);
  // The store is the ground truth for the scheduler's gauge.
  EXPECT_EQ(b.stats().rx_stored_bytes, 1024u);

  // peek honours the next-sequence contract before anything matches.
  const Core::PeekResult peek = b.peek_unexpected(cluster.gate(1, 0), 5);
  EXPECT_TRUE(peek.matched);
  EXPECT_TRUE(peek.total_known);
  EXPECT_EQ(peek.total_bytes, 512u);

  // Receives drain the store FIFO: first posted gets the first arrival.
  std::vector<std::byte> in0(512), in1(512);
  auto* r0 = b.irecv(cluster.gate(1, 0), 5, util::MutableBytes{in0.data(), 512});
  auto* r1 = b.irecv(cluster.gate(1, 0), 5, util::MutableBytes{in1.data(), 512});
  cluster.wait(r0);
  cluster.wait(r1);
  EXPECT_TRUE(util::check_pattern({in0.data(), 512}, 10));
  EXPECT_TRUE(util::check_pattern({in1.data(), 512}, 20));
  EXPECT_EQ(b.collector().gate_counts(rx_gate).unexpected, 0u);
  EXPECT_EQ(b.stats().rx_stored_bytes, 0u);

  a.release(s0);
  a.release(s1);
  b.release(r0);
  b.release(r1);
}

TEST(CollectLayer, PostedReceivesMatchSubmissionOrder) {
  Cluster cluster;
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);

  // Receives posted first: the collect layer matches sends against them
  // in submission order, so payloads land in their posted buffers.
  std::vector<std::byte> in0(256), in1(256), out0(256), out1(256);
  util::fill_pattern({out0.data(), 256}, 1);
  util::fill_pattern({out1.data(), 256}, 2);
  auto* r0 = b.irecv(cluster.gate(1, 0), 9, util::MutableBytes{in0.data(), 256});
  auto* r1 = b.irecv(cluster.gate(1, 0), 9, util::MutableBytes{in1.data(), 256});
  Gate& rx_gate = b.gate(cluster.gate(1, 0));
  EXPECT_EQ(b.collector().gate_counts(rx_gate).active_recv, 2u);

  auto* s0 = a.isend(cluster.gate(0, 1), 9, util::ConstBytes{out0.data(), 256});
  auto* s1 = a.isend(cluster.gate(0, 1), 9, util::ConstBytes{out1.data(), 256});
  const std::vector<Request*> reqs = {r0, r1, s0, s1};
  cluster.wait_all(reqs);

  EXPECT_TRUE(util::check_pattern({in0.data(), 256}, 1));
  EXPECT_TRUE(util::check_pattern({in1.data(), 256}, 2));
  EXPECT_EQ(b.collector().gate_counts(rx_gate).active_recv, 0u);

  a.release(s0);
  a.release(s1);
  b.release(r0);
  b.release(r1);
}

// ---------------------------------------------------------------------------
// ScheduleLayer: window election is deterministic.
// ---------------------------------------------------------------------------

// Runs a fixed mixed-size traffic pattern and returns core 0's trace.
std::vector<Event> run_fixed_traffic() {
  ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(),
                   simnet::elan_quadrics_profile()};
  options.core.strategy = "aggreg";
  Cluster cluster(std::move(options));
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);

  std::vector<std::vector<std::byte>> out(6), in(6);
  std::vector<Request*> reqs;
  for (int i = 0; i < 6; ++i) {
    const size_t len = 128 << i;  // 128 B .. 4 KB
    out[i].assign(len, std::byte{static_cast<unsigned char>(i)});
    in[i].resize(len);
    reqs.push_back(b.irecv(cluster.gate(1, 0), Tag(i),
                           util::MutableBytes{in[i].data(), len}));
  }
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(a.isend(cluster.gate(0, 1), Tag(i),
                           util::ConstBytes{out[i].data(), out[i].size()}));
  }
  cluster.wait_all(reqs);
  while (cluster.world().run_one()) {
  }
  const std::vector<Event> trace = a.bus().trace();
  for (size_t i = 0; i < 6; ++i) b.release(reqs[i]);
  for (size_t i = 6; i < reqs.size(); ++i) a.release(reqs[i]);
  return trace;
}

TEST(ScheduleLayer, ElectionIsDeterministicAcrossRuns) {
  const std::vector<Event> first = run_fixed_traffic();
  const std::vector<Event> second = run_fixed_traffic();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind) << "event " << i;
    EXPECT_DOUBLE_EQ(first[i].t, second[i].t) << "event " << i;
    EXPECT_EQ(first[i].gate, second[i].gate) << "event " << i;
    EXPECT_EQ(first[i].rail, second[i].rail) << "event " << i;
    EXPECT_EQ(first[i].seq, second[i].seq) << "event " << i;
    EXPECT_EQ(first[i].a, second[i].a) << "event " << i;
    EXPECT_EQ(first[i].b, second[i].b) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// TransferEngine: health transitions ride the bus.
// ---------------------------------------------------------------------------

TEST(TransferEngine, KillAndReviveWalkTheHealthLifecycle) {
  ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(), simnet::mx_myri10g_profile()};
  options.core.reliability = true;
  Cluster cluster(std::move(options));
  Core& a = cluster.core(0);

  std::vector<Event> seen;
  a.bus().subscribe(EventKind::kHealthTransition,
                    [&](const Event& ev) { seen.push_back(ev); });

  EXPECT_EQ(a.rail_health_state(1), RailHealth::kAlive);
  a.fail_rail(1);
  EXPECT_EQ(a.rail_health_state(1), RailHealth::kDead);
  EXPECT_FALSE(a.rail_alive(1));
  EXPECT_EQ(a.rail_epoch(1), 1u);

  a.revive_rail(1);
  EXPECT_EQ(a.rail_health_state(1), RailHealth::kAlive);
  EXPECT_TRUE(a.rail_alive(1));

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].rail, 1);
  EXPECT_EQ(seen[0].seq, 1u);  // the death fenced a new epoch
  EXPECT_EQ(static_cast<RailHealth>(seen[0].a), RailHealth::kAlive);
  EXPECT_EQ(static_cast<RailHealth>(seen[0].b), RailHealth::kDead);
  EXPECT_EQ(seen[1].rail, 1);
  EXPECT_EQ(static_cast<RailHealth>(seen[1].a), RailHealth::kDead);
  EXPECT_EQ(static_cast<RailHealth>(seen[1].b), RailHealth::kAlive);

  EXPECT_EQ(a.bus().count(EventKind::kHealthTransition), 2u);
  EXPECT_EQ(a.stats().rails_failed, 1u);
  EXPECT_EQ(a.stats().rails_revived, 1u);
  while (cluster.world().run_one()) {
  }
}

// ---------------------------------------------------------------------------
// The full lifecycle in one trace: elect -> build -> tx -> rx -> ack.
// ---------------------------------------------------------------------------

TEST(EventBus, TraceCapturesCompleteLifecycle) {
  ClusterOptions options;
  options.core.reliability = true;
  Cluster cluster(std::move(options));
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);

  std::vector<std::byte> out(1024), in(1024);
  util::fill_pattern({out.data(), 1024}, 3);
  auto* recv = b.irecv(cluster.gate(1, 0), 1, util::MutableBytes{in.data(), 1024});
  auto* send = a.isend(cluster.gate(0, 1), 1, util::ConstBytes{out.data(), 1024});
  cluster.wait(send);
  cluster.wait(recv);
  while (cluster.world().run_one()) {  // let the ack retire the packet
  }

  auto first_time = [](const std::vector<Event>& trace, EventKind kind) {
    for (const Event& ev : trace) {
      if (ev.kind == kind) return ev.t;
    }
    return -1.0;
  };
  const std::vector<Event> tx_trace = a.bus().trace();
  const std::vector<Event> rx_trace = b.bus().trace();
  const double elected = first_time(tx_trace, EventKind::kElected);
  const double built = first_time(tx_trace, EventKind::kPacketBuilt);
  const double tx = first_time(tx_trace, EventKind::kWireTx);
  const double rx = first_time(rx_trace, EventKind::kWireRx);
  const double acked = first_time(tx_trace, EventKind::kAcked);
  ASSERT_GE(elected, 0.0);
  ASSERT_GE(built, 0.0);
  ASSERT_GE(tx, 0.0);
  ASSERT_GE(rx, 0.0);
  ASSERT_GE(acked, 0.0);
  EXPECT_LE(elected, built);
  EXPECT_LE(built, tx);
  EXPECT_LE(tx, rx);
  EXPECT_LT(rx, acked);

  EXPECT_GE(a.bus().count(EventKind::kElected), 1u);
  EXPECT_GE(a.bus().count(EventKind::kPacketBuilt), 1u);
  EXPECT_GE(a.bus().count(EventKind::kWireTx), 1u);
  EXPECT_GE(b.bus().count(EventKind::kWireRx), 1u);
  EXPECT_GE(a.bus().count(EventKind::kAcked), 1u);

  // The engine dump ends with the same trace, rendered.
  std::ostringstream dump;
  a.debug_dump(dump);
  EXPECT_NE(dump.str().find("events:"), std::string::npos);
  // The counter line names every kind, the last one included.
  EXPECT_NE(dump.str().find(" peer-rejoined=0"), std::string::npos);
  EXPECT_NE(dump.str().find("trace (last"), std::string::npos);
  // A rendered trace entry, not the "wire-tx=" counter above.
  EXPECT_NE(dump.str().find("] wire-tx "), std::string::npos);

  a.release(send);
  b.release(recv);
}

}  // namespace
}  // namespace nmad::core
