// Wall-clock shm stack: the same engine Core running on real time, real
// threads and the shared-memory rail — no simulation anywhere.
//
// The fig2 ping-pong size sweep runs under the protocol delivery oracle
// and its quiescence audit, plain and with flow control, crossing the
// eager→rendezvous switch on the way up, and the steady-state allocation
// contract of test_alloc_churn carries over: after warm-up, ping-pong
// traffic touches neither the engine pools, nor the timer queue's slabs,
// nor the InlineFunction heap.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/oracle.hpp"
#include "nmad/api/wall_session.hpp"
#include "util/buffer.hpp"
#include "util/inline_fn.hpp"
#include "util/units.hpp"

namespace nmad::core {
namespace {

using api::WallCluster;

// The oracle's end-of-run audit, holding both nodes' exec locks so no
// pump or timer thread is inside either engine.
void audit(WallCluster& cluster, harness::ProtocolOracle& oracle) {
  cluster.locked(0, [&](Core& a) {
    cluster.locked(1, [&](Core& b) { oracle.finalize(std::array{&a, &b}); });
  });
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
}

// Flow control forces reliability on, so acks, retransmits and credit
// grants run on real threads too.
void fig2_sweep_under_oracle(bool flow_control) {
  SCOPED_TRACE(flow_control ? "flow control" : "plain");
  WallCluster::Options options;
  options.core.flow_control = flow_control;
  WallCluster cluster(options);
  harness::ProtocolOracle oracle;

  uint64_t tag = 1;
  for (uint64_t size : util::doubling_sizes(4, 1 << 20)) {
    std::vector<std::byte> out(size), back(size), in(size), echo(size);
    util::fill_pattern({out.data(), size}, tag);
    util::fill_pattern({back.data(), size}, tag + 1);

    // A → B.
    const size_t si = oracle.send_posted(0, 1, tag, {out.data(), size});
    const size_t ri = oracle.recv_posted(1, 0, tag, {in.data(), size});
    Request* s = cluster.post_send(0, cluster.gate(0, 1), tag,
                                   util::ConstBytes{out.data(), size});
    Request* r = cluster.post_recv(1, cluster.gate(1, 0), tag,
                                   util::MutableBytes{in.data(), size});
    cluster.wait(0, s);
    cluster.wait(1, r);
    oracle.send_completed(0, 1, tag, si, s->status());
    oracle.recv_completed(1, 0, tag, ri, r->status(), size);
    cluster.release(0, s);
    cluster.release(1, r);

    // B → A (the pong).
    const size_t sj = oracle.send_posted(1, 0, tag, {back.data(), size});
    const size_t rj = oracle.recv_posted(0, 1, tag, {echo.data(), size});
    s = cluster.post_send(1, cluster.gate(1, 0), tag,
                          util::ConstBytes{back.data(), size});
    r = cluster.post_recv(0, cluster.gate(0, 1), tag,
                          util::MutableBytes{echo.data(), size});
    cluster.wait(1, s);
    cluster.wait(0, r);
    oracle.send_completed(1, 0, tag, sj, s->status());
    oracle.recv_completed(0, 1, tag, rj, r->status(), size);
    cluster.release(1, s);
    cluster.release(0, r);

    EXPECT_TRUE(util::check_pattern({in.data(), size}, tag)) << size;
    EXPECT_TRUE(util::check_pattern({echo.data(), size}, tag + 1)) << size;
    ++tag;
  }

  // Completions can run ahead of the last acks and credit grants:
  // flush both engines before the audit. A drained engine has no packet
  // on the wire, so no chunk is live.
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    cluster.locked(n, [n](Core& core) {
      const util::Status st = core.drain(5e6);
      EXPECT_TRUE(st.is_ok()) << "node " << n << ": " << st.to_string();
      EXPECT_EQ(core.alloc_stats().chunk_pool_live, 0u) << "node " << n;
    });
  }
  audit(cluster, oracle);
  // The big sizes went rendezvous: the wall path exercised sink posting,
  // direct-deposit slices and completion, not just eager frames.
  const uint64_t rdv = cluster.locked(
      0, [](Core& core) { return core.stats().rdv_started; });
  EXPECT_GT(rdv, 0u);
}

TEST(WallShm, Fig2SizeSweepUnderOracle) {
  fig2_sweep_under_oracle(/*flow_control=*/false);
  fig2_sweep_under_oracle(/*flow_control=*/true);
}

// Steady-state witnesses across the whole wall-clock cluster: every
// pool's capacity/grow counters, the timer queue's slab/slot capacities
// and the global InlineFunction spill count — all monotone, so flat
// across the measured phase is exactly zero hot-path allocations.
struct WallAllocSnapshot {
  size_t pool_capacity = 0;
  size_t pool_grows = 0;
  size_t queue_slabs = 0;
  size_t queue_node_capacity = 0;
  size_t queue_slot_capacity = 0;
  uint64_t queue_resizes = 0;
  uint64_t fn_spills = 0;
};

WallAllocSnapshot snapshot(WallCluster& cluster) {
  WallAllocSnapshot s;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    const Core::AllocStats a =
        cluster.locked(n, [](Core& core) { return core.alloc_stats(); });
    s.pool_capacity += a.chunk_pool_capacity + a.bulk_pool_capacity +
                       a.send_pool_capacity + a.recv_pool_capacity;
    s.pool_grows += a.chunk_pool_grows + a.bulk_pool_grows +
                    a.send_pool_grows + a.recv_pool_grows;
    s.queue_slabs += a.queue.node_slabs;
    s.queue_node_capacity += a.queue.node_capacity;
    s.queue_slot_capacity += a.queue.slot_capacity;
    s.queue_resizes += a.queue.resizes;
  }
  s.fn_spills = util::inline_fn_heap_allocs();
  return s;
}

void pingpong_round(WallCluster& cluster, std::vector<std::byte>& buf,
                    uint64_t round) {
  const uint64_t tag = round;
  Request* s0 = cluster.post_send(0, cluster.gate(0, 1), tag,
                                  util::ConstBytes{buf.data(), buf.size()});
  Request* r0 = cluster.post_recv(1, cluster.gate(1, 0), tag,
                                  util::MutableBytes{buf.data(), buf.size()});
  cluster.wait(0, s0);
  cluster.wait(1, r0);
  cluster.release(0, s0);
  cluster.release(1, r0);
  Request* s1 = cluster.post_send(1, cluster.gate(1, 0), tag,
                                  util::ConstBytes{buf.data(), buf.size()});
  Request* r1 = cluster.post_recv(0, cluster.gate(0, 1), tag,
                                  util::MutableBytes{buf.data(), buf.size()});
  cluster.wait(1, s1);
  cluster.wait(0, r1);
  cluster.release(1, s1);
  cluster.release(0, r1);
}

TEST(WallShm, SteadyPingPongIsAllocationFree) {
  WallCluster cluster(WallCluster::Options{});
  std::vector<std::byte> buf(4096);
  for (uint64_t r = 0; r < 50; ++r) pingpong_round(cluster, buf, r);
  const WallAllocSnapshot warm = snapshot(cluster);

  for (uint64_t r = 50; r < 350; ++r) pingpong_round(cluster, buf, r);
  const WallAllocSnapshot steady = snapshot(cluster);

  EXPECT_EQ(steady.pool_capacity, warm.pool_capacity)
      << "an engine pool grew during steady state";
  EXPECT_EQ(steady.pool_grows, warm.pool_grows);
  EXPECT_EQ(steady.queue_slabs, warm.queue_slabs)
      << "the timer queue allocated a node slab during steady state";
  EXPECT_EQ(steady.queue_node_capacity, warm.queue_node_capacity);
  EXPECT_EQ(steady.queue_slot_capacity, warm.queue_slot_capacity);
  EXPECT_EQ(steady.queue_resizes, warm.queue_resizes);
  EXPECT_EQ(steady.fn_spills, warm.fn_spills)
      << "a callback spilled out of its inline buffer";

  // No stream was recorded, so only the engine audit runs.
  harness::ProtocolOracle oracle;
  audit(cluster, oracle);
}

// The self-measured rail figures flow into RailInfo and debug_dump —
// a shm rail reports real, non-zero latency and bandwidth.
TEST(WallShm, SelfMeasuredCapsSurface) {
  WallCluster cluster(WallCluster::Options{});
  cluster.locked(0, [](Core& core) {
    const RailInfo& info = core.rail_info(0);
    EXPECT_GT(info.bandwidth_mbps, 0.0);
    EXPECT_GT(info.latency_us, 0.0);
    std::ostringstream dump;
    core.debug_dump(dump);
    EXPECT_NE(dump.str().find("lat="), std::string::npos);
    EXPECT_NE(dump.str().find("bw="), std::string::npos);
    return 0;
  });
}

}  // namespace
}  // namespace nmad::core
