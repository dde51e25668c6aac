// Rail lifecycle: heartbeat liveness keeps idle rails warm, silence
// drives alive -> suspect -> dead, dead rails are probed and revived
// through the epoch-fenced probation handshake, rendezvous bulk survives
// a rail dying and reviving mid-flight exactly once, and Core::drain /
// close_gate give the engine a graceful shutdown path.
#include <gtest/gtest.h>

#include <sstream>
#include <cstring>
#include <string>
#include <vector>

#include "harness/oracle.hpp"
#include "madmpi/madmpi.hpp"
#include "nmad/api/session.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"

namespace nmad::core {
namespace {

// Health thresholds scaled to the 200µs ack timeout the reliability
// tests use: suspect after 3 missed beacon intervals, dead after 6.
CoreConfig health_config() {
  CoreConfig c;
  c.rail_health = true;  // implies reliability
  c.ack_timeout_us = 200.0;
  c.ack_delay_us = 5.0;
  c.rail_dead_after = 0;  // the health layer owns rail death here
  c.max_retries = 20;
  c.heartbeat_interval_us = 50.0;
  c.suspect_after_us = 150.0;
  c.dead_after_us = 300.0;
  c.probe_interval_us = 100.0;
  c.probation_replies = 2;
  return c;
}

simnet::NicProfile rail_with_blackout(double begin_us, double end_us) {
  simnet::NicProfile p = simnet::mx_myri10g_profile();
  p.fault.blackouts = {{begin_us, end_us}};
  return p;
}

// Pumps the shared loop until `t_us`. With rail health on the world is
// never quiescent (the monitors re-arm forever), so this always returns
// at the requested time.
void step_until(api::Cluster& cluster, double t_us) {
  while (cluster.now() < t_us && cluster.world().run_one()) {
  }
}

// Disarms every node's health monitors and pumps the world dry. A beacon
// packet in flight at teardown would otherwise hold its pool chunk past
// the engine's destructor (the tx-done callback never fires).
void settle(api::Cluster& cluster) {
  for (simnet::NodeId n = 0; n < cluster.node_count(); ++n) {
    cluster.core(n).stop_health_monitors();
  }
  while (cluster.world().run_one()) {
  }
}

std::string dump_core(Core& core) {
  std::ostringstream mem;
  core.debug_dump(mem);
  return mem.str();
}

TEST(RailLifecycle, HeartbeatsKeepIdleRailsAlive) {
  api::ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(), simnet::mx_myri10g_profile()};
  options.core = health_config();
  api::Cluster cluster(std::move(options));

  // No application traffic at all: only the standalone beacons keep the
  // peers convinced both rails are up.
  step_until(cluster, 5000.0);
  for (simnet::NodeId n = 0; n < 2; ++n) {
    Core& core = cluster.core(n);
    for (RailIndex r = 0; r < 2; ++r) {
      EXPECT_TRUE(core.rail_alive(r)) << "node " << n << " rail " << r;
      EXPECT_EQ(core.rail_health_state(r), RailHealth::kAlive);
      EXPECT_EQ(core.rail_epoch(r), 0u);
    }
    EXPECT_GT(core.stats().heartbeats_sent, 0u);
    EXPECT_GT(core.stats().heartbeats_received, 0u);
    EXPECT_EQ(core.stats().rails_suspected, 0u);
    EXPECT_EQ(core.stats().rails_failed, 0u);
  }

  const std::string dump = dump_core(cluster.core(0));
  EXPECT_NE(dump.find("health=alive"), std::string::npos) << dump;
  EXPECT_NE(dump.find("beacons="), std::string::npos) << dump;

  // Disarming the monitors lets the world go quiescent again.
  cluster.core(0).stop_health_monitors();
  cluster.core(1).stop_health_monitors();
  while (cluster.world().run_one()) {
  }
  EXPECT_TRUE(cluster.world().idle());
}

TEST(RailLifecycle, BlackoutWalksSuspectDeadProbationAlive) {
  api::ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(),
                   rail_with_blackout(1000.0, 1700.0)};
  options.core = health_config();
  api::Cluster cluster(std::move(options));

  step_until(cluster, 1250.0);  // ~250µs of silence: suspect, not yet dead
  EXPECT_EQ(cluster.core(0).rail_health_state(1), RailHealth::kSuspect);
  EXPECT_TRUE(cluster.core(0).rail_alive(1));

  step_until(cluster, 1500.0);  // past dead_after_us
  for (simnet::NodeId n = 0; n < 2; ++n) {
    EXPECT_FALSE(cluster.core(n).rail_alive(1)) << "node " << n;
    EXPECT_GE(cluster.core(n).rail_epoch(1), 1u);
    EXPECT_GE(cluster.core(n).stats().rails_suspected, 1u);
    EXPECT_GE(cluster.core(n).stats().rails_failed, 1u);
    EXPECT_TRUE(cluster.core(n).rail_alive(0));  // the clean rail is fine
  }
  // The dead rail shows up in the operator dump with its epoch.
  const std::string dump = dump_core(cluster.core(0));
  EXPECT_NE(dump.find("health="), std::string::npos) << dump;

  step_until(cluster, 2800.0);  // blackout over; probes revive the rail
  for (simnet::NodeId n = 0; n < 2; ++n) {
    EXPECT_TRUE(cluster.core(n).rail_alive(1)) << "node " << n;
    EXPECT_EQ(cluster.core(n).rail_health_state(1), RailHealth::kAlive);
    EXPECT_GE(cluster.core(n).stats().probes_sent, 1u);
    EXPECT_GE(cluster.core(n).stats().rails_revived, 1u);
  }
  settle(cluster);
}

// The satellite regression: a rail dies while a rendezvous bulk transfer
// is mid-flight, its slices are re-elected onto the surviving rail, the
// rail revives afterwards, and the oracle confirms exactly-once delivery.
TEST(RailLifecycle, RendezvousBulkSurvivesRailFlapExactlyOnce) {
  api::ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(),
                   rail_with_blackout(50.0, 700.0)};
  options.core = health_config();
  api::Cluster cluster(std::move(options));
  harness::ProtocolOracle oracle;

  const size_t big = 256 * 1024;
  std::vector<std::byte> out(big), in(big, std::byte{0xEE});
  util::fill_pattern({out.data(), big}, 42);

  const size_t ri = oracle.recv_posted(1, 0, 7, {in.data(), big});
  Request* recv = cluster.core(1).irecv(cluster.gate(1, 0), Tag(7),
                                        util::MutableBytes{in.data(), big});
  recv->set_on_complete([&] {
    oracle.recv_completed(
        1, 0, 7, ri, recv->status(),
        static_cast<RecvRequest*>(recv)->received_bytes());
  });
  const size_t si = oracle.send_posted(0, 1, 7, {out.data(), big});
  Request* send = cluster.core(0).isend(cluster.gate(0, 1), Tag(7),
                                        util::ConstBytes{out.data(), big});
  send->set_on_complete(
      [&] { oracle.send_completed(0, 1, 7, si, send->status()); });

  // The blackout darkens rail 1 almost immediately, so part of the bulk
  // is granted to a rail that dies under it. Pump well past the window
  // so the probation handshake also completes.
  step_until(cluster, 8000.0);
  ASSERT_TRUE(send->done());
  ASSERT_TRUE(recv->done());
  EXPECT_TRUE(send->status().is_ok()) << send->status().to_string();
  EXPECT_TRUE(recv->status().is_ok()) << recv->status().to_string();
  EXPECT_TRUE(util::check_pattern({in.data(), big}, 42));

  // Both engines saw the death and the revival.
  for (simnet::NodeId n = 0; n < 2; ++n) {
    EXPECT_GE(cluster.core(n).stats().rails_failed, 1u) << "node " << n;
    EXPECT_GE(cluster.core(n).stats().rails_revived, 1u) << "node " << n;
    EXPECT_TRUE(cluster.core(n).rail_alive(1)) << "node " << n;
  }

  cluster.core(0).release(send);
  cluster.core(1).release(recv);
  oracle.finalize(cluster.cores(), /*allow_gate_failures=*/false);
  EXPECT_TRUE(oracle.ok()) << (oracle.violations().empty()
                                   ? ""
                                   : oracle.violations().front());
  settle(cluster);
}

TEST(RailLifecycle, OperationalKillSelfHealsThroughProbation) {
  api::ClusterOptions options;
  options.rails = {simnet::mx_myri10g_profile(), simnet::mx_myri10g_profile()};
  options.core = health_config();
  api::Cluster cluster(std::move(options));

  step_until(cluster, 500.0);
  cluster.core(0).fail_rail(1);
  EXPECT_FALSE(cluster.core(0).rail_alive(1));
  EXPECT_EQ(cluster.core(0).rail_epoch(1), 1u);

  // The link itself is healthy, so the probe/probation handshake brings
  // the operationally-killed rail straight back.
  step_until(cluster, 2000.0);
  EXPECT_TRUE(cluster.core(0).rail_alive(1));
  EXPECT_EQ(cluster.core(0).rail_health_state(1), RailHealth::kAlive);
  EXPECT_GE(cluster.core(0).stats().rails_revived, 1u);

  // revive_rail is the manual mirror of the same transition.
  cluster.core(0).fail_rail(1);
  EXPECT_EQ(cluster.core(0).rail_epoch(1), 2u);
  cluster.core(0).revive_rail(1);
  EXPECT_TRUE(cluster.core(0).rail_alive(1));
  settle(cluster);
}

TEST(RailLifecycle, DrainFlushesLoadedFourRankCluster) {
  api::ClusterOptions options;
  options.nodes = 4;
  options.rails = {simnet::mx_myri10g_profile(), simnet::mx_myri10g_profile()};
  options.core = health_config();
  api::Cluster cluster(std::move(options));

  // Full mesh: every ordered pair exchanges one rendezvous block and a
  // couple of eager messages, all posted before anything drains.
  struct Xfer {
    std::vector<std::byte> out, in;
    Request* send = nullptr;
    Request* recv = nullptr;
    int src = 0, dst = 0;
  };
  std::vector<Xfer> xfers;
  const size_t sizes[] = {1024, 3000, 96 * 1024};
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      for (size_t s = 0; s < 3; ++s) {
        Xfer x;
        x.src = src;
        x.dst = dst;
        x.out.resize(sizes[s]);
        x.in.assign(sizes[s], std::byte{0});
        util::fill_pattern({x.out.data(), x.out.size()},
                           static_cast<uint64_t>(src * 16 + dst * 4 + s));
        x.recv = cluster.core(dst).irecv(
            cluster.gate(dst, src), Tag(s),
            util::MutableBytes{x.in.data(), x.in.size()});
        xfers.push_back(std::move(x));
      }
    }
  }
  for (Xfer& x : xfers) {
    const size_t s = x.out.size() == 1024 ? 0 : x.out.size() == 3000 ? 1 : 2;
    x.send = cluster.core(x.src).isend(
        cluster.gate(x.src, x.dst), Tag(s),
        util::ConstBytes{x.out.data(), x.out.size()});
  }

  // Drain every engine under load; each drain pumps the shared loop, so
  // later drains find progressively less left to flush.
  for (simnet::NodeId n = 0; n < 4; ++n) {
    const util::Status st = cluster.core(n).drain(1.0e6);
    EXPECT_TRUE(st.is_ok()) << "node " << n << ": " << st.to_string();
    EXPECT_TRUE(cluster.core(n).drained());
    EXPECT_GE(cluster.core(n).stats().drains_completed, 1u);
    // No packet is still on the wire holding its chunk.
    EXPECT_EQ(cluster.core(n).alloc_stats().chunk_pool_live, 0u)
        << "node " << n;
  }
  for (Xfer& x : xfers) {
    ASSERT_TRUE(x.send->done() && x.recv->done());
    EXPECT_TRUE(x.send->status().is_ok());
    EXPECT_TRUE(x.recv->status().is_ok());
    EXPECT_TRUE(util::check_pattern(
        {x.in.data(), x.in.size()},
        static_cast<uint64_t>(x.src * 16 + x.dst * 4 +
                              (x.in.size() == 1024       ? 0
                               : x.in.size() == 3000 ? 1
                                                     : 2))));
    cluster.core(x.src).release(x.send);
    cluster.core(x.dst).release(x.recv);
  }
  settle(cluster);
}

TEST(RailLifecycle, DrainDeadlineExceedsInsteadOfHanging) {
  api::ClusterOptions options;
  options.nodes = 2;
  CoreConfig cfg;
  cfg.reliability = true;
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  options.core = cfg;
  api::Cluster cluster(std::move(options));

  // A rendezvous send whose receive is never posted cannot flush: the
  // RTS waits for a CTS that will not come.
  const size_t big = 128 * 1024;
  std::vector<std::byte> out(big);
  util::fill_pattern({out.data(), big}, 9);
  Request* send = cluster.core(0).isend(cluster.gate(0, 1), Tag(3),
                                        util::ConstBytes{out.data(), big});

  util::Status st = cluster.core(0).drain(5000.0);
  EXPECT_EQ(st.code(), util::StatusCode::kDeadlineExceeded)
      << st.to_string();
  EXPECT_FALSE(cluster.core(0).drained());

  // The engine stays fully usable: post the receive, and the next drain
  // flushes clean.
  std::vector<std::byte> in(big, std::byte{0});
  Request* recv = cluster.core(1).irecv(cluster.gate(1, 0), Tag(3),
                                        util::MutableBytes{in.data(), big});
  st = cluster.core(0).drain(1.0e6);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_TRUE(send->done());
  EXPECT_TRUE(recv->done());
  EXPECT_TRUE(util::check_pattern({in.data(), big}, 9));
  cluster.core(0).release(send);
  cluster.core(1).release(recv);
}

TEST(RailLifecycle, CloseGateCancelsReceivesWithoutFailingStats) {
  api::Cluster cluster;
  std::vector<std::byte> in(512, std::byte{0});
  Request* recv = cluster.core(1).irecv(cluster.gate(1, 0), Tag(1),
                                        util::MutableBytes{in.data(), 512});
  cluster.core(1).close_gate(cluster.gate(1, 0));
  ASSERT_TRUE(recv->done());
  EXPECT_EQ(recv->status().code(), util::StatusCode::kClosed);
  EXPECT_EQ(cluster.core(1).stats().gates_closed, 1u);
  EXPECT_EQ(cluster.core(1).stats().gates_failed, 0u);

  // The closed gate refuses new traffic immediately.
  std::vector<std::byte> out(64);
  Request* send = cluster.core(1).isend(cluster.gate(1, 0), Tag(2),
                                        util::ConstBytes{out.data(), 64});
  ASSERT_TRUE(send->done());
  EXPECT_FALSE(send->status().is_ok());
  cluster.core(1).release(recv);
  cluster.core(1).release(send);
}

}  // namespace
}  // namespace nmad::core

namespace nmad::mpi {
namespace {

TEST(RailLifecycle, FinalizeDrainsInsteadOfAbandoning) {
  // Reliability gives finalize an ack floor to wait on: drain returning
  // ok then implies the peer heard every packet, not just that the local
  // DMA engines went quiet.
  api::ClusterOptions options;
  options.core.reliability = true;
  options.core.ack_timeout_us = 200.0;
  options.core.ack_delay_us = 5.0;
  MadMpiWorld world(std::move(options));
  Endpoint& a = world.ep(0);
  Endpoint& b = world.ep(1);

  const int n = 16 * 1024;
  std::vector<char> out(n, 'x'), in(n, 0);
  Request* recv = b.irecv(in.data(), n, Datatype::byte_type(), 0, 5, kCommWorld);
  Request* send = a.isend(out.data(), n, Datatype::byte_type(), 1, 5, kCommWorld);

  // Finalize flushes the in-flight traffic instead of abandoning it.
  EXPECT_TRUE(a.finalize(1.0e6).is_ok());
  EXPECT_TRUE(send->done());
  EXPECT_TRUE(recv->done());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), n), 0);
  a.free_request(send);
  b.free_request(recv);

  // Nothing left in flight: finalize is idempotent and cheap.
  EXPECT_TRUE(a.finalize().is_ok());
  EXPECT_TRUE(b.finalize().is_ok());
}

}  // namespace
}  // namespace nmad::mpi
