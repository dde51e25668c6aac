// Per-packet multipath spray: reorder-tolerant reassembly (out-of-order
// fragments, duplicate suppression, gap-fill after loss), microsecond
// failover when a rail turns suspect mid-spray, exactly-once delivery
// under the protocol oracle through repeated rail death/revival, and the
// tail claim itself — spraying beats the per-segment split strategy at
// p999 when a rail is flapping.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "harness/oracle.hpp"
#include "nmad/api/session.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"
#include "util/stats.hpp"

namespace nmad::core {
namespace {

// The rail-flap health tuning the lifecycle tests use, plus the spray
// path: rendezvous-class bodies cut into 8K fragments striped over every
// alive rail.
CoreConfig spray_config() {
  CoreConfig c;
  c.rail_health = true;  // implies reliability
  c.ack_timeout_us = 200.0;
  c.ack_delay_us = 5.0;
  c.rail_dead_after = 0;
  c.max_retries = 20;
  c.heartbeat_interval_us = 50.0;
  c.suspect_after_us = 150.0;
  c.dead_after_us = 300.0;
  c.probe_interval_us = 100.0;
  c.probation_replies = 2;
  c.spray = true;
  c.rdv_threshold_override = 4096;
  return c;
}

api::ClusterOptions two_rail_options(CoreConfig cfg,
                                     simnet::FaultProfile rail0_fault = {},
                                     simnet::FaultProfile rail1_fault = {}) {
  api::ClusterOptions options;
  options.nodes = 2;
  simnet::NicProfile rail0 = simnet::mx_myri10g_profile();
  simnet::NicProfile rail1 = rail0;
  rail0.fault = std::move(rail0_fault);
  rail1.fault = std::move(rail1_fault);
  options.rails = {rail0, rail1};
  options.core = cfg;
  return options;
}

// Disarms the health monitors and pumps the world dry so no beacon or
// in-flight packet outlives its pool at teardown.
void settle(api::Cluster& cluster) {
  for (simnet::NodeId n = 0; n < cluster.node_count(); ++n) {
    cluster.core(n).stop_health_monitors();
  }
  while (cluster.world().run_one()) {
  }
}

// Sends `count` messages of `bytes` node 0 -> node 1 one at a time, every
// payload verified byte-for-byte and every operation shadowed by the
// delivery oracle. Finalizes the oracle (exactly-once + invariants) after
// settling.
void exchange_under_oracle(api::Cluster& cluster, int count, size_t bytes) {
  harness::ProtocolOracle oracle;
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);
  for (int i = 0; i < count; ++i) {
    std::vector<std::byte> out(bytes), in(bytes, std::byte{0xEE});
    util::fill_pattern({out.data(), bytes}, 30 + i);
    const uint64_t tag = static_cast<uint64_t>(i);
    const size_t ri =
        oracle.recv_posted(1, 0, tag, util::ConstBytes{in.data(), bytes});
    const size_t si =
        oracle.send_posted(0, 1, tag, util::ConstBytes{out.data(), bytes});
    auto* recv = b.irecv(cluster.gate(1, 0), Tag(tag),
                         util::MutableBytes{in.data(), bytes});
    auto* send =
        a.isend(cluster.gate(0, 1), Tag(tag), util::ConstBytes{out.data(), bytes});
    cluster.wait(recv);
    cluster.wait(send);
    oracle.recv_completed(1, 0, tag, ri, recv->status(),
                          recv->received_bytes());
    oracle.send_completed(0, 1, tag, si, send->status());
    EXPECT_TRUE(recv->status().is_ok()) << recv->status().to_string();
    EXPECT_EQ(std::memcmp(in.data(), out.data(), bytes), 0)
        << "payload mismatch on message " << i;
    a.release(send);
    b.release(recv);
  }
  settle(cluster);
  oracle.finalize(cluster.cores());
  EXPECT_TRUE(oracle.ok());
  for (const std::string& v : oracle.violations()) ADD_FAILURE() << v;
}

TEST(Spray, ReassemblesOutOfOrderFragments) {
  // Heavy per-frame jitter on both rails: fragments routinely overtake
  // each other inside a rail on top of the cross-rail interleaving, so
  // the coverage map sees arbitrary arrival order.
  simnet::FaultProfile reorder;
  reorder.reorder_prob = 0.6;
  reorder.jitter_max_us = 60.0;
  reorder.seed = 11;
  api::Cluster cluster(two_rail_options(spray_config(), reorder, reorder));
  exchange_under_oracle(cluster, 6, 64 * 1024);

  const CoreStats& rx = cluster.core(1).stats();
  EXPECT_EQ(rx.spray_reassembled, 6u);
  EXPECT_GE(rx.spray_frags_rx, 6u * 8u);  // 64K in 8K fragments
  EXPECT_EQ(cluster.core(0).stats().spray_sends, 6u);
}

TEST(Spray, SuppressesDuplicateFragments) {
  // A duplicate the reliability layer cannot catch: a fragment crosses
  // rail 1 and is applied, a blackout then silences the rail before its
  // ack (jitter-delayed on rail 0) retires it, the sender turns the rail
  // suspect and re-issues the fragment on rail 0 under a fresh packet
  // seq — so the copy sails past packet-level dedup and the reassembly
  // coverage map is the only thing standing between it and double-write.
  simnet::FaultProfile ack_jitter;
  ack_jitter.reorder_prob = 0.5;
  ack_jitter.jitter_max_us = 400.0;
  ack_jitter.seed = 7;
  simnet::FaultProfile winking;
  for (int i = 0; i < 100; ++i) {
    const double begin = 150.0 + 600.0 * i;
    winking.blackouts.push_back({begin, begin + 180.0});
  }
  api::Cluster cluster(
      two_rail_options(spray_config(), ack_jitter, winking));
  exchange_under_oracle(cluster, 6, 256 * 1024);

  const CoreStats& rx = cluster.core(1).stats();
  EXPECT_EQ(rx.spray_reassembled, 6u);
  EXPECT_GT(rx.spray_frag_dups, 0u)
      << "fault schedule produced no in-flight duplicates (late="
      << rx.spray_frags_late << " fenced=" << rx.spray_frags_fenced
      << "); the test lost its bite";
}

TEST(Spray, FailoverReissuesFragmentsFromSuspectRail) {
  // Rail 1 is dark from the start: the fragments sprayed onto it vanish,
  // the heartbeat monitor turns the rail suspect at 150us, and the
  // scheduler re-issues the in-flight fragments on rail 0 — gap-fill,
  // without waiting for full death or per-packet retry exhaustion.
  simnet::FaultProfile dark;
  dark.blackouts = {{0.0, 2000.0}};
  api::Cluster cluster(two_rail_options(spray_config(), {}, dark));
  exchange_under_oracle(cluster, 1, 256 * 1024);

  const CoreStats& tx = cluster.core(0).stats();
  const CoreStats& rx = cluster.core(1).stats();
  EXPECT_GT(tx.spray_reissues, 0u);
  EXPECT_EQ(rx.spray_reassembled, 1u);
  // The failover latency digest saw every re-issue, at microsecond scale.
  EXPECT_EQ(tx.spray_reissue_latency_us.count(), tx.spray_reissues);
  EXPECT_LT(tx.spray_reissue_latency_us.max(), 1000.0);
}

TEST(Spray, ExactlyOnceThroughRepeatedRailFlap) {
  // Twenty rendezvous messages across a rail that dies and revives every
  // millisecond: sprayed fragments keep landing on a rail that is alive,
  // suspect, dead, or in probation depending on the instant, and every
  // message must still reassemble exactly once.
  simnet::FaultProfile flappy;
  for (int i = 0; i < 40; ++i) {
    const double begin = 200.0 + 1000.0 * i;
    flappy.blackouts.push_back({begin, begin + 400.0});
  }
  api::Cluster cluster(two_rail_options(spray_config(), {}, flappy));
  exchange_under_oracle(cluster, 20, 64 * 1024);

  const CoreStats& rx = cluster.core(1).stats();
  EXPECT_EQ(rx.spray_reassembled, 20u);
  EXPECT_EQ(cluster.core(0).stats().spray_sends, 20u);
}

// The tail claim: per-packet spraying beats the per-segment split
// strategy at p999 under a flapping rail. Spray re-issues in-flight
// fragments the moment the rail turns *suspect* (150us of silence);
// split waits for rail *death* (300us) or the ack-timeout retry ladder
// before its half of the body moves — so every blackout-hit round costs
// split the difference. Both sides run identical traffic, faults and
// health tuning; only the body scheduling differs.
TEST(Spray, BeatsSplitAtP999UnderRailFlap) {
  const size_t bytes = 64 * 1024;
  const int rounds = 150;
  auto run = [&](bool spray) {
    CoreConfig cfg = spray_config();
    // Conservative retry timer on both sides: recovery must come from
    // the health machinery, not from hammering retransmissions.
    cfg.ack_timeout_us = 500.0;
    if (!spray) {
      cfg.spray = false;
      cfg.strategy = "split_balance";
    }
    simnet::FaultProfile flappy;
    for (int i = 0; i < 400; ++i) {
      const double begin = 1000.0 + 1500.0 * i;
      flappy.blackouts.push_back({begin, begin + 400.0});
    }
    api::Cluster cluster(two_rail_options(cfg, {}, flappy));
    Core& a = cluster.core(0);
    Core& b = cluster.core(1);
    std::vector<std::byte> out(bytes), in(bytes), echo(bytes);
    util::fill_pattern({out.data(), bytes}, 3);
    util::QuantileDigest digest;
    for (int i = 0; i < rounds; ++i) {
      const double t0 = cluster.now();
      auto* rb = b.irecv(cluster.gate(1, 0), Tag(i),
                         util::MutableBytes{in.data(), bytes});
      auto* sa = a.isend(cluster.gate(0, 1), Tag(i),
                         util::ConstBytes{out.data(), bytes});
      cluster.wait(rb);
      auto* ra = a.irecv(cluster.gate(0, 1), Tag(1000 + i),
                         util::MutableBytes{echo.data(), bytes});
      auto* sb = b.isend(cluster.gate(1, 0), Tag(1000 + i),
                         util::ConstBytes{in.data(), bytes});
      cluster.wait(ra);
      cluster.wait(sa);
      cluster.wait(sb);
      a.release(sa);
      a.release(ra);
      b.release(rb);
      b.release(sb);
      digest.add(cluster.now() - t0);
    }
    settle(cluster);
    return digest;
  };

  const util::QuantileDigest spray = run(true);
  const util::QuantileDigest split = run(false);
  EXPECT_LT(spray.p999(), split.p999())
      << "spray p999 " << spray.p999() << "us vs split p999 "
      << split.p999() << "us";
  EXPECT_LT(spray.max(), split.max());
}

}  // namespace
}  // namespace nmad::core
