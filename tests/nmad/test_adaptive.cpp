// Gray-failure detection and closed-loop adaptive rail election: a rail
// that keeps beaconing while silently dropping frames must be caught by
// the score pipeline (not the silence monitor), the degraded state
// machine must not flap while the loss EWMA oscillates around its
// threshold, mid-transfer re-election must stay exactly-once under the
// protocol oracle, idle rails must accumulate latency samples from RTT
// probes, and the tail claim itself — adaptive election beats static
// spray at p999 when one rail degrades but never goes silent.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "harness/oracle.hpp"
#include "nmad/api/session.hpp"
#include "nmad/core/transfer_engine.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"
#include "util/stats.hpp"

namespace nmad::core {
namespace {

// The gray-failure tuning: silence thresholds far beyond anything the
// fault shapes produce (the rail must stay officially "alive" — only the
// score pipeline may catch it), spray on so election has stripes to
// re-home, rendezvous at 4K so 64K bodies fragment.
CoreConfig adaptive_config() {
  CoreConfig c;
  c.adaptive = true;  // implies rail_health, which implies reliability
  c.ack_timeout_us = 200.0;
  c.ack_delay_us = 5.0;
  c.rail_dead_after = 0;
  c.max_retries = 20;
  c.heartbeat_interval_us = 50.0;
  c.suspect_after_us = 400.0;
  c.dead_after_us = 2000.0;
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

void settle(api::Cluster& cluster) {
  for (simnet::NodeId n = 0; n < cluster.node_count(); ++n) {
    cluster.core(n).stop_health_monitors();
  }
  while (cluster.world().run_one()) {
  }
}

// One verified 64K pingpong round, node 0 <-> node 1.
void pingpong_round(api::Cluster& cluster, int i, size_t bytes) {
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);
  std::vector<std::byte> out(bytes), in(bytes, std::byte{0xEE});
  util::fill_pattern({out.data(), bytes}, 30 + i);
  auto* recv = b.irecv(cluster.gate(1, 0), Tag(i),
                       util::MutableBytes{in.data(), bytes});
  auto* send =
      a.isend(cluster.gate(0, 1), Tag(i), util::ConstBytes{out.data(), bytes});
  cluster.wait(recv);
  cluster.wait(send);
  EXPECT_TRUE(recv->status().is_ok()) << recv->status().to_string();
  EXPECT_EQ(std::memcmp(in.data(), out.data(), bytes), 0)
      << "payload mismatch on round " << i;
  a.release(send);
  b.release(recv);
}

TEST(Adaptive, DetectsGrayRailWhileBeaconing) {
  // Rail 1 silently drops 8% of frames but beacons on time, so the
  // silence monitor never fires: the loss EWMA alone must push the rail
  // into kDegraded, and quickly — within a handful of ack timeouts.
  simnet::FaultProfile gray;
  gray.frame_drop_prob = 0.08;
  gray.seed = 0x6E47;
  api::Cluster cluster(two_rail_options(adaptive_config(), {}, gray));
  Core& a = cluster.core(0);

  double degraded_at = -1.0;
  for (int i = 0; i < 40; ++i) {
    pingpong_round(cluster, i, 64 * 1024);
    if (degraded_at < 0.0 &&
        a.rail_health_state(1) == RailHealth::kDegraded) {
      degraded_at = cluster.now();
    }
  }
  settle(cluster);

  EXPECT_GE(degraded_at, 0.0) << "gray rail was never marked degraded";
  EXPECT_LT(degraded_at, 20000.0)
      << "detection took " << degraded_at << "us of traffic";
  EXPECT_GE(a.stats().rails_degraded, 1u);
  // Detection came from the score pipeline, not from beacon silence:
  // the rail never looked suspect, let alone dead.
  EXPECT_EQ(a.stats().rails_suspected, 0u);
  EXPECT_EQ(a.stats().rails_failed, 0u);
  EXPECT_GT(a.transfer_rail(1).score_loss(), 0.0);
}

TEST(Adaptive, HysteresisPreventsDegradedFlapping) {
  // Under persistent loss the EWMA oscillates around the enter threshold
  // with every delivery/timeout sample; the sustain window, exit band and
  // minimum dwell must fold that into one (rarely two) clean entries
  // instead of a flap per sample.
  simnet::FaultProfile gray;
  gray.frame_drop_prob = 0.08;
  gray.seed = 0x1234;
  api::Cluster cluster(two_rail_options(adaptive_config(), {}, gray));

  for (int i = 0; i < 40; ++i) {
    pingpong_round(cluster, i, 64 * 1024);
  }
  const auto& rail1 =
      static_cast<const TransferEngine&>(cluster.core(0).transfer_rail(1));
  const uint32_t entries = rail1.degraded_entries();
  settle(cluster);

  EXPECT_GE(entries, 1u) << "gray rail was never marked degraded";
  EXPECT_LE(entries, 2u) << "degraded state flapped " << entries
                         << " times under steady loss";
}

TEST(Adaptive, MidTransferReElectionStaysExactlyOnce) {
  // Large sprayed bodies are in flight when the degraded transition
  // lands, so stripes get re-elected onto the healthy rail mid-transfer;
  // the oracle audits that every message still delivers exactly once and
  // every payload survives byte-for-byte.
  simnet::FaultProfile gray;
  gray.frame_drop_prob = 0.08;
  gray.seed = 0x6E47;
  api::Cluster cluster(two_rail_options(adaptive_config(), {}, gray));
  harness::ProtocolOracle oracle;
  Core& a = cluster.core(0);
  Core& b = cluster.core(1);
  const size_t bytes = 256 * 1024;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::byte> out(bytes), in(bytes, std::byte{0xEE});
    util::fill_pattern({out.data(), bytes}, 60 + i);
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
    EXPECT_EQ(std::memcmp(in.data(), out.data(), bytes), 0)
        << "payload mismatch on message " << i;
    a.release(send);
    b.release(recv);
  }
  settle(cluster);
  oracle.finalize(cluster.cores());
  EXPECT_TRUE(oracle.ok());
  for (const std::string& v : oracle.violations()) ADD_FAILURE() << v;

  const CoreStats& tx = a.stats();
  EXPECT_GE(tx.rails_degraded, 1u);
  // The closed loop actually acted: in-flight stripes were re-issued off
  // the degraded rail and/or new stripe sets evicted it.
  EXPECT_GT(tx.degraded_reissues + tx.degraded_evictions, 0u);
  EXPECT_EQ(cluster.core(1).stats().spray_reassembled, 8u);
}

TEST(Adaptive, IdleRailAccumulatesRttProbeSamples) {
  // With no faults and all traffic eager on a quiet cluster, the rails
  // sit idle — yet election needs latency data for them. The alive-rail
  // RTT probes must keep the per-rail digest fed.
  CoreConfig cfg = adaptive_config();
  api::Cluster cluster(two_rail_options(cfg));
  // Establish gates with a little traffic, then let the world idle on
  // heartbeats and probes alone for a few milliseconds of virtual time.
  pingpong_round(cluster, 0, 1024);
  const double until = cluster.now() + 3000.0;
  cluster.world().run_until([&] { return cluster.now() >= until; });
  const CoreStats& st = cluster.core(0).stats();
  const auto& rail1 =
      static_cast<const TransferEngine&>(cluster.core(0).transfer_rail(1));
  const uint64_t samples = st.probe_rtt_samples;
  const size_t digest_count = rail1.latency_digest().count();
  settle(cluster);

  EXPECT_GT(samples, 0u) << "no probe RTTs were harvested on idle rails";
  EXPECT_GT(digest_count, 0u)
      << "idle rail 1 accumulated no latency samples";
}

// The tail claim: closed-loop adaptive election beats static spray at
// p999 when one rail degrades to 5% persistent frame loss but keeps
// beaconing. Static spray keeps striping onto the lossy rail and eats
// the ack-timeout retry ladder on every dropped fragment; adaptive
// election marks the rail degraded from its loss score, re-homes the
// in-flight stripes and elects healthy-only stripe sets until the rail
// recovers. Identical traffic, faults and health tuning on both sides —
// only CoreConfig::adaptive differs.
TEST(Adaptive, BeatsStaticSprayAtP999UnderGrayLoss) {
  const size_t bytes = 64 * 1024;
  const int rounds = 120;
  auto run = [&](bool adaptive) {
    CoreConfig cfg = adaptive_config();
    cfg.adaptive = adaptive;
    cfg.rail_health = true;  // static side keeps the silence monitor
    simnet::FaultProfile gray;
    gray.frame_drop_prob = 0.05;
    gray.seed = 0x6E47;
    api::Cluster cluster(two_rail_options(cfg, {}, gray));
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

  const util::QuantileDigest adaptive = run(true);
  const util::QuantileDigest fixed = run(false);
  EXPECT_LT(adaptive.p999(), fixed.p999())
      << "adaptive p999 " << adaptive.p999() << "us vs static p999 "
      << fixed.p999() << "us";
  EXPECT_LT(adaptive.mean(), fixed.mean())
      << "adaptive mean " << adaptive.mean() << "us vs static mean "
      << fixed.mean() << "us";
}

}  // namespace
}  // namespace nmad::core
