// Scale smoke tier (ctest label `scale`).
//
// The calendar-queue scheduler, O(1) peer/gate lookup, and lazy gate
// opening exist so one SimWorld can carry thousands of ranks; these tests
// prove it end to end under the delivery oracle — exactly-once
// completion, payload checksums, and the quiescence audit — at sizes the
// old heap/linear-scan core could not reach:
//
//   - a 1024-rank alltoall exchange (hypercube/recursive-doubling: every
//     rank exchanges with rank^2^r over log2(N) rounds, the standard
//     O(N log N)-pair realization of alltoall at scale);
//   - a 10k-flow incast: 64 senders funnel ~157 eager flows each onto a
//     single receiver.
//
// Both run with the default engine config (no flow control/reliability:
// the fabric is lossless here and the point is scheduler scale, not
// protocol recovery) on a lazy-mesh cluster — a 1k-rank full mesh would
// construct ~1M gates before the first event fires.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/oracle.hpp"
#include "nmad/api/session.hpp"
#include "util/buffer.hpp"

namespace nmad::core {
namespace {

using api::Cluster;
using api::ClusterOptions;
using harness::ProtocolOracle;

TEST(Scale, Alltoall1024RanksHypercube) {
  constexpr size_t kRanks = 1024;
  constexpr size_t kRounds = 10;  // log2(kRanks)
  constexpr size_t kBytes = 2048;

  ClusterOptions options;
  options.nodes = kRanks;
  options.full_mesh = false;
  Cluster cluster(std::move(options));
  ProtocolOracle oracle;

  for (size_t round = 0; round < kRounds; ++round) {
    const simnet::NodeId bit = simnet::NodeId{1} << round;
    for (simnet::NodeId r = 0; r < kRanks; ++r) {
      if (r < (r ^ bit)) cluster.ensure_gate(r, r ^ bit);
    }

    struct Exchange {
      std::vector<std::byte> out;
      std::vector<std::byte> in;
      SendRequest* send = nullptr;
      RecvRequest* recv = nullptr;
      size_t send_idx = 0;
      size_t recv_idx = 0;
    };
    std::vector<Exchange> xs(kRanks);
    std::vector<Request*> reqs;
    reqs.reserve(kRanks * 2);
    const Tag tag = round;

    for (simnet::NodeId r = 0; r < kRanks; ++r) {
      const simnet::NodeId partner = r ^ bit;
      Exchange& x = xs[r];
      x.out.resize(kBytes);
      x.in.resize(kBytes);
      util::fill_pattern({x.out.data(), kBytes}, (round << 32) | r);
      x.recv_idx = oracle.recv_posted(static_cast<int>(r),
                                      static_cast<int>(partner), tag,
                                      util::ConstBytes{x.in.data(), kBytes});
      x.recv = cluster.core(r).irecv(cluster.gate(r, partner), tag,
                                     util::MutableBytes{x.in.data(), kBytes});
      x.send_idx = oracle.send_posted(static_cast<int>(r),
                                      static_cast<int>(partner), tag,
                                      util::ConstBytes{x.out.data(), kBytes});
      x.send = cluster.core(r).isend(cluster.gate(r, partner), tag,
                                     util::ConstBytes{x.out.data(), kBytes});
      reqs.push_back(x.recv);
      reqs.push_back(x.send);
    }
    cluster.wait_all(reqs);
    for (simnet::NodeId r = 0; r < kRanks; ++r) {
      const simnet::NodeId partner = r ^ bit;
      Exchange& x = xs[r];
      oracle.send_completed(static_cast<int>(r), static_cast<int>(partner),
                            tag, x.send_idx, x.send->status());
      oracle.recv_completed(static_cast<int>(r), static_cast<int>(partner),
                            tag, x.recv_idx, x.recv->status(),
                            x.recv->received_bytes());
      EXPECT_TRUE(util::check_pattern({x.in.data(), kBytes},
                                      (Tag(round) << 32) | partner));
      cluster.core(r).release(x.send);
      cluster.core(r).release(x.recv);
    }
  }

  cluster.world().run_to_quiescence();
  oracle.finalize(cluster.cores());
  EXPECT_TRUE(oracle.ok()) << (oracle.violations().empty()
                                   ? ""
                                   : oracle.violations().front());
  EXPECT_EQ(oracle.sends_tracked(), kRanks * kRounds);
  EXPECT_EQ(oracle.recvs_tracked(), kRanks * kRounds);
}

TEST(Scale, Incast10kFlowsOntoOneReceiver) {
  constexpr size_t kSenders = 64;
  constexpr size_t kFlowsPerSender = 157;  // 64 * 157 = 10048 flows
  constexpr size_t kBytes = 512;

  ClusterOptions options;
  options.nodes = kSenders + 1;  // node 0 is the sink
  options.full_mesh = false;
  Cluster cluster(std::move(options));
  ProtocolOracle oracle;
  for (simnet::NodeId s = 1; s <= kSenders; ++s) cluster.ensure_gate(s, 0);

  struct Flow {
    std::vector<std::byte> out;
    std::vector<std::byte> in;
    SendRequest* send = nullptr;
    RecvRequest* recv = nullptr;
    size_t send_idx = 0;
    size_t recv_idx = 0;
    simnet::NodeId src = 0;
    Tag tag = 0;
  };
  std::vector<Flow> flows;
  flows.reserve(kSenders * kFlowsPerSender);
  std::vector<Request*> reqs;
  reqs.reserve(kSenders * kFlowsPerSender * 2);

  // All receives first: the sink is ready, the pressure is pure arrival
  // rate — the incast shape.
  for (simnet::NodeId s = 1; s <= kSenders; ++s) {
    for (size_t k = 0; k < kFlowsPerSender; ++k) {
      Flow f;
      f.src = s;
      f.tag = (Tag(s) << 32) | k;
      f.out.resize(kBytes);
      f.in.resize(kBytes);
      util::fill_pattern({f.out.data(), kBytes}, f.tag);
      flows.push_back(std::move(f));
    }
  }
  for (Flow& f : flows) {
    f.recv_idx =
        oracle.recv_posted(0, static_cast<int>(f.src), f.tag,
                           util::ConstBytes{f.in.data(), kBytes});
    f.recv = cluster.core(0).irecv(cluster.gate(0, f.src), f.tag,
                                   util::MutableBytes{f.in.data(), kBytes});
    reqs.push_back(f.recv);
  }
  for (Flow& f : flows) {
    f.send_idx =
        oracle.send_posted(static_cast<int>(f.src), 0, f.tag,
                           util::ConstBytes{f.out.data(), kBytes});
    f.send = cluster.core(f.src).isend(cluster.gate(f.src, 0), f.tag,
                                       util::ConstBytes{f.out.data(), kBytes});
    reqs.push_back(f.send);
  }

  cluster.wait_all(reqs);
  for (Flow& f : flows) {
    oracle.send_completed(static_cast<int>(f.src), 0, f.tag, f.send_idx,
                          f.send->status());
    oracle.recv_completed(0, static_cast<int>(f.src), f.tag, f.recv_idx,
                          f.recv->status(), f.recv->received_bytes());
    EXPECT_TRUE(util::check_pattern({f.in.data(), kBytes}, f.tag));
    cluster.core(f.src).release(f.send);
    cluster.core(0).release(f.recv);
  }

  cluster.world().run_to_quiescence();
  oracle.finalize(cluster.cores());
  EXPECT_TRUE(oracle.ok()) << (oracle.violations().empty()
                                   ? ""
                                   : oracle.violations().front());
  EXPECT_EQ(oracle.sends_tracked(), kSenders * kFlowsPerSender);
  // The sink heard every flow exactly once.
  EXPECT_EQ(cluster.core(0).stats().recvs_submitted,
            kSenders * kFlowsPerSender);
}

}  // namespace
}  // namespace nmad::core
