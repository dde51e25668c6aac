// Strategy unit tests: election behaviour on hand-built windows.
//
// The window is intrusive and non-owning, so the fixture owns the chunks
// and jobs the tests link into a real gate, and unlinks leftovers in
// TearDown while they are still alive.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "nmad/api/session.hpp"
#include "nmad/core/core.hpp"
#include "nmad/core/strategy.hpp"
#include "nmad/strategies/builtin.hpp"
#include "simnet/profiles.hpp"

namespace nmad::core {
namespace {

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest() : cluster_(options()) {}

  static api::ClusterOptions options() {
    api::ClusterOptions o;
    o.rails = {simnet::mx_myri10g_profile(),
               simnet::elan_quadrics_profile()};
    return o;
  }

  Core& core() { return cluster_.core(0); }
  Gate& gate() { return core().gate(cluster_.gate(0, 1)); }
  const RailInfo& rail(RailIndex r) { return core().rail_info(r); }

  OutChunk& data_chunk(Tag tag, util::ConstBytes payload,
                       Priority prio = Priority::kNormal,
                       RailIndex pinned = kAnyRail) {
    OutChunk& c = chunks_.emplace_back();
    c.kind = ChunkKind::kData;
    c.tag = tag;
    c.seq = 0;
    c.total = static_cast<uint32_t>(payload.size());
    c.payload = payload;
    c.prio = prio;
    if (prio == Priority::kHigh) c.flags |= kFlagPriority;
    c.pinned_rail = pinned;
    return c;
  }

  void TearDown() override {
    gate().sched.window.clear();      // chunks are fixture-owned
    gate().sched.ready_bulk.clear();  // jobs are fixture-owned
  }

  api::Cluster cluster_;
  std::vector<std::byte> buf_ = std::vector<std::byte>(64 * 1024);
  // Deques: linked entries must not move as more are added.
  std::deque<OutChunk> chunks_;
  std::deque<BulkJob> jobs_;
};

TEST_F(StrategyTest, RegistryKnowsBuiltins) {
  ensure_builtin_strategies();
  const auto names = strategy_names();
  for (const char* expected :
       {"default", "aggreg", "aggreg_extended", "split_balance"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(make_strategy("nope"), nullptr);
  auto s = make_strategy("aggreg");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "aggreg");
}

TEST_F(StrategyTest, DefaultPacksExactlyOneChunk) {
  auto strategy = make_strategy("default");
  OutChunk& a = data_chunk(1, {buf_.data(), 100});
  OutChunk& b = data_chunk(2, {buf_.data(), 100});
  gate().sched.window.push_back(a);
  gate().sched.window.push_back(b);

  PacketBuilder builder(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 1u);
  EXPECT_EQ(builder.chunk_count(), 1u);
  EXPECT_EQ(builder.chunks()[0], &a);
  EXPECT_EQ(gate().sched.window.size(), 1u);
}

TEST_F(StrategyTest, AggregTakesEverythingThatFits) {
  auto strategy = make_strategy("aggreg");
  OutChunk& a = data_chunk(1, {buf_.data(), 100});
  OutChunk& b = data_chunk(2, {buf_.data(), 200});
  OutChunk& c = data_chunk(3, {buf_.data(), 300});
  gate().sched.window.push_back(a);
  gate().sched.window.push_back(b);
  gate().sched.window.push_back(c);

  PacketBuilder builder(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 3u);
  EXPECT_TRUE(gate().sched.window.empty());
}

TEST_F(StrategyTest, AggregPutsControlFirst) {
  auto strategy = make_strategy("aggreg");
  OutChunk& a = data_chunk(1, {buf_.data(), 100});
  OutChunk& cts = chunks_.emplace_back();
  cts.kind = ChunkKind::kCts;
  cts.tag = 9;
  cts.cookie = 7;
  cts.cts_rails = {0};
  gate().sched.window.push_back(a);
  gate().sched.window.push_back(cts);  // submitted after the data

  PacketBuilder builder(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 2u);
  // Control is reordered ahead of data (early delivery of control info).
  EXPECT_EQ(builder.chunks()[0], &cts);
  EXPECT_EQ(builder.chunks()[1], &a);
}

TEST_F(StrategyTest, AggregHonoursHighPriorityData) {
  auto strategy = make_strategy("aggreg");
  OutChunk& normal = data_chunk(1, {buf_.data(), 64});
  OutChunk& urgent = data_chunk(2, {buf_.data(), 64}, Priority::kHigh);
  gate().sched.window.push_back(normal);
  gate().sched.window.push_back(urgent);

  PacketBuilder builder(32 * 1024, 0);
  strategy->pack(core().scheduler(), gate(), rail(0), builder);
  EXPECT_EQ(builder.chunks()[0], &urgent);
}

TEST_F(StrategyTest, AggregReordersAroundNonFittingChunk) {
  auto strategy = make_strategy("aggreg");
  // The two-rail gate's aggregation limit is 16K (elan threshold). big
  // almost fills it; mid does not fit after it, but small does: the
  // strategy must skip mid and still take small.
  OutChunk& big = data_chunk(1, {buf_.data(), 14 * 1024});
  OutChunk& mid = data_chunk(2, {buf_.data(), 4 * 1024});
  OutChunk& small = data_chunk(3, {buf_.data(), 512});
  gate().sched.window.push_back(big);
  gate().sched.window.push_back(mid);
  gate().sched.window.push_back(small);

  PacketBuilder builder(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 2u);
  EXPECT_EQ(builder.chunks()[0], &big);
  EXPECT_EQ(builder.chunks()[1], &small);
  EXPECT_EQ(gate().sched.window.size(), 1u);
  EXPECT_EQ(&gate().sched.window.front(), &mid);  // left for the next packet
}

TEST_F(StrategyTest, AggregRespectsRailPinning) {
  auto strategy = make_strategy("aggreg");
  OutChunk& for_rail1 = data_chunk(1, {buf_.data(), 64}, Priority::kNormal,
                                   /*pinned=*/1);
  OutChunk& any = data_chunk(2, {buf_.data(), 64});
  gate().sched.window.push_back(for_rail1);
  gate().sched.window.push_back(any);

  PacketBuilder builder(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 1u);
  EXPECT_EQ(builder.chunks()[0], &any);

  PacketBuilder builder1(32 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(1), builder1), 1u);
  EXPECT_EQ(builder1.chunks()[0], &for_rail1);
}

TEST_F(StrategyTest, AggregStopsAtRendezvousThreshold) {
  auto strategy = make_strategy("aggreg");
  // Gate threshold is min(mx 32K, elan 16K) = 16K: chunks beyond the
  // cumulated 16K stay in the window.
  ASSERT_EQ(gate().rdv_threshold, 16u * 1024);
  for (int i = 0; i < 8; ++i) {
    gate().sched.window.push_back(data_chunk(Tag(i), {buf_.data(), 4 * 1024}));
  }

  PacketBuilder builder(32 * 1024, 0);
  const size_t taken = strategy->pack(core().scheduler(), gate(), rail(0), builder);
  EXPECT_LT(taken, 8u);
  EXPECT_LE(builder.wire_bytes(), 16u * 1024);
  EXPECT_EQ(gate().sched.window.size(), 8u - taken);
}

TEST_F(StrategyTest, AggregExtendedUsesFullPacketLimit) {
  auto strategy = make_strategy("aggreg_extended");
  for (int i = 0; i < 3; ++i) {
    gate().sched.window.push_back(data_chunk(Tag(i), {buf_.data(), 5 * 1024}));
  }

  // gate.max_packet = min(mx 32K, elan 16K) = 16K; 3×5K+headers just fits
  // under the packet limit but exceeds the 16K-3 rendezvous-bounded
  // aggregation of plain aggreg... use a tighter check: extended takes all
  // three, aggreg takes fewer under a reduced builder budget.
  PacketBuilder builder(16 * 1024, 0);
  EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 3u);
}

TEST_F(StrategyTest, DefaultBulkTakesWholeRemaining) {
  auto strategy = make_strategy("default");
  BulkJob& job = jobs_.emplace_back();
  job.cookie = 1;
  job.gate = gate().id;
  job.body = {buf_.data(), 48 * 1024};
  job.rails = {0, 1};
  gate().sched.ready_bulk.push_back(job);

  auto decision = strategy->next_bulk(core().scheduler(), gate(), rail(0));
  EXPECT_EQ(decision.job, &job);
  EXPECT_EQ(decision.bytes, 48u * 1024);
}

TEST_F(StrategyTest, BulkDeclinedOnDisallowedRail) {
  auto strategy = make_strategy("default");
  BulkJob& job = jobs_.emplace_back();
  job.body = {buf_.data(), 1024};
  job.rails = {1};  // only rail 1 granted
  gate().sched.ready_bulk.push_back(job);

  EXPECT_EQ(strategy->next_bulk(core().scheduler(), gate(), rail(0)).job, nullptr);
  EXPECT_EQ(strategy->next_bulk(core().scheduler(), gate(), rail(1)).job, &job);
}

TEST_F(StrategyTest, SplitBalanceSharesByBandwidth) {
  auto strategy = make_strategy("split_balance");
  BulkJob& job = jobs_.emplace_back();
  job.body = {buf_.data(), 64 * 1024};
  job.rails = {0, 1};
  gate().sched.ready_bulk.push_back(job);

  // mx ≈ 1205 MB/s, elan ≈ 880 MB/s: rail 0's share ≈ 64K * 0.578.
  auto d0 = strategy->next_bulk(core().scheduler(), gate(), rail(0));
  ASSERT_EQ(d0.job, &job);
  const double frac =
      rail(0).bandwidth_mbps /
      (rail(0).bandwidth_mbps + rail(1).bandwidth_mbps);
  EXPECT_NEAR(static_cast<double>(d0.bytes), 64.0 * 1024 * frac,
              64.0 * 1024 * 0.02);
  // Consume it and let rail 1 take the rest.
  job.sent += d0.bytes;
  auto d1 = strategy->next_bulk(core().scheduler(), gate(), rail(1));
  ASSERT_EQ(d1.job, &job);
  EXPECT_EQ(d1.bytes, job.remaining());
}

TEST_F(StrategyTest, SplitBalanceDoesNotSplitSmallBodies) {
  auto strategy = make_strategy("split_balance");
  BulkJob& job = jobs_.emplace_back();
  job.body = {buf_.data(), 20 * 1024};  // below 2 * kMinSliceBytes
  job.rails = {0, 1};
  gate().sched.ready_bulk.push_back(job);

  auto d = strategy->next_bulk(core().scheduler(), gate(), rail(0));
  EXPECT_EQ(d.bytes, 20u * 1024);
}

TEST_F(StrategyTest, EmptyWindowPacksNothing) {
  for (const char* name :
       {"default", "aggreg", "aggreg_extended", "split_balance"}) {
    auto strategy = make_strategy(name);
    PacketBuilder builder(32 * 1024, 0);
    EXPECT_EQ(strategy->pack(core().scheduler(), gate(), rail(0), builder), 0u) << name;
    EXPECT_EQ(strategy->next_bulk(core().scheduler(), gate(), rail(0)).job, nullptr)
        << name;
  }
}

}  // namespace
}  // namespace nmad::core
