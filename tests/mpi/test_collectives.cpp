// Split-phase collectives over every stack, several cluster sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "baseline/stack.hpp"
#include "madmpi/collectives.hpp"

namespace nmad::mpi {
namespace {

using baseline::MpiStack;
using baseline::StackImpl;
using baseline::StackOptions;

// gtest prints this parameter's raw bytes into the ctest name, so the
// four bytes after `impl` are a field that is always zero, not padding.
struct Case {
  Case(StackImpl i, size_t n) : impl(i), nodes(n) {}
  StackImpl impl;
  uint32_t zero = 0;
  size_t nodes;
};
static_assert(std::has_unique_object_representations_v<Case>);

class Collectives : public ::testing::TestWithParam<Case> {
 protected:
  MpiStack make() const {
    StackOptions options;
    options.impl = GetParam().impl;
    options.nodes = GetParam().nodes;
    return MpiStack(std::move(options));
  }
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(stack_impl_name(info.param.impl)) + "_" +
         std::to_string(info.param.nodes) + "nodes";
}

using Ops = std::vector<std::unique_ptr<CollectiveOp>>;

void wait_all_ops(Ops& ops) {
  for (auto& op : ops) op->wait();
  ops.clear();
}

TEST_P(Collectives, BarrierCompletesEverywhere) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    ops.push_back(ibarrier(stack.ep(r), kCommWorld));
  }
  wait_all_ops(ops);
  SUCCEED();
}

TEST_P(Collectives, BarrierSynchronizesTime) {
  // No rank may leave the barrier before the slowest rank has entered it.
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype byte = Datatype::byte_type();

  // Delay rank 0's entry by keeping it busy with a large local transfer.
  std::vector<std::byte> big(1u << 20), sink(1u << 20);
  auto* r = stack.ep(1).irecv(sink.data(), 1 << 20, byte, 0, 99,
                              kCommWorld);
  auto* s = stack.ep(0).isend(big.data(), 1 << 20, byte, 1, 99, kCommWorld);
  stack.ep(0).wait(s);
  stack.ep(1).wait(r);
  stack.ep(0).free_request(s);
  stack.ep(1).free_request(r);
  const double entered_at = stack.now_us();
  ASSERT_GT(entered_at, 100.0);

  Ops ops;
  for (int rank = 0; rank < size; ++rank) {
    ops.push_back(ibarrier(stack.ep(rank), kCommWorld));
  }
  for (auto& op : ops) {
    op->wait();
    EXPECT_GE(stack.now_us(), entered_at);
  }
  ops.clear();
}

TEST_P(Collectives, BcastFromEveryRoot) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype byte = Datatype::byte_type();
  constexpr size_t kLen = 4096;

  for (int root = 0; root < size; ++root) {
    std::vector<std::vector<std::byte>> bufs(size);
    Ops ops;
    for (int r = 0; r < size; ++r) {
      bufs[r].resize(kLen);
      if (r == root) util::fill_pattern({bufs[r].data(), kLen}, 40 + root);
      ops.push_back(ibcast(stack.ep(r), bufs[r].data(),
                           static_cast<int>(kLen), byte, root, kCommWorld));
    }
    wait_all_ops(ops);
    for (int r = 0; r < size; ++r) {
      EXPECT_TRUE(util::check_pattern({bufs[r].data(), kLen}, 40 + root))
          << "root " << root << " rank " << r;
    }
  }
}

TEST_P(Collectives, ReduceSumsToRoot) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype int_t = Datatype::int_type();
  constexpr int kCount = 128;

  std::vector<std::vector<int>> contrib(size);
  std::vector<int> result(kCount, -1);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    contrib[r].resize(kCount);
    for (int i = 0; i < kCount; ++i) contrib[r][i] = r * 1000 + i;
    ops.push_back(ireduce(stack.ep(r), contrib[r].data(),
                          r == 0 ? result.data() : nullptr, kCount, int_t,
                          sum_int(), /*root=*/0, kCommWorld));
  }
  wait_all_ops(ops);
  for (int i = 0; i < kCount; ++i) {
    int expected = 0;
    for (int r = 0; r < size; ++r) expected += r * 1000 + i;
    EXPECT_EQ(result[i], expected) << "element " << i;
  }
}

TEST_P(Collectives, AllreduceGivesEveryRankTheSum) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype dbl = Datatype::double_type();
  constexpr int kCount = 64;

  std::vector<std::vector<double>> contrib(size), result(size);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    contrib[r].resize(kCount);
    result[r].resize(kCount, -1.0);
    for (int i = 0; i < kCount; ++i) contrib[r][i] = r + i * 0.5;
    ops.push_back(iallreduce(stack.ep(r), contrib[r].data(),
                             result[r].data(), kCount, dbl, sum_double(),
                             kCommWorld));
  }
  wait_all_ops(ops);
  for (int r = 0; r < size; ++r) {
    for (int i = 0; i < kCount; ++i) {
      double expected = 0;
      for (int q = 0; q < size; ++q) expected += q + i * 0.5;
      EXPECT_DOUBLE_EQ(result[r][i], expected) << "rank " << r;
    }
  }
}

TEST_P(Collectives, GatherCollectsInRankOrder) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype int_t = Datatype::int_type();
  constexpr int kCount = 16;

  std::vector<std::vector<int>> contrib(size);
  std::vector<int> gathered(kCount * size, -1);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    contrib[r].resize(kCount);
    for (int i = 0; i < kCount; ++i) contrib[r][i] = r * 100 + i;
    ops.push_back(igather(stack.ep(r), contrib[r].data(),
                          r == 0 ? gathered.data() : nullptr, kCount, int_t,
                          /*root=*/0, kCommWorld));
  }
  wait_all_ops(ops);
  for (int r = 0; r < size; ++r) {
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(gathered[r * kCount + i], r * 100 + i);
    }
  }
}

TEST_P(Collectives, ScatterDistributesSlices) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype int_t = Datatype::int_type();
  constexpr int kCount = 16;

  std::vector<int> source(kCount * size);
  std::iota(source.begin(), source.end(), 0);
  std::vector<std::vector<int>> slices(size);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    slices[r].resize(kCount, -1);
    ops.push_back(iscatter(stack.ep(r),
                           r == 0 ? source.data() : nullptr,
                           slices[r].data(), kCount, int_t, /*root=*/0,
                           kCommWorld));
  }
  wait_all_ops(ops);
  for (int r = 0; r < size; ++r) {
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(slices[r][i], r * kCount + i);
    }
  }
}

TEST_P(Collectives, AlltoallTransposes) {
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype int_t = Datatype::int_type();
  constexpr int kCount = 8;

  std::vector<std::vector<int>> send(size), recv(size);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    send[r].resize(kCount * size);
    recv[r].resize(kCount * size, -1);
    for (int p = 0; p < size; ++p) {
      for (int i = 0; i < kCount; ++i) {
        send[r][p * kCount + i] = r * 10000 + p * 100 + i;
      }
    }
    ops.push_back(ialltoall(stack.ep(r), send[r].data(), recv[r].data(),
                            kCount, int_t, kCommWorld));
  }
  wait_all_ops(ops);
  for (int r = 0; r < size; ++r) {
    for (int p = 0; p < size; ++p) {
      for (int i = 0; i < kCount; ++i) {
        // recv[r] slot p came from rank p's slice destined to r.
        EXPECT_EQ(recv[r][p * kCount + i], p * 10000 + r * 100 + i)
            << "rank " << r << " from " << p;
      }
    }
  }
}

TEST_P(Collectives, BackToBackCollectivesKeepOrder) {
  // Two different collectives in flight; reserved tag sequencing must keep
  // them separate.
  MpiStack stack = make();
  const int size = static_cast<int>(GetParam().nodes);
  const Datatype byte = Datatype::byte_type();
  constexpr size_t kLen = 256;

  std::vector<std::vector<std::byte>> b1(size), b2(size);
  Ops ops;
  for (int r = 0; r < size; ++r) {
    b1[r].resize(kLen);
    b2[r].resize(kLen);
    if (r == 0) {
      util::fill_pattern({b1[r].data(), kLen}, 1);
      util::fill_pattern({b2[r].data(), kLen}, 2);
    }
    ops.push_back(ibcast(stack.ep(r), b1[r].data(), kLen, byte, 0,
                         kCommWorld));
    ops.push_back(ibcast(stack.ep(r), b2[r].data(), kLen, byte, 0,
                         kCommWorld));
  }
  wait_all_ops(ops);
  for (int r = 0; r < size; ++r) {
    EXPECT_TRUE(util::check_pattern({b1[r].data(), kLen}, 1)) << r;
    EXPECT_TRUE(util::check_pattern({b2[r].data(), kLen}, 2)) << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, Collectives,
    ::testing::Values(Case{StackImpl::kMadMpi, 2},
                      Case{StackImpl::kMadMpi, 3},
                      Case{StackImpl::kMadMpi, 5},
                      Case{StackImpl::kMpich, 2},
                      Case{StackImpl::kMpich, 4},
                      Case{StackImpl::kOpenMpi, 3}),
    case_name);

}  // namespace
}  // namespace nmad::mpi
