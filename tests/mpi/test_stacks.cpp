// Cross-stack integration tests: the same MPI program must deliver
// identical bytes on MAD-MPI, MPICH-sim and OpenMPI-sim, across message
// sizes spanning eager and rendezvous, contiguous and derived datatypes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "baseline/stack.hpp"
#include "util/buffer.hpp"

namespace nmad {
namespace {

using baseline::MpiStack;
using baseline::StackImpl;
using baseline::StackOptions;
using mpi::Datatype;
using mpi::kCommWorld;

// gtest prints this parameter's raw bytes into the ctest name, so every
// byte of it is defined: the four after `impl` are a field that is always
// zero, not padding, and the network name is held inline and zero-filled,
// not behind a pointer.
struct StackCase {
  StackCase(StackImpl i, std::string_view n) : impl(i) {
    n.copy(net_buf.data(), net_buf.size() - 1);
  }
  std::string net() const { return net_buf.data(); }
  StackImpl impl;
  uint32_t zero = 0;
  std::array<char, 32> net_buf{};
};
static_assert(std::has_unique_object_representations_v<StackCase>);

class StackPingPong
    : public ::testing::TestWithParam<std::tuple<StackCase, size_t>> {};

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<StackCase, size_t>>& info) {
  const auto& [sc, size] = info.param;
  return std::string(stack_impl_name(sc.impl)) + "_" + sc.net() + "_" +
         std::to_string(size);
}

MpiStack make_stack(const StackCase& sc) {
  StackOptions options;
  options.impl = sc.impl;
  simnet::NicProfile nic;
  EXPECT_TRUE(simnet::nic_profile_by_name(sc.net(), &nic));
  options.nic = nic;
  return MpiStack(std::move(options));
}

TEST_P(StackPingPong, RoundTripPreservesBytes) {
  const auto& [sc, size] = GetParam();
  MpiStack stack = make_stack(sc);
  mpi::Endpoint& a = stack.ep(0);
  mpi::Endpoint& b = stack.ep(1);
  const Datatype byte = Datatype::byte_type();

  std::vector<std::byte> out(size), echo(size), in(size);
  util::fill_pattern({out.data(), size}, size + 1);

  // A → B, then B echoes back to A.
  auto* r0 = b.irecv(echo.data(), static_cast<int>(size), byte, 0, 1,
                     kCommWorld);
  auto* s0 = a.isend(out.data(), static_cast<int>(size), byte, 1, 1,
                     kCommWorld);
  b.wait(r0);
  a.wait(s0);
  EXPECT_TRUE(r0->status().is_ok());

  auto* r1 = a.irecv(in.data(), static_cast<int>(size), byte, 1, 2,
                     kCommWorld);
  auto* s1 = b.isend(echo.data(), static_cast<int>(size), byte, 0, 2,
                     kCommWorld);
  a.wait(r1);
  b.wait(s1);

  EXPECT_TRUE(util::check_pattern({in.data(), size}, size + 1));
  EXPECT_GT(stack.now_us(), 0.0);

  a.free_request(s0);
  a.free_request(r1);
  b.free_request(r0);
  b.free_request(s1);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackPingPong,
    ::testing::Combine(
        ::testing::Values(StackCase{StackImpl::kMadMpi, "mx"},
                          StackCase{StackImpl::kMpich, "mx"},
                          StackCase{StackImpl::kOpenMpi, "mx"},
                          StackCase{StackImpl::kMadMpi, "quadrics"},
                          StackCase{StackImpl::kMpich, "quadrics"}),
        ::testing::Values(size_t{0}, size_t{1}, size_t{4}, size_t{256},
                          size_t{4096}, size_t{32768}, size_t{65536},
                          size_t{1u << 20})),
    case_name);

class StackDatatype : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackDatatype, IndexedTypeRoundTrips) {
  MpiStack stack = make_stack(GetParam());
  mpi::Endpoint& a = stack.ep(0);
  mpi::Endpoint& b = stack.ep(1);

  // The paper's §5.3 shape: a small block followed by a large block.
  constexpr size_t kSmall = 64;
  constexpr size_t kLarge = 256 * 1024;
  const Datatype byte = Datatype::byte_type();
  const std::vector<int> lens = {kSmall, kLarge};
  const std::vector<ptrdiff_t> displs = {0, kSmall + 128};  // gap of 128
  const Datatype indexed = Datatype::hindexed(lens, displs, byte);
  ASSERT_EQ(indexed.size(), kSmall + kLarge);

  const size_t footprint = static_cast<size_t>(indexed.extent());
  std::vector<std::byte> src(footprint, std::byte{0});
  std::vector<std::byte> dst(footprint, std::byte{0});
  // Fill only the typed regions.
  util::fill_pattern({src.data(), kSmall}, 91);
  util::fill_pattern({src.data() + displs[1], kLarge}, 92);

  auto* recv = b.irecv(dst.data(), 1, indexed, 0, 3, kCommWorld);
  auto* send = a.isend(src.data(), 1, indexed, 1, 3, kCommWorld);
  b.wait(recv);
  a.wait(send);

  EXPECT_TRUE(util::check_pattern({dst.data(), kSmall}, 91));
  EXPECT_TRUE(util::check_pattern({dst.data() + displs[1], kLarge}, 92));
  // The gap must remain untouched.
  for (size_t i = kSmall; i < kSmall + 128; ++i) {
    EXPECT_EQ(dst[i], std::byte{0}) << "gap byte " << i;
  }

  a.free_request(send);
  b.free_request(recv);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackDatatype,
    ::testing::Values(StackCase{StackImpl::kMadMpi, "mx"},
                      StackCase{StackImpl::kMpich, "mx"},
                      StackCase{StackImpl::kOpenMpi, "mx"},
                      StackCase{StackImpl::kMadMpi, "quadrics"},
                      StackCase{StackImpl::kMpich, "quadrics"}),
    [](const ::testing::TestParamInfo<StackCase>& info) {
      return std::string(stack_impl_name(info.param.impl)) + "_" +
             info.param.net();
    });

TEST(StackCommunicators, SeparateContextsDoNotCrossMatch) {
  StackOptions options;
  MpiStack stack(std::move(options));
  mpi::Endpoint& a = stack.ep(0);
  mpi::Endpoint& b = stack.ep(1);
  const Datatype byte = Datatype::byte_type();

  const mpi::Comm c1 = a.comm_dup(kCommWorld);
  const mpi::Comm c1b = b.comm_dup(kCommWorld);
  ASSERT_EQ(c1.context, c1b.context);

  std::vector<std::byte> w(64), x(64), rw(64), rx(64);
  util::fill_pattern({w.data(), w.size()}, 1);
  util::fill_pattern({x.data(), x.size()}, 2);

  // Same tag on two communicators; posting order on B is deliberately the
  // reverse of A's send order: context matching must sort it out.
  auto* r_c1 = b.irecv(rx.data(), 64, byte, 0, 7, c1b);
  auto* r_w = b.irecv(rw.data(), 64, byte, 0, 7, kCommWorld);
  auto* s_w = a.isend(w.data(), 64, byte, 1, 7, kCommWorld);
  auto* s_c1 = a.isend(x.data(), 64, byte, 1, 7, c1);
  b.wait(r_c1);
  b.wait(r_w);
  a.wait(s_w);
  a.wait(s_c1);

  EXPECT_TRUE(util::check_pattern({rw.data(), rw.size()}, 1));
  EXPECT_TRUE(util::check_pattern({rx.data(), rx.size()}, 2));

  a.free_request(s_w);
  a.free_request(s_c1);
  b.free_request(r_w);
  b.free_request(r_c1);
}

}  // namespace
}  // namespace nmad
