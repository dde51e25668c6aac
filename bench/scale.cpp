// Scale benchmark — the discrete-event core at thousands of ranks.
//
// Unlike the figure benches (which report virtual microseconds off the
// simulated clock), this one measures the *simulator itself*: host
// events/sec through the scheduler. Three sections:
//
//   1. queue micro — the calendar queue vs ReferenceHeapQueue (the old
//      std::priority_queue implementation) on identical
//      deterministic op streams, at pending-set sizes matching 4-, 64-
//      and 1k-rank populations. Two shapes: "hold" (pop one, push one —
//      no cancels) and "churn" (the reliability ack-timer shape: 95% of
//      timers are cancelled before they fire, which drives the old
//      queue's O(n) cancelled-id bookkeeping quadratic).
//   2. end-to-end — the 1024-rank hypercube alltoall and the 10k-flow
//      incast from the `scale` test tier, timed wall-clock with engine
//      events/sec and the allocation counters that must stay flat.
//   3. soak — a sustained 64-rank neighbour exchange over a long virtual
//      window, proving steady-state throughput holds with zero hot-path
//      allocations round after round.
//
// --json=PATH writes the machine-readable artifact CI checks in as
// BENCH_scale.json; the `speedup` field of the 1k-rank churn row is the
// headline the acceptance gate reads (>= 5x over the heap baseline).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nmad/api/session.hpp"
#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/event_queue.hpp"
#include "util/inline_fn.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace nmad;
using simnet::SimTime;
using util::EventId;
using util::EventQueue;
using util::ReferenceHeapQueue;

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -------------------------------------------------------------------------
// Queue micro workloads. Both are templates so the exact same op stream
// (same seed, same draws) runs on either implementation.
// -------------------------------------------------------------------------

// Hold: keep `pending` events outstanding; each op pops the minimum and
// schedules a replacement a short exponential-ish stride ahead. This is
// the cancel-free steady state of a lossless run.
template <class Queue>
uint64_t run_hold(Queue& q, size_t pending, uint64_t ops, uint64_t seed) {
  util::Rng rng(seed);
  SimTime now = 0.0;
  uint64_t fired = 0;
  for (size_t i = 0; i < pending; ++i) {
    q.schedule_at(rng.next_double() * 100.0, [&fired] { ++fired; });
  }
  for (uint64_t i = 0; i < ops; ++i) {
    q.run_one(&now);
    q.schedule_at(now + 0.5 + rng.next_double() * 100.0,
                  [&fired] { ++fired; });
  }
  while (q.run_one(&now)) {
  }
  return fired;
}

// Churn: the reliability shape. Every op arms an ack timer ~200µs out;
// 95% of the time the ack "arrives" and the newest timer is cancelled
// immediately, the rest are left to fire. The queue is drained down to
// `pending` as it grows. On the heap baseline every cancelled shell
// still surfaces at the top and pays an O(n) erase from the sorted
// cancelled-id vector.
template <class Queue>
uint64_t run_churn(Queue& q, size_t pending, uint64_t ops, uint64_t seed) {
  util::Rng rng(seed);
  SimTime now = 0.0;
  uint64_t fired = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    const EventId id = q.schedule_at(now + 100.0 + rng.next_double() * 200.0,
                                     [&fired] { ++fired; });
    if (rng.next_bool(0.95)) q.cancel(id);
    while (q.size() > pending) q.run_one(&now);
  }
  while (q.run_one(&now)) {
  }
  return fired;
}

struct MicroRow {
  const char* shape;
  size_t pending;
  size_t ranks_equiv;  // pending set a cluster of this size carries
  double heap_evps = 0.0;
  double cal_evps = 0.0;
  double speedup = 0.0;
};

MicroRow run_micro(const char* shape, size_t pending, size_t ranks_equiv,
                   uint64_t ops) {
  MicroRow row{shape, pending, ranks_equiv};
  const bool churn = std::string(shape) == "churn";
  uint64_t fired_heap = 0;
  uint64_t fired_cal = 0;
  {
    ReferenceHeapQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    fired_heap = churn ? run_churn(q, pending, ops, /*seed=*/42)
                       : run_hold(q, pending, ops, /*seed=*/42);
    row.heap_evps = static_cast<double>(ops) / wall_seconds(t0);
  }
  {
    EventQueue q;
    const auto t0 = std::chrono::steady_clock::now();
    fired_cal = churn ? run_churn(q, pending, ops, /*seed=*/42)
                      : run_hold(q, pending, ops, /*seed=*/42);
    row.cal_evps = static_cast<double>(ops) / wall_seconds(t0);
  }
  if (fired_heap != fired_cal) {
    std::fprintf(stderr,
                 "scale: micro divergence (%s/%zu): heap fired %llu, "
                 "calendar fired %llu\n",
                 shape, pending,
                 static_cast<unsigned long long>(fired_heap),
                 static_cast<unsigned long long>(fired_cal));
    std::exit(1);
  }
  row.speedup = row.cal_evps / row.heap_evps;
  return row;
}

// -------------------------------------------------------------------------
// End-to-end scenarios (the same shapes as tests/nmad/test_scale.cpp,
// minus the oracle — correctness lives in the test tier; this measures).
// -------------------------------------------------------------------------

struct EndToEndRow {
  const char* name;
  size_t ranks = 0;
  size_t messages = 0;
  uint64_t events = 0;
  double wall_ms = 0.0;
  double evps = 0.0;
  uint64_t steady_allocs = 0;  // pool grows + queue rebuilds + fn spills
};

uint64_t alloc_marks(api::Cluster& cluster) {
  uint64_t marks = util::inline_fn_heap_allocs();
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    const core::Core::AllocStats a =
        cluster.core(static_cast<simnet::NodeId>(n)).alloc_stats();
    marks += a.chunk_pool_grows + a.bulk_pool_grows + a.send_pool_grows +
             a.recv_pool_grows;
  }
  const nmad::runtime::TimerStats q = cluster.core(0).alloc_stats().queue;
  return marks + q.node_slabs + q.resizes;
}

void alltoall_round(api::Cluster& cluster, size_t ranks, size_t round,
                    size_t bytes, std::vector<std::byte>& out,
                    std::vector<std::byte>& in) {
  const simnet::NodeId bit = simnet::NodeId{1} << round;
  for (simnet::NodeId r = 0; r < ranks; ++r) {
    if (r < (r ^ bit)) cluster.ensure_gate(r, r ^ bit);
  }
  std::vector<core::Request*> reqs;
  reqs.reserve(ranks * 2);
  std::vector<std::pair<simnet::NodeId, core::Request*>> owners;
  owners.reserve(ranks * 2);
  for (simnet::NodeId r = 0; r < ranks; ++r) {
    const simnet::NodeId partner = r ^ bit;
    core::Request* recv = cluster.core(r).irecv(
        cluster.gate(r, partner), round,
        util::MutableBytes{in.data() + r * bytes, bytes});
    core::Request* send = cluster.core(r).isend(
        cluster.gate(r, partner), round,
        util::ConstBytes{out.data() + r * bytes, bytes});
    reqs.push_back(recv);
    reqs.push_back(send);
    owners.emplace_back(r, recv);
    owners.emplace_back(r, send);
  }
  cluster.wait_all(reqs);
  for (auto& [node, req] : owners) cluster.core(node).release(req);
}

EndToEndRow run_alltoall(size_t ranks, size_t rounds, size_t bytes) {
  EndToEndRow row{"alltoall_hypercube", ranks};
  api::ClusterOptions options;
  options.nodes = ranks;
  options.full_mesh = false;
  api::Cluster cluster(std::move(options));
  std::vector<std::byte> out(ranks * bytes);
  std::vector<std::byte> in(ranks * bytes);
  util::fill_pattern({out.data(), out.size()}, 7);

  // First round warms every pool and slab; the measured rounds are the
  // steady state the allocation gate covers.
  alltoall_round(cluster, ranks, 0, bytes, out, in);
  const uint64_t marks = alloc_marks(cluster);
  const uint64_t ev0 = cluster.core(0).alloc_stats().queue.executed;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t round = 1; round < rounds; ++round) {
    alltoall_round(cluster, ranks, round, bytes, out, in);
  }
  const double secs = wall_seconds(t0);
  row.messages = ranks * (rounds - 1);
  row.events = cluster.core(0).alloc_stats().queue.executed - ev0;
  row.wall_ms = secs * 1e3;
  row.evps = static_cast<double>(row.events) / secs;
  row.steady_allocs = alloc_marks(cluster) - marks;
  return row;
}

EndToEndRow run_incast(size_t senders, size_t flows_per_sender,
                       size_t bytes) {
  EndToEndRow row{"incast", senders + 1};
  api::ClusterOptions options;
  options.nodes = senders + 1;
  options.full_mesh = false;
  api::Cluster cluster(std::move(options));
  for (simnet::NodeId s = 1; s <= senders; ++s) cluster.ensure_gate(s, 0);
  std::vector<std::byte> out(bytes);
  std::vector<std::byte> in(senders * flows_per_sender * bytes);
  util::fill_pattern({out.data(), out.size()}, 11);

  // Warm with one flow per sender, then measure the full fan-in.
  auto burst = [&](size_t flows) {
    std::vector<core::Request*> reqs;
    reqs.reserve(senders * flows * 2);
    std::vector<std::pair<simnet::NodeId, core::Request*>> owners;
    owners.reserve(senders * flows * 2);
    for (simnet::NodeId s = 1; s <= senders; ++s) {
      for (size_t k = 0; k < flows; ++k) {
        const core::Tag tag = (core::Tag(s) << 32) | k;
        core::Request* recv = cluster.core(0).irecv(
            cluster.gate(0, s), tag,
            util::MutableBytes{
                in.data() + ((s - 1) * flows_per_sender + k) * bytes,
                bytes});
        reqs.push_back(recv);
        owners.emplace_back(0, recv);
      }
    }
    for (simnet::NodeId s = 1; s <= senders; ++s) {
      for (size_t k = 0; k < flows; ++k) {
        const core::Tag tag = (core::Tag(s) << 32) | k;
        core::Request* send = cluster.core(s).isend(
            cluster.gate(s, 0), tag, util::ConstBytes{out.data(), bytes});
        reqs.push_back(send);
        owners.emplace_back(s, send);
      }
    }
    cluster.wait_all(reqs);
    for (auto& [node, req] : owners) cluster.core(node).release(req);
  };

  // The full fan-in is the steady state here: one complete burst sizes
  // node 0's pools for 10k outstanding receives, the second is measured.
  burst(flows_per_sender);
  const uint64_t marks = alloc_marks(cluster);
  const uint64_t ev0 = cluster.core(0).alloc_stats().queue.executed;
  const auto t0 = std::chrono::steady_clock::now();
  burst(flows_per_sender);
  const double secs = wall_seconds(t0);
  row.messages = senders * flows_per_sender;
  row.events = cluster.core(0).alloc_stats().queue.executed - ev0;
  row.wall_ms = secs * 1e3;
  row.evps = static_cast<double>(row.events) / secs;
  row.steady_allocs = alloc_marks(cluster) - marks;
  return row;
}

// Soak: 64 ranks exchange with a rotating partner, round after round,
// until the simulated clock has advanced past `soak_us`. Sustained
// throughput with flat allocation counters is the point.
EndToEndRow run_soak(double soak_us) {
  constexpr size_t kRanks = 64;
  constexpr size_t kBytes = 1024;
  EndToEndRow row{"soak_rotating_exchange", kRanks};
  api::Cluster cluster(
      api::ClusterOptions{.nodes = kRanks, .rails = {}, .core = {}});
  std::vector<std::byte> out(kBytes);
  std::vector<std::byte> in(kRanks * kBytes);
  util::fill_pattern({out.data(), out.size()}, 13);

  auto round = [&](uint64_t r) {
    // Rotating pairing: rank i exchanges with i ^ shift, shift walking
    // 1..kRanks-1, so every link is eventually exercised.
    const simnet::NodeId shift = 1 + (r % (kRanks - 1));
    std::vector<core::Request*> reqs;
    reqs.reserve(kRanks * 2);
    std::vector<std::pair<simnet::NodeId, core::Request*>> owners;
    owners.reserve(kRanks * 2);
    for (simnet::NodeId i = 0; i < kRanks; ++i) {
      const simnet::NodeId j = i ^ shift;
      if (j >= kRanks) continue;
      core::Request* recv =
          cluster.core(i).irecv(cluster.gate(i, j), r,
                                util::MutableBytes{
                                    in.data() + i * kBytes, kBytes});
      core::Request* send = cluster.core(i).isend(
          cluster.gate(i, j), r, util::ConstBytes{out.data(), kBytes});
      reqs.push_back(recv);
      reqs.push_back(send);
      owners.emplace_back(i, recv);
      owners.emplace_back(i, send);
    }
    cluster.wait_all(reqs);
    for (auto& [node, req] : owners) cluster.core(node).release(req);
  };

  for (uint64_t r = 0; r < 4; ++r) round(r);  // warm every pairing class
  const uint64_t marks = alloc_marks(cluster);
  const uint64_t ev0 = cluster.core(0).alloc_stats().queue.executed;
  const double vt0 = cluster.now();
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t r = 4;
  while (cluster.now() - vt0 < soak_us) round(r++);
  const double secs = wall_seconds(t0);
  row.messages = (r - 4) * kRanks;
  row.events = cluster.core(0).alloc_stats().queue.executed - ev0;
  row.wall_ms = secs * 1e3;
  row.evps = static_cast<double>(row.events) / secs;
  row.steady_allocs = alloc_marks(cluster) - marks;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.define("ops", "300000", "ops per queue-micro measurement");
  flags.define("ranks", "1024", "alltoall rank count (power of two)");
  flags.define("soak-us", "20000",
               "virtual µs the soak scenario must sustain (~5k barrier "
               "rounds at the default; raise for a long-haul run)");
  flags.define("json", "",
               "write the machine-readable artifact (BENCH_scale.json) "
               "to this path");
  if (auto st = flags.parse(argc, argv); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    flags.print_help(argv[0]);
    return 2;
  }
  const auto ops = static_cast<uint64_t>(flags.get_int("ops"));
  const auto ranks = static_cast<size_t>(flags.get_int("ranks"));
  size_t rounds = 0;
  while ((size_t{1} << rounds) < ranks) ++rounds;
  const double soak_us = flags.get_double("soak-us");

  // Pending-set sizes observed on 4-, 64- and 1k-rank clusters (a rank
  // keeps a handful of in-flight events; reliability timers multiply it).
  std::vector<MicroRow> micro;
  for (const char* shape : {"hold", "churn"}) {
    micro.push_back(run_micro(shape, 128, 4, ops));
    micro.push_back(run_micro(shape, 2048, 64, ops));
    micro.push_back(run_micro(shape, 32768, 1024, ops));
  }

  std::vector<EndToEndRow> e2e;
  e2e.push_back(run_alltoall(ranks, rounds, 2048));
  e2e.push_back(run_incast(64, 157, 512));
  e2e.push_back(run_soak(soak_us));

  util::Table mtab({"shape", "pending", "ranks_equiv", "heap_ev/s",
                    "calendar_ev/s", "speedup"});
  for (const MicroRow& m : micro) {
    mtab.add_row({m.shape, std::to_string(m.pending),
                  std::to_string(m.ranks_equiv),
                  util::format_fixed(m.heap_evps, 0),
                  util::format_fixed(m.cal_evps, 0),
                  util::format_fixed(m.speedup, 2)});
  }
  std::printf("## Scale — calendar queue vs heap baseline (%llu ops)\n",
              static_cast<unsigned long long>(ops));
  mtab.print();

  util::Table etab({"scenario", "ranks", "messages", "events", "wall_ms",
                    "ev/s", "steady_allocs"});
  for (const EndToEndRow& e : e2e) {
    etab.add_row({e.name, std::to_string(e.ranks),
                  std::to_string(e.messages), std::to_string(e.events),
                  util::format_fixed(e.wall_ms, 1),
                  util::format_fixed(e.evps, 0),
                  std::to_string(e.steady_allocs)});
  }
  std::printf("\n## Scale — end-to-end scenarios\n");
  etab.print();

  bool ok = true;
  for (const EndToEndRow& e : e2e) {
    if (e.steady_allocs != 0) {
      std::fprintf(stderr,
                   "scale: %s allocated during steady state (%llu marks)\n",
                   e.name, static_cast<unsigned long long>(e.steady_allocs));
      ok = false;
    }
  }

  const std::string json = flags.get("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"scale\",\n  \"ops\": %llu,\n"
                 "  \"rows\": [",
                 static_cast<unsigned long long>(ops));
    bool first = true;
    for (const MicroRow& m : micro) {
      std::fprintf(f,
                   "%s\n    {\"section\": \"queue_micro\", \"shape\": "
                   "\"%s\", \"pending\": %zu, \"ranks_equiv\": %zu, "
                   "\"heap_events_per_sec\": %.0f, "
                   "\"calendar_events_per_sec\": %.0f, \"speedup\": %.2f}",
                   first ? "" : ",", m.shape, m.pending, m.ranks_equiv,
                   m.heap_evps, m.cal_evps, m.speedup);
      first = false;
    }
    for (const EndToEndRow& e : e2e) {
      std::fprintf(f,
                   "%s\n    {\"section\": \"end_to_end\", \"scenario\": "
                   "\"%s\", \"ranks\": %zu, \"messages\": %zu, "
                   "\"events\": %llu, \"wall_ms\": %.1f, "
                   "\"events_per_sec\": %.0f, \"steady_allocs\": %llu}",
                   first ? "" : ",", e.name, e.ranks, e.messages,
                   static_cast<unsigned long long>(e.events), e.wall_ms,
                   e.evps, static_cast<unsigned long long>(e.steady_allocs));
      first = false;
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }
  return ok ? 0 : 1;
}
