// Wall-clock engine benchmark: one closed-loop workload on a 2-node
// api::WallCluster (a WallClockRuntime, a Core and a ShmDriver per node),
// with every delivered payload checked.
//
//   nmad_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--self-test corrupt-payload|drop-wire-rx]
//
// run.py builds this binary and forwards its output; README.md defines
// the metrics. A run is cut into slices of about kSliceSeconds, at least
// two. Each slice builds a fresh cluster (one set-up sample), warms it up,
// then times exchanges for its share of --seconds. Fresh clusters spread
// one run over several placements of the engine's threads; the fixed
// slice length keeps a per-slice quantile's sample count independent of
// --seconds. --trace 0 runs every slice plain and prints the end-to-end
// metrics. --trace 1 alternates plain and traced slices and prints the
// per-layer metrics; the plain slices give the cost of the tracing.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "alloc_count.hpp"
#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kSliceSeconds = 1.0;
constexpr double kWarmupSeconds = 0.1;
constexpr uint64_t kMinWarmupExchanges = 20;
// WallCluster::wait aborts the run after this long without progress.
constexpr double kWaitTimeoutUs = 20e6;

struct Args {
  const Workload* workload = nullptr;
  bool have_seed = false;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  SelfTest self_test;
};

bool parse_args(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = find_workload(value);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      args->have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') args->seconds = 0.0;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--self-test" && value == "corrupt-payload") {
      args->self_test.corrupt_payload = true;
    } else if (flag == "--self-test" && value == "drop-wire-rx") {
      args->self_test.drop_wire_rx = true;
    } else {
      return false;
    }
  }
  // Only a traced run pairs wire events.
  if (args->self_test.drop_wire_rx && args->trace != 1) return false;
  return args->workload != nullptr && args->have_seed &&
         args->seconds > 0.0 && args->seconds <= 120.0 && args->trace >= 0;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string cpu_model() {
  std::string model;
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    model = brand;
  }
#endif
  const size_t first = model.find_first_not_of(' ');
  if (first == std::string::npos) return "unknown";
  return model.substr(first, model.find_last_not_of(' ') - first + 1);
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// A JSON string; the host strings carry no control characters.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double d(uint64_t v) { return static_cast<double>(v); }

struct Metric {
  const char* name;
  double value;
  const char* unit;
  uint64_t samples;
};

// The better quartile of a run's per-slice figures. A host stall or a
// neighbour's burst only slows the slices it hits; the better quartile
// reads the engine, unless the burst covers three quarters of the run.
double low(Samples& per_slice) { return per_slice.quantile(0.25); }
double high(Samples& per_slice) { return per_slice.quantile(0.75); }

std::vector<Metric> end_to_end_metrics(EndToEnd& e, Samples& setup_s) {
  return {
      {"lat_p50_us", low(e.p50_us), "us", e.exchanges},
      {"lat_p95_us", low(e.p95_us), "us", e.exchanges},
      {"msg_rate_kps", high(e.msg_rate_kps), "kmsg/s", e.messages},
      {"goodput_MBps", high(e.goodput_mbps), "MB/s", e.messages},
      {"cpu_us_per_msg", low(e.cpu_us_per_msg), "us", e.messages},
      {"setup_s", setup_s.p50(), "s", setup_s.size()},
  };
}

std::vector<Metric> layer_metrics(LayerSamples& l, uint64_t pool_grows,
                                  int slices, EndToEnd& base,
                                  EndToEnd& traced) {
  const Counters& c = l.engine;
  const double msgs = d(l.messages);
  return {
      {"api.wake_lag_us.p50", l.wake_lag.p50(), "us", l.wake_lag.size()},
      {"api.wake_lag_us.p99", l.wake_lag.p99(), "us", l.wake_lag.size()},
      {"api.post_send_us.p50", l.post_send.p50(), "us", l.post_send.size()},
      {"api.post_recv_us.p50", l.post_recv.p50(), "us", l.post_recv.size()},
      {"runtime.lock_wait_us.p50", l.lock_wait.p50(), "us",
       l.lock_wait.size()},
      {"runtime.lock_wait_us.p99", l.lock_wait.p99(), "us",
       l.lock_wait.size()},
      {"runtime.timers_per_msg", ratio(d(c.timers_executed), msgs),
       "count/msg", l.messages},
      {"runtime.timer_hop_us.p50", l.timer_hop.p50(), "us",
       l.timer_hop.size()},
      {"collect.isend_us.p50", l.isend.p50(), "us", l.isend.size()},
      {"collect.isend_us.p99", l.isend.p99(), "us", l.isend.size()},
      {"collect.irecv_us.p50", l.irecv.p50(), "us", l.irecv.size()},
      {"collect.irecv_us.p99", l.irecv.p99(), "us", l.irecv.size()},
      {"collect.release_us.p50", l.release.p50(), "us", l.release.size()},
      {"collect.unexpected_ratio",
       ratio(d(c.unexpected_chunks), d(c.chunks_received)), "ratio",
       c.chunks_received},
      {"schedule.pack_us.p50", l.pack.p50(), "us", l.pack.size()},
      {"schedule.pack_us.p99", l.pack.p99(), "us", l.pack.size()},
      {"schedule.packs_per_msg", ratio(d(l.pack.size()), msgs), "count/msg",
       l.messages},
      {"schedule.chunks_per_packet",
       ratio(d(c.chunks_sent), d(c.packets_sent)), "count", c.packets_sent},
      {"schedule.aggregated_ratio",
       ratio(d(c.chunks_aggregated), d(c.chunks_sent)), "ratio",
       c.chunks_sent},
      {"schedule.window_us.p50", l.window.p50(), "us", l.window.size()},
      {"transfer.wire_us.p50", l.wire.p50(), "us", l.wire.size()},
      {"transfer.wire_us.p99", l.wire.p99(), "us", l.wire.size()},
      {"transfer.tx_done_us.p50", l.tx_done.p50(), "us", l.tx_done.size()},
      {"transfer.rdv_handshake_us.p50", l.rdv_handshake.p50(), "us",
       l.rdv_handshake.size()},
      {"transfer.bulk_us.p50", l.bulk.p50(), "us", l.bulk.size()},
      {"transfer.packets_per_msg", ratio(d(c.packets_sent), msgs),
       "count/msg", l.messages},
      {"transfer.header_overhead",
       ratio(d(l.wire_bytes) - d(l.payload_bytes), d(l.wire_bytes)),
       "ratio", l.messages},
      {"alloc.heap_per_msg", ratio(d(l.heap_allocs), msgs), "count/msg",
       l.messages},
      {"alloc.pool_grows", d(pool_grows), "count",
       static_cast<uint64_t>(slices)},
      {"trace.lat_p50_us", low(traced.p50_us), "us", traced.exchanges},
      {"trace.overhead_pct",
       (ratio(low(traced.p50_us), low(base.p50_us)) - 1.0) * 100.0, "%",
       traced.exchanges},
  };
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %16.6f %-9s n=%" PRIu64 "\n", m.name, m.value,
                m.unit, m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name,
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const bool traced_run = args.trace == 1;
  register_timed_strategy();
  Payloads payloads(w, args.seed);

  EndToEnd base;    // plain slices, or the untraced slices of a traced run
  EndToEnd traced;  // the traced slices
  LayerSamples layers;
  Samples setup_s, memcpy_mbps, wake_us;
  uint64_t pool_grows = 0;
  const int slices =
      std::max(2, static_cast<int>(std::lround(args.seconds / kSliceSeconds)));
  const auto slice_ns = static_cast<int64_t>(args.seconds / slices * 1e9);
  const auto warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);

  for (int s = 0; s < slices; ++s) {
    const bool tracing = traced_run && s % 2 == 1;
    const Mode mode = tracing ? Mode::kTraced : Mode::kPlain;
    api::WallCluster::Options options;
    options.wait_timeout_us = kWaitTimeoutUs;
    if (tracing) options.core.strategy = kTimedStrategy;

    const int64_t setup_start = now_ns();
    auto cluster = std::make_unique<api::WallCluster>(options);
    setup_s.add(static_cast<double>(now_ns() - setup_start) / 1e9);
    cluster->locked(0, [&](core::Core& c) {
      memcpy_mbps.add(c.rail_info(0).bandwidth_mbps);
      wake_us.add(c.rail_info(0).latency_us);
    });

    Harness harness(*cluster, w, mode, payloads, layers, args.self_test);
    uint64_t i = 0;
    const int64_t warm_end = now_ns() + warmup_ns;
    while (i < kMinWarmupExchanges || now_ns() < warm_end) {
      harness.exchange(i++, nullptr);
    }

    EndToEnd& e2e = tracing ? traced : base;
    if (tracing) harness.take_pack_samples(false);
    const Counters before = harness.counters();
    const uint64_t allocs_before = alloc_count();
    set_alloc_counting(tracing);
    const int64_t end = now_ns() + slice_ns;
    do {
      harness.exchange(i++, &e2e);
    } while (now_ns() < end);
    set_alloc_counting(false);
    e2e.end_slice();
    const Counters delta = harness.counters() - before;
    pool_grows += delta.pool_grows;
    if (tracing) {
      layers.heap_allocs += alloc_count() - allocs_before;
      layers.engine += delta;
      harness.take_pack_samples(true);
    }
  }

  const uint64_t attempted = base.messages + traced.messages;
  const uint64_t failed = base.failed + traced.failed;
  std::printf("perfbench: workload=%.*s seed=%" PRIu64
              " seconds=%g trace=%d slices=%d\n",
              static_cast<int>(w.name.size()), w.name.data(), args.seed,
              args.seconds, args.trace, slices);
  std::printf("host: {\"nproc\": %d, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"shm_memcpy_MBps\": %.1f, "
              "\"shm_wake_us\": %.4f}\n",
              cpu_count(), quoted(cpu_model()).c_str(),
              quoted(compiler()).c_str(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(), memcpy_mbps.p50(),
              wake_us.p50());
  std::printf("failed_frac: %.6g (%" PRIu64 " of %" PRIu64 " messages)\n",
              ratio(d(failed), d(attempted)), failed, attempted);
  std::printf("alloc.pool_grows: %" PRIu64 " over the timed phases\n",
              pool_grows);
  const bool correct = failed == 0 && attempted > 0;
  print_result(correct, attempted, failed,
               traced_run
                   ? layer_metrics(layers, pool_grows, slices, base, traced)
                   : end_to_end_metrics(base, setup_s));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload pingpong_4B|multiseg_16x64B|rdv_1MiB "
                 "--seed N --seconds S --trace 0|1 "
                 "[--self-test corrupt-payload|drop-wire-rx]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
