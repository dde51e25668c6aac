// The benchmark harness: closed-loop exchanges on a 2-node WallCluster,
// with the payload check, and the outside-in probes of the traced run.
//
// Node 0 and node 1 are both driven by the one application thread. One
// exchange is a message burst from node 0 to node 1 followed by the
// mirrored burst back; its one-way time is half the round trip. Direction
// d (0: node 0 -> node 1, 1: back) sends from node d to node 1 - d.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "nmad/api/wall_session.hpp"
#include "samples.hpp"

namespace perfbench {

namespace api = nmad::api;
namespace core = nmad::core;
namespace runtime = nmad::runtime;
namespace util = nmad::util;

struct Workload {
  std::string_view name;
  size_t segments;  // messages per direction per exchange, tags 1..segments
  size_t bytes;     // per message
  // The receiver posts its receives only after every send of the burst
  // completed (store-then-match); otherwise it pre-posts them before the
  // exchange is timed (expected path).
  bool late_recv;
};

inline constexpr size_t kMaxSegments = 16;

const Workload* find_workload(std::string_view name);

// Seed-derived payloads. Exchange i sends pattern i % kPatterns, so a
// receive buffer still holding the previous exchange's bytes fails the
// check.
class Payloads {
 public:
  static constexpr size_t kPatterns = 4;

  Payloads(const Workload& w, uint64_t seed);

  [[nodiscard]] util::ConstBytes out(size_t dir, size_t pattern,
                                     size_t seg) const;
  [[nodiscard]] util::MutableBytes in(size_t dir, size_t seg);
  [[nodiscard]] bool received_ok(size_t dir, size_t pattern, size_t seg);

 private:
  size_t bytes_;
  size_t segments_;
  std::vector<std::vector<std::byte>> out_;  // [dir][pattern][seg]
  std::vector<std::vector<std::byte>> in_;   // [dir][seg]
};

// One posted request and the stamps the traced run takes around it.
struct Req {
  core::Request* req = nullptr;
  int64_t ret_ns = 0;               // the engine's post call returned
  std::atomic<int64_t> done_ns{0};  // its completion callback ran
};

enum class Mode {
  kPlain,   // API calls only, each post timed: the end-to-end figures
  kTraced,  // every probe on
};

// End-to-end accumulators of a run. Each figure is taken per slice, and
// the run reports the better quartile of its slices (see main.cpp): each
// slice runs on a fresh placement of the engine's threads, and host
// interference only ever slows a slice down.
struct EndToEnd {
  // The current slice.
  Samples lat_us;          // one-way exchange time
  double span_us = 0.0;    // sum of the timed round trips
  double cpu_us = 0.0;     // process CPU inside those round trips
  uint64_t slice_messages = 0;
  uint64_t slice_bytes = 0;  // payload
  // The whole run.
  uint64_t exchanges = 0;
  uint64_t messages = 0;   // attempted
  uint64_t failed = 0;     // bad status, payload mismatch or bad trace
  // One value per finished slice.
  Samples p50_us, p95_us, msg_rate_kps, goodput_mbps, cpu_us_per_msg;

  // Folds the current slice into the per-slice figures; the slice timed
  // at least one exchange.
  void end_slice();
};

// Engine counters summed over both nodes.
struct Counters {
  uint64_t timers_executed = 0;
  uint64_t chunks_sent = 0;
  uint64_t packets_sent = 0;
  uint64_t chunks_aggregated = 0;
  uint64_t chunks_received = 0;
  uint64_t unexpected_chunks = 0;
  uint64_t pool_grows = 0;  // pool slabs, timer slabs and resizes, spills

  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

// Per-layer accumulators of a traced run: the plain slices fill
// post_send / post_recv, the traced slices everything else.
struct LayerSamples {
  Samples post_send, post_recv, wake_lag;      // api
  Samples lock_wait, timer_hop;                // runtime
  Samples isend, irecv, release;               // collect
  Samples pack, window;                        // schedule
  Samples wire, tx_done, rdv_handshake, bulk;  // transfer
  Counters engine;             // deltas over the traced timed phases
  uint64_t messages = 0;       // in traced timed exchanges
  uint64_t payload_bytes = 0;  // of those messages
  uint64_t wire_bytes = 0;     // kWireTx bytes of the same exchanges
  uint64_t heap_allocs = 0;
};

// Registers kTimedStrategy: the builtin aggreg with every pack() call
// timed. Call once, before building a traced cluster.
inline constexpr const char* kTimedStrategy = "perfbench_aggreg";
void register_timed_strategy();

struct SelfTest {
  bool corrupt_payload = false;  // flip one received byte before a check
  bool drop_wire_rx = false;     // lose one kWireRx record before pairing
};

// What the traced run records on one node: its kWireTx / kWireRx events
// stamped with the benchmark clock, and the timed strategy's pack()
// durations. Written by whichever engine thread holds the node's exec
// lock; read by the application thread under the same lock.
struct WireEvent {
  int64_t t_ns;
  bool rx;
  bool bulk;
  uint64_t bytes;
};
struct NodeLog {
  std::vector<WireEvent> events;
  std::vector<double> pack_us;
};

class Harness {
 public:
  // Traced mode requires a cluster built with kTimedStrategy.
  Harness(api::WallCluster& cluster, const Workload& w, Mode mode,
          Payloads& payloads, LayerSamples& layers, SelfTest self_test);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // One closed-loop exchange. Timed exchanges feed `e2e` (and, traced,
  // the layer samples); warm-up exchanges pass nullptr.
  void exchange(uint64_t index, EndToEnd* e2e);

  [[nodiscard]] Counters counters();
  // Traced: moves the pack() durations recorded since the last call into
  // the layer samples, or drops them (warm-up).
  void take_pack_samples(bool keep);

 private:
  template <typename Post>
  void post_traced(size_t node, Req& r, Samples& engine_us, Post&& post);
  void send(size_t node, size_t seg, util::ConstBytes bytes, Req& r);
  void recv(size_t node, size_t seg, util::MutableBytes bytes, Req& r);
  void wait(size_t node, Req& r);
  void release(size_t node, Req& r);
  void note(Samples& s, int64_t ns) {
    if (sampling_) s.add_ns(ns);
  }
  void take_wire_events();
  bool analyze(uint64_t index, const std::array<int64_t, 2>& half_start);

  api::WallCluster& cluster_;
  const Workload& w_;
  const Mode mode_;
  Payloads& payloads_;
  LayerSamples& layers_;
  SelfTest self_test_;
  bool sampling_ = false;  // the current exchange is timed
  std::array<std::array<Req, kMaxSegments>, 2> sends_;  // [dir][seg]
  std::array<std::array<Req, kMaxSegments>, 2> recvs_;
  // Traced, per node: shared with the bus subscribers and the strategy.
  std::array<std::shared_ptr<NodeLog>, 2> logs_;
  std::array<std::vector<WireEvent>, 2> events_;  // the last exchange's
};

}  // namespace perfbench
