#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "alloc_count.hpp"
#include "nmad/core/strategy.hpp"
#include "nmad/strategies/builtin.hpp"
#include "util/assert.hpp"

namespace perfbench {
namespace {

// BENCHMARK.json and README.md record why each workload is here.
constexpr Workload kWorkloads[] = {
    {"pingpong_4B", 1, 4, false},
    {"multiseg_16x64B", 16, 64, true},
    {"rdv_1MiB", 1, size_t{1} << 20, false},
};

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A Core builds its strategy inside WallCluster's constructor, before any
// Harness exists, so each timed strategy parks its log here for the next
// traced Harness to claim. WallCluster builds node 0's Core first.
std::mutex g_unclaimed_mu;
std::vector<std::shared_ptr<NodeLog>> g_unclaimed_logs;

class TimedAggreg final : public core::Strategy {
 public:
  TimedAggreg(std::unique_ptr<core::Strategy> inner,
              std::shared_ptr<NodeLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] std::string_view name() const override {
    return kTimedStrategy;
  }

  size_t pack(core::ScheduleLayer& sched, core::Gate& gate,
              const core::RailInfo& rail,
              core::PacketBuilder& builder) override {
    const int64_t start = now_ns();
    const size_t taken = inner_->pack(sched, gate, rail, builder);
    const int64_t end = now_ns();
    UncountedScope uncounted;
    log_->pack_us.push_back(ns_to_us(end - start));
    return taken;
  }

  BulkDecision next_bulk(core::ScheduleLayer& sched, core::Gate& gate,
                         const core::RailInfo& rail) override {
    return inner_->next_bulk(sched, gate, rail);
  }

 private:
  std::unique_ptr<core::Strategy> inner_;
  std::shared_ptr<NodeLog> log_;
};

bool is_tx(const WireEvent& e) { return !e.rx; }
bool is_packet_tx(const WireEvent& e) { return !e.rx && !e.bulk; }
bool is_bulk_tx(const WireEvent& e) { return e.bulk; }
bool is_rx(const WireEvent& e) { return e.rx; }

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void register_timed_strategy() {
  core::ensure_builtin_strategies();
  core::register_strategy(kTimedStrategy, [] {
    auto log = std::make_shared<NodeLog>();
    {
      std::lock_guard<std::mutex> lock(g_unclaimed_mu);
      g_unclaimed_logs.push_back(log);
    }
    return std::make_unique<TimedAggreg>(core::make_strategy("aggreg"),
                                         std::move(log));
  });
}

Payloads::Payloads(const Workload& w, uint64_t seed)
    : bytes_(w.bytes), segments_(w.segments) {
  uint64_t state = seed;
  out_.resize(2 * kPatterns * segments_);
  for (size_t i = 0; i < out_.size(); ++i) {
    std::vector<std::byte>& buf = out_[i];
    buf.resize(bytes_);
    for (size_t off = 0; off < bytes_; off += sizeof(uint64_t)) {
      const uint64_t x = splitmix64(state);
      std::memcpy(buf.data() + off, &x, std::min(sizeof x, bytes_ - off));
    }
    // The patterns of one message differ in their first byte, so even a
    // 4-byte payload cannot pass for the previous exchange's.
    const auto pattern = static_cast<uint8_t>(i / segments_ % kPatterns);
    buf[0] = std::byte((static_cast<uint8_t>(buf[0]) & 0xfc) | pattern);
  }
  in_.assign(2 * segments_, std::vector<std::byte>(bytes_));
}

util::ConstBytes Payloads::out(size_t dir, size_t pattern,
                               size_t seg) const {
  const std::vector<std::byte>& buf =
      out_[(dir * kPatterns + pattern) * segments_ + seg];
  return {buf.data(), buf.size()};
}

util::MutableBytes Payloads::in(size_t dir, size_t seg) {
  std::vector<std::byte>& buf = in_[dir * segments_ + seg];
  return {buf.data(), buf.size()};
}

bool Payloads::received_ok(size_t dir, size_t pattern, size_t seg) {
  const util::ConstBytes want = out(dir, pattern, seg);
  return std::memcmp(in(dir, seg).data(), want.data(), want.size()) == 0;
}

void EndToEnd::end_slice() {
  const auto messages = static_cast<double>(slice_messages);
  p50_us.add(lat_us.p50());
  p95_us.add(lat_us.quantile(0.95));
  msg_rate_kps.add(messages / span_us * 1e3);
  goodput_mbps.add(static_cast<double>(slice_bytes) / span_us);
  cpu_us_per_msg.add(cpu_us / messages);
  lat_us = Samples();
  span_us = 0.0;
  cpu_us = 0.0;
  slice_messages = 0;
  slice_bytes = 0;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.timers_executed = timers_executed - o.timers_executed;
  d.chunks_sent = chunks_sent - o.chunks_sent;
  d.packets_sent = packets_sent - o.packets_sent;
  d.chunks_aggregated = chunks_aggregated - o.chunks_aggregated;
  d.chunks_received = chunks_received - o.chunks_received;
  d.unexpected_chunks = unexpected_chunks - o.unexpected_chunks;
  d.pool_grows = pool_grows - o.pool_grows;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  timers_executed += o.timers_executed;
  chunks_sent += o.chunks_sent;
  packets_sent += o.packets_sent;
  chunks_aggregated += o.chunks_aggregated;
  chunks_received += o.chunks_received;
  unexpected_chunks += o.unexpected_chunks;
  pool_grows += o.pool_grows;
  return *this;
}

Harness::Harness(api::WallCluster& cluster, const Workload& w, Mode mode,
                 Payloads& payloads, LayerSamples& layers,
                 SelfTest self_test)
    : cluster_(cluster),
      w_(w),
      mode_(mode),
      payloads_(payloads),
      layers_(layers),
      self_test_(self_test) {
  if (mode_ != Mode::kTraced) return;
  {
    std::lock_guard<std::mutex> lock(g_unclaimed_mu);
    NMAD_ASSERT_MSG(g_unclaimed_logs.size() == 2,
                    "a traced cluster runs the timed strategy on both nodes");
    logs_ = {g_unclaimed_logs[0], g_unclaimed_logs[1]};
    g_unclaimed_logs.clear();
  }
  for (size_t node = 0; node < 2; ++node) {
    const std::shared_ptr<NodeLog>& log = logs_[node];
    events_[node].reserve(256);
    cluster_.locked(node, [&](core::Core& c) {
      log->events.reserve(256);
      c.bus().subscribe(core::EventKind::kWireTx,
                        [log](const core::Event& ev) {
                          UncountedScope uncounted;
                          log->events.push_back(
                              {now_ns(), false, ev.b == 1, ev.a});
                        });
      c.bus().subscribe(core::EventKind::kWireRx,
                        [log](const core::Event& ev) {
                          UncountedScope uncounted;
                          log->events.push_back({now_ns(), true, false, ev.a});
                        });
    });
  }
}

// Posts under the node's exec lock with the completion stamp installed in
// the same critical section, so no completion can slip in between.
template <typename Post>
void Harness::post_traced(size_t node, Req& r, Samples& engine_us,
                          Post&& post) {
  const int64_t called = now_ns();
  int64_t entered = 0;
  cluster_.locked(node, [&](core::Core& c) {
    entered = now_ns();
    r.req = post(c);
    r.ret_ns = now_ns();
    Req* stamped = &r;
    r.req->set_on_complete([stamped] {
      stamped->done_ns.store(now_ns(), std::memory_order_release);
    });
    if (r.req->done()) r.done_ns.store(r.ret_ns, std::memory_order_release);
  });
  note(layers_.lock_wait, entered - called);
  note(engine_us, r.ret_ns - entered);
}

void Harness::send(size_t node, size_t seg, util::ConstBytes bytes, Req& r) {
  const core::GateId gate = cluster_.gate(node, 1 - node);
  const auto tag = static_cast<core::Tag>(seg + 1);
  r.done_ns.store(0, std::memory_order_relaxed);
  if (mode_ == Mode::kTraced) {
    post_traced(node, r, layers_.isend, [&](core::Core& c) {
      return c.isend(gate, tag, bytes);
    });
    return;
  }
  const int64_t start = now_ns();
  r.req = cluster_.post_send(node, gate, tag, bytes);
  note(layers_.post_send, now_ns() - start);
}

void Harness::recv(size_t node, size_t seg, util::MutableBytes bytes,
                   Req& r) {
  const core::GateId gate = cluster_.gate(node, 1 - node);
  const auto tag = static_cast<core::Tag>(seg + 1);
  r.done_ns.store(0, std::memory_order_relaxed);
  if (mode_ == Mode::kTraced) {
    post_traced(node, r, layers_.irecv, [&](core::Core& c) {
      return c.irecv(gate, tag, bytes);
    });
    return;
  }
  const int64_t start = now_ns();
  r.req = cluster_.post_recv(node, gate, tag, bytes);
  note(layers_.post_recv, now_ns() - start);
}

void Harness::wait(size_t node, Req& r) {
  if (mode_ != Mode::kTraced) {
    cluster_.wait(node, r.req);
    return;
  }
  // Only a wait that blocked has a wake lag.
  const bool pending = r.done_ns.load(std::memory_order_acquire) == 0;
  cluster_.wait(node, r.req);
  const int64_t woke = now_ns();
  if (pending) {
    note(layers_.wake_lag,
         woke - r.done_ns.load(std::memory_order_acquire));
  }
}

void Harness::release(size_t node, Req& r) {
  if (mode_ != Mode::kTraced) {
    cluster_.release(node, r.req);
  } else {
    const int64_t called = now_ns();
    int64_t entered = 0;
    int64_t done = 0;
    cluster_.locked(node, [&](core::Core& c) {
      entered = now_ns();
      c.release(r.req);
      done = now_ns();
    });
    note(layers_.lock_wait, entered - called);
    note(layers_.release, done - entered);
  }
  r.req = nullptr;
}

void Harness::exchange(uint64_t index, EndToEnd* e2e) {
  sampling_ = e2e != nullptr;
  const size_t n = w_.segments;
  const size_t pattern = index % Payloads::kPatterns;
  if (!w_.late_recv) {
    for (size_t dir = 0; dir < 2; ++dir) {
      for (size_t k = 0; k < n; ++k) {
        recv(1 - dir, k, payloads_.in(dir, k), recvs_[dir][k]);
      }
    }
  }

  std::array<int64_t, 2> half_start{};
  const int64_t cpu0 = process_cpu_ns();
  const int64_t t0 = now_ns();
  for (size_t dir = 0; dir < 2; ++dir) {
    const size_t from = dir;
    const size_t to = 1 - dir;
    half_start[dir] = now_ns();
    for (size_t k = 0; k < n; ++k) {
      send(from, k, payloads_.out(dir, pattern, k), sends_[dir][k]);
    }
    if (w_.late_recv) {
      for (size_t k = 0; k < n; ++k) wait(from, sends_[dir][k]);
      for (size_t k = 0; k < n; ++k) {
        recv(to, k, payloads_.in(dir, k), recvs_[dir][k]);
      }
    }
    for (size_t k = 0; k < n; ++k) wait(to, recvs_[dir][k]);
  }
  const int64_t t1 = now_ns();
  const int64_t cpu1 = process_cpu_ns();
  if (!w_.late_recv) {
    for (size_t dir = 0; dir < 2; ++dir) {
      for (size_t k = 0; k < n; ++k) wait(dir, sends_[dir][k]);
    }
  }

  uint64_t failed = 0;
  for (size_t dir = 0; dir < 2; ++dir) {
    for (size_t k = 0; k < n; ++k) {
      if (self_test_.corrupt_payload && sampling_) {
        payloads_.in(dir, k)[0] ^= std::byte{0x01};
        self_test_.corrupt_payload = false;
      }
      const bool ok = sends_[dir][k].req->status().is_ok() &&
                      recvs_[dir][k].req->status().is_ok() &&
                      payloads_.received_ok(dir, pattern, k);
      if (!ok) ++failed;
      release(dir, sends_[dir][k]);
      release(1 - dir, recvs_[dir][k]);
    }
  }
  const uint64_t messages = 2 * n;
  if (mode_ == Mode::kTraced) {
    take_wire_events();
    if (sampling_ && !analyze(index, half_start)) failed = messages;
  }
  if (e2e == nullptr) return;

  e2e->lat_us.add(ns_to_us(t1 - t0) / 2.0);
  e2e->span_us += ns_to_us(t1 - t0);
  e2e->cpu_us += ns_to_us(cpu1 - cpu0);
  e2e->slice_messages += messages;
  e2e->slice_bytes += messages * w_.bytes;
  ++e2e->exchanges;
  e2e->messages += messages;
  e2e->failed += failed;
  if (mode_ == Mode::kTraced) {
    layers_.messages += messages;
    layers_.payload_bytes += messages * w_.bytes;
  }
}

void Harness::take_wire_events() {
  for (size_t node = 0; node < 2; ++node) {
    events_[node].clear();
    cluster_.locked(node, [&](core::Core&) {
      events_[node].swap(logs_[node]->events);
    });
  }
}

void Harness::take_pack_samples(bool keep) {
  for (size_t node = 0; node < 2; ++node) {
    cluster_.locked(node, [&](core::Core&) {
      std::vector<double>& log = logs_[node]->pack_us;
      if (keep) {
        for (const double us : log) layers_.pack.add(us);
      }
      log.clear();
    });
  }
}

Counters Harness::counters() {
  Counters c;
  for (size_t node = 0; node < 2; ++node) {
    cluster_.locked(node, [&](core::Core& core) {
      const core::CoreStats& s = core.stats();
      c.chunks_sent += s.chunks_sent;
      c.packets_sent += s.packets_sent;
      c.chunks_aggregated += s.chunks_aggregated;
      c.chunks_received += s.chunks_received;
      c.unexpected_chunks += s.unexpected_chunks;
      const core::Core::AllocStats a = core.alloc_stats();
      c.pool_grows += a.chunk_pool_grows + a.bulk_pool_grows +
                      a.send_pool_grows + a.recv_pool_grows;
      // The InlineFunction spill count is process-wide: take it once.
      if (node == 0) c.pool_grows += a.inline_fn_heap_allocs;
    });
    const runtime::TimerStats t = cluster_.rt(node).timer_stats();
    c.timers_executed += t.executed;
    c.pool_grows += t.node_slabs + t.resizes;
  }
  return c;
}

// Turns one traced exchange's wire events and completion stamps into
// stage samples. The events of a node are in time order: each was stamped
// under that node's exec lock.
bool Harness::analyze(uint64_t index,
                      const std::array<int64_t, 2>& half_start) {
  if (self_test_.drop_wire_rx) {
    std::vector<WireEvent>& ev = events_[1];
    const auto rx = std::find_if(ev.begin(), ev.end(), is_rx);
    if (rx != ev.end()) {
      ev.erase(rx);
      self_test_.drop_wire_rx = false;
    }
  }

  // transfer.wire_us: a direction's packet kWireTx, paired in order with
  // the peer's kWireRx. Anything but one-to-one makes the trace unusable.
  bool ok = true;
  for (size_t d = 0; d < 2; ++d) {
    const std::vector<WireEvent>& tx = events_[d];
    const std::vector<WireEvent>& rx = events_[1 - d];
    const auto n_tx = std::count_if(tx.begin(), tx.end(), is_packet_tx);
    const auto n_rx = std::count_if(rx.begin(), rx.end(), is_rx);
    if (n_tx != n_rx) {
      std::fprintf(stderr,
                   "perfbench: exchange %" PRIu64
                   ", node %zu -> node %zu: %td packet kWireTx but %td "
                   "kWireRx; the wire trace does not pair one-to-one\n",
                   index, d, 1 - d, n_tx, n_rx);
      ok = false;
      continue;
    }
    auto t = tx.begin();
    auto r = rx.begin();
    for (std::ptrdiff_t i = 0; i < n_tx; ++i, ++t, ++r) {
      t = std::find_if(t, tx.end(), is_packet_tx);
      r = std::find_if(r, rx.end(), is_rx);
      if (r->t_ns < t->t_ns) {
        std::fprintf(stderr,
                     "perfbench: exchange %" PRIu64
                     ", node %zu -> node %zu: a packet was received before "
                     "it was sent; the wire trace does not pair\n",
                     index, d, 1 - d);
        ok = false;
        break;
      }
      layers_.wire.add_ns(r->t_ns - t->t_ns);
    }
  }
  for (const std::vector<WireEvent>& ev : events_) {
    for (const WireEvent& e : ev) {
      if (!e.rx) layers_.wire_bytes += e.bytes;
    }
  }

  for (size_t dir = 0; dir < 2; ++dir) {
    const size_t from = dir;
    const size_t to = 1 - dir;
    const int64_t lo = half_start[dir];
    const int64_t hi =
        dir == 0 ? half_start[1] : std::numeric_limits<int64_t>::max();
    // The latest event of `node` in this half, at or before `t`, that
    // `want` accepts; -1 when there is none.
    const auto latest = [&](size_t node, int64_t t, auto want) {
      int64_t found = -1;
      for (const WireEvent& e : events_[node]) {
        if (e.t_ns > t) break;
        if (e.t_ns >= lo && e.t_ns < hi && want(e)) found = e.t_ns;
      }
      return found;
    };

    int64_t first_packet = -1;
    int64_t first_bulk = -1;
    int64_t last_tx = -1;
    for (const WireEvent& e : events_[from]) {
      if (e.rx || e.t_ns < lo || e.t_ns >= hi) continue;
      last_tx = e.t_ns;
      int64_t& first = e.bulk ? first_bulk : first_packet;
      if (first < 0) first = e.t_ns;
    }
    if (last_tx >= 0) layers_.window.add_ns(last_tx - lo);
    if (first_bulk >= 0 && first_packet >= 0) {
      layers_.rdv_handshake.add_ns(first_bulk - first_packet);
    }

    for (size_t k = 0; k < w_.segments; ++k) {
      const int64_t sent =
          sends_[dir][k].done_ns.load(std::memory_order_acquire);
      const int64_t tx = latest(from, sent, is_tx);
      if (tx >= 0) layers_.tx_done.add_ns(sent - tx);

      const Req& r = recvs_[dir][k];
      const int64_t got = r.done_ns.load(std::memory_order_acquire);
      if (first_bulk >= 0) {
        const int64_t bulk = latest(from, got, is_bulk_tx);
        if (bulk >= 0) layers_.bulk.add_ns(got - bulk);
      } else {
        // Eager: from the packet's decode, or from a late irecv's return.
        const int64_t arrived = latest(to, got, is_rx);
        layers_.timer_hop.add_ns(got - std::max(r.ret_ns, arrived));
      }
    }
  }
  return ok;
}

}  // namespace perfbench
