#include "harness/oracle.hpp"

#include <cstdio>

#include "util/wire.hpp"

namespace nmad::harness {
namespace {

constexpr size_t kMaxRecordedViolations = 200;

const char* code_name(util::StatusCode code) {
  return util::status_code_name(code);
}

}  // namespace

void ProtocolOracle::violation(std::string what) {
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(std::move(what));
  }
}

size_t ProtocolOracle::send_posted(int src, int dst, uint64_t tag,
                                   util::ConstBytes data) {
  Stream& stream = streams_[StreamKey{src, dst, tag}];
  SendRec rec;
  rec.bytes = data.size();
  rec.checksum = util::Fnv32::of(data);
  stream.sends.push_back(rec);
  ++sends_tracked_;
  return stream.sends.size() - 1;
}

size_t ProtocolOracle::recv_posted(int dst, int src, uint64_t tag,
                                   util::ConstBytes buffer) {
  Stream& stream = streams_[StreamKey{src, dst, tag}];
  RecvRec rec;
  rec.buffer = buffer;
  stream.recvs.push_back(rec);
  ++recvs_tracked_;
  return stream.recvs.size() - 1;
}

void ProtocolOracle::send_completed(int src, int dst, uint64_t tag,
                                    size_t index,
                                    const util::Status& status) {
  Stream& stream = streams_[StreamKey{src, dst, tag}];
  if (index >= stream.sends.size()) {
    violation("send completion for an unposted message");
    return;
  }
  SendRec& rec = stream.sends[index];
  if (rec.completed) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "send %d->%d tag %llu #%zu completed twice", src, dst,
                  static_cast<unsigned long long>(tag), index);
    violation(buf);
    return;
  }
  rec.completed = true;
  rec.code = status.code();
}

void ProtocolOracle::recv_completed(int dst, int src, uint64_t tag,
                                    size_t index,
                                    const util::Status& status,
                                    size_t received_bytes) {
  Stream& stream = streams_[StreamKey{src, dst, tag}];
  if (index >= stream.recvs.size()) {
    violation("recv completion for an unposted receive");
    return;
  }
  RecvRec& rec = stream.recvs[index];
  char buf[200];
  if (rec.completed) {
    std::snprintf(buf, sizeof(buf),
                  "recv %d<-%d tag %llu #%zu completed twice", dst, src,
                  static_cast<unsigned long long>(tag), index);
    violation(buf);
    return;
  }
  rec.completed = true;
  rec.code = status.code();

  if (status.is_ok()) {
    // FIFO matching: the k-th receive on this stream must carry the k-th
    // send's payload — any legal reordering/aggregation/splitting inside
    // the engine still reassembles to exactly these bytes.
    if (index >= stream.sends.size()) {
      std::snprintf(buf, sizeof(buf),
                    "recv %d<-%d tag %llu #%zu delivered with no matching "
                    "send posted",
                    dst, src, static_cast<unsigned long long>(tag), index);
      violation(buf);
      return;
    }
    const SendRec& sent = stream.sends[index];
    if (received_bytes != sent.bytes) {
      std::snprintf(buf, sizeof(buf),
                    "recv %d<-%d tag %llu #%zu got %zu bytes, send #%zu "
                    "submitted %zu",
                    dst, src, static_cast<unsigned long long>(tag), index,
                    received_bytes, index, sent.bytes);
      violation(buf);
      return;
    }
    const uint32_t got =
        util::Fnv32::of(rec.buffer.subspan(0, received_bytes));
    if (got != sent.checksum) {
      std::snprintf(buf, sizeof(buf),
                    "recv %d<-%d tag %llu #%zu payload checksum %08x != "
                    "submitted %08x (misordered or torn delivery)",
                    dst, src, static_cast<unsigned long long>(tag), index,
                    got, sent.checksum);
      violation(buf);
    }
    return;
  }
  if (status.code() == util::StatusCode::kCancelled ||
      status.code() == util::StatusCode::kDeadlineExceeded) {
    return;  // a withdrawal on either end is a legal outcome
  }
  if (allow_failures_ && (status.code() == util::StatusCode::kClosed ||
                          status.code() == util::StatusCode::kPeerDead ||
                          status.code() ==
                              util::StatusCode::kResourceExhausted)) {
    return;  // gate failure / peer death under a harsh fault schedule
  }
  std::snprintf(buf, sizeof(buf),
                "recv %d<-%d tag %llu #%zu completed with unexpected "
                "status %s",
                dst, src, static_cast<unsigned long long>(tag), index,
                code_name(status.code()));
  violation(buf);
}

void ProtocolOracle::finalize(std::span<core::Core* const> cores,
                              bool allow_gate_failures) {
  char buf[240];
  // Completion audit: nothing posted may be left pending or lost.
  for (const auto& [key, stream] : streams_) {
    const auto [src, dst, tag] = key;
    for (size_t i = 0; i < stream.sends.size(); ++i) {
      if (!stream.sends[i].completed) {
        std::snprintf(buf, sizeof(buf),
                      "send %d->%d tag %llu #%zu never completed", src,
                      dst, static_cast<unsigned long long>(tag), i);
        violation(buf);
      }
    }
    for (size_t i = 0; i < stream.recvs.size(); ++i) {
      if (!stream.recvs[i].completed) {
        std::snprintf(buf, sizeof(buf),
                      "recv %d<-%d tag %llu #%zu never completed", dst,
                      src, static_cast<unsigned long long>(tag), i);
        violation(buf);
      }
    }
    if (stream.sends.size() != stream.recvs.size()) {
      std::snprintf(buf, sizeof(buf),
                    "stream %d->%d tag %llu unbalanced: %zu sends, %zu "
                    "recvs (harness bug)",
                    src, dst, static_cast<unsigned long long>(tag),
                    stream.sends.size(), stream.recvs.size());
      violation(buf);
    }
  }

  // Engine-side audit at quiescence.
  for (uint32_t n = 0; n < cores.size(); ++n) {
    core::Core& core = *cores[n];
    std::vector<std::string> internal;
    if (!core.check_invariants(&internal)) {
      for (const std::string& f : internal) {
        std::snprintf(buf, sizeof(buf), "node %u invariant: %s", n,
                      f.c_str());
        violation(buf);
      }
    }
    if (core.stats().rx_stored_bytes != 0) {
      std::snprintf(buf, sizeof(buf),
                    "node %u: %llu bytes stranded in the unexpected store "
                    "at quiescence",
                    n, static_cast<unsigned long long>(
                           core.stats().rx_stored_bytes));
      violation(buf);
    }
  }

  // Credit conservation: what each receiver heard is exactly what its
  // peer charged. A skipped charge (or a double delivery that slipped
  // past seq dedup) breaks the balance even when no limit ever bound.
  for (uint32_t a = 0; a < cores.size(); ++a) {
    for (uint32_t b = 0; b < cores.size(); ++b) {
      if (a == b) continue;
      core::Core& sender = *cores[a];
      core::Core& receiver = *cores[b];
      if (!sender.config().flow_control) continue;
      // Lazy-mesh runs only wire the pairs that talked; an unopened pair
      // has no gates to balance.
      const core::GateId tx_id = sender.gate_to(b);
      const core::GateId rx_id = receiver.gate_to(a);
      if (tx_id == core::kNoGate || rx_id == core::kNoGate) continue;
      core::Gate& tx = sender.gate(tx_id);
      core::Gate& rx = receiver.gate(rx_id);
      if (tx.failed || rx.failed) {
        if (!allow_gate_failures) {
          std::snprintf(buf, sizeof(buf),
                        "gate pair %u<->%u failed under a schedule that "
                        "promised recoverable faults", a, b);
          violation(buf);
        }
        continue;
      }
      if (tx.sched.eager_sent_bytes != rx.sched.eager_heard_bytes ||
          tx.sched.eager_sent_chunks != rx.sched.eager_heard_chunks) {
        std::snprintf(
            buf, sizeof(buf),
            "credit imbalance %u->%u: sender charged %llu bytes / %llu "
            "chunks, receiver heard %llu/%llu", a, b,
            static_cast<unsigned long long>(tx.sched.eager_sent_bytes),
            static_cast<unsigned long long>(tx.sched.eager_sent_chunks),
            static_cast<unsigned long long>(rx.sched.eager_heard_bytes),
            static_cast<unsigned long long>(rx.sched.eager_heard_chunks));
        violation(buf);
      }
    }
  }
}

}  // namespace nmad::harness
