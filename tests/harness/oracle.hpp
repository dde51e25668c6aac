// Protocol delivery oracle: an in-memory shadow of every message the
// harness pushes through the engine, asserting the observable contract
// the optimizing layer must preserve no matter how it reorders,
// aggregates, or splits traffic (paper §3; docs/ARCHITECTURE.md §12):
//
//   - per-(gate, tag) FIFO matching: the k-th receive posted on a (peer,
//     tag) stream gets the k-th send's payload, verified by checksum;
//   - payload integrity: the delivered bytes hash to what was submitted;
//   - exactly-once completion: no request completes twice, none is lost;
//   - cancellation soundness: a cancelled send may only produce a
//     kCancelled receive or a fully-delivered one (the cancel raced the
//     delivery) — never torn payload;
//   - credit conservation at quiescence: every eager byte the receiver
//     heard was charged by the sender, the unexpected store drained to
//     zero, and Core::check_invariants holds on every node.
//
// The oracle never inspects engine internals during the run — it shadows
// the API boundary (submit/complete), which is exactly what stays
// invariant across strategies and fault schedules.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "nmad/core/core.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace nmad::harness {

class ProtocolOracle {
 public:
  // Posting. Returns the message's position in its (src, dst, tag) FIFO
  // stream; pass the same index to the matching *_completed call.
  size_t send_posted(int src, int dst, uint64_t tag, util::ConstBytes data);
  size_t recv_posted(int dst, int src, uint64_t tag,
                     util::ConstBytes buffer);

  // Completion (call from the request's on_complete hook, or when the
  // harness observes done()). `buffer` of the receive is re-hashed here —
  // at completion time, after the engine wrote it.
  void send_completed(int src, int dst, uint64_t tag, size_t index,
                      const util::Status& status);
  void recv_completed(int dst, int src, uint64_t tag, size_t index,
                      const util::Status& status, size_t received_bytes);

  // End-of-run audit once the engines are quiescent: every posted
  // operation completed, per-pair eager accounting balances, stores
  // drained, and each core's compiled-in invariants hold. `cores[n]` is
  // node n's engine, which no other thread may be inside (on the wall
  // clock, hold every exec lock). With `allow_gate_failures`, pairs whose
  // gate failed (harsh fault schedules) skip the balance checks.
  void finalize(std::span<core::Core* const> cores,
                bool allow_gate_failures = false);

  // Harsh fault schedules may legitimately fail gates; completions then
  // surface kClosed/kResourceExhausted instead of kOk. Off by default.
  void set_allow_failures(bool v) { allow_failures_ = v; }

  // Records a harness-level failure (e.g. the world never went
  // quiescent) alongside the protocol violations.
  void note_violation(std::string what) { violation(std::move(what)); }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] size_t sends_tracked() const { return sends_tracked_; }
  [[nodiscard]] size_t recvs_tracked() const { return recvs_tracked_; }

 private:
  struct SendRec {
    size_t bytes = 0;
    uint32_t checksum = 0;
    bool completed = false;
    util::StatusCode code = util::StatusCode::kOk;
  };
  struct RecvRec {
    util::ConstBytes buffer;  // owned by the harness, outlives the run
    bool completed = false;
    util::StatusCode code = util::StatusCode::kOk;
  };
  // One FIFO stream of messages between an ordered node pair on one tag.
  struct Stream {
    std::vector<SendRec> sends;
    std::vector<RecvRec> recvs;
  };
  using StreamKey = std::tuple<int, int, uint64_t>;  // (src, dst, tag)

  void violation(std::string what);

  std::map<StreamKey, Stream> streams_;
  std::vector<std::string> violations_;
  bool allow_failures_ = false;
  size_t sends_tracked_ = 0;
  size_t recvs_tracked_ = 0;
};

}  // namespace nmad::harness
