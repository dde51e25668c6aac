// Engine-owned bulk receive window, the driver seam's replacement for
// leaking the simulated fabric's registered-memory handle through
// Driver::post_bulk_recv.
//
// One sink is one pre-posted destination region for track-1 (bulk /
// zero-copy) data, addressed by cookie. It may be posted on several
// rails at once (multi-rail reassembly into one region): coverage is a
// merged-interval set, so overlapping re-deposits — slice
// retransmissions, or the same slice landing via two rails — are
// idempotent and received() counts distinct covered bytes. Drivers call
// deposit() when they carry the payload themselves (the shm rings), or
// note_deposited() when the bytes are already in the region (the
// simulated NIC writes the region directly); both fire the same
// observer/completion sequence, so the engine above cannot tell the
// transports apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "util/buffer.hpp"
#include "util/inline_fn.hpp"

namespace nmad::drivers {

class BulkSink {
 public:
  // Capacity sized for the engine's callbacks ([this, gate_id, cookie]).
  using CompletionFn = util::InlineFunction<48>;
  using DepositFn = util::InlineFunction<48, void(size_t, size_t)>;

  BulkSink(uint64_t cookie, util::MutableBytes region, size_t expected,
           CompletionFn on_complete);

  BulkSink(const BulkSink&) = delete;
  BulkSink& operator=(const BulkSink&) = delete;

  [[nodiscard]] uint64_t cookie() const { return cookie_; }
  [[nodiscard]] util::MutableBytes region() const { return region_; }
  [[nodiscard]] size_t expected() const { return expected_; }
  [[nodiscard]] size_t received() const { return received_; }
  [[nodiscard]] bool complete() const { return received_ == expected_; }

  // Observer fired on every deposit, duplicates included — the
  // reliability layer acks each slice it hears, even retransmitted ones.
  void set_on_deposit(DepositFn fn) { on_deposit_ = std::move(fn); }

  // Accounts a slice a driver already placed in the region (zero-copy
  // transports and the simulated NIC's direct writes).
  void note_deposited(size_t offset, size_t len);

 private:
  uint64_t cookie_;
  util::MutableBytes region_;
  size_t expected_;
  size_t received_ = 0;
  std::map<size_t, size_t> covered_;  // offset → end, disjoint intervals
  CompletionFn on_complete_;
  DepositFn on_deposit_;
};

}  // namespace nmad::drivers
