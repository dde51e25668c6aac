// ShmDriver: the first wall-clock transport — threaded shared-memory
// rails inside one process.
//
// A ShmHub is one rail's fabric: for every directed endpoint pair it owns
// a bounded SPSC ring of fixed-size frame slots (util::SpscRing), and for
// every endpoint a registry of posted bulk sinks. Track-0 packets are
// gather-copied into a ring slot by the sender and copied out by the
// receiver's pump thread — the ring *is* the wire. Track-1 rendezvous
// slices exploit the shared address space like RDMA exploits the remote
// one: the sender copies the body straight into the posted sink region
// (under the hub's sink-registry lock) and enqueues a payload-free
// "deposit note"; the receiver's pump then runs the sink's interval-merge
// and ack machinery under the engine's exec lock. A slice whose sink is
// gone at send time travels as an orphan note, surfacing through the
// same orphan hook the simulated NIC uses.
//
// Threading: each endpoint runs one pump thread. It drains the inbound
// rings and delivers everything under the runtime's IExecLock — the same
// serialization contract the WallClockRuntime's timer thread follows, so
// exactly one thread is ever inside a Core. Tx-done completions fire when
// the *receiver* consumes the frame: the consuming pump pushes a token
// into the sender's MPSC completion ring and the sender's own pump fires
// the callback under its exec lock. send_* never invoke the engine
// reentrantly, and — because the engine keeps a single packet in flight
// per rail — no directed ring ever holds more than one un-acked frame,
// so a full ring cannot wedge two flooding endpoints against each other.
//
// Steady-state sends and deliveries touch only the preallocated rings and
// the engine's pools; the per-packet handoff stays allocation-free
// through the InlineFunction seam.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nmad/drivers/driver.hpp"
#include "nmad/runtime/runtime.hpp"
#include "util/ring.hpp"

namespace nmad::drivers {

// One wire frame slot. Packets carry their bytes inline; bulk notes are
// headers only (the payload went directly into the sink region).
struct ShmFrame {
  enum class Kind : uint8_t { kPacket, kBulkNote };

  PeerAddr from = 0;
  Kind kind = Kind::kPacket;
  // Bulk notes: slice identity, plus whether the sink was already gone
  // when the sender looked (the slice then carried no bytes).
  bool orphan = false;
  uint64_t cookie = 0;
  size_t offset = 0;
  size_t len = 0;
  std::array<std::byte, 32 * 1024> payload;  // packets only, first `len`
};

class ShmHub {
 public:
  explicit ShmHub(size_t endpoints);

  [[nodiscard]] size_t endpoint_count() const { return sinks_.size(); }

  [[nodiscard]] util::SpscRing<ShmFrame>& ring(PeerAddr from, PeerAddr to);

  // Tx-done tokens for endpoint `at`: every pump that consumes one of
  // its frames pushes here (hence multi-producer), its own pump drains.
  [[nodiscard]] util::MpscRing<PeerAddr>& token_ring(PeerAddr at);

  // Sink registry (one per destination endpoint, lock per endpoint).
  void post_sink(PeerAddr at, BulkSink* sink);
  void remove_sink(PeerAddr at, uint64_t cookie);
  [[nodiscard]] BulkSink* find_sink(PeerAddr at, uint64_t cookie);
  // Copies `segments` into the sink region at `offset`, holding the
  // registry lock so the region cannot be cancelled out from under the
  // copy. False when no sink is posted under `cookie` (orphan slice).
  [[nodiscard]] bool deposit(PeerAddr at, uint64_t cookie, size_t offset,
                             const util::SegmentVec& segments);

 private:
  struct Endpoint {
    std::mutex mu;
    std::map<uint64_t, BulkSink*> sinks;
  };

  size_t n_;
  // [from * n_ + to]; unique_ptr because rings are not movable.
  std::vector<std::unique_ptr<util::SpscRing<ShmFrame>>> rings_;
  std::vector<std::unique_ptr<util::MpscRing<PeerAddr>>> tokens_;
  std::vector<std::unique_ptr<Endpoint>> sinks_;
};

class ShmDriver final : public Driver {
 public:
  // `exec` is the engine's serialization lock (the WallClockRuntime); the
  // pump thread enters the engine only under it.
  ShmDriver(ShmHub& hub, PeerAddr self, runtime::IExecLock& exec);
  ~ShmDriver() override;

  [[nodiscard]] const DriverCaps& caps() const override { return caps_; }

  // Self-measures the rail's real figures — memcpy bandwidth and
  // cross-thread wake latency — into caps() before starting the pump.
  [[nodiscard]] util::Status init() override;
  void shutdown() override;

  [[nodiscard]] bool tx_idle() const override {
    return tx_state_.load(std::memory_order_acquire) == kTxIdle;
  }

  util::Status send_packet(PeerAddr to, const util::SegmentVec& segments,
                           CompletionFn on_tx_done) override;
  util::Status send_bulk(PeerAddr to, uint64_t cookie, size_t offset,
                         const util::SegmentVec& segments,
                         CompletionFn on_tx_done) override;
  util::Status post_bulk_recv(BulkSink* sink) override;
  void cancel_bulk_recv(uint64_t cookie) override;

  void set_rx_handler(RxHandler handler) override;
  void set_bulk_orphan_handler(BulkOrphanHandler handler) override;
  void set_bulk_rx_handler(BulkRxHandler handler) override;

 private:
  static constexpr uint8_t kTxIdle = 0;
  static constexpr uint8_t kTxArmed = 1;

  void pump();
  bool pump_once();
  // Claims a slot in the self→to ring, spinning out the (rare) full-ring
  // backpressure window.
  ShmFrame* claim_slot(PeerAddr to);
  void arm_tx_done(CompletionFn on_tx_done);
  void measure_caps();

  ShmHub& hub_;
  const PeerAddr self_;
  runtime::IExecLock& exec_;
  DriverCaps caps_;

  RxHandler rx_handler_;
  BulkOrphanHandler bulk_orphan_;
  BulkRxHandler bulk_rx_;

  // Single in-flight tx (the engine only elects into an idle NIC). The
  // engine arms under the exec lock; the pump fires the completion under
  // it too once the consume token comes back, so the handoff needs only
  // the release/acquire pair on tx_state_.
  std::atomic<uint8_t> tx_state_{kTxIdle};
  CompletionFn tx_done_;

  std::atomic<bool> stop_{false};
  bool open_ = false;
  std::thread pump_thread_;
};

}  // namespace nmad::drivers
