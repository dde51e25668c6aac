#include "nmad/drivers/shm_driver.hpp"

#include <chrono>
#include <cstring>
#include <vector>

#include "util/assert.hpp"

namespace nmad::drivers {

namespace {

// Frames per directed endpoint pair (a power of two). The engine keeps one
// packet in flight per rail, so a ring never holds more than one frame.
constexpr size_t kRingSlots = 64;

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// ShmHub
// ---------------------------------------------------------------------------

ShmHub::ShmHub(size_t endpoints) : n_(endpoints) {
  NMAD_ASSERT_MSG(endpoints >= 2, "shm hub needs at least two endpoints");
  rings_.reserve(n_ * n_);
  for (size_t i = 0; i < n_ * n_; ++i) {
    rings_.push_back(std::make_unique<util::SpscRing<ShmFrame>>(kRingSlots));
  }
  tokens_.reserve(n_);
  sinks_.reserve(n_);
  for (size_t i = 0; i < n_; ++i) {
    tokens_.push_back(std::make_unique<util::MpscRing<PeerAddr>>(64));
    sinks_.push_back(std::make_unique<Endpoint>());
  }
}

util::SpscRing<ShmFrame>& ShmHub::ring(PeerAddr from, PeerAddr to) {
  NMAD_ASSERT(from < n_ && to < n_ && from != to);
  return *rings_[from * n_ + to];
}

util::MpscRing<PeerAddr>& ShmHub::token_ring(PeerAddr at) {
  NMAD_ASSERT(at < n_);
  return *tokens_[at];
}

void ShmHub::post_sink(PeerAddr at, BulkSink* sink) {
  NMAD_ASSERT(at < n_ && sink != nullptr);
  Endpoint& ep = *sinks_[at];
  std::lock_guard<std::mutex> lock(ep.mu);
  const auto [it, inserted] = ep.sinks.emplace(sink->cookie(), sink);
  (void)it;
  NMAD_ASSERT_MSG(inserted, "bulk cookie already posted on this endpoint");
}

void ShmHub::remove_sink(PeerAddr at, uint64_t cookie) {
  NMAD_ASSERT(at < n_);
  Endpoint& ep = *sinks_[at];
  std::lock_guard<std::mutex> lock(ep.mu);
  ep.sinks.erase(cookie);
}

BulkSink* ShmHub::find_sink(PeerAddr at, uint64_t cookie) {
  NMAD_ASSERT(at < n_);
  Endpoint& ep = *sinks_[at];
  std::lock_guard<std::mutex> lock(ep.mu);
  const auto it = ep.sinks.find(cookie);
  return it == ep.sinks.end() ? nullptr : it->second;
}

bool ShmHub::deposit(PeerAddr at, uint64_t cookie, size_t offset,
                     const util::SegmentVec& segments) {
  NMAD_ASSERT(at < n_);
  Endpoint& ep = *sinks_[at];
  // The lock pins the region for the whole copy: cancel_bulk_recv takes
  // it too, so the engine cannot free the buffer mid-memcpy.
  std::lock_guard<std::mutex> lock(ep.mu);
  const auto it = ep.sinks.find(cookie);
  if (it == ep.sinks.end()) return false;
  util::MutableBytes region = it->second->region();
  const size_t total = segments.total_bytes();
  NMAD_ASSERT_MSG(offset + total <= region.size(),
                  "bulk slice exceeds the posted sink region");
  segments.gather_into(region.subspan(offset, total));
  return true;
}

// ---------------------------------------------------------------------------
// ShmDriver
// ---------------------------------------------------------------------------

ShmDriver::ShmDriver(ShmHub& hub, PeerAddr self, runtime::IExecLock& exec)
    : hub_(hub), self_(self), exec_(exec) {
  NMAD_ASSERT(self < hub.endpoint_count());
  caps_.name = "shm";
  caps_.supports_gather = true;
  caps_.max_gather_segments = 16;
  caps_.supports_rdma = true;  // bulk slices land straight in the region
  caps_.max_packet_bytes = sizeof(ShmFrame::payload);
  caps_.rdv_threshold = caps_.max_packet_bytes;
  // Nominal figures until init() self-measures real ones.
  caps_.latency_us = 1.0;
  caps_.bandwidth_mbps = 4000.0;
}

ShmDriver::~ShmDriver() { shutdown(); }

util::Status ShmDriver::init() {
  if (open_) return util::Status::ok();
  measure_caps();
  stop_.store(false, std::memory_order_relaxed);
  pump_thread_ = std::thread([this]() { pump(); });
  open_ = true;
  return util::Status::ok();
}

void ShmDriver::shutdown() {
  if (!open_) return;
  stop_.store(true, std::memory_order_release);
  if (pump_thread_.joinable()) pump_thread_.join();
  open_ = false;
}

// Real figures for the strategy layer and debug_dump: the rail's
// bandwidth is the host's memcpy bandwidth (the ring is the wire), its
// latency the cross-thread wake time a consume token needs to come back.
void ShmDriver::measure_caps() {
  constexpr size_t kProbeBytes = 4 << 20;
  std::vector<std::byte> src(kProbeBytes), dst(kProbeBytes);
  std::memset(src.data(), 0x5a, kProbeBytes);
  std::memcpy(dst.data(), src.data(), kProbeBytes);  // warm the pages
  const auto bw_start = std::chrono::steady_clock::now();
  constexpr int kReps = 8;
  for (int i = 0; i < kReps; ++i) {
    std::memcpy(dst.data(), src.data(), kProbeBytes);
  }
  const double bw_us = elapsed_us(bw_start);
  if (bw_us > 0.0) {
    caps_.bandwidth_mbps =
        static_cast<double>(kProbeBytes) * kReps / bw_us;  // bytes/µs = MB/s
  }

  // One-way latency ≈ half the atomic ping-pong round trip between two
  // threads — the same wake path a frame consume token travels.
  std::atomic<uint64_t> ping{0};
  std::atomic<uint64_t> pong{0};
  constexpr uint64_t kRounds = 2000;
  std::thread echo([&]() {
    for (uint64_t i = 1; i <= kRounds; ++i) {
      while (ping.load(std::memory_order_acquire) < i) {
        std::this_thread::yield();
      }
      pong.store(i, std::memory_order_release);
    }
  });
  const auto lat_start = std::chrono::steady_clock::now();
  for (uint64_t i = 1; i <= kRounds; ++i) {
    ping.store(i, std::memory_order_release);
    while (pong.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
  }
  const double lat_us = elapsed_us(lat_start);
  echo.join();
  if (lat_us > 0.0) caps_.latency_us = lat_us / kRounds / 2.0;
}

ShmFrame* ShmDriver::claim_slot(PeerAddr to) {
  util::SpscRing<ShmFrame>& ring = hub_.ring(self_, to);
  // Single in-flight keeps the ring at ≤ 1 frame, so this spin is a
  // safety net, not a steady-state wait.
  ShmFrame* slot = ring.claim();
  while (slot == nullptr) {
    std::this_thread::yield();
    slot = ring.claim();
  }
  return slot;
}

void ShmDriver::arm_tx_done(CompletionFn on_tx_done) {
  NMAD_ASSERT_MSG(tx_state_.load(std::memory_order_relaxed) == kTxIdle,
                  "send while the previous one is still in flight");
  tx_done_ = std::move(on_tx_done);
  tx_state_.store(kTxArmed, std::memory_order_release);
}

util::Status ShmDriver::send_packet(PeerAddr to,
                                    const util::SegmentVec& segments,
                                    CompletionFn on_tx_done) {
  if (!open_) return util::failed_precondition("driver not open");
  const size_t total = segments.total_bytes();
  NMAD_ASSERT_MSG(total <= caps_.max_packet_bytes,
                  "packet exceeds the shm frame slot");
  arm_tx_done(std::move(on_tx_done));
  ShmFrame* slot = claim_slot(to);
  slot->from = self_;
  slot->kind = ShmFrame::Kind::kPacket;
  slot->orphan = false;
  slot->cookie = 0;
  slot->offset = 0;
  slot->len = total;
  segments.gather_into({slot->payload.data(), total});
  hub_.ring(self_, to).publish();
  return util::Status::ok();
}

util::Status ShmDriver::send_bulk(PeerAddr to, uint64_t cookie,
                                  size_t offset,
                                  const util::SegmentVec& segments,
                                  CompletionFn on_tx_done) {
  if (!open_) return util::failed_precondition("driver not open");
  arm_tx_done(std::move(on_tx_done));
  // Shared address space as RDMA: the body goes straight into the posted
  // region; only the header-sized note rides the ring. A sink already
  // gone (late retransmission) makes the note an orphan.
  const bool deposited = hub_.deposit(to, cookie, offset, segments);
  ShmFrame* slot = claim_slot(to);
  slot->from = self_;
  slot->kind = ShmFrame::Kind::kBulkNote;
  slot->orphan = !deposited;
  slot->cookie = cookie;
  slot->offset = offset;
  slot->len = segments.total_bytes();
  hub_.ring(self_, to).publish();
  return util::Status::ok();
}

util::Status ShmDriver::post_bulk_recv(BulkSink* sink) {
  if (!open_) return util::failed_precondition("driver not open");
  NMAD_ASSERT(sink != nullptr);
  // Posted on several rails at once for multi-rail reassembly: only the
  // first post on this hub registers (same sink, same registry).
  if (hub_.find_sink(self_, sink->cookie()) == nullptr) {
    hub_.post_sink(self_, sink);
  }
  return util::Status::ok();
}

void ShmDriver::cancel_bulk_recv(uint64_t cookie) {
  hub_.remove_sink(self_, cookie);
}

void ShmDriver::set_rx_handler(RxHandler handler) {
  rx_handler_ = std::move(handler);
}

void ShmDriver::set_bulk_orphan_handler(BulkOrphanHandler handler) {
  bulk_orphan_ = std::move(handler);
}

void ShmDriver::set_bulk_rx_handler(BulkRxHandler handler) {
  bulk_rx_ = std::move(handler);
}

void ShmDriver::pump() {
  // Spin-then-nap: a hot pingpong keeps the pump on the yield path; an
  // idle endpoint backs off to short naps instead of burning a core.
  unsigned idle_spins = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (pump_once()) {
      idle_spins = 0;
    } else if (++idle_spins < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

bool ShmDriver::pump_once() {
  bool did_work = false;

  // Tx completions: a consume token means the receiver owns our frame.
  PeerAddr token = 0;
  while (hub_.token_ring(self_).try_pop(token)) {
    did_work = true;
    NMAD_ASSERT_MSG(tx_state_.load(std::memory_order_acquire) == kTxArmed,
                    "consume token without a tx in flight");
    runtime::ExecGuard guard(exec_);
    CompletionFn fn = std::move(tx_done_);
    tx_done_.reset();
    // Idle before the callback: the completion is exactly what elects
    // (and sends) the next packet.
    tx_state_.store(kTxIdle, std::memory_order_release);
    if (fn) fn();
  }

  // Rx: drain every inbound ring, delivering under the exec lock.
  const size_t n = hub_.endpoint_count();
  for (PeerAddr from = 0; from < n; ++from) {
    if (from == self_) continue;
    util::SpscRing<ShmFrame>& ring = hub_.ring(from, self_);
    while (ShmFrame* frame = ring.front()) {
      did_work = true;
      {
        runtime::ExecGuard guard(exec_);
        if (frame->kind == ShmFrame::Kind::kPacket) {
          NMAD_ASSERT_MSG(static_cast<bool>(rx_handler_),
                          "packet arrived before a handler was installed");
          RxPacket packet;
          packet.from = frame->from;
          packet.bytes.append(frame->payload.data(), frame->len);
          rx_handler_(std::move(packet));
        } else {
          if (bulk_rx_) bulk_rx_(frame->from);
          BulkSink* sink =
              frame->orphan ? nullptr
                            : hub_.find_sink(self_, frame->cookie);
          if (sink != nullptr) {
            sink->note_deposited(frame->offset, frame->len);
          } else if (bulk_orphan_) {
            bulk_orphan_(frame->from, frame->cookie, frame->offset,
                         frame->len);
          } else {
            NMAD_ASSERT_MSG(false, "orphan bulk slice without a handler");
          }
        }
      }
      const PeerAddr sender = frame->from;
      ring.pop_front();
      // Frame fully consumed: release the sender's in-flight slot.
      const bool pushed =
          hub_.token_ring(sender).try_push(PeerAddr{sender});
      NMAD_ASSERT_MSG(pushed, "tx-done token ring overflow");
    }
  }
  return did_work;
}

}  // namespace nmad::drivers
