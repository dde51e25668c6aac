#include "nmad/drivers/sim_driver.hpp"

#include "util/logging.hpp"

namespace nmad::drivers {

DriverCaps caps_from_profile(const simnet::NicProfile& profile) {
  DriverCaps caps;
  caps.name = profile.name;
  caps.supports_gather = profile.has_gather();
  caps.max_gather_segments = profile.gather_max_segments;
  caps.supports_rdma = profile.rdma;
  caps.rdv_threshold = profile.rdv_threshold;
  caps.max_packet_bytes = profile.max_eager_frame;
  caps.latency_us = profile.latency_us;
  caps.bandwidth_mbps = profile.bandwidth_mbps;
  return caps;
}

SimDriver::SimDriver(simnet::SimWorld& world, simnet::SimNode& node,
                     simnet::SimNic& nic)
    : world_(world), node_(node), nic_(nic),
      caps_(caps_from_profile(nic.profile())) {}

util::Status SimDriver::init() {
  if (open_) return util::already_exists("driver already initialised");
  open_ = true;
  return util::ok_status();
}

void SimDriver::shutdown() { open_ = false; }

bool SimDriver::tx_idle() const {
  return open_ && !pending_tx_ && nic_.tx_idle();
}

void SimDriver::when_cpu_free(util::EventFn fn) {
  const simnet::SimTime free_at = node_.cpu().free_at();
  if (free_at <= world_.now()) {
    fn();
  } else {
    world_.at(free_at, std::move(fn));
  }
}

size_t SimDriver::stage_frame(const util::SegmentVec& segments, bool bulk) {
  const size_t total = segments.total_bytes();
  size_t wire_segments = segments.count();
  const bool gather_ok =
      bulk ? wire_segments <= caps_.max_gather_segments
           : caps_.supports_gather &&
                 wire_segments <= caps_.max_gather_segments;
  if (!gather_ok) {
    // No gather DMA: the host copies the packet into a bounce buffer.
    node_.cpu().charge_memcpy(total);
    wire_segments = 1;
  }
  // The frame content is captured now (the engine may release chunk
  // buffers at tx-done); the NIC copies it again at launch, so the member
  // buffer is free for reuse once the next send is admitted.
  tx_frame_.resize(total);
  segments.gather_into(tx_frame_.view());
  return wire_segments;
}

void SimDriver::finish_tx() {
  pending_tx_ = false;
  // Move out first: the completion routinely issues the next send, which
  // re-arms tx_done_.
  auto fn = std::move(tx_done_);
  tx_done_.reset();
  if (fn) fn();
}

util::Status SimDriver::send_packet(PeerAddr to,
                                    const util::SegmentVec& segments,
                                    CompletionFn on_tx_done) {
  if (!open_) return util::closed("send on closed driver");
  NMAD_ASSERT_MSG(!pending_tx_, "overlapping sends on one driver");
  pending_tx_ = true;
  tx_done_ = std::move(on_tx_done);
  const size_t wire_segments = stage_frame(segments, /*bulk=*/false);

  when_cpu_free([this, to, wire_segments]() {
    nic_.send_frame(to, tx_frame_.view(), wire_segments,
                    [this]() { finish_tx(); });
  });
  return util::ok_status();
}

util::Status SimDriver::send_bulk(PeerAddr to, uint64_t cookie,
                                  size_t offset,
                                  const util::SegmentVec& segments,
                                  CompletionFn on_tx_done) {
  if (!open_) return util::closed("send on closed driver");
  if (!caps_.supports_rdma) {
    return util::unimplemented("bulk send without RDMA support");
  }
  NMAD_ASSERT_MSG(!pending_tx_, "overlapping sends on one driver");
  pending_tx_ = true;
  tx_done_ = std::move(on_tx_done);
  const size_t wire_segments = stage_frame(segments, /*bulk=*/true);

  when_cpu_free([this, to, cookie, offset, wire_segments]() {
    nic_.send_bulk(to, cookie, offset, tx_frame_.view(), wire_segments,
                   [this]() { finish_tx(); });
  });
  return util::ok_status();
}

util::Status SimDriver::post_bulk_recv(BulkSink* sink) {
  if (!open_) return util::closed("post on closed driver");
  if (!caps_.supports_rdma) {
    return util::unimplemented("bulk recv without RDMA support");
  }
  // The NIC's registered window shares the engine sink's region (the NIC
  // DMA-writes the destination directly); completion stays with the
  // engine sink, which merges extents globally across every rail the
  // cookie is posted on.
  auto wrap = std::make_unique<simnet::BulkSink>(
      sink->cookie(), sink->region(), sink->expected(), nullptr);
  wrap->set_on_deposit([sink](size_t offset, size_t len) {
    sink->note_deposited(offset, len);
  });
  nic_.post_bulk_sink(wrap.get());
  const bool inserted =
      wrapped_sinks_.emplace(sink->cookie(), std::move(wrap)).second;
  NMAD_ASSERT_MSG(inserted, "duplicate bulk cookie on driver");
  return util::ok_status();
}

void SimDriver::cancel_bulk_recv(uint64_t cookie) {
  nic_.remove_bulk_sink(cookie);
  const size_t erased = wrapped_sinks_.erase(cookie);
  NMAD_ASSERT_MSG(erased == 1, "cancelling unknown bulk cookie");
}

void SimDriver::set_bulk_orphan_handler(BulkOrphanHandler handler) {
  nic_.set_bulk_orphan_handler(
      [handler = std::move(handler)](simnet::NodeId src, uint64_t cookie,
                                     size_t offset, size_t len) mutable {
        handler(src, cookie, offset, len);
      });
}

void SimDriver::set_bulk_rx_handler(BulkRxHandler handler) {
  nic_.set_bulk_rx_handler(
      [handler = std::move(handler)](simnet::NodeId src) mutable {
        handler(src);
      });
}

void SimDriver::set_rx_handler(RxHandler handler) {
  nic_.set_rx_handler(
      [handler = std::move(handler)](simnet::RxFrame&& frame) mutable {
        RxPacket packet;
        packet.from = frame.src_node;
        packet.bytes = std::move(frame.bytes);
        handler(std::move(packet));
      });
}

}  // namespace nmad::drivers
