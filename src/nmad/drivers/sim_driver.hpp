// Transfer-layer driver over a simulated NIC.
//
// Bridges the engine's driver API onto simnet: charges host CPU where a
// real driver would burn cycles (bounce-buffer copies when the NIC lacks
// gather DMA), defers NIC launches until the host CPU is free, and wraps
// the engine's transport-neutral BulkSinks in the simulated NIC's own
// registered-window objects.
//
// The send path is allocation-free in steady state: the frame staging
// buffer and the in-flight completion are driver members (the single-
// in-flight contract means one of each suffices), so every closure handed
// to the simulator captures only `this` plus a few scalars and stays
// inside its InlineFunction.
#pragma once

#include <map>
#include <memory>

#include "nmad/drivers/driver.hpp"
#include "simnet/fabric.hpp"
#include "simnet/nic.hpp"
#include "simnet/world.hpp"

namespace nmad::drivers {

class SimDriver final : public Driver {
 public:
  // `node` supplies the CPU model; `nic` must belong to that node.
  SimDriver(simnet::SimWorld& world, simnet::SimNode& node,
            simnet::SimNic& nic);

  [[nodiscard]] const DriverCaps& caps() const override { return caps_; }

  [[nodiscard]] util::Status init() override;
  void shutdown() override;

  [[nodiscard]] bool tx_idle() const override;

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

  [[nodiscard]] simnet::SimNic& nic() { return nic_; }

 private:
  // Runs `fn` as soon as the host CPU is free (possibly immediately).
  void when_cpu_free(util::EventFn fn);
  // Stages `segments` into the member frame buffer and returns the wire
  // segment count after the gather-capability check (charging the bounce
  // copy when the NIC cannot gather).
  size_t stage_frame(const util::SegmentVec& segments, bool bulk);
  void finish_tx();

  simnet::SimWorld& world_;
  simnet::SimNode& node_;
  simnet::SimNic& nic_;
  DriverCaps caps_;
  bool open_ = false;
  bool pending_tx_ = false;  // send accepted but NIC not yet done

  // In-flight send state; valid only while pending_tx_. The buffer is
  // reused send-to-send (the NIC copies it at launch, and the single-
  // in-flight contract keeps launches and stagings strictly alternating).
  util::ByteBuffer tx_frame_;
  CompletionFn tx_done_;

  // The simulated NIC's view of each posted engine sink: a simnet window
  // over the same destination region, completion left to the engine side
  // (deposits forward raw extents, the engine's interval set dedups —
  // identical accounting whether one rail feeds the sink or several).
  std::map<uint64_t, std::unique_ptr<simnet::BulkSink>> wrapped_sinks_;
};

// Builds driver caps from a NIC profile (shared with tests).
DriverCaps caps_from_profile(const simnet::NicProfile& profile);

}  // namespace nmad::drivers
