// TransferEngine: the transfer layer — one engine per rail (paper §3's
// per-NIC "transfer layer", with OptiNIC-style per-NIC resilience state).
//
// Each engine owns its driver, the rail's capability info, and the rail's
// entire health lifecycle: liveness timestamps, the heartbeat/probe
// monitor, the revival epoch, and the alive/suspect/dead/probation state
// machine. It pumps tx (send_packet / send_bulk wrappers that publish
// wire-tx events) and rx (the installed sink, refreshed for liveness on
// every arrival). Health transitions are published on the event bus —
// the scheduling layer subscribes (via the façade) to re-home in-flight
// traffic; this engine never touches another layer's state.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nmad/core/layer_ifaces.hpp"
#include "nmad/drivers/driver.hpp"

namespace nmad::core {

class TransferEngine final : public ITransferRail {
 public:
  TransferEngine(EngineContext& ctx, RailIndex index,
                 std::unique_ptr<drivers::Driver> driver, RailInfo info);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  // Wires the scheduler's issue path for standalone heartbeat packets;
  // must be called before any monitor starts.
  void bind(IPacketIssuer* issuer) { issuer_ = issuer; }

  // Installs the engine's rx sink (the façade's packet hub). The wrapper
  // refreshes rail liveness before forwarding.
  using RxSink = std::function<void(RailIndex, drivers::RxPacket&&)>;
  void install_rx(RxSink sink);
  void install_orphan(drivers::Driver::BulkOrphanHandler sink);

  // ITransferRail ----------------------------------------------------------
  [[nodiscard]] const RailInfo& info() const override { return info_; }
  [[nodiscard]] bool alive() const override { return alive_; }
  [[nodiscard]] bool suspect() const override {
    return health_ == RailHealth::kSuspect;
  }
  [[nodiscard]] bool degraded() const override {
    return health_ == RailHealth::kDegraded;
  }
  [[nodiscard]] bool tx_idle() const override { return driver_->tx_idle(); }
  [[nodiscard]] double score_loss() const override { return loss_ewma_; }
  [[nodiscard]] double score_latency_p99() const override {
    return delivery_latency_.p99();
  }
  [[nodiscard]] double score_throughput() const override { return tp_est_; }
  util::Status send_packet(const Gate& gate, const util::SegmentVec& segments,
                           drivers::Driver::CompletionFn on_tx_done) override;
  util::Status send_bulk(const Gate& gate, uint64_t cookie, size_t offset,
                         const util::SegmentVec& segments,
                         drivers::Driver::CompletionFn on_tx_done) override;
  util::Status post_bulk_recv(drivers::BulkSink* sink) override;
  void cancel_bulk_recv(uint64_t cookie) override;
  void note_delivery(double latency_us = -1.0) override;
  void note_timeout() override;
  void maybe_inject_heartbeat(Gate& gate, PacketBuilder& builder) override;

  // Health lifecycle -------------------------------------------------------
  [[nodiscard]] RailHealth health() const { return health_; }
  [[nodiscard]] uint32_t epoch() const { return epoch_; }
  // Declares the rail dead: bumps the epoch (fencing its earlier life),
  // publishes the health transition — the scheduling layer re-homes
  // in-flight traffic from its subscription.
  void kill();
  // Forces the dead→alive transition the probation handshake normally
  // performs.
  void revive();
  void handle_heartbeat(Gate& gate, const WireChunk& chunk);
  void start_monitor(double now);
  void stop_monitor();

  void shutdown() { driver_->shutdown(); }
  [[nodiscard]] const std::string& name() const {
    return driver_->caps().name;
  }

  // Appends this rail's health fields to a dump line (no-op unless the
  // health lifecycle is on).
  void dump_health(std::ostream& out) const;
  // Own-state invariants: alive/health agreement, epoch/probation sanity.
  void check(size_t display_index, std::vector<std::string>& out) const;

  [[nodiscard]] const util::QuantileDigest& latency_digest() const {
    return delivery_latency_;
  }
  [[nodiscard]] uint32_t degraded_entries() const {
    return degraded_entries_;
  }

 private:
  [[nodiscard]] bool health_on() const { return ctx_.config.rail_health; }
  [[nodiscard]] bool adaptive_on() const { return ctx_.config.adaptive; }
  void set_health(RailHealth next);
  void refresh_liveness();
  void on_health_tick();
  // Re-evaluates the gray-failure criterion (loss/latency vs. the
  // hysteresis bands) and moves the rail into or out of kDegraded.
  void update_degraded();
  void send_standalone_heartbeat(Gate& gate, uint8_t flags, uint32_t epoch);
  OutChunk* make_heartbeat_chunk(const Gate& gate, uint8_t flags,
                                 uint32_t epoch);
  double& hb_tx_slot(GateId id);

  EngineContext& ctx_;
  RailIndex index_;
  std::unique_ptr<drivers::Driver> driver_;
  RailInfo info_;
  IPacketIssuer* issuer_ = nullptr;

  // Reliability: dead rails carry no traffic; consecutive unanswered
  // timeouts (reset by any ack for this rail) drive the declaration.
  bool alive_ = true;
  uint32_t consec_timeouts_ = 0;
  // Rail health lifecycle (CoreConfig::rail_health). `epoch` bumps on
  // every death, so probe replies and beacons from an earlier life can
  // be told from fresh ones; `peer_epoch` is the highest epoch heard in
  // the peer's plain beacons (older ones are stale wire images from
  // retransmitted packets and are fenced).
  RailHealth health_ = RailHealth::kAlive;
  uint32_t epoch_ = 0;
  uint32_t peer_epoch_ = 0;
  uint32_t probation_hits_ = 0;      // fresh probe replies this probation
  double last_rx_us_ = 0.0;          // anything heard on this rail
  double last_fresh_reply_us_ = 0.0;
  double last_probe_us_ = -1.0e18;
  // Last beacon sent per gate (indexed by GateId, lazily sized): the
  // liveness thresholds are per-peer receive silence, so each peer must
  // hear its own beacons.
  std::vector<double> hb_tx_us_;
  runtime::TimerId health_timer_ = 0;
  bool health_timer_armed_ = false;

  // Gray-failure score (CoreConfig::adaptive). Loss is an EWMA over
  // per-entry ack/timeout outcomes; latency is a streaming digest of
  // issue-to-ack delivery times plus probe/reply RTTs (so idle rails
  // still accumulate samples); throughput is an EWMA of per-tick wire-tx
  // bytes. The degraded machine hangs off these: a sustained breach of
  // the enter thresholds turns the rail kDegraded, a sustained clean
  // reading after the minimum dwell returns it to kAlive.
  double loss_ewma_ = 0.0;
  double lat_ewma_us_ = 0.0;
  util::QuantileDigest delivery_latency_;
  double tp_est_ = 0.0;          // bytes per µs, EWMA across ticks
  uint64_t win_tx_bytes_ = 0;    // wire-tx bytes since the last tick
  double last_tp_tick_us_ = 0.0;
  double breach_since_us_ = -1.0;   // first instant of the current breach
  double clean_since_us_ = -1.0;    // first clean instant while degraded
  double degraded_at_us_ = 0.0;     // when the rail entered kDegraded
  uint32_t degraded_entries_ = 0;   // lifetime count of degraded entries
  // Alive-rail RTT probing: one outstanding probe, stamped at send so the
  // reply yields a latency sample even on an otherwise idle rail.
  bool rtt_probe_pending_ = false;
};

}  // namespace nmad::core
