// ScheduleLayer: the optimizing/scheduling layer (paper §3.2).
//
// Owns everything between submission and the wire: the per-gate
// optimization window, the pluggable election Strategy, the rendezvous
// send pipeline, the reliability machinery (ack/retransmit windows,
// timers) and credit-based flow control. Whenever a transfer engine goes
// idle the layer runs a just-in-time election over the window and hands
// the synthesized packet to that engine; elections, packet builds, acks
// and retransmits are announced on the event bus.
//
// The layer sees its neighbours only through the seam interfaces: the
// transfer engines as ITransferFleet/ITransferRail, the façade as
// IEngine. It never includes another layer's header.
#pragma once

#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nmad/core/layer_ifaces.hpp"

namespace nmad::core {

class ScheduleLayer final : public ISchedule, public IPacketIssuer {
 public:
  ScheduleLayer(EngineContext& ctx, ITransferFleet& fleet, IEngine& engine,
                std::unique_ptr<Strategy> strategy);

  ScheduleLayer(const ScheduleLayer&) = delete;
  ScheduleLayer& operator=(const ScheduleLayer&) = delete;

  // Setup -------------------------------------------------------------------
  // One slot per fleet rail (round-robin cursor + prebuild parking spot);
  // called by the façade for every rail it adds.
  void add_rail_slot();
  // Connect-time credit seeding (flow control only): both endpoints start
  // from the configured initial grant.
  void init_gate(Gate& gate);

  [[nodiscard]] bool has_strategy() const { return strategy_ != nullptr; }
  [[nodiscard]] std::string_view strategy_name() const {
    return strategy_->name();
  }
  void set_strategy(std::unique_ptr<Strategy> strategy) {
    strategy_ = std::move(strategy);
  }

  // ISchedule ---------------------------------------------------------------
  void enqueue(Gate& gate, OutChunk* chunk) override;
  void submit_rdv(Gate& gate, SendRequest* req, Tag tag, SeqNum seq,
                  size_t logical_offset, util::ConstBytes block, size_t total,
                  const SendHints& hints) override;
  [[nodiscard]] bool credit_wants_rdv(const Gate& gate,
                                      size_t block_bytes) const override;
  void kick() override;
  [[nodiscard]] uint32_t recv_watermark(const Gate& gate) const override;
  void note_heard(Gate& gate, RailIndex rail) override;
  void note_eager_heard(Gate& gate, size_t payload_bytes) override;
  void queue_bulk_ack(Gate& gate, const BulkAck& ack) override;
  void note_bulk_completed(Gate& gate, uint64_t cookie) override;
  void rx_store_charge(Gate& gate, size_t bytes, size_t chunks) override;
  void rx_store_discharge(Gate& gate, size_t bytes, size_t chunks) override;
  [[nodiscard]] std::pair<size_t, size_t> store_gauge(
      const Gate& gate) const override;
  [[nodiscard]] bool cts_in_window(const Gate& gate,
                                   uint64_t cookie) const override;
  void remove_window_cts(Gate& gate, uint64_t cookie) override;

  // IPacketIssuer -----------------------------------------------------------
  void issue_standalone(Gate& gate, RailIndex rail,
                        std::shared_ptr<PacketBuilder> builder) override;

  // Packet-hub dispatch (the façade decodes, this layer owns the state) ----
  void on_cts(Gate& gate, const WireChunk& chunk);
  void on_ack(Gate& gate, const WireChunk& chunk);
  void on_credit(Gate& gate, const WireChunk& chunk);
  // Registers an incoming reliable packet seq; true if already heard.
  bool rx_register(Gate& gate, uint32_t seq);
  void schedule_ack(Gate& gate);
  // A retransmitted bulk slice landed after its sink completed: re-ack it.
  void on_bulk_orphan(Gate& gate, uint64_t cookie, size_t offset, size_t len);

  // Strategy SPI ------------------------------------------------------------
  // Whether the credit window admits electing `chunk` onto the wire now.
  // Control chunks, already-charged chunks and empty payloads always
  // pass. Denial records a stall and arms the liveness probe.
  [[nodiscard]] bool credit_admits(Gate& gate, const OutChunk& chunk);
  // Charges an elected chunk against the gate's credit (idempotent;
  // strategies call it when they take a payload chunk off the window).
  void charge_credit(Gate& gate, OutChunk& chunk);
  [[nodiscard]] const RailInfo& rail_info(RailIndex rail) const {
    return fleet_.transfer_rail(rail).info();
  }
  // Fault injection for the harness self-test: the next `n` charges no-op.
  void skip_next_credit_charge(uint32_t n) { skip_credit_charges_ += n; }

  // Cancellation ------------------------------------------------------------
  // Withdraws a pending send when every part is still reachable; see
  // Core::cancel for the full contract.
  bool cancel_send(Gate& gate, SendRequest* req, util::Status status);

  // Rail lifecycle ----------------------------------------------------------
  // Driven by the façade's subscription to kHealthTransition events:
  // re-homes prebuilt and in-flight traffic off a dead rail (failing
  // gates left with no usable rail), or hands a revived rail back to the
  // rendezvous jobs whose CTS granted it.
  void on_rail_dead(RailIndex rail);
  void on_rail_revived(RailIndex rail);
  // Microsecond failover (CoreConfig::spray): the moment a rail turns
  // *suspect*, sprayed fragments in flight on it are re-issued on the
  // surviving rails with a bumped epoch — without waiting for the rail to
  // be declared dead or any retransmit timer to fire. The original
  // packets stay in the unacked window (the receiver dedups/fences).
  void on_rail_suspect(RailIndex rail);
  // Gray-failure re-election (CoreConfig::adaptive): the moment a rail's
  // continuous score crosses into kDegraded — still alive, still
  // beaconing — its in-flight sprayed fragments are re-issued on
  // healthier rails exactly like the suspect failover, and the rail is
  // evicted from future stripe sets (refill_rail yields it) until the
  // score recovers.
  void on_rail_degraded(RailIndex rail);

  // Teardown (façade-orchestrated; see Core::teardown_gate) -----------------
  // Send side: timers, the window, prebuilt packets, the reliability
  // windows and the whole rendezvous send pipeline.
  void teardown_send(Gate& gate, const util::Status& status);
  // Receive-side scheduling residue: dedup set, deferred bulk acks.
  void teardown_finish(Gate& gate);
  // Returns every parked prebuilt packet's chunks to the pool (~Core).
  void release_prebuilt_chunks();

  // Drain -------------------------------------------------------------------
  [[nodiscard]] bool flushed(const Gate& gate) const;
  // No prebuilt packet is parked and every alive rail's tx is idle.
  [[nodiscard]] bool rails_flushed() const;

  // Introspection -----------------------------------------------------------
  [[nodiscard]] size_t window_size(const Gate& gate) const {
    return gate.sched.window.size();
  }
  [[nodiscard]] bool has_prebuilt(RailIndex rail) const {
    return rails_[rail].prebuilt != nullptr;
  }
  struct GateCounts {
    size_t window = 0;
    size_t ready_bulk = 0;
    size_t rdv_wait_cts = 0;
    size_t pending_pkts = 0;
    size_t pending_bulk = 0;
  };
  [[nodiscard]] GateCounts gate_counts(const Gate& gate) const;
  // Credit / grants / retransmit detail lines of the engine dump.
  void dump_gate_detail(const Gate& gate, std::ostream& out) const;
  // Own-state invariants: window ownership and credit accounting, the
  // rendezvous send pipeline, reliability-window liveness.
  void check_gate(const Gate& gate, std::vector<std::string>& out) const;

 private:
  // Per-rail scheduling state (the rail itself lives in the transfer
  // layer): round-robin fairness cursor and the §3.2 prebuild parking.
  struct RailSched {
    size_t rr_cursor = 0;  // round-robin position over gates
    // Packet elected early under the prebuild policy, waiting for idle.
    std::shared_ptr<PacketBuilder> prebuilt;
    GateId prebuilt_gate = 0;
  };

  [[nodiscard]] bool reliable() const { return ctx_.config.reliability; }
  [[nodiscard]] bool flow_control() const { return ctx_.config.flow_control; }
  [[nodiscard]] bool adaptive() const { return ctx_.config.adaptive; }
  [[nodiscard]] Gate& gate_ref(GateId id) { return *ctx_.gates[id]; }

  // Whether `gate` reaches a rail other than `except` that is alive and
  // scoreably healthy (neither suspect nor degraded) — the question every
  // degraded-rail yield decision asks.
  [[nodiscard]] bool gate_has_healthy_rail(const Gate& gate,
                                           RailIndex except) const;
  // Shared body of the suspect/degraded failovers: re-issues every
  // in-flight sprayed fragment last sent on `rail` onto a surviving
  // rail, preferring scoreably healthy survivors over degraded ones.
  // Returns whether anything was re-issued.
  bool reissue_inflight_sprays(RailIndex rail, bool degraded_trigger);

  // Election ----------------------------------------------------------------
  void refill_rail(RailIndex rail);
  void maybe_prebuild(RailIndex rail);
  void issue_packet(Gate& gate, RailIndex rail,
                    std::shared_ptr<PacketBuilder> builder,
                    bool charge_election = true);
  void issue_bulk(Gate& gate, RailIndex rail, BulkJob* job, size_t bytes);
  // Spray path: cuts a CTS-granted body into kSprayFrag window chunks the
  // strategy stripes packet-by-packet across the gate's alive rails.
  void spray_job(Gate& gate, BulkJob* job);

  // Reliability -------------------------------------------------------------
  // The multiplicative retransmit-backoff growth for one timeout. A
  // deterministic per-node draw spreads the factor symmetrically around
  // kRetryBackoff, as wide as possible without ever dipping below 1.0
  // (decorrelated backoff with a fixed mean): peers whose timers fired in
  // lockstep — the thundering herd after a shared blackout — spread their
  // retries instead of colliding again.
  [[nodiscard]] double backoff_growth();
  // Reaps this layer's tombstones (cancelled_rdv, completed_bulk) whose
  // arming-time floor has fallen a full reliability window behind the
  // current receive floor; called when rx_register advances the floor.
  // cancelled_rdv entries are born unarmed (kTombUnarmed) and only start
  // aging once the packet carrying their cancel-RTS is acked — before
  // that the receiver may still grant a fresh-seq CTS that must find the
  // tombstone instead of tripping the unknown-cookie assert.
  void reap_sched_tombstones(Gate& gate);
  OutChunk* make_ack_chunk(Gate& gate);
  void commit_ack_chunk(Gate& gate, OutChunk* ack);
  void maybe_inject_ack(Gate& gate, PacketBuilder& builder);
  void on_ack_timer(GateId gate_id);
  void retire_packet(Gate& gate,
                     std::map<uint32_t, PendingPacket>::iterator it);
  void retire_bulk(Gate& gate, const BulkAck& ack);
  void arm_packet_timer(Gate& gate, uint32_t seq);
  void arm_bulk_timer(Gate& gate, const BulkKey& key);
  void on_packet_timeout(GateId gate_id, uint32_t seq);
  void on_bulk_timeout(GateId gate_id, BulkKey key);
  void retransmit_packet(Gate& gate, RailIndex rail, uint32_t seq);
  void retransmit_bulk(Gate& gate, RailIndex rail, const BulkKey& key);

  // Flow control ------------------------------------------------------------
  void note_credit_stall(Gate& gate);
  void on_credit_probe(GateId gate_id);
  // Recomputes the limits this receiver can advertise to `gate`'s peer
  // without the sum of all peers' admissible-but-unheard eager traffic
  // exceeding the free rx budget. Monotone: limits never retreat.
  void refresh_advert(Gate& gate);
  OutChunk* make_credit_chunk(Gate& gate);
  void maybe_inject_credit(Gate& gate, PacketBuilder& builder);

  // Cancellation ------------------------------------------------------------
  void handle_cancel_cts(Gate& gate, const WireChunk& chunk);
  void send_cancel_rts(Gate& gate, Tag tag, SeqNum seq, uint64_t cookie);
  void remove_window_rts(Gate& gate, uint64_t cookie);
  void drop_bulk_job(Gate& gate, BulkJob* job);

  EngineContext& ctx_;
  ITransferFleet& fleet_;
  IEngine& engine_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<RailSched> rails_;
  uint64_t next_cookie_;
  uint64_t jitter_state_;  // xorshift state for decorrelated backoff
  uint32_t skip_credit_charges_ = 0;  // test hook: drop upcoming charges
};

}  // namespace nmad::core
