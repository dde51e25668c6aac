// Core: the NewMadeleine communication engine façade (paper §3).
//
// One Core instance is one process's engine. The engine proper lives in
// three collaborating layers, each a separate translation unit that never
// includes another layer's header:
//   - CollectLayer: isend()/irecv() register application data and the
//     metadata needed to identify it remotely (tag, sequence number),
//     match incoming traffic and park the unexpected;
//   - ScheduleLayer: submitted chunks accumulate in the per-gate
//     optimization window; whenever a NIC goes idle the selected Strategy
//     elects/synthesizes the next physical packet just-in-time. The
//     reliability windows and credit accounting live here too;
//   - TransferEngine (one per rail): owns the driver, pumps tx/rx, and
//     runs the rail's health lifecycle.
//
// Core wires the layers together through the seam interfaces
// (layer_ifaces.hpp) and the event bus (events.hpp), keeps the public API
// stable, and retains only the engine-level concerns no layer owns: gate
// setup/teardown, the packet hub that decodes arrivals and dispatches
// chunks to their owning layer, request deadlines, drain, and the
// cross-layer invariant audit.
//
// The engine is event-driven: driver callbacks (packet arrival, transmit
// completion, bulk completion) drive all protocol state transitions.
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "nmad/core/chunk.hpp"
#include "nmad/core/collect_layer.hpp"
#include "nmad/core/config.hpp"
#include "nmad/core/events.hpp"
#include "nmad/core/gate.hpp"
#include "nmad/core/layer_ifaces.hpp"
#include "nmad/core/layout.hpp"
#include "nmad/core/request.hpp"
#include "nmad/core/schedule_layer.hpp"
#include "nmad/core/strategy.hpp"
#include "nmad/core/transfer_engine.hpp"
#include "nmad/drivers/driver.hpp"
#include "nmad/runtime/runtime.hpp"
#include "util/pool.hpp"
#include "util/status.hpp"

namespace nmad::core {

class Core final : public ITransferFleet, private IEngine {
 public:
  // The runtime supplies time, timers and host-cost accounting; it may be
  // a SimRuntime (deterministic virtual time) or a WallClockRuntime (real
  // transports). The engine itself never learns which.
  Core(runtime::IRuntime& rt, CoreConfig config);
  ~Core() override;

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // Setup ----------------------------------------------------------------
  // Adds one rail (driver). All rails must be added before connecting.
  util::Status add_rail(std::unique_ptr<drivers::Driver> driver);

  // Opens a gate to `peer` using all rails (or an explicit subset).
  // Rail indices are assumed symmetric between the two processes, which
  // holds by construction in the simulated fabric.
  util::Expected<GateId> connect(drivers::PeerAddr peer);
  util::Expected<GateId> connect(drivers::PeerAddr peer,
                                 std::vector<RailIndex> rails);

  // Collect layer ----------------------------------------------------------
  // Submits a message gathered from `src`; each source block becomes one
  // or more window chunks (eager) or a rendezvous job (large blocks).
  SendRequest* isend(GateId gate, Tag tag, const SourceLayout& src,
                     const SendHints& hints = {});
  SendRequest* isend(GateId gate, Tag tag, util::ConstBytes data,
                     const SendHints& hints = {});

  RecvRequest* irecv(GateId gate, Tag tag, DestLayout dest);
  RecvRequest* irecv(GateId gate, Tag tag, util::MutableBytes buffer);

  // Nonblocking probe: reports whether the *next* message on (gate, tag)
  // — the one the next irecv would match — has already announced itself
  // (eager data or a rendezvous RTS), without consuming anything.
  //
  // Sequence contract (pinned by EngineProtocol.PeekMatchesNextIrecvOnly):
  // the probe consults exactly the (tag, seq) pair the next irecv on this
  // tag will be assigned — the current receive-sequence counter. Messages
  // that arrived out of order for *later* sequence numbers never match,
  // even though they are sitting in the unexpected store; they become
  // visible one at a time as preceding irecvs consume the counter. A
  // peek therefore never reorders matching and iprobe/irecv pairs are
  // race-free: if peek says matched, the next irecv matches that very
  // message.
  using PeekResult = PeekInfo;
  [[nodiscard]] PeekResult peek_unexpected(GateId gate, Tag tag);

  // Completion -------------------------------------------------------------
  [[nodiscard]] static bool test(const Request* req) { return req->done(); }
  // Returns the request to the engine pool; only valid once done.
  void release(Request* req);

  // Cancellation / deadlines ------------------------------------------------
  // Withdraws a pending request. Receives always cancel (the engine
  // tombstones the message key and drops late payload); sends cancel when
  // every part is still reachable — a part already on the wire whose fate
  // the engine cannot recall (non-reliable eager in flight, streamed
  // rendezvous bytes) makes cancel return false and the request proceeds.
  // On success the request completes with kCancelled (or `status`) and
  // must still be release()d by the caller. No-op (returns false) on
  // requests that are already done.
  bool cancel(Request* req);
  // Arms a deadline `timeout_us` of runtime time from now; if the request
  // is still pending when it expires, the engine cancels it with
  // kDeadlineExceeded. An uncancellable send re-arms and tries again. At
  // most one deadline per request (the last call wins).
  void set_deadline(Request* req, double timeout_us);

  // Graceful drain / shutdown ----------------------------------------------
  // Pumps the runtime until this engine is flushed: every non-failed
  // gate's optimization window, rendezvous pipeline and retransmit
  // windows are empty, all deferred acknowledgements have shipped, and
  // every alive rail's transmit engine is idle. Like every engine call it
  // runs under the exec lock; IRuntime::advance() lets the pump threads
  // in while it waits.
  // Unmatched receives stay posted (the application may expect traffic
  // after the drain) and the engine remains fully usable — drain is a
  // flush, not a teardown. Returns kDeadlineExceeded when `deadline_us`
  // of runtime time elapses first, or when the runtime reports no further
  // progress is possible with this engine still holding undelivered state
  // (e.g. a rendezvous whose receive was never posted): either way the
  // engine cannot flush in time. On success the quiescence audit
  // (check_invariants) runs and its first failure is surfaced.
  util::Status drain(double deadline_us);
  // True when the flush condition above already holds.
  [[nodiscard]] bool drained() const;
  // Releases every local resource of one gate: unmatched receives
  // complete with kClosed, the unexpected store is dropped and its rx
  // budget released, posted bulk sinks are withdrawn, timers disarmed.
  // The gate refuses traffic afterwards. Drain first for a graceful
  // shutdown; closing with traffic in flight abandons it.
  void close_gate(GateId id);

  // Introspection ----------------------------------------------------------
  [[nodiscard]] const CoreConfig& config() const { return config_; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  // ITransferFleet (also the public rail-count accessor).
  [[nodiscard]] size_t rail_count() const override { return rails_.size(); }
  [[nodiscard]] ITransferRail& transfer_rail(RailIndex rail) override;
  [[nodiscard]] const ITransferRail& transfer_rail(
      RailIndex rail) const override;
  [[nodiscard]] const RailInfo& rail_info(RailIndex rail) const;
  // Reliability: rails marked dead after repeated timeouts stop carrying
  // traffic; fail_rail() forces the transition (operational use: a health
  // monitor outside the engine noticed the link die).
  [[nodiscard]] bool rail_alive(RailIndex rail) const;
  void fail_rail(RailIndex rail);
  // Rail health lifecycle: where the rail stands, and its revival epoch
  // (bumped on every death, fencing probe replies and beacons from an
  // earlier life). revive_rail() forces the dead->alive transition the
  // probation handshake normally performs (operational use, mirroring
  // fail_rail): rendezvous jobs whose CTS granted the rail regain it and
  // the next election may schedule onto it again.
  [[nodiscard]] RailHealth rail_health_state(RailIndex rail) const;
  [[nodiscard]] uint32_t rail_epoch(RailIndex rail) const;
  void revive_rail(RailIndex rail);
  // Disarms the heartbeat/probe timers. The monitors re-arm themselves
  // forever by design (liveness has no natural end), which keeps the
  // runtime from ever going quiescent; harnesses that pump the event
  // loop dry call this once the workload is finished.
  void stop_health_monitors();
  [[nodiscard]] size_t gate_count() const { return gates_.size(); }
  [[nodiscard]] Gate& gate(GateId id);
  // The gate connect() opened to `peer`, or kNoGate.
  [[nodiscard]] GateId gate_to(drivers::PeerAddr peer) const {
    return peer < peer_gate_.size() ? peer_gate_[peer] : kNoGate;
  }
  [[nodiscard]] size_t window_size(GateId id);
  [[nodiscard]] std::string_view strategy_name() const {
    return sched_.strategy_name();
  }

  // Switches the optimization function at runtime — the paper proposes a
  // "(dynamically in the future) selectable optimization function"
  // (§3.2). Safe at any point: strategies are stateless over the window,
  // so the next election simply uses the new policy. Returns not-found
  // for unregistered names.
  util::Status set_strategy(const std::string& name);
  [[nodiscard]] runtime::IRuntime& rt() { return rt_; }
  [[nodiscard]] const runtime::IRuntime& rt() const { return rt_; }

  // Layer access ------------------------------------------------------------
  // The concrete layers, for tests and benchmarks that drive one layer
  // directly (the strategy SPI hands ScheduleLayer& to pack()).
  [[nodiscard]] ScheduleLayer& scheduler() { return sched_; }
  [[nodiscard]] CollectLayer& collector() { return collect_; }
  [[nodiscard]] EventBus& bus() { return bus_; }
  [[nodiscard]] const EventBus& bus() const { return bus_; }

  // Strategy SPI: flow control -----------------------------------------
  // Forwarders kept for harness code that holds a Core; strategies
  // themselves receive the ScheduleLayer.
  [[nodiscard]] bool credit_admits(Gate& gate, const OutChunk& chunk) {
    return sched_.credit_admits(gate, chunk);
  }
  void charge_credit(Gate& gate, OutChunk& chunk) {
    sched_.charge_credit(gate, chunk);
  }

  // Allocation telemetry for the churn-regression tests: pool occupancy
  // and slab counts for every hot-path pool, the runtime timer-queue
  // slab/slot capacities, and the global InlineFunction heap-spill count.
  // Every `*_grows`/capacity field is monotone and must be flat across a
  // steady-state phase — any increase is a hot-path heap allocation.
  struct AllocStats {
    size_t chunk_pool_live = 0;
    size_t chunk_pool_capacity = 0;
    size_t chunk_pool_grows = 0;
    size_t bulk_pool_live = 0;
    size_t bulk_pool_capacity = 0;
    size_t bulk_pool_grows = 0;
    size_t send_pool_live = 0;
    size_t send_pool_capacity = 0;
    size_t send_pool_grows = 0;
    size_t recv_pool_live = 0;
    size_t recv_pool_capacity = 0;
    size_t recv_pool_grows = 0;
    runtime::TimerStats queue;
    uint64_t inline_fn_heap_allocs = 0;
  };
  [[nodiscard]] AllocStats alloc_stats() const;

  // Writes a human-readable snapshot of the engine state (windows,
  // pending rendezvous, in-flight receives, the event-bus trace) — used
  // by deadlock diagnostics and debugging sessions.
  void debug_dump(std::ostream& out = std::cerr) const;

  // Invariant validation ---------------------------------------------------
  // Cross-checks every layer's bookkeeping against first principles: each
  // layer audits its own state (CollectLayer::check_gate,
  // ScheduleLayer::check_gate, TransferEngine::check) and the façade
  // cross-checks the seams (the unexpected store vs. the scheduler's
  // gauge, the engine-wide rx budget). Returns true when clean; otherwise
  // appends one line per violation to `failures` (which may be null).
  // Always compiled — the chaos harness calls it at quiescence in any
  // build; only the per-tick hooks below are NMAD_VALIDATE-gated.
  [[nodiscard]] bool check_invariants(
      std::vector<std::string>* failures) const;

  // Per-progress-tick checker (wired into the scheduler's kick() and the
  // packet hub under -DNMAD_VALIDATE=1): bumps stats().validate_ticks,
  // and on violation prints every failure plus debug_dump() and the
  // event trace and aborts — unless a failure handler is installed
  // (harness self-tests observe violations without dying).
  void validate_invariants();
  using ValidateFailureHandler =
      std::function<void(const std::vector<std::string>&)>;
  void set_validate_failure_handler(ValidateFailureHandler handler);

  // Fault injection for the harness self-test: the next `n` calls to
  // charge_credit become no-ops, modelling a sender that elects eager
  // traffic without charging it against the peer's credit window.
  void test_skip_next_credit_charge(uint32_t n = 1) {
    sched_.skip_next_credit_charge(n);
  }

 private:
  // IEngine (the services layers call back into the façade for).
  void fail_gate(Gate& gate, const util::Status& status) override;
  void peer_unreachable(Gate& gate) override;
  void cancel_deadline(Request* req) override;
  void validate_tick() override { validate_invariants(); }

  // Peer lifecycle (CoreConfig::peer_lifecycle). The death-grace timer
  // armed by peer_unreachable lands here; a grace that expires with every
  // rail still down declares the peer dead (kPeerDead unwind + kPeerDied
  // event, heartbeats kept flowing). Heartbeat chunks pass through
  // on_peer_heartbeat before the rail health machinery: beacons from a
  // previous incarnation are fenced (return false), a bumped incarnation
  // unwinds the old life, and a beacon on a live rail re-opens a
  // peer-dead gate with fresh sequence/credit state — but only when it
  // proves the peer unwound too (a strictly newer incarnation or a
  // strictly newer unwind generation than what was recorded at death;
  // see Gate::gate_gen).
  void on_peer_grace(Gate& gate);
  void declare_peer_dead(Gate& gate, const char* why);
  bool on_peer_heartbeat(Gate& gate, RailIndex rail, const WireChunk& chunk);
  void rejoin_gate(Gate& gate);

  // The packet hub: decodes one arrived packet and dispatches each chunk
  // to the layer that owns its state.
  void on_packet(RailIndex rail, drivers::RxPacket&& packet);

  // Shared teardown behind fail_gate (peer failure) and close_gate (local
  // shutdown); only the bookkeeping around it differs. Orchestrates the
  // per-layer teardowns in wire-safe order.
  void teardown_gate(Gate& gate, const util::Status& status);
  void on_bulk_orphan(drivers::PeerAddr from, uint64_t cookie, size_t offset,
                      size_t len);

  void start_health_monitors();

  // Cancellation / deadlines.
  bool cancel_with(Request* req, util::Status status);
  void on_deadline(Request* req);

  // Per-layer violation tallies from one check_invariants() pass, so the
  // stats can attribute failures to the layer that reported them.
  struct ValidateReport {
    size_t collect = 0;
    size_t schedule = 0;
    size_t transfer = 0;
    size_t engine = 0;
  };
  bool check_invariants_report(std::vector<std::string>* failures,
                               ValidateReport* report) const;

  runtime::IRuntime& rt_;
  CoreConfig config_;
  CoreStats stats_;
  EventBus bus_;

  util::ObjectPool<OutChunk> chunk_pool_;
  util::ObjectPool<BulkJob> bulk_pool_;
  util::ObjectPool<SendRequest> send_pool_;
  util::ObjectPool<RecvRequest> recv_pool_;
  std::vector<std::unique_ptr<Gate>> gates_;

  EngineContext ctx_;
  std::vector<std::unique_ptr<TransferEngine>> rails_;
  ScheduleLayer sched_;
  CollectLayer collect_;

  // Dense peer→gate index (PeerAddrs are small node ranks): on_packet
  // resolves the owning gate with one array load instead of a tree walk,
  // keeping per-packet cost rank-count-independent.
  std::vector<GateId> peer_gate_;  // kNoGate = no gate to that peer
  bool connected_ = false;  // first connect freezes rail setup
  bool health_monitors_started_ = false;

  ValidateFailureHandler validate_failure_handler_;
};

}  // namespace nmad::core
