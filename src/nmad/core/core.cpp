#include "nmad/core/core.hpp"

#include <algorithm>

#include "nmad/core/format_util.hpp"
#include "nmad/strategies/builtin.hpp"
#include "util/inline_fn.hpp"
#include "util/logging.hpp"

namespace nmad::core {

namespace {
// An expired deadline whose request is momentarily un-cancellable (a part
// is inside a transmitting builder) retries at this interval.
constexpr double kDeadlineRetryUs = 50.0;
}  // namespace

Core::Core(runtime::IRuntime& rt, CoreConfig config)
    : rt_(rt),
      config_(std::move(config)),
      bus_(rt_),
      ctx_{rt_,        config_,    stats_,     bus_,
           chunk_pool_, bulk_pool_, send_pool_, recv_pool_, gates_},
      sched_(ctx_, *this, *this,
             (ensure_builtin_strategies(), make_strategy(config_.strategy))),
      collect_(ctx_, sched_, *this, *this) {
  NMAD_ASSERT_MSG(sched_.has_strategy(), "unknown strategy name");
  // Flow control rides the ack machinery (credits piggyback on acks and
  // must survive loss), so it forces reliability on; reliability in turn
  // needs checksums: corruption detection is what turns a flipped bit
  // into a clean drop + retransmit.
  // Rail health needs the same machinery one layer up: a rail declared
  // dead only recovers its in-flight traffic through retransmission.
  // Adaptive scoring refines the health lifecycle (the degraded state
  // lives inside it), so it forces rail_health on. Peer liveness is
  // derived from rail liveness, so peer_lifecycle forces rail_health too.
  if (config_.peer_lifecycle) config_.rail_health = true;
  if (config_.adaptive) config_.rail_health = true;
  if (config_.rail_health) config_.reliability = true;
  if (config_.flow_control) config_.reliability = true;
  // Sprayed fragments ride track-0 packets under the ack machinery: the
  // receiver's exactly-once reassembly leans on packet dedup and the
  // re-issue path leans on retransmittable pending packets.
  if (config_.spray) config_.reliability = true;
  if (config_.reliability) config_.wire_checksum = true;

  // The transfer layer announces every health transition on the bus; the
  // scheduling layer reacts by re-homing in-flight traffic off a dead
  // rail or handing a revived one back to its rendezvous jobs. The
  // suspect state is a warning, not a death: only crossing the
  // alive/dead boundary moves traffic.
  bus_.subscribe(EventKind::kHealthTransition, [this](const Event& ev) {
    const auto prev = static_cast<RailHealth>(ev.a);
    const auto next = static_cast<RailHealth>(ev.b);
    const auto counts_alive = [](RailHealth h) {
      // Degraded rails still carry traffic — they are alive, just
      // deprioritized by election.
      return h == RailHealth::kAlive || h == RailHealth::kSuspect ||
             h == RailHealth::kDegraded;
    };
    const bool was_alive = counts_alive(prev);
    const bool now_alive = counts_alive(next);
    if (was_alive && !now_alive) {
      sched_.on_rail_dead(ev.rail);
    } else if (!was_alive && now_alive) {
      sched_.on_rail_revived(ev.rail);
    } else if (next == RailHealth::kSuspect &&
               (prev == RailHealth::kAlive || prev == RailHealth::kDegraded)) {
      // The spray failover acts on suspicion, not death: in-flight
      // sprayed fragments on the suspect rail are re-issued on the
      // survivors within the same microsecond-scale tick.
      sched_.on_rail_suspect(ev.rail);
    } else if (next == RailHealth::kDegraded) {
      // Gray failure detected by score: re-elect in-flight sprayed
      // fragments off the degraded rail while it keeps beaconing.
      sched_.on_rail_degraded(ev.rail);
    }
  });
}

Core::~Core() {
  for (auto& g : gates_) {
    if (g->peer_grace_armed) {
      rt_.cancel(g->peer_grace_timer);
      g->peer_grace_armed = false;
    }
  }
  for (auto& rail : rails_) rail->stop_monitor();
  sched_.release_prebuilt_chunks();
  for (auto& rail : rails_) rail->shutdown();
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

util::Status Core::add_rail(std::unique_ptr<drivers::Driver> driver) {
  if (connected_) {
    return util::failed_precondition("add rails before connecting gates");
  }
  NMAD_RETURN_IF_ERROR(driver->init());
  const auto index = static_cast<RailIndex>(rails_.size());
  const drivers::DriverCaps& caps = driver->caps();

  RailInfo info;
  info.index = index;
  info.rdma = caps.supports_rdma;
  info.gather = caps.supports_gather;
  info.max_gather_segments = caps.max_gather_segments;
  info.rdv_threshold = caps.rdv_threshold;
  info.max_packet_bytes = caps.max_packet_bytes;
  info.latency_us = caps.latency_us;
  info.bandwidth_mbps = caps.bandwidth_mbps;

  auto rail =
      std::make_unique<TransferEngine>(ctx_, index, std::move(driver), info);
  // Standalone heartbeats flow back through the scheduler's issue path so
  // they pick up piggybacked acks/credits like any other packet.
  rail->bind(&sched_);
  rail->install_rx([this](RailIndex r, drivers::RxPacket&& packet) {
    on_packet(r, std::move(packet));
  });
  if (config_.reliability) {
    // Late retransmissions may land after their sink completed; the
    // orphan handler re-acks them instead of treating them as protocol
    // errors.
    rail->install_orphan([this](drivers::PeerAddr from, uint64_t cookie,
                                size_t offset, size_t len) {
      on_bulk_orphan(from, cookie, offset, len);
    });
  }
  rails_.push_back(std::move(rail));
  sched_.add_rail_slot();
  return util::ok_status();
}

util::Expected<GateId> Core::connect(drivers::PeerAddr peer) {
  std::vector<RailIndex> all;
  for (RailIndex r = 0; r < rails_.size(); ++r) all.push_back(r);
  return connect(peer, std::move(all));
}

util::Expected<GateId> Core::connect(drivers::PeerAddr peer,
                                     std::vector<RailIndex> rails) {
  if (rails.empty()) return util::invalid_argument("gate needs >= 1 rail");
  if (gate_to(peer) != kNoGate) {
    return util::already_exists("gate to this peer already open");
  }
  for (RailIndex r : rails) {
    if (r >= rails_.size()) return util::out_of_range("bad rail index");
  }
  connected_ = true;
  if (config_.rail_health && !health_monitors_started_) {
    start_health_monitors();
  }

  auto gate = std::make_unique<Gate>();
  gate->id = static_cast<GateId>(gates_.size());
  gate->peer = peer;
  gate->rails = std::move(rails);
  gate->rdv_threshold = SIZE_MAX;
  gate->max_packet = SIZE_MAX;
  for (RailIndex r : gate->rails) {
    const RailInfo& info = rails_[r]->info();
    gate->max_packet = std::min(gate->max_packet, info.max_packet_bytes);
    if (info.rdma) {
      gate->has_rdma = true;
      gate->rdv_threshold = std::min(gate->rdv_threshold, info.rdv_threshold);
    }
  }
  if (config_.rdv_threshold_override != 0 && gate->has_rdma) {
    gate->rdv_threshold = config_.rdv_threshold_override;
  }
  sched_.init_gate(*gate);

  const GateId id = gate->id;
  NMAD_ASSERT_MSG(gates_.size() < kNoGate, "GateId space exhausted");
  if (peer >= peer_gate_.size()) {
    peer_gate_.resize(peer + 1, kNoGate);
  }
  peer_gate_[peer] = id;
  gates_.push_back(std::move(gate));
  return id;
}

Gate& Core::gate(GateId id) {
  NMAD_ASSERT(id < gates_.size());
  return *gates_[id];
}

ITransferRail& Core::transfer_rail(RailIndex rail) {
  NMAD_ASSERT(rail < rails_.size());
  return *rails_[rail];
}

const ITransferRail& Core::transfer_rail(RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size());
  return *rails_[rail];
}

const RailInfo& Core::rail_info(RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size());
  return rails_[rail]->info();
}

bool Core::rail_alive(RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size());
  return rails_[rail]->alive();
}

void Core::fail_rail(RailIndex rail) {
  NMAD_ASSERT(rail < rails_.size());
  rails_[rail]->kill();
}

RailHealth Core::rail_health_state(RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size());
  return rails_[rail]->health();
}

uint32_t Core::rail_epoch(RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size());
  return rails_[rail]->epoch();
}

void Core::revive_rail(RailIndex rail) {
  NMAD_ASSERT(rail < rails_.size());
  rails_[rail]->revive();
}

void Core::start_health_monitors() {
  NMAD_ASSERT_MSG(config_.heartbeat_interval_us > 0.0 &&
                      config_.probe_interval_us > 0.0,
                  "rail_health needs positive intervals");
  health_monitors_started_ = true;
  const double now = rt_.now_us();
  for (auto& rail : rails_) rail->start_monitor(now);
}

void Core::stop_health_monitors() {
  for (auto& rail : rails_) rail->stop_monitor();
  health_monitors_started_ = false;
}

size_t Core::window_size(GateId id) { return gate(id).sched.window.size(); }

util::Status Core::set_strategy(const std::string& name) {
  std::unique_ptr<Strategy> next = make_strategy(name);
  if (next == nullptr) {
    return util::not_found("no strategy registered as '" + name + "'");
  }
  sched_.set_strategy(std::move(next));
  config_.strategy = name;
  return util::ok_status();
}

// ---------------------------------------------------------------------------
// Collect-layer forwarders
// ---------------------------------------------------------------------------

SendRequest* Core::isend(GateId gate_id, Tag tag, const SourceLayout& src,
                         const SendHints& hints) {
  return collect_.isend(gate(gate_id), tag, src, hints);
}

SendRequest* Core::isend(GateId gate_id, Tag tag, util::ConstBytes data,
                         const SendHints& hints) {
  return isend(gate_id, tag, SourceLayout::contiguous(data), hints);
}

RecvRequest* Core::irecv(GateId gate_id, Tag tag, DestLayout dest) {
  return collect_.irecv(gate(gate_id), tag, std::move(dest));
}

RecvRequest* Core::irecv(GateId gate_id, Tag tag, util::MutableBytes buffer) {
  return irecv(gate_id, tag, DestLayout::contiguous(buffer));
}

Core::PeekResult Core::peek_unexpected(GateId gate_id, Tag tag) {
  return collect_.peek_unexpected(gate(gate_id), tag);
}

void Core::release(Request* req) {
  NMAD_ASSERT(req != nullptr);
  NMAD_ASSERT_MSG(req->done(), "release of an incomplete request");
  // A deadline still ticking on a released request would fire on pooled
  // memory reused by a future request.
  cancel_deadline(req);
  if (req->kind() == Request::Kind::kSend) {
    send_pool_.release(static_cast<SendRequest*>(req));
  } else {
    recv_pool_.release(static_cast<RecvRequest*>(req));
  }
}

// ---------------------------------------------------------------------------
// The packet hub: every arrival is decoded once here, then each chunk is
// dispatched to the layer that owns its state.
// ---------------------------------------------------------------------------

void Core::on_packet(RailIndex rail, drivers::RxPacket&& packet) {
  const GateId id = gate_to(packet.from);
  NMAD_ASSERT_MSG(id != kNoGate, "packet from unknown peer");
  Gate& g = *gates_[id];
  // A failed gate normally refuses all traffic — except a peer-dead gate
  // under the lifecycle, which keeps listening for heartbeats so a
  // restarted peer can announce its new incarnation and rejoin. Every
  // other chunk kind on such a gate is previous-life traffic and is
  // fenced (dropped, never applied) below.
  if (g.failed && !(config_.peer_lifecycle && g.peer_dead)) return;
  if (!g.failed) {
    sched_.note_heard(g, rail);  // a delivering rail: best ack return path
  }
  ++stats_.packets_received;
  rt_.cpu().charge(runtime::Cost::kParsePacket);

  PacketMeta meta;
  bool classified = false;  // packet-level framing inspected
  bool drop = false;        // duplicate or unverifiable: skip every chunk
  bool processed = false;   // at least one chunk acted on
  bool fenced = false;      // gate was peer-dead when the packet arrived
  const util::Status st = decode_packet(
      packet.bytes.view(), &meta,
      [this, &g, rail, &meta, &classified, &drop, &processed,
       &fenced](const WireChunk& chunk) {
        if (!classified) {
          classified = true;
          // The fence decision latches per packet: even if a heartbeat
          // chunk rejoins the gate mid-decode, the packet's other chunks
          // stay fenced — the gate never registered its seq, so applying
          // them would double-deliver against the retransmission.
          fenced = g.failed;
          if (config_.reliability) {
            if (!meta.checksummed) {
              // A flipped checksum-flag bit would disable verification;
              // reliable-mode peers always checksum, so refuse the
              // packet and let the retransmit timer recover it.
              drop = true;
              ++stats_.packets_rejected;
            } else if (fenced) {
              // Peer-dead gate: no seq registration on a fenced gate (a
              // rejoin restarts the sequence space from zero).
            } else if (meta.reliable && sched_.rx_register(g, meta.seq)) {
              drop = true;  // duplicate: already delivered, just re-ack
              ++stats_.packets_duplicate;
            }
          }
        }
        if (drop) return;
        if (fenced && chunk.kind != ChunkKind::kHeartbeat) {
          // Previous-life traffic against a dead-peer gate (stale acks,
          // spray fragments, credit grants): fenced, not applied.
          ++stats_.incarnations_fenced;
          return;
        }
        processed = true;
        rt_.cpu().charge(runtime::Cost::kParseChunk);
        ++stats_.chunks_received;
        switch (chunk.kind) {
          case ChunkKind::kData:
          case ChunkKind::kFrag:
            collect_.on_payload(g, chunk);
            break;
          case ChunkKind::kRts:
            collect_.on_rts(g, chunk);
            break;
          case ChunkKind::kCts:
            sched_.on_cts(g, chunk);
            break;
          case ChunkKind::kAck:
            sched_.on_ack(g, chunk);
            break;
          case ChunkKind::kCredit:
            sched_.on_credit(g, chunk);
            break;
          case ChunkKind::kHeartbeat:
            // The incarnation fence runs before the rail health machinery
            // sees the beacon; a previous-life beacon never refreshes
            // liveness or answers probes.
            if (config_.peer_lifecycle && !on_peer_heartbeat(g, rail, chunk)) {
              break;
            }
            rails_[rail]->handle_heartbeat(g, chunk);
            break;
          case ChunkKind::kSprayFrag:
            collect_.on_spray_frag(g, rail, chunk);
            break;
        }
      });
  if (!st.is_ok()) {
    // Under reliability a corrupt packet fails checksum verification
    // before any chunk reaches the sink; drop it and let the sender
    // retransmit. Decode errors on verified content — or any error
    // without the reliability layer — remain hard protocol bugs.
    NMAD_ASSERT_MSG(config_.reliability && !processed,
                    "malformed packet on wire");
    ++stats_.packets_rejected;
    return;
  }
  if (processed) {
    bus_.publish({.kind = EventKind::kWireRx,
                  .gate = g.id,
                  .rail = rail,
                  .seq = meta.reliable ? meta.seq : 0,
                  .a = packet.bytes.view().size()});
  }
  if (g.failed) return;  // a chunk handler may have torn the gate down
  if (fenced) return;    // fenced packet: nothing to acknowledge
  if (config_.reliability && meta.reliable && meta.checksummed) {
    sched_.schedule_ack(g);
  }
#ifdef NMAD_VALIDATE
  validate_invariants();
#endif
}

// ---------------------------------------------------------------------------
// Gate failure / teardown
// ---------------------------------------------------------------------------

void Core::fail_gate(Gate& gate, const util::Status& status) {
  if (gate.failed) return;
  ++stats_.gates_failed;
  NMAD_LOG_WARN("nmad: node %u fails gate %u (peer %u): %s", rt_.local_id(),
                gate.id, gate.peer, status.to_string().c_str());
  teardown_gate(gate, status);
}

void Core::close_gate(GateId id) {
  Gate& g = gate(id);
  if (g.failed) return;
  ++stats_.gates_closed;
  bus_.publish({.kind = EventKind::kDrainMilestone, .gate = id, .a = 2});
  teardown_gate(g, util::closed("gate closed by the local endpoint"));
}

void Core::teardown_gate(Gate& gate, const util::Status& status) {
  // A pending death-grace verdict is moot once the gate is down.
  if (gate.peer_grace_armed) {
    rt_.cancel(gate.peer_grace_timer);
    gate.peer_grace_armed = false;
  }
  // `failed` is set before any layer runs so re-entrant paths (a
  // completion callback submitting more traffic, a discharge trying to
  // re-advertise credit) see the gate as already gone.
  gate.failed = true;
  gate.fail_status = status;
  // Send side first (window, prebuilt packets, reliability windows,
  // rendezvous jobs), then the receive side (sinks, matched receives,
  // the unexpected store), then the scheduling residue the receive-side
  // teardown may have touched (dedup set, deferred bulk acks).
  sched_.teardown_send(gate, status);
  collect_.teardown(gate, status);
  sched_.teardown_finish(gate);
}

// ---------------------------------------------------------------------------
// Peer lifecycle: death grace, incarnation fencing, rejoin
// ---------------------------------------------------------------------------

void Core::peer_unreachable(Gate& gate) {
  if (gate.failed) return;
  if (!config_.peer_lifecycle) {
    fail_gate(gate, util::closed("all rails to peer unreachable"));
    return;
  }
  if (config_.peer_death_grace_us <= 0.0) {
    // Grace zero declares immediately on losing the last rail — still a
    // peer death (kPeerDead unwind, heartbeats kept flowing for rejoin),
    // not a plain gate closure.
    declare_peer_dead(gate, "peer declared dead: last rail lost (no grace)");
    return;
  }
  if (gate.peer_grace_armed) return;
  gate.peer_grace_armed = true;
  gate.peer_grace_timer = rt_.schedule_after(
      config_.peer_death_grace_us, [this, &gate]() { on_peer_grace(gate); });
}

void Core::on_peer_grace(Gate& gate) {
  gate.peer_grace_armed = false;
  if (gate.failed) return;
  // A rail may have revived during the grace: the peer is dead only if
  // every rail to it is still down.
  for (RailIndex r : gate.rails) {
    if (rails_[r]->alive()) return;
  }
  declare_peer_dead(gate,
                    "peer declared dead: no rail revived within the grace");
}

void Core::declare_peer_dead(Gate& gate, const char* why) {
  NMAD_ASSERT(!gate.failed);
  ++stats_.peers_died;
  // The unwind fence: bump our generation (announced in every outgoing
  // heartbeat) and record what we last heard from the peer. The rejoin
  // test is strict inequality against these — only a peer that restarted
  // or unwound *after* this moment can re-open the gate.
  ++gate.gate_gen;
  gate.death_incarnation = gate.peer_incarnation;
  gate.death_peer_gen = gate.peer_gen;
  const ScheduleLayer::GateCounts sc = sched_.gate_counts(gate);
  const CollectLayer::GateCounts cc = collect_.gate_counts(gate);
  const uint64_t inflight = sc.window + sc.ready_bulk + sc.rdv_wait_cts +
                            sc.pending_pkts + sc.pending_bulk +
                            cc.active_recv + cc.rdv_recv + cc.spray_recv;
  bus_.publish({.kind = EventKind::kPeerDied,
                .gate = gate.id,
                .a = gate.peer_incarnation,
                .b = inflight});
  fail_gate(gate, util::peer_dead(why));
  // Set after the teardown so re-entrant paths saw a plainly-failed gate;
  // from here on heartbeats keep flowing so a restart can announce itself.
  gate.peer_dead = true;
}

bool Core::on_peer_heartbeat(Gate& g, RailIndex rail, const WireChunk& chunk) {
  const uint32_t inc = chunk.epoch;  // node incarnation rides this field
  const auto gen = static_cast<uint32_t>(chunk.tag);  // peer's unwind gen
  if (inc < g.peer_incarnation) {
    ++stats_.incarnations_fenced;  // beacon from a previous life
    return false;
  }
  if (inc > g.peer_incarnation) {
    // The peer restarted. Everything its old life left in flight is
    // void: unwind as a peer death, then admit the new incarnation.
    if (!g.failed) {
      declare_peer_dead(g, "peer restarted with a new incarnation");
    }
    if (!g.peer_dead) return !g.failed;  // locally-closed gate stays closed
    g.peer_incarnation = inc;
    g.peer_gen = gen;  // a new life restarts the peer's unwind counter
  } else if (gen > g.peer_gen) {
    g.peer_gen = gen;  // max-merge: a delayed beacon never rolls it back
  }
  if (g.failed && g.peer_dead && rails_[rail]->alive() &&
      (g.peer_incarnation > g.death_incarnation ||
       g.peer_gen > g.death_peer_gen)) {
    // A live rail is delivering beacons that prove the peer's state is
    // fresh relative to our death — it restarted (newer incarnation) or
    // it unwound this gate itself (newer generation). Re-open with fresh
    // state. A same-incarnation, same-generation beacon proves only
    // reachability: the peer may never have noticed the outage, and its
    // live pre-death receive floor would swallow our restarted sequence
    // space (sends acked-but-never-delivered, stale traffic applied).
    rejoin_gate(g);
  }
  // A still-dead gate keeps feeding current-incarnation heartbeats to the
  // rail health machinery: probe replies are what revive the rail, and a
  // revived rail is the precondition for the rejoin above — swallowing
  // them here would deadlock the handshake.
  return !g.failed || g.peer_dead;
}

void Core::rejoin_gate(Gate& g) {
  NMAD_ASSERT(g.failed && g.peer_dead);
  // The old life's state was fully unwound at death; re-open with fresh
  // collect/sched state — sequence numbers, ack windows and credit
  // ledgers restart from gate-open values, which the restarted peer
  // (whose own gate went through the same death) agrees on.
  g.collect = GateCollect{};
  g.sched = GateSched{};
  sched_.init_gate(g);
  g.failed = false;
  g.peer_dead = false;
  g.fail_status = util::ok_status();
  ++stats_.peers_rejoined;
  NMAD_LOG_WARN("nmad: node %u rejoins gate %u (peer %u, incarnation %u)",
                rt_.local_id(), g.id, g.peer, g.peer_incarnation);
  bus_.publish({.kind = EventKind::kPeerRejoined,
                .gate = g.id,
                .a = g.peer_incarnation});
}

void Core::on_bulk_orphan(drivers::PeerAddr from, uint64_t cookie,
                          size_t offset, size_t len) {
  const GateId id = gate_to(from);
  if (id == kNoGate) return;
  Gate& g = *gates_[id];
  if (g.failed) return;
  sched_.on_bulk_orphan(g, cookie, offset, len);
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

bool Core::drained() const {
  for (const auto& gate_ptr : gates_) {
    const Gate& g = *gate_ptr;
    if (g.failed) continue;
    if (!sched_.flushed(g) || !collect_.flushed(g)) return false;
  }
  // Without reliability no engine structure tracks a packet after its
  // election, so "flushed" must also mean the transmit engines are
  // quiet: a frame mid-DMA completes its sends only at tx-done, and a
  // standalone ack or credit packet frees its chunk only then.
  return sched_.rails_flushed();
}

util::Status Core::drain(double deadline_us) {
  ++stats_.drains_started;
  bus_.publish({.kind = EventKind::kDrainMilestone,
                .a = 0,
                .b = static_cast<uint64_t>(deadline_us)});
  const double deadline = rt_.now_us() + deadline_us;
  while (!drained()) {
    if (rt_.now_us() >= deadline) {
      return util::deadline_exceeded("drain deadline expired");
    }
    if (!rt_.advance()) {
      // The runtime went quiescent with this engine still holding
      // undelivered state (e.g. a rendezvous whose receive was never
      // posted): no amount of waiting flushes it.
      return util::deadline_exceeded("drain stalled: engine cannot flush");
    }
  }
  // Quiescence audit: a clean flush must also be a consistent one.
  std::vector<std::string> failures;
  if (!check_invariants(&failures)) {
    return util::internal_error("drain audit: " + failures.front());
  }
  ++stats_.drains_completed;
  bus_.publish({.kind = EventKind::kDrainMilestone, .a = 1});
  return util::ok_status();
}

// ---------------------------------------------------------------------------
// Cancellation / deadlines
// ---------------------------------------------------------------------------

bool Core::cancel(Request* req) {
  return cancel_with(req, util::cancelled("cancelled by the application"));
}

bool Core::cancel_with(Request* req, util::Status status) {
  if (req->done()) return false;
  Gate& g = gate(req->gate());
  if (req->kind() == Request::Kind::kSend) {
    return sched_.cancel_send(g, static_cast<SendRequest*>(req),
                              std::move(status));
  }
  return collect_.cancel_recv(g, static_cast<RecvRequest*>(req),
                              std::move(status));
}

void Core::set_deadline(Request* req, double timeout_us) {
  if (req->done()) return;
  cancel_deadline(req);  // last call wins
  req->deadline_armed_ = true;
  req->deadline_timer_ =
      rt_.schedule_after(timeout_us, [this, req]() { on_deadline(req); });
}

void Core::cancel_deadline(Request* req) {
  if (!req->deadline_armed_) return;
  rt_.cancel(req->deadline_timer_);
  req->deadline_armed_ = false;
}

void Core::on_deadline(Request* req) {
  req->deadline_armed_ = false;
  if (req->done()) return;
  if (cancel_with(req, util::deadline_exceeded("request deadline expired"))) {
    ++stats_.deadlines_exceeded;
    return;
  }
  // Uncancellable right now (bytes in flight): retry shortly. The request
  // either becomes cancellable or completes, whichever comes first.
  req->deadline_armed_ = true;
  req->deadline_timer_ =
      rt_.schedule_after(kDeadlineRetryUs, [this, req]() { on_deadline(req); });
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void Core::debug_dump(std::ostream& out) const {
  using ULL = unsigned long long;
  dumpf(out, "=== nmad core on node %u (strategy %s) ===\n", rt_.local_id(),
        std::string(sched_.strategy_name()).c_str());
  for (size_t r = 0; r < rails_.size(); ++r) {
    const TransferEngine& te = *rails_[r];
    dumpf(out,
          "rail %zu: %s tx_idle=%d prebuilt=%d alive=%d lat=%.2fus "
          "bw=%.0fMB/s",
          r, te.name().c_str(), te.tx_idle() ? 1 : 0,
          sched_.has_prebuilt(static_cast<RailIndex>(r)) ? 1 : 0,
          te.alive() ? 1 : 0, te.info().latency_us, te.info().bandwidth_mbps);
    te.dump_health(out);
    dumpf(out, "\n");
  }
  for (const auto& gate : gates_) {
    const ScheduleLayer::GateCounts sc = sched_.gate_counts(*gate);
    const CollectLayer::GateCounts cc = collect_.gate_counts(*gate);
    dumpf(out,
          "gate %u → peer %u: window=%zu ready_bulk=%zu "
          "rdv_wait_cts=%zu active_recv=%zu unexpected=%zu "
          "rdv_recv=%zu spray_recv=%zu pending_pkts=%zu pending_bulk=%zu "
          "failed=%d peer_dead=%d inc=%u gen=%u/%u\n",
          gate->id, gate->peer, sc.window, sc.ready_bulk, sc.rdv_wait_cts,
          cc.active_recv, cc.unexpected, cc.rdv_recv, cc.spray_recv,
          sc.pending_pkts, sc.pending_bulk, gate->failed ? 1 : 0,
          gate->peer_dead ? 1 : 0,
          static_cast<unsigned>(gate->peer_incarnation),
          static_cast<unsigned>(gate->gate_gen),
          static_cast<unsigned>(gate->peer_gen));
    sched_.dump_gate_detail(*gate, out);
  }
  dumpf(out,
        "stats: sends=%llu recvs=%llu packets=%llu/%llu "
        "chunks=%llu agg=%llu rdv=%llu bulk=%llu prebuilt=%llu "
        "unexpected=%llu\n",
        static_cast<ULL>(stats_.sends_submitted),
        static_cast<ULL>(stats_.recvs_submitted),
        static_cast<ULL>(stats_.packets_sent),
        static_cast<ULL>(stats_.packets_received),
        static_cast<ULL>(stats_.chunks_sent),
        static_cast<ULL>(stats_.chunks_aggregated),
        static_cast<ULL>(stats_.rdv_started),
        static_cast<ULL>(stats_.bulk_sends),
        static_cast<ULL>(stats_.packets_prebuilt),
        static_cast<ULL>(stats_.unexpected_chunks));
  if (config_.reliability) {
    dumpf(out,
          "reliability: timeouts=%llu retx=%llu rejected=%llu dup=%llu "
          "acks=%llu piggy=%llu bulk_to=%llu bulk_retx=%llu "
          "rails_failed=%llu gates_failed=%llu\n",
          static_cast<ULL>(stats_.packet_timeouts),
          static_cast<ULL>(stats_.packets_retransmitted),
          static_cast<ULL>(stats_.packets_rejected),
          static_cast<ULL>(stats_.packets_duplicate),
          static_cast<ULL>(stats_.acks_sent),
          static_cast<ULL>(stats_.acks_piggybacked),
          static_cast<ULL>(stats_.bulk_timeouts),
          static_cast<ULL>(stats_.bulk_retransmitted),
          static_cast<ULL>(stats_.rails_failed),
          static_cast<ULL>(stats_.gates_failed));
  }
  if (config_.rail_health) {
    dumpf(out,
          "health: beacons=%llu/%llu probes=%llu replies=%llu fenced=%llu "
          "suspected=%llu revived=%llu demoted=%llu\n",
          static_cast<ULL>(stats_.heartbeats_sent),
          static_cast<ULL>(stats_.heartbeats_received),
          static_cast<ULL>(stats_.probes_sent),
          static_cast<ULL>(stats_.probe_replies_sent),
          static_cast<ULL>(stats_.heartbeats_fenced),
          static_cast<ULL>(stats_.rails_suspected),
          static_cast<ULL>(stats_.rails_revived),
          static_cast<ULL>(stats_.probation_demotions));
  }
  if (config_.spray) {
    dumpf(out,
          "spray: sends=%llu frags_tx=%llu frags_rx=%llu dups=%llu "
          "fenced=%llu late=%llu reissues=%llu reassembled=%llu\n",
          static_cast<ULL>(stats_.spray_sends),
          static_cast<ULL>(stats_.spray_frags_tx),
          static_cast<ULL>(stats_.spray_frags_rx),
          static_cast<ULL>(stats_.spray_frag_dups),
          static_cast<ULL>(stats_.spray_frags_fenced),
          static_cast<ULL>(stats_.spray_frags_late),
          static_cast<ULL>(stats_.spray_reissues),
          static_cast<ULL>(stats_.spray_reassembled));
    if (stats_.spray_reissue_latency_us.count() > 0) {
      const util::QuantileDigest& d = stats_.spray_reissue_latency_us;
      dumpf(out,
            "spray reissue latency: n=%llu mean=%.2fus p99=%.2fus "
            "p999=%.2fus max=%.2fus\n",
            static_cast<ULL>(d.count()), d.mean(), d.quantile(0.99),
            d.quantile(0.999), d.max());
    }
  }
  if (config_.peer_lifecycle || stats_.tombstones_reaped != 0) {
    dumpf(out,
          "peer: died=%llu rejoined=%llu fenced=%llu tombstones_reaped=%llu\n",
          static_cast<ULL>(stats_.peers_died),
          static_cast<ULL>(stats_.peers_rejoined),
          static_cast<ULL>(stats_.incarnations_fenced),
          static_cast<ULL>(stats_.tombstones_reaped));
  }
  if (config_.adaptive) {
    dumpf(out,
          "adaptive: degraded=%llu recovered=%llu reissues=%llu "
          "elections=%llu evictions=%llu rtt_samples=%llu\n",
          static_cast<ULL>(stats_.rails_degraded),
          static_cast<ULL>(stats_.rails_recovered),
          static_cast<ULL>(stats_.degraded_reissues),
          static_cast<ULL>(stats_.adaptive_elections),
          static_cast<ULL>(stats_.degraded_evictions),
          static_cast<ULL>(stats_.probe_rtt_samples));
  }
  if (stats_.drains_started != 0 || stats_.gates_closed != 0) {
    dumpf(out, "drain: started=%llu completed=%llu gates_closed=%llu\n",
          static_cast<ULL>(stats_.drains_started),
          static_cast<ULL>(stats_.drains_completed),
          static_cast<ULL>(stats_.gates_closed));
  }
  if (config_.flow_control) {
    dumpf(out,
          "flow: grants=%llu stalls=%llu probes=%llu rdv_degrades=%llu "
          "rx_stored=%llu rx_hwm=%llu\n",
          static_cast<ULL>(stats_.credit_grants),
          static_cast<ULL>(stats_.credit_stalls),
          static_cast<ULL>(stats_.credit_probes),
          static_cast<ULL>(stats_.credit_rdv_degrades),
          static_cast<ULL>(stats_.rx_stored_bytes),
          static_cast<ULL>(stats_.rx_stored_hwm));
  }
  if (stats_.sends_cancelled != 0 || stats_.recvs_cancelled != 0 ||
      stats_.deadlines_exceeded != 0 ||
      stats_.cancelled_payload_dropped != 0) {
    dumpf(out, "cancel: sends=%llu recvs=%llu deadlines=%llu dropped=%llu\n",
          static_cast<ULL>(stats_.sends_cancelled),
          static_cast<ULL>(stats_.recvs_cancelled),
          static_cast<ULL>(stats_.deadlines_exceeded),
          static_cast<ULL>(stats_.cancelled_payload_dropped));
  }
  dumpf(out, "events:");
  for (size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    dumpf(out, " %s=%llu", event_kind_name(kind),
          static_cast<ULL>(bus_.count(kind)));
  }
  dumpf(out, "\n");
  const AllocStats alloc = alloc_stats();
  dumpf(out,
        "alloc: chunk=%zu/%zu(%zu) bulk=%zu/%zu(%zu) send=%zu/%zu(%zu) "
        "recv=%zu/%zu(%zu) fn_spills=%llu\n",
        alloc.chunk_pool_live, alloc.chunk_pool_capacity,
        alloc.chunk_pool_grows, alloc.bulk_pool_live, alloc.bulk_pool_capacity,
        alloc.bulk_pool_grows, alloc.send_pool_live, alloc.send_pool_capacity,
        alloc.send_pool_grows, alloc.recv_pool_live, alloc.recv_pool_capacity,
        alloc.recv_pool_grows, static_cast<ULL>(alloc.inline_fn_heap_allocs));
  dumpf(out,
        "queue: sched=%llu exec=%llu cancel=%llu buckets=%zu pending=%zu "
        "nodes=%zu slots=%zu resizes=%llu direct=%llu\n",
        static_cast<ULL>(alloc.queue.scheduled),
        static_cast<ULL>(alloc.queue.executed),
        static_cast<ULL>(alloc.queue.cancelled), alloc.queue.buckets,
        alloc.queue.pending, alloc.queue.node_capacity,
        alloc.queue.slot_capacity, static_cast<ULL>(alloc.queue.resizes),
        static_cast<ULL>(alloc.queue.direct_searches));
  bus_.dump_trace(out, 32);
}

Core::AllocStats Core::alloc_stats() const {
  AllocStats s;
  s.chunk_pool_live = chunk_pool_.live();
  s.chunk_pool_capacity = chunk_pool_.capacity();
  s.chunk_pool_grows = chunk_pool_.grows();
  s.bulk_pool_live = bulk_pool_.live();
  s.bulk_pool_capacity = bulk_pool_.capacity();
  s.bulk_pool_grows = bulk_pool_.grows();
  s.send_pool_live = send_pool_.live();
  s.send_pool_capacity = send_pool_.capacity();
  s.send_pool_grows = send_pool_.grows();
  s.recv_pool_live = recv_pool_.live();
  s.recv_pool_capacity = recv_pool_.capacity();
  s.recv_pool_grows = recv_pool_.grows();
  s.queue = rt_.timer_stats();
  s.inline_fn_heap_allocs = util::inline_fn_heap_allocs();
  return s;
}

}  // namespace nmad::core
