#include "nmad/core/transfer_engine.hpp"

#include <algorithm>
#include <ostream>

#include "nmad/core/format_util.hpp"
#include "util/logging.hpp"

// ---------------------------------------------------------------------------
// Rail health lifecycle (CoreConfig::rail_health)
//
// Liveness is active and symmetric: every engine beacons on every rail (at
// most one kHeartbeat per interval per peer, piggybacked when traffic
// flows), and anything *heard* on a rail refreshes it — so a healthy but
// idle fabric stays quiet-but-alive, and detection of a dead link no
// longer depends on in-flight data timing out. Revival is epoch-fenced: a
// dead rail is probed, the peer echoes the probe's epoch, and only replies
// carrying the rail's current epoch advance probation. Any straggler from
// an earlier life — a delayed reply, a beacon inside a retransmitted wire
// image — is fenced and dropped.
// ---------------------------------------------------------------------------

namespace nmad::core {

namespace {
// EWMA smoothing factor of the per-delivery loss and latency estimates.
constexpr double kScoreLossAlpha = 0.1;
// Loss-rate hysteresis band: a rail enters degraded at/above `enter` and
// leaves at/below `exit`.
constexpr double kDegradedLossEnter = 0.02;
constexpr double kDegradedLossExit = 0.005;
// A breach must persist kDegradedSustainUs before the rail turns
// degraded; a degraded rail recovers once it has been degraded for
// kDegradedDwellUs and clean for kDegradedSustainUs (no flapping).
constexpr double kDegradedSustainUs = 300.0;
constexpr double kDegradedDwellUs = 1000.0;
}  // namespace

const char* rail_health_name(RailHealth health) {
  switch (health) {
    case RailHealth::kAlive: return "alive";
    case RailHealth::kSuspect: return "suspect";
    case RailHealth::kDead: return "dead";
    case RailHealth::kProbation: return "probation";
    case RailHealth::kDegraded: return "degraded";
  }
  return "?";
}

TransferEngine::TransferEngine(EngineContext& ctx, RailIndex index,
                               std::unique_ptr<drivers::Driver> driver,
                               RailInfo info)
    : ctx_(ctx), index_(index), driver_(std::move(driver)), info_(info) {
  // Track-1 deposits bypass the packet hub, yet a rail streaming one long
  // rendezvous body is the opposite of dead: count every bulk arrival as
  // liveness so the monitor does not kill a saturated rail mid-transfer.
  driver_->set_bulk_rx_handler([this](drivers::PeerAddr) {
    if (!health_on()) return;
    refresh_liveness();
  });
}

void TransferEngine::install_rx(RxSink sink) {
  driver_->set_rx_handler(
      [this, sink = std::move(sink)](drivers::RxPacket&& packet) {
        if (health_on()) refresh_liveness();
        sink(index_, std::move(packet));
      });
}

void TransferEngine::install_orphan(drivers::Driver::BulkOrphanHandler sink) {
  driver_->set_bulk_orphan_handler(std::move(sink));
}

void TransferEngine::refresh_liveness() {
  last_rx_us_ = ctx_.rt.now_us();
  // kDegraded is deliberately NOT cleared here: the degraded state is
  // score-driven (the rail is heard just fine — it drops or delays what
  // it carries), so only a sustained clean score in update_degraded()
  // may lift it.
  if (health_ == RailHealth::kSuspect) set_health(RailHealth::kAlive);
}

util::Status TransferEngine::send_packet(
    const Gate& gate, const util::SegmentVec& segments,
    drivers::Driver::CompletionFn on_tx_done) {
  ctx_.bus.publish({.kind = EventKind::kWireTx,
                    .gate = gate.id,
                    .rail = index_,
                    .a = segments.total_bytes(),
                    .b = 0});
  win_tx_bytes_ += segments.total_bytes();
  return driver_->send_packet(gate.peer, segments, std::move(on_tx_done));
}

util::Status TransferEngine::send_bulk(
    const Gate& gate, uint64_t cookie, size_t offset,
    const util::SegmentVec& segments,
    drivers::Driver::CompletionFn on_tx_done) {
  ctx_.bus.publish({.kind = EventKind::kWireTx,
                    .gate = gate.id,
                    .rail = index_,
                    .a = segments.total_bytes(),
                    .b = 1});
  win_tx_bytes_ += segments.total_bytes();
  return driver_->send_bulk(gate.peer, cookie, offset, segments,
                            std::move(on_tx_done));
}

util::Status TransferEngine::post_bulk_recv(drivers::BulkSink* sink) {
  return driver_->post_bulk_recv(sink);
}

void TransferEngine::cancel_bulk_recv(uint64_t cookie) {
  driver_->cancel_bulk_recv(cookie);
}

void TransferEngine::note_delivery(double latency_us) {
  consec_timeouts_ = 0;
  if (!adaptive_on()) return;
  const double a = kScoreLossAlpha;
  loss_ewma_ *= 1.0 - a;  // a successful delivery pulls the estimate down
  if (latency_us >= 0.0) {
    delivery_latency_.add(latency_us);
    lat_ewma_us_ = lat_ewma_us_ == 0.0
                       ? latency_us
                       : (1.0 - a) * lat_ewma_us_ + a * latency_us;
  }
  update_degraded();
}

void TransferEngine::note_timeout() {
  if (adaptive_on() && alive_) {
    const double a = kScoreLossAlpha;
    loss_ewma_ = (1.0 - a) * loss_ewma_ + a;  // a loss pulls it up
    update_degraded();
  }
  if (ctx_.config.rail_dead_after == 0) return;
  if (!alive_) return;
  if (++consec_timeouts_ >= ctx_.config.rail_dead_after) kill();
}

void TransferEngine::update_degraded() {
  if (!adaptive_on() || !health_on() || !alive_) return;
  const CoreConfig& cfg = ctx_.config;
  const double now = ctx_.rt.now_us();
  const bool lat_on = cfg.degraded_latency_enter_us > 0.0;
  const double lat_exit = cfg.degraded_latency_exit_us > 0.0
                              ? cfg.degraded_latency_exit_us
                              : cfg.degraded_latency_enter_us;
  const bool breach =
      loss_ewma_ >= kDegradedLossEnter ||
      (lat_on && lat_ewma_us_ >= cfg.degraded_latency_enter_us);
  const bool clean = loss_ewma_ <= kDegradedLossExit &&
                     (!lat_on || lat_ewma_us_ <= lat_exit);

  if (health_ == RailHealth::kDegraded) {
    // Exit needs the minimum dwell (no-flap), then a sustained clean
    // reading below the *exit* thresholds — the hysteresis band.
    if (clean) {
      if (clean_since_us_ < 0.0) clean_since_us_ = now;
      if (now - degraded_at_us_ >= kDegradedDwellUs &&
          now - clean_since_us_ >= kDegradedSustainUs) {
        clean_since_us_ = -1.0;
        breach_since_us_ = -1.0;
        ++ctx_.stats.rails_recovered;
        NMAD_LOG_WARN("nmad: node %u clears rail %u (%s) from degraded",
                      ctx_.rt.local_id(), static_cast<unsigned>(index_),
                      driver_->caps().name.c_str());
        set_health(RailHealth::kAlive);
      }
    } else {
      clean_since_us_ = -1.0;
    }
    return;
  }
  // Suspect outranks degraded: a rail that has gone silent is handled by
  // the liveness machine; the score takes over again once it is heard.
  if (health_ != RailHealth::kAlive) return;
  if (breach) {
    if (breach_since_us_ < 0.0) breach_since_us_ = now;
    if (now - breach_since_us_ >= kDegradedSustainUs) {
      breach_since_us_ = -1.0;
      clean_since_us_ = -1.0;
      degraded_at_us_ = now;
      ++degraded_entries_;
      ++ctx_.stats.rails_degraded;
      NMAD_LOG_WARN(
          "nmad: node %u marks rail %u (%s) degraded (loss=%.4f lat=%.1fus)",
          ctx_.rt.local_id(), static_cast<unsigned>(index_),
          driver_->caps().name.c_str(), loss_ewma_, lat_ewma_us_);
      // The transition is the closed loop's trigger: the schedule layer's
      // subscription re-elects in-flight sprayed fragments off this rail
      // before this returns (bus delivery is synchronous).
      set_health(RailHealth::kDegraded);
    }
  } else {
    breach_since_us_ = -1.0;
  }
}

void TransferEngine::set_health(RailHealth next) {
  if (health_ == next) return;
  const RailHealth prev = health_;
  health_ = next;
  ctx_.bus.publish({.kind = EventKind::kHealthTransition,
                    .rail = index_,
                    .seq = epoch_,
                    .a = static_cast<uint64_t>(prev),
                    .b = static_cast<uint64_t>(next)});
}

void TransferEngine::kill() {
  if (!alive_) return;
  alive_ = false;
  // A new epoch fences this rail's earlier life: probe replies and
  // beacons carrying the old value no longer count toward revival.
  ++epoch_;
  probation_hits_ = 0;
  last_probe_us_ = -1.0e18;  // probe at the very next health tick
  rtt_probe_pending_ = false;
  breach_since_us_ = -1.0;
  clean_since_us_ = -1.0;
  ++ctx_.stats.rails_failed;
  NMAD_LOG_WARN("nmad: node %u declares rail %u (%s) dead (epoch %u)",
                ctx_.rt.local_id(), static_cast<unsigned>(index_),
                driver_->caps().name.c_str(), epoch_);
  // The health-transition event is the rail's obituary on the bus: the
  // scheduling layer's subscription re-homes prebuilt packets and
  // in-flight traffic before this returns (delivery is synchronous).
  set_health(RailHealth::kDead);
}

void TransferEngine::revive() {
  if (alive_) return;
  alive_ = true;
  consec_timeouts_ = 0;
  probation_hits_ = 0;
  last_rx_us_ = ctx_.rt.now_us();
  // A revived rail starts its new life with a clean score: the losses
  // that killed it belong to the old epoch.
  loss_ewma_ = 0.0;
  lat_ewma_us_ = 0.0;
  breach_since_us_ = -1.0;
  clean_since_us_ = -1.0;
  ++ctx_.stats.rails_revived;
  NMAD_LOG_WARN("nmad: node %u revives rail %u (%s) at epoch %u",
                ctx_.rt.local_id(), static_cast<unsigned>(index_),
                driver_->caps().name.c_str(), epoch_);
  // The scheduling layer's subscription hands the rail back to rendezvous
  // jobs whose CTS granted it, then kicks an election pass.
  set_health(RailHealth::kAlive);
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

double& TransferEngine::hb_tx_slot(GateId id) {
  if (hb_tx_us_.size() <= id) {
    hb_tx_us_.resize(std::max(ctx_.gates.size(), size_t{id} + 1), -1.0e18);
  }
  return hb_tx_us_[id];
}

OutChunk* TransferEngine::make_heartbeat_chunk(const Gate& gate,
                                               uint8_t flags,
                                               uint32_t epoch) {
  OutChunk* hb = ctx_.chunk_pool.acquire();
  hb->kind = ChunkKind::kHeartbeat;
  hb->flags = flags;
  // The gate's unwind generation rides the otherwise-unused tag field:
  // together with the incarnation it lets a peer-dead gate prove to the
  // other side that this side unwound too (the rejoin fence).
  hb->tag = gate.gate_gen;
  hb->seq = epoch;  // the rail epoch rides the seq field
  // The node incarnation rides alongside: every beacon/probe/reply
  // announces which life of this node it belongs to, so a peer can fence
  // stragglers from before a crash (peer lifecycle).
  hb->epoch = ctx_.rt.incarnation();
  hb->prio = Priority::kHigh;
  hb->owner = nullptr;
  return hb;
}

void TransferEngine::maybe_inject_heartbeat(Gate& gate,
                                            PacketBuilder& builder) {
  if (!health_on()) return;
  double& last = hb_tx_slot(gate.id);
  if (ctx_.rt.now_us() - last < ctx_.config.heartbeat_interval_us) return;
  OutChunk* hb = make_heartbeat_chunk(gate, kFlagNone, epoch_);
  if (!builder.fits(*hb)) {
    ctx_.chunk_pool.release(hb);
    return;
  }
  builder.add(hb);
  last = ctx_.rt.now_us();
  ++ctx_.stats.heartbeats_sent;
}

void TransferEngine::send_standalone_heartbeat(Gate& gate, uint8_t flags,
                                               uint32_t epoch) {
  auto builder = std::make_shared<PacketBuilder>(
      std::min(gate.max_packet, info_.max_packet_bytes),
      info_.gather ? info_.max_gather_segments : 0, ctx_.config.wire_checksum,
      /*reserve_seq=*/true);
  builder->add(make_heartbeat_chunk(gate, flags, epoch));
  // Refresh the beacon slot before the issue path, which would otherwise
  // piggyback a second (now redundant) plain beacon onto this packet.
  hb_tx_slot(gate.id) = ctx_.rt.now_us();
  if ((flags & kFlagProbe) != 0) {
    ++ctx_.stats.probes_sent;
  } else if ((flags & kFlagReply) != 0) {
    ++ctx_.stats.probe_replies_sent;
  } else {
    ++ctx_.stats.heartbeats_sent;
  }
  issuer_->issue_standalone(gate, index_, std::move(builder));
}

void TransferEngine::start_monitor(double now) {
  last_rx_us_ = now;  // silence is counted from connect, not time zero
  last_tp_tick_us_ = now;
  health_timer_armed_ = true;
  health_timer_ = ctx_.rt.schedule_after(ctx_.config.heartbeat_interval_us,
                                   [this]() { on_health_tick(); });
}

void TransferEngine::stop_monitor() {
  if (health_timer_armed_) {
    ctx_.rt.cancel(health_timer_);
    health_timer_armed_ = false;
  }
}

void TransferEngine::on_health_tick() {
  health_timer_armed_ = false;
  const double now = ctx_.rt.now_us();

  if (adaptive_on()) {
    // Roll the throughput window: EWMA of per-tick wire-tx bytes over
    // elapsed virtual time, in bytes/µs.
    const double dt = now - last_tp_tick_us_;
    if (dt > 0.0) {
      const double inst = static_cast<double>(win_tx_bytes_) / dt;
      tp_est_ = tp_est_ == 0.0 ? inst : 0.7 * tp_est_ + 0.3 * inst;
    }
    win_tx_bytes_ = 0;
    last_tp_tick_us_ = now;
    // Time-driven re-evaluation: sustain/dwell horizons must pass even
    // when no new sample arrives to trigger the update.
    update_degraded();
  }

  if (alive_) {
    if (now - last_rx_us_ >= ctx_.config.dead_after_us) {
      // Sustained silence despite our beacons provoking acks: the link is
      // gone. kill() re-elects its in-flight traffic (via the bus) and
      // bumps the epoch; the dead branch below starts probing for revival.
      kill();
    } else {
      if (now - last_rx_us_ >= ctx_.config.suspect_after_us) {
        // Silence outranks the score: a degraded rail that stops being
        // heard is treated like any other suspect (its fragments are
        // re-issued); if it is heard again while still breaching, the
        // score machine re-enters degraded after the sustain window.
        if (health_ == RailHealth::kAlive ||
            health_ == RailHealth::kDegraded) {
          set_health(RailHealth::kSuspect);
          ++ctx_.stats.rails_suspected;
        }
      }
      // Alive-rail RTT probing (adaptive scoring): plain beacons refresh
      // the peer's rx-liveness but are never answered, so an idle rail
      // would accumulate no latency samples at all. A periodic probe is
      // echoed back with our epoch, and the reply's RTT feeds the
      // latency digest — see handle_heartbeat. The probe runs BEFORE
      // beacon duty and doubles as this tick's beacon (it refreshes the
      // gate's beacon slot and the peer's rx-liveness like any other
      // standalone heartbeat): on a fully idle rail a beacon is due
      // every tick, and a beacon sent first would leave tx busy and
      // starve the probe forever.
      if (adaptive_on() && driver_->tx_idle() &&
          now - last_probe_us_ >= ctx_.config.probe_interval_us) {
        for (auto& gate_ptr : ctx_.gates) {
          Gate& g = *gate_ptr;
          // Peer-dead gates keep beaconing/probing: the restarted peer's
          // fresh-incarnation heartbeat is the rejoin signal.
          if ((g.failed && !g.peer_dead) || !g.has_rail(index_)) continue;
          last_probe_us_ = now;
          rtt_probe_pending_ = true;
          send_standalone_heartbeat(g, kFlagProbe, epoch_);
          break;
        }
      }
      // Beacon duty: one standalone heartbeat per tick, to the peer that
      // has waited longest (piggybacking covers the rest when traffic
      // flows). One per tick keeps the NIC contention negligible; the
      // suspect/dead thresholds leave room for the rotation.
      if (driver_->tx_idle()) {
        Gate* stalest = nullptr;
        double stalest_at = 0.0;
        for (auto& gate_ptr : ctx_.gates) {
          Gate& g = *gate_ptr;
          if ((g.failed && !g.peer_dead) || !g.has_rail(index_)) continue;
          const double at = hb_tx_slot(g.id);
          if (stalest == nullptr || at < stalest_at) {
            stalest = &g;
            stalest_at = at;
          }
        }
        if (stalest != nullptr &&
            now - stalest_at >= ctx_.config.heartbeat_interval_us) {
          send_standalone_heartbeat(*stalest, kFlagNone, epoch_);
        }
      }
    }
  } else {
    if (health_ == RailHealth::kProbation &&
        now - last_fresh_reply_us_ > 2.0 * ctx_.config.probe_interval_us) {
      // Replies dried up mid-probation: back to dead under a new epoch,
      // so stragglers from the aborted attempt cannot count again.
      set_health(RailHealth::kDead);
      ++epoch_;
      probation_hits_ = 0;
      ++ctx_.stats.probation_demotions;
    }
    if (now - last_probe_us_ >= ctx_.config.probe_interval_us &&
        driver_->tx_idle()) {
      last_probe_us_ = now;
      // Any peer's reply is proof the local link works; probe the first
      // live gate on the rail (peer-dead gates count — reviving the rail
      // is the first leg of the rejoin handshake).
      for (auto& gate_ptr : ctx_.gates) {
        Gate& g = *gate_ptr;
        if ((g.failed && !g.peer_dead) || !g.has_rail(index_)) continue;
        send_standalone_heartbeat(g, kFlagProbe, epoch_);
        break;
      }
    }
  }

  health_timer_armed_ = true;
  health_timer_ = ctx_.rt.schedule_after(ctx_.config.heartbeat_interval_us,
                                   [this]() { on_health_tick(); });
}

void TransferEngine::handle_heartbeat(Gate& gate, const WireChunk& chunk) {
  if ((chunk.flags & kFlagProbe) != 0) {
    // The probe reached us, which is itself proof the link carries
    // traffic; echo its epoch back so the prober can fence replies that
    // straddle a further death. Replying is best-effort — the prober
    // retries on its own schedule.
    if ((!gate.failed || gate.peer_dead) && driver_->tx_idle()) {
      send_standalone_heartbeat(gate, kFlagReply, chunk.seq);
    }
    return;
  }
  if ((chunk.flags & kFlagReply) != 0) {
    if (alive_) {
      // A reply while alive is the echo of an RTT probe (or a straggler
      // from a revival that already completed). A fresh-epoch echo of an
      // outstanding probe yields the idle-rail latency sample the score
      // needs; anything else is fenced as before.
      if (rtt_probe_pending_ && chunk.seq == epoch_) {
        rtt_probe_pending_ = false;
        if (adaptive_on()) {
          const double rtt = ctx_.rt.now_us() - last_probe_us_;
          delivery_latency_.add(rtt);
          const double a = kScoreLossAlpha;
          lat_ewma_us_ = lat_ewma_us_ == 0.0
                             ? rtt
                             : (1.0 - a) * lat_ewma_us_ + a * rtt;
          ++ctx_.stats.probe_rtt_samples;
          update_degraded();
        }
        return;
      }
      ++ctx_.stats.heartbeats_fenced;
      return;
    }
    if (chunk.seq != epoch_) {
      // A reply for an epoch this rail has moved past: it proves nothing
      // about the current life.
      ++ctx_.stats.heartbeats_fenced;
      return;
    }
    set_health(RailHealth::kProbation);
    last_fresh_reply_us_ = ctx_.rt.now_us();
    if (++probation_hits_ >= ctx_.config.probation_replies) {
      revive();
    }
    return;
  }
  // Plain beacon. The peer's epoch only ever grows; an older value is a
  // stale wire image (a beacon piggybacked on a packet that was flattened
  // for retransmission before the peer's rail died) — fence it.
  if (chunk.seq < peer_epoch_) {
    ++ctx_.stats.heartbeats_fenced;
    return;
  }
  peer_epoch_ = chunk.seq;
  ++ctx_.stats.heartbeats_received;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void TransferEngine::dump_health(std::ostream& out) const {
  if (!health_on()) return;
  dumpf(out, " health=%s epoch=%u peer_epoch=%u heard=%.0fus_ago",
        rail_health_name(health_), epoch_, peer_epoch_,
        ctx_.rt.now_us() - last_rx_us_);
  if (health_ == RailHealth::kProbation) {
    dumpf(out, " probation=%u/%u", probation_hits_,
          ctx_.config.probation_replies);
  }
  if (adaptive_on()) {
    dumpf(out,
          "\n    score: loss=%.4f lat_p50=%.1fus lat_p99=%.1fus "
          "(%zu samples) tp=%.2fB/us degraded_entries=%u",
          loss_ewma_, delivery_latency_.p50(), delivery_latency_.p99(),
          delivery_latency_.count(), tp_est_, degraded_entries_);
  }
}

void TransferEngine::check(size_t display_index,
                           std::vector<std::string>& out) const {
  const bool health_says_alive = health_ == RailHealth::kAlive ||
                                 health_ == RailHealth::kSuspect ||
                                 health_ == RailHealth::kDegraded;
  if (alive_ != health_says_alive) {
    addf(out, "rail %zu: alive=%d but health=%s", display_index,
         alive_ ? 1 : 0, rail_health_name(health_));
  }
  if (health_ == RailHealth::kDegraded && !ctx_.config.adaptive) {
    addf(out, "rail %zu: degraded without adaptive scoring enabled",
         display_index);
  }
  if (loss_ewma_ < 0.0 || loss_ewma_ > 1.0) {
    addf(out, "rail %zu: loss EWMA %.6f outside [0,1]", display_index,
         loss_ewma_);
  }
  if (!alive_ && epoch_ == 0) {
    addf(out, "rail %zu: dead without ever bumping its epoch",
         display_index);
  }
  if (probation_hits_ != 0 && health_ != RailHealth::kProbation) {
    addf(out, "rail %zu: probation hits outside probation (health=%s)",
         display_index, rail_health_name(health_));
  }
  if (health_ == RailHealth::kProbation &&
      probation_hits_ >= ctx_.config.probation_replies) {
    addf(out,
         "rail %zu: %u probation hits reached the revival bar without "
         "reviving",
         display_index, probation_hits_);
  }
}

}  // namespace nmad::core
