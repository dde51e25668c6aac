#include "nmad/core/schedule_layer.hpp"

#include <algorithm>
#include <set>

#include "nmad/core/format_util.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace nmad::core {

namespace {
// Bounds on one ack chunk's contents, keeping it well under any rail's
// packet limit. Sacks are re-advertised on every ack until the floor
// passes them, so the cap only delays retirement; bulk-slice acks are
// consumed when the chunk ships and re-queued if it overflows.
constexpr size_t kMaxSacksPerAck = 32;
constexpr size_t kMaxBulkAcksPerAck = 16;
// A block at least this large that does not fit the remaining credit is
// demoted to rendezvous instead of waiting for the window to open: the
// RTS costs a round-trip but moves no payload until the receiver agrees.
constexpr size_t kCreditRdvFloor = 1024;
// Largest kSprayFrag payload: the unit the spray path stripes over rails.
constexpr size_t kSprayFragBytes = 8 * 1024;
// Retransmit timeouts grow by this factor per retry (jittered around it;
// see backoff_growth).
constexpr double kRetryBackoff = 2.0;
}  // namespace

ScheduleLayer::ScheduleLayer(EngineContext& ctx, ITransferFleet& fleet,
                             IEngine& engine,
                             std::unique_ptr<Strategy> strategy)
    : ctx_(ctx),
      fleet_(fleet),
      engine_(engine),
      strategy_(std::move(strategy)),
      // Rendezvous cookies embed the node id so sinks posted on a shared
      // receiver NIC never collide across senders.
      next_cookie_((static_cast<uint64_t>(ctx.rt.local_id()) + 1) << 48),
      // Seeded per node so the decorrelated backoff draws are replayable
      // yet distinct across peers — the whole point of the jitter.
      jitter_state_(0x9E3779B97F4A7C15ull ^
                    (static_cast<uint64_t>(ctx.rt.local_id()) + 1)) {}

void ScheduleLayer::add_rail_slot() { rails_.emplace_back(); }

void ScheduleLayer::init_gate(Gate& gate) {
  if (!flow_control()) return;
  // Both endpoints start from the configured initial grant; everything
  // after that is negotiated through kCredit advertisements.
  GateSched& s = gate.sched;
  s.credit_limit_bytes = ctx_.config.initial_credit_bytes == 0
                             ? UINT64_MAX
                             : ctx_.config.initial_credit_bytes;
  s.credit_limit_chunks = ctx_.config.initial_credit_msgs == 0
                              ? UINT64_MAX
                              : ctx_.config.initial_credit_msgs;
  s.advertised_limit_bytes = s.credit_limit_bytes;
  s.advertised_limit_chunks = s.credit_limit_chunks;
  s.last_sent_limit_bytes = s.advertised_limit_bytes;
  s.last_sent_limit_chunks = s.advertised_limit_chunks;
}

// ---------------------------------------------------------------------------
// Submission handoff (collect → schedule)
// ---------------------------------------------------------------------------

void ScheduleLayer::enqueue(Gate& gate, OutChunk* chunk) {
  ctx_.rt.cpu().charge(runtime::Cost::kSubmitChunk);
  if (chunk->prio == Priority::kHigh) chunk->flags |= kFlagPriority;
  if (flow_control() && !chunk->is_control() && !chunk->credit_charged) {
    gate.sched.window_eager_bytes += chunk->payload.size();
  }
  gate.sched.window.push_back(*chunk);
}

void ScheduleLayer::submit_rdv(Gate& gate, SendRequest* req, Tag tag,
                               SeqNum seq, size_t logical_offset,
                               util::ConstBytes block, size_t total,
                               const SendHints& hints) {
  BulkJob* job = ctx_.bulk_pool.acquire();
  job->cookie = next_cookie_++;
  job->gate = gate.id;
  job->body = block;
  job->sent = 0;
  job->acked = 0;
  job->rails.clear();
  job->pinned_rail = hints.pinned_rail;
  job->owner = req;
  req->add_part();
  gate.sched.rdv_wait_cts[job->cookie] = job;
  ++ctx_.stats.rdv_started;

  // Propose the per-packet spray path for whole single-block messages:
  // spray reassembly is keyed by (tag, seq), so a multi-block message
  // (several rendezvous jobs under one key) must keep the cookie-keyed
  // bulk pipeline. The receiver accepts by echoing kFlagSpray on the CTS.
  job->spray =
      ctx_.config.spray && logical_offset == 0 && block.size() == total;

  // Closed-loop election (CoreConfig::adaptive): consult the live rail
  // scores per message. With two or more usable rails the message sprays
  // — the stripe set is the healthy subset, since refill_rail makes
  // degraded rails yield — which covers both the multi-rail stripe and
  // the effective single-healthy-rail cases. With one usable rail the
  // fragment overhead buys nothing and the message rides the plain bulk
  // pipeline instead.
  if (job->spray && adaptive()) {
    size_t usable = 0;
    for (RailIndex r : gate.rails) {
      if (fleet_.transfer_rail(r).alive()) ++usable;
    }
    ++ctx_.stats.adaptive_elections;
    if (usable <= 1) job->spray = false;
  }

  OutChunk* rts = ctx_.chunk_pool.acquire();
  rts->kind = ChunkKind::kRts;
  rts->flags = job->spray ? kFlagSpray : kFlagNone;
  rts->tag = tag;
  rts->seq = seq;
  rts->offset = static_cast<uint32_t>(logical_offset);
  rts->total = static_cast<uint32_t>(total);
  rts->rdv_len = static_cast<uint32_t>(block.size());
  rts->cookie = job->cookie;
  rts->prio = Priority::kHigh;  // control data ships first
  rts->pinned_rail = hints.pinned_rail;
  rts->owner = nullptr;
  enqueue(gate, rts);
}

bool ScheduleLayer::credit_wants_rdv(const Gate& gate,
                                     size_t block_bytes) const {
  return flow_control() && block_bytes >= kCreditRdvFloor &&
         gate.sched.eager_sent_bytes + gate.sched.window_eager_bytes +
                 block_bytes >
             gate.sched.credit_limit_bytes;
}

// ---------------------------------------------------------------------------
// Just-in-time election
// ---------------------------------------------------------------------------

void ScheduleLayer::kick() {
  for (RailIndex r = 0; r < rails_.size(); ++r) {
    refill_rail(r);
    if (!fleet_.transfer_rail(r).tx_idle()) maybe_prebuild(r);
  }
#ifdef NMAD_VALIDATE
  engine_.validate_tick();
#endif
}

// §3.2 alternative policy: while the NIC is busy and the backlog is deep
// enough, run the optimizer early and park the resulting packet.
void ScheduleLayer::maybe_prebuild(RailIndex rail) {
  if (ctx_.config.prebuild_backlog_chunks == 0) return;
  RailSched& rs = rails_[rail];
  ITransferRail& tr = fleet_.transfer_rail(rail);
  if (!tr.alive() || rs.prebuilt) return;
  const size_t n = ctx_.gates.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t gi = (rs.rr_cursor + k) % n;
    Gate& g = *ctx_.gates[gi];
    if (!g.has_rail(rail) || g.failed) continue;
    // Degraded rails don't prebuild for gates a healthy rail serves —
    // the parked packet would ship on the gray rail the moment it idles,
    // bypassing the refill-time yield.
    if (adaptive() && tr.degraded() && gate_has_healthy_rail(g, rail)) {
      continue;
    }
    if (g.sched.window.size() < ctx_.config.prebuild_backlog_chunks) continue;
    if (reliable() && g.sched.pending_pkts.size() >= kReliabilityWindow) {
      continue;
    }
    const size_t max_bytes =
        std::min(g.max_packet, tr.info().max_packet_bytes);
    const size_t max_segments =
        tr.info().gather ? tr.info().max_gather_segments : 0;
    auto builder = std::make_shared<PacketBuilder>(
        max_bytes, max_segments, ctx_.config.wire_checksum,
        /*reserve_seq=*/reliable());
    const size_t taken = strategy_->pack(*this, g, tr.info(), *builder);
    if (taken == 0) continue;
    // The election cost is paid now, overlapped with the NIC's current
    // transmission instead of delaying the next one.
    ctx_.rt.cpu().charge(runtime::Cost::kElect);
    ++ctx_.stats.packets_prebuilt;
    ctx_.bus.publish({.kind = EventKind::kElected,
                      .gate = g.id,
                      .rail = rail,
                      .a = taken,
                      .b = 1});
    rs.prebuilt = std::move(builder);
    rs.prebuilt_gate = g.id;
    rs.rr_cursor = (gi + 1) % n;
    return;
  }
}

void ScheduleLayer::refill_rail(RailIndex rail) {
  RailSched& rs = rails_[rail];
  ITransferRail& tr = fleet_.transfer_rail(rail);
  if (!tr.alive()) return;
  if (!tr.tx_idle()) return;

  // A pre-armed packet goes out instantly, no election on the idle path.
  if (rs.prebuilt) {
    std::shared_ptr<PacketBuilder> builder = std::move(rs.prebuilt);
    rs.prebuilt.reset();
    issue_packet(gate_ref(rs.prebuilt_gate), rail, std::move(builder),
                 /*charge_election=*/false);
    return;
  }
  const size_t n = ctx_.gates.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t gi = (rs.rr_cursor + k) % n;
    Gate& g = *ctx_.gates[gi];
    if (!g.has_rail(rail) || g.failed) continue;

    // Degraded rails yield to healthy ones (CoreConfig::adaptive): while
    // this gate still reaches a scoreably healthy rail, a degraded rail
    // elects no packet traffic for it — new stripes and packet
    // retransmits route around the gray failure, and any kick lets the
    // healthy rail drain them. Window chunks pinned to this very rail
    // still ship (yielding them would strand the chunk), and the
    // rendezvous bulk path is untouched: its rail set was fixed by the
    // CTS grant. With no healthy alternative the rail keeps carrying
    // everything — degraded is not dead.
    const bool yield_degraded =
        adaptive() && tr.degraded() && gate_has_healthy_rail(g, rail);
    bool yield_window = yield_degraded;
    if (yield_window) {
      for (const OutChunk& c : g.sched.window) {
        if (c.pinned_rail == rail) {
          yield_window = false;
          break;
        }
      }
    }

    if (reliable()) {
      // Lost traffic first: the receiver is stalled on it. A packet
      // retransmit may ride any alive rail of the gate (track-0 packets
      // fit every rail's frame limit by construction); bulk slices only
      // ride rails their CTS granted.
      while (!yield_degraded && !g.sched.retx_queue.empty()) {
        const uint32_t seq = g.sched.retx_queue.front();
        auto it = g.sched.pending_pkts.find(seq);
        if (it == g.sched.pending_pkts.end() || !it->second.queued_retx) {
          g.sched.retx_queue.pop_front();  // retired while queued
          continue;
        }
        g.sched.retx_queue.pop_front();
        rs.rr_cursor = (gi + 1) % n;
        retransmit_packet(g, rail, seq);
        return;
      }
      for (size_t b = 0; b < g.sched.bulk_retx.size(); ++b) {
        const BulkKey key = g.sched.bulk_retx[b];
        auto it = g.sched.pending_bulk.find(key);
        if (it == g.sched.pending_bulk.end() || !it->second.queued_retx) {
          g.sched.bulk_retx.erase(g.sched.bulk_retx.begin() +
                                  static_cast<ptrdiff_t>(b));
          --b;
          continue;
        }
        if (!tr.info().rdma || !it->second.job->allows_rail(rail)) continue;
        g.sched.bulk_retx.erase(g.sched.bulk_retx.begin() +
                                static_cast<ptrdiff_t>(b));
        rs.rr_cursor = (gi + 1) % n;
        retransmit_bulk(g, rail, key);
        return;
      }
    }

    // Granted rendezvous bodies take precedence: the receiver is waiting.
    Strategy::BulkDecision decision =
        strategy_->next_bulk(*this, g, tr.info());
    if (decision.job != nullptr && decision.bytes > 0) {
      rs.rr_cursor = (gi + 1) % n;
      issue_bulk(g, rail, decision.job, decision.bytes);
      return;
    }

    if (!yield_window && !g.sched.window.empty()) {
      if (reliable() && g.sched.pending_pkts.size() >= kReliabilityWindow) {
        continue;  // sliding window full: wait for acks
      }
      const size_t max_bytes =
          std::min(g.max_packet, tr.info().max_packet_bytes);
      const size_t max_segments =
          tr.info().gather ? tr.info().max_gather_segments : 0;
      auto builder = std::make_shared<PacketBuilder>(
          max_bytes, max_segments, ctx_.config.wire_checksum,
          /*reserve_seq=*/reliable());
      const size_t taken = strategy_->pack(*this, g, tr.info(), *builder);
      if (taken > 0) {
        rs.rr_cursor = (gi + 1) % n;
        ctx_.bus.publish({.kind = EventKind::kElected,
                          .gate = g.id,
                          .rail = rail,
                          .a = taken});
        issue_packet(g, rail, std::move(builder));
        return;
      }
    }
  }
}

void ScheduleLayer::issue_packet(Gate& gate, RailIndex rail,
                                 std::shared_ptr<PacketBuilder> builder,
                                 bool charge_election) {
  // Piggyback any pending acknowledgement on this packet — a free ride,
  // where a standalone ack packet would cost a header and an election.
  if (reliable()) maybe_inject_ack(gate, *builder);
  // Likewise a credit advertisement, whenever the limits grew.
  if (flow_control()) maybe_inject_credit(gate, *builder);
  // And a liveness beacon when this rail's heartbeat to the peer is due
  // (the transfer engine gates itself on the health lifecycle).
  fleet_.transfer_rail(rail).maybe_inject_heartbeat(gate, *builder);

  // The optimizer just inspected the window and synthesized a packet;
  // charge its cost (§5.1: "extra operations on the critical path") —
  // unless it was already paid at prebuild time.
  if (charge_election) ctx_.rt.cpu().charge(runtime::Cost::kElect);
  ++ctx_.stats.packets_sent;
  ctx_.stats.chunks_sent += builder->chunk_count();
  if (builder->chunk_count() > 1) {
    ctx_.stats.chunks_aggregated += builder->chunk_count();
  }

  // Payload-bearing packets get a sequence number and enter the unacked
  // window; pure ack/credit/heartbeat packets are fire-and-forget
  // (acknowledging an ack would ping-pong forever, credits are
  // self-healing — the next advertisement supersedes a lost one — and a
  // lost heartbeat is just silence the next beacon or probe fills in).
  bool track = false;
  if (reliable()) {
    for (const OutChunk* chunk : builder->chunks()) {
      if (chunk->kind != ChunkKind::kAck &&
          chunk->kind != ChunkKind::kCredit &&
          chunk->kind != ChunkKind::kHeartbeat) {
        track = true;
        break;
      }
    }
  }
  uint32_t pkt_seq = 0;
  if (track) {
    pkt_seq = gate.sched.next_pkt_seq++;
    builder->mark_reliable(pkt_seq);
  }

  const util::SegmentVec& segments = builder->finalize();
  ctx_.bus.publish({.kind = EventKind::kPacketBuilt,
                    .gate = gate.id,
                    .rail = rail,
                    .seq = pkt_seq,
                    .a = segments.total_bytes(),
                    .b = builder->chunk_count()});

  if (track) {
    // Flatten the wire image now: retransmission must not depend on the
    // application buffers or the builder staying untouched.
    PendingPacket& p = gate.sched.pending_pkts[pkt_seq];
    p.wire = std::make_shared<util::ByteBuffer>();
    p.wire->resize(segments.total_bytes());
    segments.gather_into(p.wire->view());
    for (OutChunk* chunk : builder->chunks()) {
      if (chunk->kind == ChunkKind::kRts &&
          (chunk->flags & kFlagCancel) != 0) {
        // A cancel-RTS rides here: remember which withdrawn rendezvous
        // cookies it covers, so the ack can arm their tombstones for GC
        // (the receiver provably cannot grant them afterwards).
        auto ck = gate.sched.cancel_wait_ack.find(
            MsgKey{chunk->tag, chunk->seq});
        if (ck != gate.sched.cancel_wait_ack.end()) {
          p.cancel_cookies.insert(p.cancel_cookies.end(),
                                  ck->second.begin(), ck->second.end());
          gate.sched.cancel_wait_ack.erase(ck);
        }
      }
      if (chunk->owner == nullptr || chunk->is_control()) continue;
      const size_t slot = p.owners.size();
      p.owners.push_back(chunk->owner);
      if (chunk->kind == ChunkKind::kSprayFrag) {
        // Remember enough to re-create the fragment on a survivor the
        // instant this packet's rail turns suspect (see on_rail_suspect).
        p.spray_frags.push_back({.tag = chunk->tag,
                                 .seq = chunk->seq,
                                 .frag_seq = chunk->frag_seq,
                                 .epoch = chunk->epoch,
                                 .offset = chunk->offset,
                                 .total = chunk->total,
                                 .payload = chunk->payload,
                                 .owner = chunk->owner,
                                 .owner_slot = slot,
                                 .reissued = false});
        if (chunk->reissue_at >= 0.0) {
          // Suspect-transition to wire: the failover latency the spray
          // path exists to shrink.
          ctx_.stats.spray_reissue_latency_us.add(ctx_.rt.now_us() -
                                                  chunk->reissue_at);
        }
      }
    }
    p.last_rail = rail;
    p.issued_at = ctx_.rt.now_us();
    p.timeout_us = ctx_.config.ack_timeout_us;
    arm_packet_timer(gate, pkt_seq);
  }

  const bool defer_completion = reliable();
  const util::Status st = fleet_.transfer_rail(rail).send_packet(
      gate, segments, [this, builder, defer_completion]() {
        for (OutChunk* chunk : builder->chunks()) {
          // Under reliability, part_done waits for the ack, not tx-done.
          if (!defer_completion && chunk->owner != nullptr &&
              !chunk->is_control()) {
            chunk->owner->part_done();
          }
          ctx_.chunk_pool.release(chunk);
        }
        kick();
      });
  NMAD_ASSERT_MSG(st.is_ok(), "driver rejected packet send");
}

void ScheduleLayer::issue_standalone(Gate& gate, RailIndex rail,
                                     std::shared_ptr<PacketBuilder> builder) {
  issue_packet(gate, rail, std::move(builder), /*charge_election=*/false);
}

void ScheduleLayer::issue_bulk(Gate& gate, RailIndex rail, BulkJob* job,
                               size_t bytes) {
  NMAD_ASSERT(bytes > 0 && bytes <= job->remaining());
  ctx_.rt.cpu().charge(runtime::Cost::kElect);
  ++ctx_.stats.bulk_sends;
  ctx_.stats.bulk_bytes += bytes;

  const size_t offset = job->sent;
  job->sent += bytes;
  if (job->all_sent()) {
    gate.sched.ready_bulk.remove(*job);  // nothing left to elect
  }
  ctx_.bus.publish({.kind = EventKind::kElected,
                    .gate = gate.id,
                    .rail = rail,
                    .a = bytes,
                    .b = job->cookie});

  if (reliable()) {
    const BulkKey key{job->cookie, offset};
    PendingBulk& p = gate.sched.pending_bulk[key];
    p.job = job;
    p.offset = offset;
    p.len = bytes;
    p.last_rail = rail;
    p.issued_at = ctx_.rt.now_us();
    // Large slices hold the wire longer; budget their transfer time on
    // top of the base deadline so they don't time out spuriously.
    p.timeout_us =
        ctx_.config.ack_timeout_us +
        2.0 * util::wire_time_us(static_cast<double>(bytes),
                                fleet_.transfer_rail(rail).info()
                                    .bandwidth_mbps);
    arm_bulk_timer(gate, key);
  }

  const bool defer_completion = reliable();
  util::SegmentVec segments;
  segments.add(job->body.subspan(offset, bytes));
  const util::Status st = fleet_.transfer_rail(rail).send_bulk(
      gate, job->cookie, offset, segments,
      [this, job, bytes, defer_completion]() {
        if (!defer_completion) {
          job->acked += bytes;
          if (job->all_sent() && job->all_acked()) {
            SendRequest* owner = job->owner;
            ctx_.bulk_pool.release(job);
            owner->part_done();
          }
        }
        kick();
      });
  NMAD_ASSERT_MSG(st.is_ok(), "driver rejected bulk send");
}

// ---------------------------------------------------------------------------
// Per-packet multipath spray (CoreConfig::spray)
// ---------------------------------------------------------------------------

void ScheduleLayer::spray_job(Gate& gate, BulkJob* job) {
  // Sprayed fragments ride track-0 packets under the ack machinery, so
  // the config chain forces reliability on whenever spray is enabled.
  NMAD_ASSERT(reliable());
  SendRequest* owner = job->owner;
  const Tag tag = owner->tag();
  const SeqNum seq = owner->seq();
  const util::ConstBytes body = job->body;

  // Each fragment must fit a track-0 packet on its own: packet header +
  // seq + fragment header + payload + checksum trailer within the gate's
  // smallest rail frame.
  const size_t overhead = kPacketHeaderBytes + kPacketSeqBytes +
                          kSprayFragHeaderBytes + kChecksumTrailerBytes;
  NMAD_ASSERT(gate.max_packet > overhead);
  const size_t frag_bytes = std::max<size_t>(
      1, std::min(kSprayFragBytes, gate.max_packet - overhead));

  ++ctx_.stats.spray_sends;
  uint32_t frag_seq = 0;
  for (size_t off = 0; off < body.size(); off += frag_bytes) {
    const size_t n = std::min(frag_bytes, body.size() - off);
    OutChunk* c = ctx_.chunk_pool.acquire();
    c->kind = ChunkKind::kSprayFrag;
    c->flags = 0;
    c->tag = tag;
    c->seq = seq;
    c->offset = static_cast<uint32_t>(off);
    c->total = static_cast<uint32_t>(body.size());
    c->payload = body.subspan(off, n);
    c->frag_seq = frag_seq++;
    c->epoch = 0;
    c->reissue_at = -1.0;
    // Sprayed bodies were admitted as rendezvous traffic — the receiver
    // granted the whole block up front — so they bypass the eager credit
    // window: mark them charged before enqueue.
    c->credit_charged = true;
    c->prio = Priority::kNormal;
    c->pinned_rail = job->pinned_rail;
    c->owner = owner;
    owner->add_part();
    enqueue(gate, c);
    ++ctx_.stats.spray_frags_tx;
  }
  // Every fragment holds its own part; the job's original part retires
  // with the job itself.
  ctx_.bulk_pool.release(job);
  owner->part_done();
  kick();
}

void ScheduleLayer::on_rail_suspect(RailIndex rail) {
  if (!ctx_.config.spray) return;
  if (reissue_inflight_sprays(rail, /*degraded_trigger=*/false)) kick();
}

void ScheduleLayer::on_rail_degraded(RailIndex rail) {
  if (!adaptive()) return;
  // Eviction accounting: every gate that still reaches a healthy rail
  // drops the degraded one from its stripe set (refill_rail yields it
  // from now on); gates with no healthy alternative keep using it.
  for (auto& gate_ptr : ctx_.gates) {
    Gate& g = *gate_ptr;
    if (g.failed || !g.has_rail(rail)) continue;
    if (gate_has_healthy_rail(g, rail)) ++ctx_.stats.degraded_evictions;
  }
  bool any = false;
  if (ctx_.config.spray) {
    any = reissue_inflight_sprays(rail, /*degraded_trigger=*/true);
  }
  if (any) kick();
}

bool ScheduleLayer::gate_has_healthy_rail(const Gate& gate,
                                          RailIndex except) const {
  for (RailIndex r : gate.rails) {
    if (r == except) continue;
    const ITransferRail& tr = fleet_.transfer_rail(r);
    if (tr.alive() && !tr.suspect() && !tr.degraded()) return true;
  }
  return false;
}

bool ScheduleLayer::reissue_inflight_sprays(RailIndex rail,
                                            bool degraded_trigger) {
  const double now = ctx_.rt.now_us();
  bool any = false;
  for (auto& gate_ptr : ctx_.gates) {
    Gate& g = *gate_ptr;
    if (g.failed || !g.has_rail(rail)) continue;
    // Survivors: alive, not under suspicion, preferring scoreably
    // healthy rails over degraded ones — a re-issue onto a gray rail is
    // only taken when nothing better exists. With no survivor at all,
    // the regular timeout/death machinery remains the recovery path.
    std::vector<RailIndex> healthy;
    std::vector<RailIndex> fallback;
    for (RailIndex r : g.rails) {
      if (r == rail) continue;
      const ITransferRail& tr = fleet_.transfer_rail(r);
      if (!tr.alive() || tr.suspect()) continue;
      (tr.degraded() ? fallback : healthy).push_back(r);
    }
    const std::vector<RailIndex>& survivors =
        healthy.empty() ? fallback : healthy;
    if (survivors.empty()) continue;
    size_t rr = 0;
    for (auto& [seq, p] : g.sched.pending_pkts) {
      if (p.last_rail != rail) continue;
      for (SprayFragRef& ref : p.spray_frags) {
        if (ref.reissued) continue;  // a fresher twin is already out
        SendRequest*& slot = p.owners[ref.owner_slot];
        if (slot == nullptr) continue;  // cancelled mid-flight
        ref.reissued = true;
        // Hand the part to the re-issued copy: when the *original*
        // packet is eventually acked (or the gate torn down), its nulled
        // slot is skipped — the part retires exactly once, with
        // whichever copy the receiver accepts first.
        SendRequest* owner = slot;
        slot = nullptr;
        OutChunk* c = ctx_.chunk_pool.acquire();
        c->kind = ChunkKind::kSprayFrag;
        c->flags = 0;
        c->tag = ref.tag;
        c->seq = ref.seq;
        c->offset = ref.offset;
        c->total = ref.total;
        c->payload = ref.payload;
        c->frag_seq = ref.frag_seq;
        c->epoch = ref.epoch + 1;  // fences the suspect-rail twin
        c->reissue_at = now;
        c->credit_charged = true;
        c->prio = Priority::kHigh;  // the receiver is stalled on it
        c->pinned_rail = survivors[rr++ % survivors.size()];
        // No add_part here: the copy *inherits* the part the original
        // fragment held (its slot above is now null and will never
        // retire), keeping expected-part accounting balanced.
        c->owner = owner;
        enqueue(g, c);
        ++ctx_.stats.spray_reissues;
        if (degraded_trigger) ++ctx_.stats.degraded_reissues;
        ++ctx_.stats.spray_frags_tx;
        ctx_.bus.publish(
            {.kind = EventKind::kSprayReissued,
             .gate = g.id,
             .rail = rail,
             .seq = ref.seq,
             .a = (static_cast<uint64_t>(ref.tag) << 40) | ref.offset,
             .b = ref.payload.size()});
        any = true;
      }
    }
  }
  return any;
}

// ---------------------------------------------------------------------------
// CTS handling (grant arrival on the send side)
// ---------------------------------------------------------------------------

void ScheduleLayer::on_cts(Gate& gate, const WireChunk& chunk) {
  if ((chunk.flags & kFlagCancel) != 0) {
    handle_cancel_cts(gate, chunk);
    return;
  }
  auto it = gate.sched.rdv_wait_cts.find(chunk.cookie);
  if (it == gate.sched.rdv_wait_cts.end()) {
    // A grant racing our own withdrawal: consume the tombstone.
    if (gate.sched.cancelled_rdv.erase(chunk.cookie) > 0) return;
    NMAD_ASSERT_MSG(false, "CTS for unknown cookie");
    return;
  }
  BulkJob* job = it->second;
  gate.sched.rdv_wait_cts.erase(it);

  // The receiver echoed our spray proposal: the body leaves through the
  // optimization window as kSprayFrag chunks instead of per-rail bulk
  // sinks. (A receiver that ignored the flag falls through to the bulk
  // pipeline — both sides key off the CTS flag, so they always agree.)
  if (job->spray && (chunk.flags & kFlagSpray) != 0) {
    spray_job(gate, job);
    return;
  }
  job->spray = false;

  // Keep only rails this side can actually drive (and the pinned rail, if
  // the application constrained the message to one). The grant itself is
  // recorded before the aliveness filter: the receiver's sinks stay
  // posted through a blackout, so a granted rail that dies and later
  // revives can be restored to the job (on_rail_revived).
  job->rails.clear();
  job->granted_rails.clear();
  for (uint8_t r : chunk.rails) {
    if (r >= fleet_.rail_count() || !fleet_.transfer_rail(r).info().rdma ||
        !gate.has_rail(r)) {
      continue;
    }
    if (job->pinned_rail != kAnyRail && job->pinned_rail != r) continue;
    job->granted_rails.push_back(r);
    if (!fleet_.transfer_rail(r).alive()) continue;
    job->rails.push_back(r);
  }
  if (job->rails.empty()) {
    NMAD_ASSERT_MSG(reliable(), "CTS grants no usable rail");
    const util::Status status =
        util::closed("no usable rail for granted rendezvous");
    job->owner->complete(status);
    ctx_.bulk_pool.release(job);
    engine_.fail_gate(gate, status);
    return;
  }
  gate.sched.ready_bulk.push_back(*job);
  kick();
}

// ---------------------------------------------------------------------------
// Reliability: acknowledgements, retransmission
// ---------------------------------------------------------------------------

bool ScheduleLayer::rx_register(Gate& gate, uint32_t seq) {
  GateSched& s = gate.sched;
  if (seq < s.recv_floor || s.recv_seen.count(seq) != 0) return true;
  s.recv_seen.insert(seq);
  const uint32_t old_floor = s.recv_floor;
  while (s.recv_seen.count(s.recv_floor) != 0) {
    s.recv_seen.erase(s.recv_floor);
    ++s.recv_floor;
  }
  // A floor advance is the tombstone-GC trigger: any packet that could
  // still reference a key recorded a full reliability window below the
  // new floor is a duplicate suppressed right here, before the chunks
  // that would consult the tombstone are ever decoded.
  if (s.recv_floor != old_floor) reap_sched_tombstones(gate);
  return false;
}

uint32_t ScheduleLayer::recv_watermark(const Gate& gate) const {
  return gate.sched.recv_floor;
}

void ScheduleLayer::reap_sched_tombstones(Gate& gate) {
  GateSched& s = gate.sched;
  const uint32_t floor = s.recv_floor;
  uint64_t reaped = 0;
  const auto reap = [&](auto& tombs) {
    for (auto it = tombs.begin(); it != tombs.end();) {
      // Unarmed entries (cancel-RTS not yet acked) are never reaped: the
      // receiver may still issue a fresh-seq CTS that must find them.
      if (it->second != kTombUnarmed &&
          floor - it->second >= kReliabilityWindow && it->second <= floor) {
        it = tombs.erase(it);
        ++reaped;
      } else {
        ++it;
      }
    }
  };
  reap(s.cancelled_rdv);
  reap(s.completed_bulk);
  ctx_.stats.tombstones_reaped += reaped;
}

OutChunk* ScheduleLayer::make_ack_chunk(Gate& gate) {
  OutChunk* ack = ctx_.chunk_pool.acquire();
  ack->kind = ChunkKind::kAck;
  ack->flags = 0;
  ack->tag = 0;
  ack->seq = gate.sched.recv_floor;  // cumulative floor rides the seq field
  ack->offset = 0;
  ack->total = 0;
  ack->payload = {};
  const size_t n_sacks =
      std::min(gate.sched.recv_seen.size(), kMaxSacksPerAck);
  ack->ack_sacks.assign(
      gate.sched.recv_seen.begin(),
      std::next(gate.sched.recv_seen.begin(),
                static_cast<ptrdiff_t>(n_sacks)));
  const size_t n_bulk =
      std::min(gate.sched.pending_bulk_acks.size(), kMaxBulkAcksPerAck);
  ack->ack_bulk_acks.assign(
      gate.sched.pending_bulk_acks.begin(),
      gate.sched.pending_bulk_acks.begin() + static_cast<ptrdiff_t>(n_bulk));
  ack->prio = Priority::kHigh;
  ack->pinned_rail = kAnyRail;
  ack->owner = nullptr;
  return ack;
}

void ScheduleLayer::commit_ack_chunk(Gate& gate, OutChunk* ack) {
  // The chunk is definitely shipping: consume the bulk-slice acks it
  // carries (the sender's timer re-sends the slice if this ack is lost).
  // Packet acks are idempotent and re-advertised until the floor passes.
  GateSched& s = gate.sched;
  s.pending_bulk_acks.erase(
      s.pending_bulk_acks.begin(),
      s.pending_bulk_acks.begin() +
          static_cast<ptrdiff_t>(ack->ack_bulk_acks.size()));
  s.ack_needed = !s.pending_bulk_acks.empty();
  if (s.ack_needed) {
    if (!s.ack_timer_armed) schedule_ack(gate);
  } else if (s.ack_timer_armed) {
    ctx_.rt.cancel(s.ack_timer);
    s.ack_timer_armed = false;
  }
}

void ScheduleLayer::maybe_inject_ack(Gate& gate, PacketBuilder& builder) {
  if (!gate.sched.ack_needed || gate.failed) return;
  OutChunk* ack = make_ack_chunk(gate);
  if (!builder.empty() && !builder.fits(*ack)) {
    ctx_.chunk_pool.release(ack);
    return;  // packet is full; the delayed-ack timer still covers us
  }
  builder.add(ack);
  ++ctx_.stats.acks_piggybacked;
  commit_ack_chunk(gate, ack);
}

void ScheduleLayer::schedule_ack(Gate& gate) {
  gate.sched.ack_needed = true;
  if (gate.sched.ack_timer_armed) return;
  gate.sched.ack_timer_armed = true;
  const GateId gid = gate.id;
  gate.sched.ack_timer = ctx_.rt.schedule_after(
      ctx_.config.ack_delay_us, [this, gid]() { on_ack_timer(gid); });
}

void ScheduleLayer::on_ack_timer(GateId gate_id) {
  Gate& g = gate_ref(gate_id);
  g.sched.ack_timer_armed = false;
  if (g.failed || !g.sched.ack_needed) return;
  // No outgoing packet picked the ack up in time: send it standalone on
  // an idle rail, bypassing the window (which may be at its cap). Prefer
  // the rail the peer's traffic was last heard on — a rail that delivers
  // inbound is the best guess for the return path when another rail of
  // the gate has gone dark.
  RailIndex chosen = kAnyRail;
  bool any_alive = false;
  if (g.has_rail(g.sched.last_heard_rail) &&
      fleet_.transfer_rail(g.sched.last_heard_rail).alive()) {
    any_alive = true;
    if (fleet_.transfer_rail(g.sched.last_heard_rail).tx_idle()) {
      chosen = g.sched.last_heard_rail;
    }
  }
  for (RailIndex r : g.rails) {
    if (chosen != kAnyRail) break;
    if (!fleet_.transfer_rail(r).alive()) continue;
    any_alive = true;
    if (fleet_.transfer_rail(r).tx_idle()) {
      chosen = r;
      break;
    }
  }
  if (!any_alive) return;  // nothing to ack over; the peer fails too
  if (chosen == kAnyRail) {
    schedule_ack(g);  // all rails busy: piggybacking will beat us anyway
    return;
  }
  OutChunk* ack = make_ack_chunk(g);
  commit_ack_chunk(g, ack);
  ++ctx_.stats.acks_sent;
  const RailInfo& info = fleet_.transfer_rail(chosen).info();
  auto builder = std::make_shared<PacketBuilder>(
      std::min(g.max_packet, info.max_packet_bytes),
      info.gather ? info.max_gather_segments : 0, ctx_.config.wire_checksum,
      /*reserve_seq=*/true);
  builder->add(ack);
  issue_packet(g, chosen, std::move(builder), /*charge_election=*/false);
}

void ScheduleLayer::on_ack(Gate& gate, const WireChunk& chunk) {
  if (!reliable()) return;  // stray ack without the layer enabled
  while (!gate.sched.pending_pkts.empty() &&
         gate.sched.pending_pkts.begin()->first < chunk.seq) {
    retire_packet(gate, gate.sched.pending_pkts.begin());
  }
  for (const uint32_t seq : chunk.sacks) {
    auto it = gate.sched.pending_pkts.find(seq);
    if (it != gate.sched.pending_pkts.end()) retire_packet(gate, it);
  }
  for (const BulkAck& ack : chunk.bulk_acks) retire_bulk(gate, ack);
}

void ScheduleLayer::retire_packet(
    Gate& gate, std::map<uint32_t, PendingPacket>::iterator it) {
  const uint32_t seq = it->first;
  PendingPacket& p = it->second;
  if (p.timer_armed) ctx_.rt.cancel(p.timer);
  // The rail delivered: feed its score the issue-to-ack latency of the
  // last (successful) wire handoff.
  fleet_.transfer_rail(p.last_rail)
      .note_delivery(p.issued_at >= 0.0 ? ctx_.rt.now_us() - p.issued_at
                                        : -1.0);
  ctx_.bus.publish({.kind = EventKind::kAcked,
                    .gate = gate.id,
                    .rail = p.last_rail,
                    .seq = seq});
  // The ack proves the peer consumed the cancel-RTS chunks this packet
  // carried: no fresh CTS can be granted for those cookies any more, so
  // their tombstones become eligible for the floor-watermark GC. Any CTS
  // already in flight was sent before this ack and therefore carries a seq
  // within one reliability window of the floor recorded here.
  for (const uint64_t cookie : p.cancel_cookies) {
    auto tomb = gate.sched.cancelled_rdv.find(cookie);
    if (tomb != gate.sched.cancelled_rdv.end() &&
        tomb->second == kTombUnarmed) {
      tomb->second = gate.sched.recv_floor;
    }
  }
  std::vector<SendRequest*> owners = std::move(p.owners);
  gate.sched.pending_pkts.erase(it);
  for (SendRequest* owner : owners) {
    if (owner != nullptr) owner->part_done();  // null: cancelled mid-flight
  }
}

void ScheduleLayer::retire_bulk(Gate& gate, const BulkAck& ack) {
  auto it = gate.sched.pending_bulk.find(BulkKey{ack.cookie, ack.offset});
  if (it == gate.sched.pending_bulk.end()) return;  // duplicate ack
  PendingBulk& p = it->second;
  if (p.len != ack.len) return;  // not this slice
  if (p.timer_armed) ctx_.rt.cancel(p.timer);
  fleet_.transfer_rail(p.last_rail)
      .note_delivery(p.issued_at >= 0.0 ? ctx_.rt.now_us() - p.issued_at
                                        : -1.0);
  ctx_.bus.publish({.kind = EventKind::kAcked,
                    .gate = gate.id,
                    .rail = p.last_rail,
                    .a = ack.cookie,
                    .b = ack.offset});
  BulkJob* job = p.job;
  gate.sched.pending_bulk.erase(it);
  job->acked += ack.len;
  if (job->all_sent() && job->all_acked()) {
    SendRequest* owner = job->owner;
    ctx_.bulk_pool.release(job);
    owner->part_done();
  }
}

void ScheduleLayer::arm_packet_timer(Gate& gate, uint32_t seq) {
  auto it = gate.sched.pending_pkts.find(seq);
  NMAD_ASSERT(it != gate.sched.pending_pkts.end());
  PendingPacket& p = it->second;
  NMAD_ASSERT(!p.timer_armed);
  p.timer_armed = true;
  const GateId gid = gate.id;
  p.timer = ctx_.rt.schedule_after(
      p.timeout_us, [this, gid, seq]() { on_packet_timeout(gid, seq); });
}

void ScheduleLayer::arm_bulk_timer(Gate& gate, const BulkKey& key) {
  auto it = gate.sched.pending_bulk.find(key);
  NMAD_ASSERT(it != gate.sched.pending_bulk.end());
  PendingBulk& p = it->second;
  NMAD_ASSERT(!p.timer_armed);
  p.timer_armed = true;
  const GateId gid = gate.id;
  p.timer = ctx_.rt.schedule_after(
      p.timeout_us, [this, gid, key]() { on_bulk_timeout(gid, key); });
}

double ScheduleLayer::backoff_growth() {
  // The draw is symmetric around the growth factor so jitter never
  // changes the expected growth. The half-width is 0.5 * growth, shrunk
  // to growth - 1 whenever the full range could dip below 1.0 (a
  // jittered timeout must never shrink — backoff stays monotone per
  // entry). At kRetryBackoff = 2 both bounds are 1: draws span [1, 3).
  const double growth = kRetryBackoff;
  const double half = std::min(0.5 * growth, growth - 1.0);
  // xorshift64* — cheap, allocation-free, and seeded per node, so a
  // replayed schedule draws the identical jitter sequence.
  uint64_t x = jitter_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  jitter_state_ = x;
  const double u =
      static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) /
      9007199254740992.0;  // uniform in [0, 1)
  return growth + half * (2.0 * u - 1.0);
}

void ScheduleLayer::on_packet_timeout(GateId gate_id, uint32_t seq) {
  Gate& g = gate_ref(gate_id);
  if (g.failed) return;
  auto it = g.sched.pending_pkts.find(seq);
  if (it == g.sched.pending_pkts.end()) return;  // retired; stale timer
  it->second.timer_armed = false;
  ++ctx_.stats.packet_timeouts;
  fleet_.transfer_rail(it->second.last_rail).note_timeout();
  // Rail death may have failed the gate or requeued this packet already.
  if (g.failed) return;
  it = g.sched.pending_pkts.find(seq);
  if (it == g.sched.pending_pkts.end() || it->second.queued_retx) {
    kick();
    return;
  }
  PendingPacket& p = it->second;
  if (p.retries >= ctx_.config.max_retries) {
    engine_.fail_gate(
        g, util::resource_exhausted("packet retransmission limit reached"));
    return;
  }
  ++p.retries;
  p.timeout_us *= backoff_growth();
  p.queued_retx = true;
  g.sched.retx_queue.push_back(seq);
  kick();
}

void ScheduleLayer::on_bulk_timeout(GateId gate_id, BulkKey key) {
  Gate& g = gate_ref(gate_id);
  if (g.failed) return;
  auto it = g.sched.pending_bulk.find(key);
  if (it == g.sched.pending_bulk.end()) return;  // retired; stale timer
  it->second.timer_armed = false;
  ++ctx_.stats.bulk_timeouts;
  fleet_.transfer_rail(it->second.last_rail).note_timeout();
  if (g.failed) return;
  it = g.sched.pending_bulk.find(key);
  if (it == g.sched.pending_bulk.end() || it->second.queued_retx) {
    kick();
    return;
  }
  PendingBulk& p = it->second;
  if (p.retries >= ctx_.config.max_retries) {
    engine_.fail_gate(g, util::resource_exhausted(
                             "rendezvous retransmission limit reached"));
    return;
  }
  ++p.retries;
  p.timeout_us *= backoff_growth();
  p.queued_retx = true;
  g.sched.bulk_retx.push_back(key);
  kick();
}

void ScheduleLayer::retransmit_packet(Gate& gate, RailIndex rail,
                                      uint32_t seq) {
  auto it = gate.sched.pending_pkts.find(seq);
  NMAD_ASSERT(it != gate.sched.pending_pkts.end());
  PendingPacket& p = it->second;
  p.queued_retx = false;
  if (p.timer_armed) {
    ctx_.rt.cancel(p.timer);
    p.timer_armed = false;
  }
  p.last_rail = rail;
  p.issued_at = ctx_.rt.now_us();
  ++ctx_.stats.packets_retransmitted;
  ctx_.bus.publish({.kind = EventKind::kRetransmit,
                    .gate = gate.id,
                    .rail = rail,
                    .seq = seq});
  // Re-issuing is an election of sorts: the engine walked its queues.
  ctx_.rt.cpu().charge(runtime::Cost::kElect);
  std::shared_ptr<util::ByteBuffer> wire = p.wire;
  util::SegmentVec segments;
  segments.add(wire->view());
  const util::Status st = fleet_.transfer_rail(rail).send_packet(
      gate, segments, [this, wire]() { kick(); });
  NMAD_ASSERT_MSG(st.is_ok(), "driver rejected packet retransmit");
  arm_packet_timer(gate, seq);
}

void ScheduleLayer::retransmit_bulk(Gate& gate, RailIndex rail,
                                    const BulkKey& key) {
  auto it = gate.sched.pending_bulk.find(key);
  NMAD_ASSERT(it != gate.sched.pending_bulk.end());
  PendingBulk& p = it->second;
  p.queued_retx = false;
  if (p.timer_armed) {
    ctx_.rt.cancel(p.timer);
    p.timer_armed = false;
  }
  p.last_rail = rail;
  p.issued_at = ctx_.rt.now_us();
  ++ctx_.stats.bulk_retransmitted;
  ctx_.bus.publish({.kind = EventKind::kRetransmit,
                    .gate = gate.id,
                    .rail = rail,
                    .a = key.first,
                    .b = key.second});
  ctx_.rt.cpu().charge(runtime::Cost::kElect);
  util::SegmentVec segments;
  segments.add(p.job->body.subspan(p.offset, p.len));
  const util::Status st = fleet_.transfer_rail(rail).send_bulk(
      gate, key.first, p.offset, segments, [this]() { kick(); });
  NMAD_ASSERT_MSG(st.is_ok(), "driver rejected bulk retransmit");
  arm_bulk_timer(gate, key);
}

// ---------------------------------------------------------------------------
// Receive-side services (owned here: they ride the ack machinery)
// ---------------------------------------------------------------------------

void ScheduleLayer::note_heard(Gate& gate, RailIndex rail) {
  gate.sched.last_heard_rail = rail;
}

void ScheduleLayer::note_eager_heard(Gate& gate, size_t payload_bytes) {
  if (!flow_control()) return;
  gate.sched.eager_heard_bytes += payload_bytes;
  gate.sched.eager_heard_chunks += 1;
}

void ScheduleLayer::queue_bulk_ack(Gate& gate, const BulkAck& ack) {
  gate.sched.pending_bulk_acks.push_back(ack);
  schedule_ack(gate);
}

void ScheduleLayer::note_bulk_completed(Gate& gate, uint64_t cookie) {
  gate.sched.completed_bulk.emplace(cookie, gate.sched.recv_floor);
}

void ScheduleLayer::on_bulk_orphan(Gate& gate, uint64_t cookie, size_t offset,
                                   size_t len) {
  if (gate.sched.completed_bulk.count(cookie) == 0) return;  // unknown: drop
  // A retransmitted slice landed after its sink completed: the bytes are
  // already in place, but the sender still waits for the ack.
  BulkAck ack;
  ack.cookie = cookie;
  ack.offset = static_cast<uint32_t>(offset);
  ack.len = static_cast<uint32_t>(len);
  queue_bulk_ack(gate, ack);
}

// ---------------------------------------------------------------------------
// Flow control (CoreConfig::flow_control)
//
// The receiver advertises cumulative admission limits — "you may have sent
// me at most L bytes / N chunks of eager payload since the connection
// opened". Cumulative limits (rather than deltas) make the scheme immune
// to loss and reordering: the sender keeps max(limit seen so far) and a
// stale or lost advertisement is simply superseded by the next one.
// ---------------------------------------------------------------------------

bool ScheduleLayer::credit_admits(Gate& gate, const OutChunk& chunk) {
  if (!flow_control() || gate.failed) return true;
  if (chunk.is_control() || chunk.payload.empty() || chunk.credit_charged) {
    return true;  // control traffic and re-homed chunks always flow
  }
  GateSched& s = gate.sched;
  if (s.eager_sent_bytes + chunk.payload.size() <= s.credit_limit_bytes &&
      s.eager_sent_chunks + 1 <= s.credit_limit_chunks) {
    return true;
  }
  note_credit_stall(gate);
  return false;
}

void ScheduleLayer::charge_credit(Gate& gate, OutChunk& chunk) {
  if (!flow_control() || chunk.credit_charged || chunk.is_control() ||
      chunk.payload.empty()) {
    return;
  }
  if (skip_credit_charges_ > 0) [[unlikely]] {
    // Injected protocol bug (test_skip_next_credit_charge): the chunk
    // ships without being charged, so the receiver hears traffic the
    // sender never accounted for.
    --skip_credit_charges_;
    return;
  }
  chunk.credit_charged = true;
  GateSched& s = gate.sched;
  s.eager_sent_bytes += chunk.payload.size();
  s.eager_sent_chunks += 1;
  s.window_eager_bytes -=
      std::min(s.window_eager_bytes, chunk.payload.size());
}

void ScheduleLayer::note_credit_stall(Gate& gate) {
  ++ctx_.stats.credit_stalls;
  gate.sched.credit_stalled = true;
  if (gate.sched.credit_probe_armed || ctx_.config.credit_probe_us <= 0.0) {
    return;
  }
  gate.sched.credit_probe_armed = true;
  const GateId gid = gate.id;
  gate.sched.credit_probe_timer = ctx_.rt.schedule_after(
      ctx_.config.credit_probe_us, [this, gid]() { on_credit_probe(gid); });
}

void ScheduleLayer::on_credit_probe(GateId gate_id) {
  Gate& g = gate_ref(gate_id);
  g.sched.credit_probe_armed = false;
  if (g.failed || !g.sched.credit_stalled) return;
  // While anything of ours is still unacked, a piggybacked credit update
  // can still come home on its ack: keep waiting.
  if (!g.sched.pending_pkts.empty() || !g.sched.pending_bulk.empty()) {
    g.sched.credit_probe_armed = true;
    g.sched.credit_probe_timer = ctx_.rt.schedule_after(
        ctx_.config.credit_probe_us,
        [this, gate_id]() { on_credit_probe(gate_id); });
    return;
  }
  // Anything actually held back? The flag can outlive the traffic (the
  // stalled chunks may have been cancelled); if nothing in the window is
  // waiting on credit, the stall is over and the timer stays down.
  bool held = false;
  for (const OutChunk& c : g.sched.window) {
    if (!c.is_control() && !c.payload.empty() && !c.credit_charged) {
      held = true;
      break;
    }
  }
  if (!held) {
    g.sched.credit_stalled = false;
    return;
  }
  // Quiet gate, stalled sender: either the peer's store is full, or its
  // last credit update was lost (standalone ack/credit packets are
  // fire-and-forget). We cannot tell which from here, and force-admitting
  // would breach the receiver's budget — so ask instead: a kCredit chunk
  // with zero limits is a no-op under the monotone-max rule, which lets
  // the zero value double as "please restate your limits". A lost update
  // comes back on the answer; a genuinely full receiver restates the old
  // limits and we simply probe again.
  RailIndex chosen = kAnyRail;
  bool any_alive = false;
  if (g.has_rail(g.sched.last_heard_rail) &&
      fleet_.transfer_rail(g.sched.last_heard_rail).alive()) {
    any_alive = true;
    if (fleet_.transfer_rail(g.sched.last_heard_rail).tx_idle()) {
      chosen = g.sched.last_heard_rail;
    }
  }
  for (RailIndex r : g.rails) {
    if (chosen != kAnyRail) break;
    if (!fleet_.transfer_rail(r).alive()) continue;
    any_alive = true;
    if (fleet_.transfer_rail(r).tx_idle()) {
      chosen = r;
      break;
    }
  }
  if (!any_alive) return;  // every rail is gone; failure detection acts
  if (chosen != kAnyRail) {
    OutChunk* req = ctx_.chunk_pool.acquire();
    req->kind = ChunkKind::kCredit;
    req->flags = 0;
    req->credit_bytes = 0;
    req->credit_chunks = 0;
    req->prio = Priority::kHigh;
    req->owner = nullptr;
    const RailInfo& info = fleet_.transfer_rail(chosen).info();
    auto builder = std::make_shared<PacketBuilder>(
        std::min(g.max_packet, info.max_packet_bytes),
        info.gather ? info.max_gather_segments : 0, ctx_.config.wire_checksum,
        /*reserve_seq=*/true);
    builder->add(req);
    issue_packet(g, chosen, std::move(builder), /*charge_election=*/false);
    ++ctx_.stats.credit_probes;
  }
  // Keep probing until the limits grow (on_credit cancels the timer)
  // or the held-back traffic goes away.
  g.sched.credit_probe_armed = true;
  g.sched.credit_probe_timer = ctx_.rt.schedule_after(
      ctx_.config.credit_probe_us,
      [this, gate_id]() { on_credit_probe(gate_id); });
}

void ScheduleLayer::refresh_advert(Gate& gate) {
  if (gate.failed) return;
  GateSched& s = gate.sched;
  // Bytes. With a budget, grant exactly the room the store has left after
  // what is parked plus what the *other* peers may still send against
  // their outstanding grants; this gate's own outstanding grant is being
  // recomputed, so it is excluded.
  uint64_t want_bytes = s.advertised_limit_bytes;
  if (ctx_.config.rx_budget == 0) {
    if (ctx_.config.initial_credit_bytes != 0) {
      want_bytes = s.eager_heard_bytes + ctx_.config.initial_credit_bytes;
    }
  } else {
    const uint64_t budget =
        std::max<uint64_t>(ctx_.config.rx_budget, gate.max_packet);
    uint64_t used = 0;
    for (const auto& g : ctx_.gates) {
      used += g->sched.stored_bytes;
      if (g.get() != &gate &&
          g->sched.advertised_limit_bytes > g->sched.eager_heard_bytes) {
        used += g->sched.advertised_limit_bytes - g->sched.eager_heard_bytes;
      }
    }
    uint64_t avail = budget > used ? budget - used : 0;
    // Cap the outstanding grant at the initial window. Adverts are
    // monotone, so an over-generous grant to a sender that then goes idle
    // is stranded forever — and a stranded grant the size of the whole
    // budget starves every other peer (deadlock). Capping bounds the
    // stranding to one initial window per idle gate, and the config rule
    // "Σ initial grants ≤ budget" then guarantees each gate can always be
    // re-granted its window: no peer can be starved out.
    if (ctx_.config.initial_credit_bytes != 0) {
      avail = std::min<uint64_t>(avail, ctx_.config.initial_credit_bytes);
    }
    want_bytes = s.eager_heard_bytes + avail;
  }
  if (want_bytes > s.advertised_limit_bytes) {
    s.advertised_limit_bytes = want_bytes;  // monotone, never retreats
  }
  // Chunk count, same shape.
  uint64_t want_chunks = s.advertised_limit_chunks;
  if (ctx_.config.rx_budget_msgs == 0) {
    if (ctx_.config.initial_credit_msgs != 0) {
      want_chunks = s.eager_heard_chunks + ctx_.config.initial_credit_msgs;
    }
  } else {
    const uint64_t budget = std::max<uint64_t>(ctx_.config.rx_budget_msgs, 1);
    uint64_t used = 0;
    for (const auto& g : ctx_.gates) {
      used += g->sched.stored_chunks;
      if (g.get() != &gate &&
          g->sched.advertised_limit_chunks > g->sched.eager_heard_chunks) {
        used +=
            g->sched.advertised_limit_chunks - g->sched.eager_heard_chunks;
      }
    }
    uint64_t avail = budget > used ? budget - used : 0;
    if (ctx_.config.initial_credit_msgs != 0) {  // same stranding cap
      avail = std::min<uint64_t>(avail, ctx_.config.initial_credit_msgs);
    }
    want_chunks = s.eager_heard_chunks + avail;
  }
  if (want_chunks > s.advertised_limit_chunks) {
    s.advertised_limit_chunks = want_chunks;
  }
}

OutChunk* ScheduleLayer::make_credit_chunk(Gate& gate) {
  refresh_advert(gate);
  GateSched& s = gate.sched;
  if (!s.credit_update_needed &&
      s.advertised_limit_bytes == s.last_sent_limit_bytes &&
      s.advertised_limit_chunks == s.last_sent_limit_chunks) {
    return nullptr;  // the peer already knows everything we could say
  }
  OutChunk* chunk = ctx_.chunk_pool.acquire();
  chunk->kind = ChunkKind::kCredit;
  chunk->flags = 0;
  chunk->credit_bytes = s.advertised_limit_bytes;
  chunk->credit_chunks = s.advertised_limit_chunks;
  chunk->prio = Priority::kHigh;
  chunk->owner = nullptr;
  return chunk;
}

void ScheduleLayer::maybe_inject_credit(Gate& gate, PacketBuilder& builder) {
  if (!flow_control() || gate.failed) return;
  OutChunk* credit = make_credit_chunk(gate);
  if (credit == nullptr) return;
  if (!builder.empty() && !builder.fits(*credit)) {
    ctx_.chunk_pool.release(credit);
    return;  // packet is full; the next one (or an ack) carries the update
  }
  builder.add(credit);
  gate.sched.last_sent_limit_bytes = gate.sched.advertised_limit_bytes;
  gate.sched.last_sent_limit_chunks = gate.sched.advertised_limit_chunks;
  gate.sched.credit_update_needed = false;
  ++ctx_.stats.credit_grants;
}

void ScheduleLayer::on_credit(Gate& gate, const WireChunk& chunk) {
  if (!flow_control()) return;
  if (chunk.credit_bytes == 0 && chunk.credit_chunks == 0) {
    // A credit *request* from a stalled sender (see on_credit_probe):
    // restate our current limits on the ack path, even if they have not
    // moved since the last advertisement.
    if (!gate.failed) {
      gate.sched.credit_update_needed = true;
      schedule_ack(gate);
    }
    return;
  }
  bool grew = false;
  if (chunk.credit_bytes > gate.sched.credit_limit_bytes) {
    gate.sched.credit_limit_bytes = chunk.credit_bytes;
    grew = true;
  }
  if (chunk.credit_chunks > gate.sched.credit_limit_chunks) {
    gate.sched.credit_limit_chunks = chunk.credit_chunks;
    grew = true;
  }
  if (!grew) return;  // stale (reordered) advertisement
  gate.sched.credit_stalled = false;
  if (gate.sched.credit_probe_armed) {
    ctx_.rt.cancel(gate.sched.credit_probe_timer);
    gate.sched.credit_probe_armed = false;
  }
  kick();  // stalled chunks may be admissible now
}

void ScheduleLayer::rx_store_charge(Gate& gate, size_t bytes, size_t chunks) {
  gate.sched.stored_bytes += bytes;
  gate.sched.stored_chunks += chunks;
  ctx_.stats.rx_stored_bytes += bytes;
  if (ctx_.stats.rx_stored_bytes > ctx_.stats.rx_stored_hwm) {
    ctx_.stats.rx_stored_hwm = ctx_.stats.rx_stored_bytes;
  }
}

void ScheduleLayer::rx_store_discharge(Gate& gate, size_t bytes,
                                       size_t chunks) {
  NMAD_ASSERT(gate.sched.stored_bytes >= bytes);
  NMAD_ASSERT(gate.sched.stored_chunks >= chunks);
  NMAD_ASSERT(ctx_.stats.rx_stored_bytes >= bytes);
  gate.sched.stored_bytes -= bytes;
  gate.sched.stored_chunks -= chunks;
  ctx_.stats.rx_stored_bytes -= bytes;
  // Freed room means fresh credit to hand out; let it ride the next ack.
  if (flow_control() && bytes > 0 && !gate.failed) {
    gate.sched.credit_update_needed = true;
    schedule_ack(gate);
  }
}

std::pair<size_t, size_t> ScheduleLayer::store_gauge(const Gate& gate) const {
  return {gate.sched.stored_bytes, gate.sched.stored_chunks};
}

// ---------------------------------------------------------------------------
// Cancellation (send side)
// ---------------------------------------------------------------------------

bool ScheduleLayer::cancel_send(Gate& gate, SendRequest* req,
                                util::Status status) {
  if (gate.failed) return false;
  GateSched& s = gate.sched;
  // Pass 1 (no mutation): every pending part must be reachable, or the
  // cancel is refused and the send proceeds untouched. Parts inside a
  // prebuilt packet are unreachable on purpose — the builder holds live
  // views of the application buffer and is already promised to a NIC.
  size_t reachable = 0;
  for (OutChunk& c : s.window) {
    if (c.owner == req) ++reachable;
  }
  std::set<BulkJob*> jobs;
  for (auto& [cookie, job] : s.rdv_wait_cts) {
    if (job->owner == req) jobs.insert(job);
  }
  for (BulkJob& job : s.ready_bulk) {
    if (job.owner == req) jobs.insert(&job);
  }
  for (auto& [key, p] : s.pending_bulk) {
    if (p.job->owner == req) jobs.insert(p.job);
  }
  if (!reliable()) {
    // Without the reliability layer, a streaming job's driver-completion
    // callback dereferences the job: it cannot be freed mid-flight.
    for (BulkJob* job : jobs) {
      if (job->sent > job->acked) return false;
    }
  }
  reachable += jobs.size();
  if (reliable()) {
    for (auto& [seq, p] : s.pending_pkts) {
      for (SendRequest* owner : p.owners) {
        if (owner == req) ++reachable;
      }
    }
  }
  if (reachable < req->pending_parts()) return false;
  NMAD_ASSERT(reachable == req->pending_parts());

  // Pass 2: unwind. Window chunks are simply discarded; charged-but-lost
  // chunks (re-homed by a rail death) un-charge so the sender's view of
  // the credit window stays consistent with what the receiver heard.
  std::vector<OutChunk*> mine;
  for (OutChunk& c : s.window) {
    if (c.owner == req) mine.push_back(&c);
  }
  for (OutChunk* c : mine) {
    s.window.remove(*c);
    // Spray fragments are born credit_charged without ever touching the
    // eager accounting (the receiver granted the block via CTS), so they
    // have nothing to unwind.
    if (flow_control() && !c->payload.empty() &&
        c->kind != ChunkKind::kSprayFrag) {
      if (c->credit_charged) {
        s.eager_sent_bytes -= c->payload.size();
        s.eager_sent_chunks -= 1;
      } else {
        s.window_eager_bytes -=
            std::min(s.window_eager_bytes, c->payload.size());
      }
    }
    ctx_.chunk_pool.release(c);
  }
  for (BulkJob* job : jobs) {
    // A CTS may already be on its way — or may yet be *issued*, if the
    // receiver grants before our cancel-RTS reaches it: tombstone the
    // cookie so the grant is swallowed instead of tripping the
    // unknown-cookie assert. The tombstone is born unarmed (exempt from
    // the receive-floor GC): until the cancel-RTS is acked the receiver
    // can still issue a fresh-seq CTS that no floor advance would catch.
    // retire_packet arms it once the ack proves no new grant can follow.
    s.cancelled_rdv.emplace(job->cookie, kTombUnarmed);
    if (reliable()) {
      s.cancel_wait_ack[MsgKey{req->tag(), req->seq()}].push_back(
          job->cookie);
    }
    s.rdv_wait_cts.erase(job->cookie);
    remove_window_rts(gate, job->cookie);
    drop_bulk_job(gate, job);
  }
  if (reliable()) {
    // In-flight packets keep their flattened wire copy (retransmits stay
    // memory-safe); only the completion hook is detached.
    for (auto& [seq, p] : s.pending_pkts) {
      for (SendRequest*& owner : p.owners) {
        if (owner == req) owner = nullptr;
      }
    }
  }
  // The message consumed a sequence number, so the peer's matching irecv
  // would wait forever: always tell it the message was withdrawn.
  send_cancel_rts(gate, req->tag(), req->seq(), 0);
  kick();
  ++ctx_.stats.sends_cancelled;
  req->reset_parts();
  req->complete(std::move(status));
  engine_.cancel_deadline(req);
  return true;
}

void ScheduleLayer::handle_cancel_cts(Gate& gate, const WireChunk& chunk) {
  // The receiver refused or revoked the grant for this cookie. Preferred
  // unwind is a full cancel of the owning send; when other parts of the
  // message are already in flight, only this job is dropped and the rest
  // of the message completes normally.
  auto it = gate.sched.rdv_wait_cts.find(chunk.cookie);
  if (it != gate.sched.rdv_wait_cts.end()) {
    BulkJob* job = it->second;
    SendRequest* owner = job->owner;
    if (owner != nullptr &&
        cancel_send(gate, owner,
                    util::cancelled("peer cancelled the receive"))) {
      return;  // cancel_send unwound this job (and any siblings)
    }
    gate.sched.rdv_wait_cts.erase(chunk.cookie);
    remove_window_rts(gate, chunk.cookie);
    drop_bulk_job(gate, job);
    if (owner != nullptr) owner->part_done();
    return;
  }
  if (!reliable()) return;  // mid-stream: the slices land in the void
  BulkJob* job = nullptr;
  for (BulkJob& j : gate.sched.ready_bulk) {
    if (j.cookie == chunk.cookie) {
      job = &j;
      break;
    }
  }
  if (job == nullptr) {
    for (auto& [key, p] : gate.sched.pending_bulk) {
      if (key.first == chunk.cookie) {
        job = p.job;
        break;
      }
    }
  }
  if (job == nullptr) return;  // already finished (revocation raced the end)
  SendRequest* owner = job->owner;
  if (owner != nullptr &&
      cancel_send(gate, owner,
                  util::cancelled("peer cancelled the receive"))) {
    return;
  }
  drop_bulk_job(gate, job);
  if (owner != nullptr) owner->part_done();
}

void ScheduleLayer::send_cancel_rts(Gate& gate, Tag tag, SeqNum seq,
                                    uint64_t cookie) {
  OutChunk* c = ctx_.chunk_pool.acquire();
  c->kind = ChunkKind::kRts;
  c->flags = kFlagCancel;
  c->tag = tag;
  c->seq = seq;
  c->offset = 0;
  c->total = 0;
  c->rdv_len = 0;
  c->cookie = cookie;
  c->prio = Priority::kHigh;
  c->owner = nullptr;
  enqueue(gate, c);
}

void ScheduleLayer::remove_window_rts(Gate& gate, uint64_t cookie) {
  for (OutChunk& c : gate.sched.window) {
    if (c.kind == ChunkKind::kRts && c.cookie == cookie &&
        (c.flags & kFlagCancel) == 0) {
      gate.sched.window.remove(c);
      ctx_.chunk_pool.release(&c);
      return;
    }
  }
}

bool ScheduleLayer::cts_in_window(const Gate& gate, uint64_t cookie) const {
  for (const OutChunk& c : gate.sched.window) {
    if (c.kind == ChunkKind::kCts && c.cookie == cookie &&
        (c.flags & kFlagCancel) == 0) {
      return true;
    }
  }
  return false;
}

void ScheduleLayer::remove_window_cts(Gate& gate, uint64_t cookie) {
  for (OutChunk& c : gate.sched.window) {
    if (c.kind == ChunkKind::kCts && c.cookie == cookie &&
        (c.flags & kFlagCancel) == 0) {
      gate.sched.window.remove(c);
      ctx_.chunk_pool.release(&c);
      return;
    }
  }
}

void ScheduleLayer::drop_bulk_job(Gate& gate, BulkJob* job) {
  if (job->hook.is_linked()) gate.sched.ready_bulk.remove(*job);
  for (auto it = gate.sched.pending_bulk.begin();
       it != gate.sched.pending_bulk.end();) {
    if (it->second.job == job) {
      if (it->second.timer_armed) ctx_.rt.cancel(it->second.timer);
      it = gate.sched.pending_bulk.erase(it);
    } else {
      ++it;
    }
  }
  // Stale bulk_retx keys are skipped (and dropped) by refill_rail once
  // the pending entry is gone.
  ctx_.bulk_pool.release(job);
}

// ---------------------------------------------------------------------------
// Rail lifecycle re-homing (subscribed to kHealthTransition via the façade)
// ---------------------------------------------------------------------------

void ScheduleLayer::on_rail_dead(RailIndex rail) {
  // A packet elected early for this rail goes back to its gate's window
  // for re-election elsewhere.
  RailSched& rs = rails_[rail];
  if (rs.prebuilt) {
    Gate& pg = gate_ref(rs.prebuilt_gate);
    for (OutChunk* chunk : rs.prebuilt->chunks()) {
      pg.sched.window.push_back(*chunk);
    }
    rs.prebuilt.reset();
  }

  for (auto& gate_ptr : ctx_.gates) {
    Gate& g = *gate_ptr;
    if (g.failed || !g.has_rail(rail)) continue;

    // Park the in-flight traffic that last rode the dead rail in the retx
    // queues (entries on other rails were parked when those rails died).
    // A surviving rail re-elects it; with none left the queues cannot
    // drain, but crucially no retransmit timer keeps ticking toward the
    // retry limit while the fate of the peer is undecided.
    for (auto& [seq, p] : g.sched.pending_pkts) {
      if (p.last_rail != rail || p.queued_retx) continue;
      if (p.timer_armed) {
        ctx_.rt.cancel(p.timer);
        p.timer_armed = false;
      }
      p.queued_retx = true;
      g.sched.retx_queue.push_back(seq);
    }
    for (auto& [key, p] : g.sched.pending_bulk) {
      if (p.last_rail != rail || p.queued_retx) continue;
      if (p.timer_armed) {
        ctx_.rt.cancel(p.timer);
        p.timer_armed = false;
      }
      p.queued_retx = true;
      g.sched.bulk_retx.push_back(key);
    }

    bool any_alive = false;
    for (RailIndex r : g.rails) {
      if (fleet_.transfer_rail(r).alive()) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) {
      // The façade decides what "unreachable" means: under the peer
      // lifecycle it arms the death grace (a rail may yet revive);
      // otherwise it fails the gate immediately as before.
      engine_.peer_unreachable(g);
      continue;
    }

    // Unpin traffic the application pinned to the dead rail: delivery
    // beats placement once the rail is gone.
    for (OutChunk& chunk : g.sched.window) {
      if (chunk.pinned_rail == rail) chunk.pinned_rail = kAnyRail;
    }
    for (auto& [cookie, job] : g.sched.rdv_wait_cts) {
      if (job->pinned_rail == rail) job->pinned_rail = kAnyRail;
    }

    // Rendezvous jobs lose the rail from their grant; a job with no
    // usable rail left can never move its body, so the gate fails (the
    // receive side is stuck waiting on a posted sink otherwise).
    std::set<BulkJob*> jobs;
    for (BulkJob& job : g.sched.ready_bulk) jobs.insert(&job);
    for (auto& [key, p] : g.sched.pending_bulk) jobs.insert(p.job);
    bool gate_dead = false;
    for (BulkJob* job : jobs) {
      if (job->pinned_rail == rail) job->pinned_rail = kAnyRail;
      auto& jr = job->rails;
      jr.erase(
          std::remove(jr.begin(), jr.end(), static_cast<uint8_t>(rail)),
          jr.end());
      if (jr.empty()) {
        gate_dead = true;
        break;
      }
    }
    if (gate_dead) {
      engine_.fail_gate(g,
                        util::closed("no surviving rail for rendezvous body"));
    }
  }
  kick();
}

void ScheduleLayer::on_rail_revived(RailIndex rail) {
  // Hand the rail back to rendezvous jobs whose CTS granted it: the
  // receiver's sinks stayed posted through the blackout, so the grant is
  // still honoured. Election then rebalances onto it naturally.
  for (auto& gate_ptr : ctx_.gates) {
    Gate& g = *gate_ptr;
    if (g.failed || !g.has_rail(rail)) continue;
    std::set<BulkJob*> jobs;
    for (BulkJob& job : g.sched.ready_bulk) jobs.insert(&job);
    for (auto& [key, p] : g.sched.pending_bulk) jobs.insert(p.job);
    for (BulkJob* job : jobs) {
      if (job->allows_rail(rail)) continue;
      if (job->pinned_rail != kAnyRail && job->pinned_rail != rail) continue;
      const auto& granted = job->granted_rails;
      if (std::find(granted.begin(), granted.end(),
                    static_cast<uint8_t>(rail)) != granted.end()) {
        job->rails.push_back(static_cast<uint8_t>(rail));
      }
    }
  }
  kick();
}

// ---------------------------------------------------------------------------
// Teardown & drain
// ---------------------------------------------------------------------------

void ScheduleLayer::teardown_send(Gate& gate, const util::Status& status) {
  GateSched& s = gate.sched;
  if (s.ack_timer_armed) {
    ctx_.rt.cancel(s.ack_timer);
    s.ack_timer_armed = false;
  }
  if (s.credit_probe_armed) {
    ctx_.rt.cancel(s.credit_probe_timer);
    s.credit_probe_armed = false;
  }

  // Window chunks: owners learn the error; control chunks just vanish.
  while (!s.window.empty()) {
    OutChunk& chunk = s.window.pop_front();
    if (chunk.owner != nullptr) chunk.owner->complete(status);
    ctx_.chunk_pool.release(&chunk);
  }

  // Packets elected early for this gate on any rail.
  for (auto& rs : rails_) {
    if (rs.prebuilt && rs.prebuilt_gate == gate.id) {
      for (OutChunk* chunk : rs.prebuilt->chunks()) {
        if (chunk->owner != nullptr) chunk->owner->complete(status);
        ctx_.chunk_pool.release(chunk);
      }
      rs.prebuilt.reset();
    }
  }

  // In-flight reliable packets (null owners: chunks cancelled mid-flight).
  for (auto& [seq, p] : s.pending_pkts) {
    if (p.timer_armed) ctx_.rt.cancel(p.timer);
    for (SendRequest* owner : p.owners) {
      if (owner != nullptr) owner->complete(status);
    }
  }
  s.pending_pkts.clear();
  s.retx_queue.clear();

  // Rendezvous jobs in every stage of the protocol.
  std::set<BulkJob*> jobs;
  for (auto& [key, p] : s.pending_bulk) {
    if (p.timer_armed) ctx_.rt.cancel(p.timer);
    jobs.insert(p.job);
  }
  s.pending_bulk.clear();
  s.bulk_retx.clear();
  while (!s.ready_bulk.empty()) jobs.insert(&s.ready_bulk.pop_front());
  for (auto& [cookie, job] : s.rdv_wait_cts) jobs.insert(job);
  s.rdv_wait_cts.clear();
  for (BulkJob* job : jobs) {
    if (job->owner != nullptr) job->owner->complete(status);
    ctx_.bulk_pool.release(job);
  }
}

void ScheduleLayer::teardown_finish(Gate& gate) {
  gate.sched.recv_seen.clear();
  gate.sched.pending_bulk_acks.clear();
  gate.sched.cancel_wait_ack.clear();
}

void ScheduleLayer::release_prebuilt_chunks() {
  for (auto& rs : rails_) {
    // A packet elected early but never transmitted returns its chunks to
    // the pool (reaching here with one is already a usage error that the
    // request pools will flag; this keeps the diagnostics readable).
    if (rs.prebuilt) {
      for (OutChunk* chunk : rs.prebuilt->chunks()) {
        ctx_.chunk_pool.release(chunk);
      }
      rs.prebuilt.reset();
    }
  }
}

bool ScheduleLayer::flushed(const Gate& gate) const {
  const GateSched& s = gate.sched;
  if (!s.window.empty() || !s.ready_bulk.empty() || !s.rdv_wait_cts.empty()) {
    return false;
  }
  if (!s.pending_pkts.empty() || !s.pending_bulk.empty() ||
      !s.retx_queue.empty() || !s.bulk_retx.empty()) {
    return false;
  }
  if (s.ack_needed || !s.pending_bulk_acks.empty()) return false;
  return true;
}

bool ScheduleLayer::rails_flushed() const {
  for (RailIndex r = 0; r < rails_.size(); ++r) {
    if (rails_[r].prebuilt) return false;  // elected early, never sent
    // A standalone ack or credit packet holds its chunk until tx-done.
    const ITransferRail& tr = fleet_.transfer_rail(r);
    if (tr.alive() && !tr.tx_idle()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

ScheduleLayer::GateCounts ScheduleLayer::gate_counts(const Gate& gate) const {
  return {gate.sched.window.size(), gate.sched.ready_bulk.size(),
          gate.sched.rdv_wait_cts.size(), gate.sched.pending_pkts.size(),
          gate.sched.pending_bulk.size()};
}

void ScheduleLayer::dump_gate_detail(const Gate& gate,
                                     std::ostream& out) const {
  const GateSched& s = gate.sched;
  if (ctx_.config.flow_control) {
    dumpf(out,
          "  credit: sent=%llu/%llu limit=%llu/%llu heard=%llu/%llu "
          "advertised=%llu/%llu stored=%zu stalled=%d\n",
          static_cast<unsigned long long>(s.eager_sent_bytes),
          static_cast<unsigned long long>(s.eager_sent_chunks),
          static_cast<unsigned long long>(s.credit_limit_bytes),
          static_cast<unsigned long long>(s.credit_limit_chunks),
          static_cast<unsigned long long>(s.eager_heard_bytes),
          static_cast<unsigned long long>(s.eager_heard_chunks),
          static_cast<unsigned long long>(s.advertised_limit_bytes),
          static_cast<unsigned long long>(s.advertised_limit_chunks),
          s.stored_bytes, s.credit_stalled ? 1 : 0);
    // Outstanding grant: what the peer may still send against the last
    // advertisement — the receiver-side exposure this gate represents.
    const uint64_t grant_bytes =
        s.advertised_limit_bytes > s.eager_heard_bytes
            ? s.advertised_limit_bytes - s.eager_heard_bytes
            : 0;
    const uint64_t grant_chunks =
        s.advertised_limit_chunks > s.eager_heard_chunks
            ? s.advertised_limit_chunks - s.eager_heard_chunks
            : 0;
    dumpf(out,
          "  grants: outstanding=%llu bytes / %llu chunks "
          "window_eager=%zu probe_armed=%d update_needed=%d\n",
          static_cast<unsigned long long>(grant_bytes),
          static_cast<unsigned long long>(grant_chunks), s.window_eager_bytes,
          s.credit_probe_armed ? 1 : 0, s.credit_update_needed ? 1 : 0);
  }
  if (ctx_.config.reliability &&
      (!s.pending_pkts.empty() || !s.pending_bulk.empty())) {
    // Retransmit state: how deep into backoff each kind of in-flight
    // traffic is, and how much of it is queued waiting for a rail.
    uint32_t pkt_retries = 0;
    double pkt_timeout = 0.0;
    size_t pkt_queued = 0;
    for (const auto& [seq, p] : s.pending_pkts) {
      pkt_retries = std::max(pkt_retries, p.retries);
      pkt_timeout = std::max(pkt_timeout, p.timeout_us);
      if (p.queued_retx) ++pkt_queued;
    }
    uint32_t bulk_retries = 0;
    double bulk_timeout = 0.0;
    size_t bulk_queued = 0;
    for (const auto& [key, p] : s.pending_bulk) {
      bulk_retries = std::max(bulk_retries, p.retries);
      bulk_timeout = std::max(bulk_timeout, p.timeout_us);
      if (p.queued_retx) ++bulk_queued;
    }
    dumpf(out,
          "  retx: pkts=%zu (queued=%zu retries<=%u timeout<=%.0fus) "
          "bulk=%zu (queued=%zu retries<=%u timeout<=%.0fus) floor=%u "
          "seen=%zu\n",
          s.pending_pkts.size(), pkt_queued, pkt_retries, pkt_timeout,
          s.pending_bulk.size(), bulk_queued, bulk_retries, bulk_timeout,
          s.recv_floor, s.recv_seen.size());
  }
}

void ScheduleLayer::check_gate(const Gate& gate,
                               std::vector<std::string>& out) const {
  using ULL = unsigned long long;
  const GateSched& s = gate.sched;

  // --- send window ----------------------------------------------------
  // Control chunks never carry an owner; payload chunks always do, and
  // a completed send can have nothing left in the window (its parts are
  // what completion counts down).
  uint64_t win_uncharged = 0;
  for (const OutChunk& c : s.window) {
    if (c.is_control()) {
      if (c.owner != nullptr) {
        addf(out, "gate %u: %s control chunk carries an owner", gate.id,
             chunk_kind_name(c.kind));
      }
      continue;
    }
    if (c.owner == nullptr) {
      addf(out, "gate %u: payload chunk (tag %llu seq %u) has no owner",
           gate.id, static_cast<ULL>(c.tag), c.seq);
    } else if (c.owner->done()) {
      addf(out,
           "gate %u: window chunk owned by a completed send "
           "(tag %llu seq %u)",
           gate.id, static_cast<ULL>(c.tag), c.seq);
    }
    if (!c.credit_charged) win_uncharged += c.payload.size();
  }

  // --- flow control ---------------------------------------------------
  if (ctx_.config.flow_control) {
    if (win_uncharged != s.window_eager_bytes) {
      addf(out,
           "gate %u: window_eager_bytes=%llu but the window holds %llu "
           "uncharged payload bytes (a charge was skipped or doubled)",
           gate.id, static_cast<ULL>(s.window_eager_bytes),
           static_cast<ULL>(win_uncharged));
    }
    if (s.eager_sent_bytes > s.credit_limit_bytes) {
      addf(out, "gate %u: charged %llu eager bytes past the limit %llu",
           gate.id, static_cast<ULL>(s.eager_sent_bytes),
           static_cast<ULL>(s.credit_limit_bytes));
    }
    if (s.eager_sent_chunks > s.credit_limit_chunks) {
      addf(out, "gate %u: charged %llu eager chunks past the limit %llu",
           gate.id, static_cast<ULL>(s.eager_sent_chunks),
           static_cast<ULL>(s.credit_limit_chunks));
    }
    if (s.eager_heard_bytes > s.advertised_limit_bytes) {
      addf(out,
           "gate %u: heard %llu eager bytes but only advertised %llu "
           "(peer sent uncharged traffic)",
           gate.id, static_cast<ULL>(s.eager_heard_bytes),
           static_cast<ULL>(s.advertised_limit_bytes));
    }
    if (s.eager_heard_chunks > s.advertised_limit_chunks) {
      addf(out,
           "gate %u: heard %llu eager chunks but only advertised %llu",
           gate.id, static_cast<ULL>(s.eager_heard_chunks),
           static_cast<ULL>(s.advertised_limit_chunks));
    }
    if (s.last_sent_limit_bytes > s.advertised_limit_bytes ||
        s.last_sent_limit_chunks > s.advertised_limit_chunks) {
      addf(out,
           "gate %u: a limit on the wire (%llu/%llu) exceeds the "
           "advertised limit (%llu/%llu) — adverts must be monotone",
           gate.id, static_cast<ULL>(s.last_sent_limit_bytes),
           static_cast<ULL>(s.last_sent_limit_chunks),
           static_cast<ULL>(s.advertised_limit_bytes),
           static_cast<ULL>(s.advertised_limit_chunks));
    }
  }

  // --- rendezvous send side --------------------------------------------
  for (const auto& [cookie, job] : s.rdv_wait_cts) {
    if (job == nullptr || job->cookie != cookie || job->gate != gate.id) {
      addf(out, "gate %u: corrupt parked rendezvous (cookie %llu)", gate.id,
           static_cast<ULL>(cookie));
      continue;
    }
    if (job->sent != 0 || job->acked != 0) {
      addf(out,
           "gate %u: rendezvous body (cookie %llu) moved before its CTS",
           gate.id, static_cast<ULL>(cookie));
    }
    if (job->owner == nullptr || job->owner->done()) {
      addf(out,
           "gate %u: parked rendezvous (cookie %llu) without a live "
           "owner",
           gate.id, static_cast<ULL>(cookie));
    }
  }
  for (const BulkJob& job : s.ready_bulk) {
    if (job.gate != gate.id) {
      addf(out, "gate %u: ready bulk job belongs to gate %u", gate.id,
           job.gate);
    }
    if (job.owner == nullptr || job.owner->done()) {
      addf(out, "gate %u: ready bulk job (cookie %llu) without a live "
           "owner",
           gate.id, static_cast<ULL>(job.cookie));
    }
    if (job.sent > job.body.size() || job.acked > job.sent) {
      addf(out,
           "gate %u: bulk job (cookie %llu) accounting sent=%zu "
           "acked=%zu body=%zu",
           gate.id, static_cast<ULL>(job.cookie), job.sent, job.acked,
           job.body.size());
    }
    if (job.all_sent()) {
      addf(out,
           "gate %u: fully-sent bulk job (cookie %llu) still on the "
           "ready list",
           gate.id, static_cast<ULL>(job.cookie));
    }
  }

  // --- reliability -----------------------------------------------------
  if (ctx_.config.reliability) {
    if (s.pending_pkts.size() > kReliabilityWindow) {
      addf(out, "gate %u: %zu unacked packets exceed the window cap %u",
           gate.id, s.pending_pkts.size(), kReliabilityWindow);
    }
    for (const auto& [seq, p] : s.pending_pkts) {
      if (seq >= s.next_pkt_seq) {
        addf(out, "gate %u: pending packet seq %u beyond next seq %u",
             gate.id, seq, s.next_pkt_seq);
      }
      if (p.wire == nullptr || p.wire->view().empty()) {
        addf(out, "gate %u: pending packet seq %u has no wire image",
             gate.id, seq);
      }
      // Liveness: an unacked packet with neither a ticking timer nor a
      // place in the retransmit queue will never be recovered.
      if (!p.timer_armed && !p.queued_retx) {
        addf(out,
             "gate %u: pending packet seq %u neither timed nor queued "
             "for retransmit",
             gate.id, seq);
      }
      if (p.queued_retx &&
          std::find(s.retx_queue.begin(), s.retx_queue.end(), seq) ==
              s.retx_queue.end()) {
        addf(out,
             "gate %u: packet seq %u marked queued but absent from the "
             "retransmit queue",
             gate.id, seq);
      }
      for (const SendRequest* owner : p.owners) {
        if (owner != nullptr && owner->done()) {
          addf(out,
               "gate %u: pending packet seq %u owned by a completed "
               "send",
               gate.id, seq);
        }
      }
      for (const SprayFragRef& ref : p.spray_frags) {
        if (ref.owner_slot >= p.owners.size()) {
          addf(out,
               "gate %u: spray fragment (tag %llu frag %u) points past "
               "the owner table of packet seq %u",
               gate.id, static_cast<ULL>(ref.tag), ref.frag_seq, seq);
        } else if (!ref.reissued && p.owners[ref.owner_slot] != nullptr &&
                   p.owners[ref.owner_slot] != ref.owner) {
          addf(out,
               "gate %u: spray fragment (tag %llu frag %u) disagrees "
               "with owner slot %zu of packet seq %u",
               gate.id, static_cast<ULL>(ref.tag), ref.frag_seq,
               ref.owner_slot, seq);
        }
      }
    }
    for (const auto& [key, p] : s.pending_bulk) {
      if (p.job == nullptr) {
        addf(out, "gate %u: pending bulk slice (cookie %llu) has no job",
             gate.id, static_cast<ULL>(key.first));
        continue;
      }
      if (!p.timer_armed && !p.queued_retx) {
        addf(out,
             "gate %u: bulk slice (cookie %llu offset %zu) neither "
             "timed nor queued for retransmit",
             gate.id, static_cast<ULL>(key.first), key.second);
      }
      if (p.queued_retx &&
          std::find(s.bulk_retx.begin(), s.bulk_retx.end(), key) ==
              s.bulk_retx.end()) {
        addf(out,
             "gate %u: bulk slice (cookie %llu offset %zu) marked "
             "queued but absent from the retransmit queue",
             gate.id, static_cast<ULL>(key.first), key.second);
      }
      if (p.offset + p.len > p.job->body.size()) {
        addf(out,
             "gate %u: bulk slice (cookie %llu) extent %zu+%zu exceeds "
             "the body (%zu bytes)",
             gate.id, static_cast<ULL>(key.first), p.offset, p.len,
             p.job->body.size());
      }
      if (p.job->owner == nullptr || p.job->owner->done()) {
        addf(out,
             "gate %u: in-flight bulk slice (cookie %llu) without a "
             "live owner",
             gate.id, static_cast<ULL>(key.first));
      }
    }
    // The dedup set only keeps seqs the floor has not swallowed yet.
    if (!s.recv_seen.empty() && *s.recv_seen.begin() <= s.recv_floor) {
      addf(out,
           "gate %u: seq dedup set reaches down to %u at/below the "
           "floor %u",
           gate.id, *s.recv_seen.begin(), s.recv_floor);
    }
    // Tombstones stay bounded by the GC watermark: every surviving entry
    // was created less than a reliability window below the current floor
    // (rx_register reaps the rest whenever the floor advances).
    const auto check_tombs = [&](const char* what, const auto& tombs) {
      for (const auto& [key, born] : tombs) {
        // Unarmed cancel tombstones wait for the cancel-RTS ack and are
        // exempt from the watermark until then.
        if (born == kTombUnarmed) continue;
        if (born > s.recv_floor || s.recv_floor - born > kReliabilityWindow) {
          addf(out,
               "gate %u: %s tombstone (key %llu) born at floor %u "
               "outlived the watermark (floor now %u)",
               gate.id, what, static_cast<ULL>(key), born, s.recv_floor);
        }
      }
    };
    check_tombs("cancelled_rdv", s.cancelled_rdv);
    check_tombs("completed_bulk", s.completed_bulk);
  } else if (!s.pending_pkts.empty() || !s.pending_bulk.empty() ||
             !s.retx_queue.empty() || !s.bulk_retx.empty()) {
    addf(out, "gate %u: reliability state without the reliability layer",
         gate.id);
  }
}

}  // namespace nmad::core
