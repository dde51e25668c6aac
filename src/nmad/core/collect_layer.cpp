#include "nmad/core/collect_layer.hpp"

#include <algorithm>
#include <cstring>

#include "nmad/core/format_util.hpp"
#include "util/assert.hpp"

namespace nmad::core {

CollectLayer::CollectLayer(EngineContext& ctx, ISchedule& sched,
                           ITransferFleet& fleet, IEngine& engine)
    : ctx_(ctx), sched_(sched), fleet_(fleet), engine_(engine) {}

size_t CollectLayer::max_eager_payload(const Gate& gate) const {
  NMAD_ASSERT(gate.max_packet > kPacketHeaderBytes + kFragHeaderBytes);
  return gate.max_packet - kPacketHeaderBytes - kFragHeaderBytes;
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

void CollectLayer::submit_eager_block(Gate& gate, SendRequest* req, Tag tag,
                                      SeqNum seq, size_t logical_offset,
                                      util::ConstBytes block, size_t total,
                                      bool simple, const SendHints& hints) {
  const size_t max_payload = max_eager_payload(gate);
  size_t offset = 0;
  do {
    const size_t n = std::min(block.size() - offset, max_payload);
    OutChunk* chunk = ctx_.chunk_pool.acquire();
    chunk->kind = simple ? ChunkKind::kData : ChunkKind::kFrag;
    chunk->flags = 0;
    chunk->tag = tag;
    chunk->seq = seq;
    chunk->offset = static_cast<uint32_t>(logical_offset + offset);
    chunk->total = static_cast<uint32_t>(total);
    chunk->payload = block.subspan(offset, n);
    chunk->prio = hints.prio;
    chunk->pinned_rail = hints.pinned_rail;
    chunk->owner = req;
    req->add_part();
    if (logical_offset + offset + n == total) chunk->flags |= kFlagLast;
    sched_.enqueue(gate, chunk);
    offset += n;
  } while (offset < block.size());
}

SendRequest* CollectLayer::isend(Gate& gate, Tag tag, const SourceLayout& src,
                                 const SendHints& hints) {
  const SeqNum seq = gate.collect.send_seq[tag]++;
  SendRequest* req = ctx_.send_pool.acquire(gate.id, tag, seq, src.total());
  ++ctx_.stats.sends_submitted;
  if (gate.failed) {
    // The peer is unreachable; fail fast instead of queueing forever.
    req->complete(gate.fail_status);
    return req;
  }
  ctx_.rt.cpu().charge(runtime::Cost::kSubmit);

  const size_t total = src.total();
  if (total == 0) {
    // Zero-length message: a bare data chunk carries the completion.
    OutChunk* chunk = ctx_.chunk_pool.acquire();
    chunk->kind = ChunkKind::kData;
    chunk->flags = kFlagLast;
    chunk->tag = tag;
    chunk->seq = seq;
    chunk->offset = 0;
    chunk->total = 0;
    chunk->payload = {};
    chunk->prio = hints.prio;
    chunk->pinned_rail = hints.pinned_rail;
    chunk->owner = req;
    req->add_part();
    sched_.enqueue(gate, chunk);
    sched_.kick();
    return req;
  }

  // "Simple" messages (single block, fits one eager chunk) use the compact
  // data header; everything else uses offset-addressed fragments.
  const bool want_rdv =
      gate.has_rdma && src.blocks().size() == 1 &&
      src.blocks()[0].memory.size() >= gate.rdv_threshold;
  const bool simple =
      src.blocks().size() == 1 && !want_rdv &&
      src.blocks()[0].memory.size() <= max_eager_payload(gate);

  for (const SourceLayout::Block& block : src.blocks()) {
    if (block.memory.empty()) continue;
    bool rdv = gate.has_rdma && block.memory.size() >= gate.rdv_threshold;
    if (!rdv && gate.has_rdma &&
        sched_.credit_wants_rdv(gate, block.memory.size())) {
      // Graceful degradation: the eager path would exhaust the peer's
      // credit, so negotiate the block instead — the RTS is always
      // admissible and the body bypasses the receiver's eager budget.
      rdv = true;
      ++ctx_.stats.credit_rdv_degrades;
    }
    if (rdv) {
      sched_.submit_rdv(gate, req, tag, seq, block.logical_offset,
                        block.memory, total, hints);
    } else {
      submit_eager_block(gate, req, tag, seq, block.logical_offset,
                         block.memory, total, simple, hints);
    }
  }
  sched_.kick();
  return req;
}

RecvRequest* CollectLayer::irecv(Gate& gate, Tag tag, DestLayout dest) {
  const SeqNum seq = gate.collect.recv_seq[tag]++;
  RecvRequest* req = ctx_.recv_pool.acquire(gate.id, tag, seq,
                                            std::move(dest));
  ++ctx_.stats.recvs_submitted;
  if (gate.failed) {
    req->complete(gate.fail_status);
    return req;
  }
  ctx_.rt.cpu().charge(runtime::Cost::kSubmit);

  const MsgKey key{tag, seq};
  gate.collect.active_recv[key] = req;

  // Replay anything that arrived before this receive was posted.
  auto it = gate.collect.unexpected.find(key);
  if (it != gate.collect.unexpected.end()) {
    UnexpectedMsg msg = std::move(it->second);
    gate.collect.unexpected.erase(it);
    if (msg.peer_cancelled) {
      // The sender withdrew this message before we matched it.
      gate.collect.active_recv.erase(key);
      req->complete(util::cancelled("sender withdrew the message"));
      return req;
    }
    size_t drained_bytes = 0;
    size_t drained_chunks = 0;
    for (const StoredFrag& frag : msg.frags) {
      if (!frag.data.view().empty()) {
        drained_bytes += frag.data.view().size();
        ++drained_chunks;
      }
      deliver_eager(gate, req, frag.offset, frag.total, frag.data.view());
    }
    if (drained_bytes > 0) {
      sched_.rx_store_discharge(gate, drained_bytes, drained_chunks);
    }
    for (const StoredRts& rts : msg.rts) {
      if ((rts.flags & kFlagSpray) != 0) {
        start_spray_recv(gate, req, rts.len, rts.offset, rts.total,
                         rts.cookie);
      } else {
        start_rdv_recv(gate, req, rts.len, rts.offset, rts.total, rts.cookie);
      }
    }
    sched_.kick();  // replay may have queued CTS chunks
  }
  return req;
}

PeekInfo CollectLayer::peek_unexpected(Gate& gate, Tag tag) {
  // The next irecv on this tag will be assigned the current counter value.
  SeqNum next_seq = 0;
  if (auto it = gate.collect.recv_seq.find(tag);
      it != gate.collect.recv_seq.end()) {
    next_seq = it->second;
  }
  auto it = gate.collect.unexpected.find(MsgKey{tag, next_seq});
  if (it == gate.collect.unexpected.end()) return {};
  PeekInfo result;
  result.matched = true;
  for (const StoredFrag& frag : it->second.frags) {
    result.total_known = true;
    result.total_bytes = frag.total;
  }
  for (const StoredRts& rts : it->second.rts) {
    result.total_known = true;
    result.total_bytes = rts.total;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void CollectLayer::on_payload(Gate& gate, const WireChunk& chunk) {
  if (flow_control() && !chunk.payload.empty()) {
    // Heard-side credit accounting, the mirror of the sender's charge.
    // Runs before any tombstone check so the two ends stay in step even
    // for payload that is about to be dropped.
    sched_.note_eager_heard(gate, chunk.payload.size());
  }
  const MsgKey key{chunk.tag, chunk.seq};
  if (gate.collect.cancelled_recv.count(key) != 0) {
    // The receive was cancelled; its data has nowhere to go.
    ++ctx_.stats.cancelled_payload_dropped;
    return;
  }
  auto it = gate.collect.active_recv.find(key);
  if (it == gate.collect.active_recv.end()) {
    auto ue = gate.collect.unexpected.find(key);
    if (ue != gate.collect.unexpected.end() && ue->second.peer_cancelled) {
      // The sender withdrew the message; this is a straggler.
      ++ctx_.stats.cancelled_payload_dropped;
      return;
    }
    // Unexpected: copy the payload aside (real host work) until a
    // matching receive is posted.
    ++ctx_.stats.unexpected_chunks;
    ctx_.rt.cpu().charge_memcpy(chunk.payload.size());
    StoredFrag frag;
    frag.kind = chunk.kind;
    frag.flags = chunk.flags;
    frag.offset = chunk.offset;
    frag.total = chunk.total;
    frag.data.append(chunk.payload);
    gate.collect.unexpected[key].frags.push_back(std::move(frag));
    if (!chunk.payload.empty()) {
      sched_.rx_store_charge(gate, chunk.payload.size(), 1);
    }
    return;
  }
  deliver_eager(gate, it->second, chunk.offset, chunk.total, chunk.payload);
}

void CollectLayer::deliver_eager(Gate& gate, RecvRequest* req,
                                 uint32_t offset, uint32_t total,
                                 util::ConstBytes payload) {
  if (!req->set_total(total)) {
    finish_recv_if_done(gate, req);
    return;
  }
  if (payload.empty()) {
    recv_add_bytes(gate, req, 0);
    return;
  }
  // Eager data is copied from the NIC buffer into the destination layout:
  // the one unavoidable copy of eager protocols. Content moves now (the
  // source view dies with the packet); completion is accounted when the
  // modelled memcpy finishes. The deferred event re-looks the receive up
  // by key — it may be cancelled (and even released) while the modelled
  // memcpy is in flight.
  req->layout().scatter(offset, payload);
  const double done_at = ctx_.rt.cpu().charge_memcpy(payload.size());
  const size_t n = payload.size();
  const GateId gid = gate.id;
  const MsgKey key{req->tag(), req->seq()};
  ctx_.rt.schedule_at(done_at, [this, gid, key, n]() {
    Gate& g = gate_ref(gid);
    auto it = g.collect.active_recv.find(key);
    if (it == g.collect.active_recv.end()) return;
    recv_add_bytes(g, it->second, n);
  });
}

void CollectLayer::on_rts(Gate& gate, const WireChunk& chunk) {
  const MsgKey key{chunk.tag, chunk.seq};
  if ((chunk.flags & kFlagCancel) != 0) {
    // The sender withdrew the whole message (tag, seq).
    auto ar = gate.collect.active_recv.find(key);
    if (ar != gate.collect.active_recv.end()) {
      RecvRequest* req = ar->second;
      for (auto rv = gate.collect.rdv_recv.begin();
           rv != gate.collect.rdv_recv.end();) {
        if (rv->second.request != req) {
          ++rv;
          continue;
        }
        for (uint8_t r : rv->second.rails) {
          fleet_.transfer_rail(r).cancel_bulk_recv(rv->first);
        }
        rv = gate.collect.rdv_recv.erase(rv);
      }
      // An armed spray reassembly dies with its request; fragments still
      // on the wire fall to the tombstone below and are dropped.
      gate.collect.spray_recv.erase(key);
      gate.collect.active_recv.erase(ar);
      // The payload may still be behind the cancel notice (another rail,
      // or a retransmission): tombstone the key so a late arrival is
      // dropped instead of parked forever in the unexpected store.
      gate.collect.cancelled_recv.emplace(key, reap_tombstones(gate));
      req->complete(util::cancelled("sender withdrew the message"));
      return;
    }
    if (gate.collect.cancelled_recv.count(key) != 0) {
      return;  // cancelled here too
    }
    // Not matched yet: drop whatever is parked and leave a tombstone so
    // the future irecv learns of the withdrawal.
    UnexpectedMsg& msg = gate.collect.unexpected[key];
    size_t bytes = 0;
    size_t chunks = 0;
    for (const StoredFrag& frag : msg.frags) {
      if (!frag.data.view().empty()) {
        bytes += frag.data.view().size();
        ++chunks;
      }
    }
    if (bytes > 0) sched_.rx_store_discharge(gate, bytes, chunks);
    msg.frags.clear();
    msg.rts.clear();
    msg.peer_cancelled = true;
    return;
  }
  if (gate.collect.cancelled_recv.count(key) != 0) {
    // The receive was cancelled: refuse the grant so the sender unwinds.
    send_cancel_cts(gate, chunk.tag, chunk.seq, chunk.cookie);
    sched_.kick();
    return;
  }
  auto it = gate.collect.active_recv.find(key);
  if (it == gate.collect.active_recv.end()) {
    auto ue = gate.collect.unexpected.find(key);
    if (ue != gate.collect.unexpected.end() && ue->second.peer_cancelled) {
      // The sender withdrew the message and this RTS straggled in behind
      // the cancel notice (another rail, or a retransmission): drop it
      // rather than park it in the tombstoned entry.
      ++ctx_.stats.cancelled_payload_dropped;
      return;
    }
    ++ctx_.stats.unexpected_chunks;
    StoredRts rts;
    rts.flags = chunk.flags;
    rts.len = chunk.len;
    rts.offset = chunk.offset;
    rts.total = chunk.total;
    rts.cookie = chunk.cookie;
    gate.collect.unexpected[key].rts.push_back(rts);
    return;
  }
  if ((chunk.flags & kFlagSpray) != 0) {
    start_spray_recv(gate, it->second, chunk.len, chunk.offset, chunk.total,
                     chunk.cookie);
    return;
  }
  start_rdv_recv(gate, it->second, chunk.len, chunk.offset, chunk.total,
                 chunk.cookie);
}

void CollectLayer::start_rdv_recv(Gate& gate, RecvRequest* req, uint32_t len,
                                  uint32_t offset, uint32_t total,
                                  uint64_t cookie) {
  if (gate.failed) return;  // unexpected-replay after a gate failure
  if (!req->set_total(total)) {
    // Truncation: no CTS is ever sent; the request carries the error.
    finish_recv_if_done(gate, req);
    return;
  }

  RdvRecv rec;
  rec.request = req;
  rec.len = len;
  rec.offset = offset;
  util::MutableBytes region = req->layout().contiguous_region(offset, len);
  if (region.empty() && len > 0) {
    // Destination is scattered: receive through a bounce buffer, scatter
    // on completion (costs a modelled memcpy — zero-copy only when the
    // block lands contiguously, exactly the Figure 4 distinction).
    rec.bounce.resize(len);
    region = rec.bounce.view();
  }
  const GateId gate_id = gate.id;
  rec.sink = std::make_unique<drivers::BulkSink>(
      cookie, region, len, [this, gate_id, cookie]() {
        // Defer: the sink is still on the delivery stack right now.
        ctx_.rt.defer([this, gate_id, cookie]() {
          on_bulk_recv_complete(gate_id, cookie);
        });
      });
  if (reliable()) {
    // Every deposited slice is acknowledged back to the sender, which
    // holds its copy until then.
    rec.sink->set_on_deposit([this, gate_id, cookie](size_t dep_offset,
                                                     size_t dep_len) {
      Gate& g2 = gate_ref(gate_id);
      if (g2.failed) return;
      BulkAck ack;
      ack.cookie = cookie;
      ack.offset = static_cast<uint32_t>(dep_offset);
      ack.len = static_cast<uint32_t>(dep_len);
      sched_.queue_bulk_ack(g2, ack);
    });
  }

  std::vector<uint8_t> posted_rails;
  for (RailIndex r : gate.rails) {
    ITransferRail& tr = fleet_.transfer_rail(r);
    if (!tr.info().rdma || !tr.alive()) continue;
    const util::Status st = tr.post_bulk_recv(rec.sink.get());
    NMAD_ASSERT_MSG(st.is_ok(), "bulk post failed on RDMA rail");
    posted_rails.push_back(static_cast<uint8_t>(r));
  }
  if (posted_rails.empty()) {
    NMAD_ASSERT_MSG(reliable(), "RTS received but no RDMA rail available");
    engine_.fail_gate(gate, util::closed("no alive RDMA rail for rendezvous"));
    return;
  }
  rec.rails = posted_rails;
  gate.collect.rdv_recv.emplace(cookie, std::move(rec));

  // Grant: the CTS is an ordinary control chunk — it rides the window and
  // may be aggregated with outgoing data (key to the §5.3 strategy).
  OutChunk* cts = ctx_.chunk_pool.acquire();
  cts->kind = ChunkKind::kCts;
  cts->flags = 0;
  cts->tag = req->tag();
  cts->seq = req->seq();
  cts->cookie = cookie;
  cts->cts_rails = std::move(posted_rails);
  cts->prio = Priority::kHigh;
  cts->owner = nullptr;
  sched_.enqueue(gate, cts);
  sched_.kick();
}

void CollectLayer::start_spray_recv(Gate& gate, RecvRequest* req,
                                    uint32_t len, uint32_t offset,
                                    uint32_t total, uint64_t cookie) {
  if (gate.failed) return;  // unexpected-replay after a gate failure
  if (!req->set_total(total)) {
    // Truncation: no CTS is ever sent; the request carries the error.
    finish_recv_if_done(gate, req);
    return;
  }
  const MsgKey key{req->tag(), req->seq()};

  if (len > 0) {
    SprayRecv rec;
    rec.request = req;
    rec.len = len;
    rec.offset = offset;
    rec.total = total;
    rec.cookie = cookie;
    rec.region = req->layout().contiguous_region(offset, len);
    if (rec.region.empty()) {
      // Destination is scattered: reassemble in a bounce buffer, scatter
      // once on completion (same zero-copy boundary as rendezvous).
      rec.bounce.resize(len);
      rec.region = rec.bounce.view();
    }
    gate.collect.spray_recv.emplace(key, std::move(rec));
  } else {
    // Degenerate empty body: nothing will ever arrive, complete now. The
    // CTS below still unparks the sender's job.
    gate.collect.spray_done.emplace(key, reap_tombstones(gate));
    recv_add_bytes(gate, req, 0);
  }

  // Accept the spray proposal: a kFlagSpray CTS with no granted rails —
  // fragments ride ordinary track-0 packets on whatever rails the
  // sender's strategy elects, so no sinks are posted.
  OutChunk* cts = ctx_.chunk_pool.acquire();
  cts->kind = ChunkKind::kCts;
  cts->flags = kFlagSpray;
  cts->tag = key.first;
  cts->seq = key.second;
  cts->cookie = cookie;
  cts->cts_rails.clear();
  cts->prio = Priority::kHigh;
  cts->owner = nullptr;
  sched_.enqueue(gate, cts);
  sched_.kick();
}

void CollectLayer::on_spray_frag(Gate& gate, RailIndex rail,
                                 const WireChunk& chunk) {
  // Unlike on_payload there is no note_eager_heard here: sprayed bodies
  // were granted through the rendezvous handshake and never charge the
  // eager credit window on the sender, so hearing them must not count
  // either (the delivery oracle audits the two gauges for equality).
  const MsgKey key{chunk.tag, chunk.seq};
  const auto publish_rx = [&](uint64_t outcome) {
    ctx_.bus.publish(
        {.kind = EventKind::kSprayFragRx,
         .gate = gate.id,
         .rail = rail,
         .seq = chunk.seq,
         .a = (static_cast<uint64_t>(chunk.tag) << 40) | chunk.offset,
         .b = (outcome << 32) | chunk.len});
  };
  if (gate.collect.cancelled_recv.count(key) != 0) {
    ++ctx_.stats.cancelled_payload_dropped;
    return;
  }
  auto it = gate.collect.spray_recv.find(key);
  if (it == gate.collect.spray_recv.end()) {
    // After completion (or never armed at all): a retransmitted original,
    // or a fenced twin straggling in behind the reassembled message.
    ++ctx_.stats.spray_frags_late;
    publish_rx(3);
    return;
  }
  SprayRecv& rec = it->second;

  // Epoch fence, per fragment sequence: once a re-issued (higher-epoch)
  // copy of this fragment has been seen, the suspect-rail twin is stale
  // even though its bytes are identical — dropping it keeps the failover
  // path honest in the accounting the oracle audits. Fencing is NOT
  // per-message: untouched epoch-0 fragments of a partially re-issued
  // spray are still the only copy of their bytes.
  auto [eit, fresh_seq] = rec.frag_epoch.try_emplace(chunk.frag_seq,
                                                     chunk.epoch);
  if (!fresh_seq) {
    if (chunk.epoch < eit->second) {
      ++ctx_.stats.spray_frags_fenced;
      publish_rx(2);
      return;
    }
    eit->second = chunk.epoch;
  }

  // Coverage: fragment extents are fixed per frag_seq, so any overlap
  // with an applied interval means an identical twin (original vs
  // re-issue, or a packet-level retransmit) — apply exactly once.
  NMAD_ASSERT_MSG(static_cast<size_t>(chunk.offset) + chunk.payload.size() <=
                      rec.len,
                  "spray fragment outside its granted block");
  const size_t lo = chunk.offset;
  const size_t hi = lo + chunk.payload.size();
  auto next = rec.covered.upper_bound(lo);
  bool overlap = next != rec.covered.end() && next->first < hi;
  if (!overlap && next != rec.covered.begin()) {
    overlap = std::prev(next)->second > lo;
  }
  if (overlap) {
    ++ctx_.stats.spray_frag_dups;
    publish_rx(1);
    return;
  }

  std::memcpy(rec.region.data() + lo, chunk.payload.data(), hi - lo);
  ctx_.rt.cpu().charge_memcpy(hi - lo);
  auto ins = rec.covered.emplace(lo, hi).first;
  if (ins != rec.covered.begin()) {
    auto prev = std::prev(ins);
    if (prev->second == lo) {
      prev->second = hi;
      rec.covered.erase(ins);
      ins = prev;
    }
  }
  if (auto after = std::next(ins);
      after != rec.covered.end() && ins->second == after->first) {
    ins->second = after->second;
    rec.covered.erase(after);
  }
  rec.received += hi - lo;
  ++ctx_.stats.spray_frags_rx;
  publish_rx(0);

  if (rec.received < rec.len) return;

  // Reassembly complete: every byte applied exactly once.
  SprayRecv done = std::move(rec);
  gate.collect.spray_recv.erase(it);
  gate.collect.spray_done.emplace(key, reap_tombstones(gate));
  ++ctx_.stats.spray_reassembled;
  ctx_.bus.publish({.kind = EventKind::kReassembled,
                    .gate = gate.id,
                    .rail = rail,
                    .seq = key.second,
                    .a = static_cast<uint64_t>(key.first) << 40,
                    .b = done.len});
  RecvRequest* req = done.request;
  if (!done.bounce.empty()) {
    // Bounce path: scatter into the real destination at memcpy cost; the
    // deferred completion re-looks the receive up by key (see
    // deliver_eager for why).
    req->layout().scatter(done.offset, done.bounce.view());
    const double done_at = ctx_.rt.cpu().charge_memcpy(done.len);
    const GateId gid = gate.id;
    const size_t len = done.len;
    ctx_.rt.schedule_at(done_at, [this, gid, key, len]() {
      Gate& g2 = gate_ref(gid);
      auto ar = g2.collect.active_recv.find(key);
      if (ar == g2.collect.active_recv.end()) return;
      recv_add_bytes(g2, ar->second, len);
    });
  } else {
    recv_add_bytes(gate, req, done.len);
  }
}

void CollectLayer::on_bulk_recv_complete(GateId gate_id, uint64_t cookie) {
  Gate& g = gate_ref(gate_id);
  auto it = g.collect.rdv_recv.find(cookie);
  if (it == g.collect.rdv_recv.end()) {
    // The gate failed between the sink completing and this deferred
    // event; the sink was already cancelled.
    NMAD_ASSERT(g.failed);
    return;
  }
  RdvRecv rec = std::move(it->second);
  g.collect.rdv_recv.erase(it);
  // Late duplicate slices must be re-acked even though the sink is gone.
  if (reliable()) sched_.note_bulk_completed(g, cookie);

  for (uint8_t r : rec.rails) {
    fleet_.transfer_rail(r).cancel_bulk_recv(cookie);
  }

  RecvRequest* req = rec.request;
  const size_t len = rec.len;
  if (!rec.bounce.empty()) {
    // Bounce path: scatter into the real destination at memcpy cost. The
    // deferred completion re-looks the receive up by key (see
    // deliver_eager for why).
    req->layout().scatter(rec.offset, rec.bounce.view());
    const double done_at = ctx_.rt.cpu().charge_memcpy(len);
    const MsgKey key{req->tag(), req->seq()};
    ctx_.rt.schedule_at(done_at, [this, gate_id, key, len]() {
      Gate& g2 = gate_ref(gate_id);
      auto ar = g2.collect.active_recv.find(key);
      if (ar == g2.collect.active_recv.end()) return;
      recv_add_bytes(g2, ar->second, len);
    });
  } else {
    recv_add_bytes(g, req, len);
  }
}

void CollectLayer::recv_add_bytes(Gate& gate, RecvRequest* req, size_t n) {
  req->add_received(n);
  finish_recv_if_done(gate, req);
}

void CollectLayer::finish_recv_if_done(Gate& gate, RecvRequest* req) {
  if (!req->done()) return;
  gate.collect.active_recv.erase(MsgKey{req->tag(), req->seq()});
}

// ---------------------------------------------------------------------------
// Cancellation (receive side)
// ---------------------------------------------------------------------------

bool CollectLayer::cancel_recv(Gate& gate, RecvRequest* req,
                               util::Status status) {
  if (gate.failed) return false;
  const MsgKey key{req->tag(), req->seq()};
  // A sprayed receive cannot cancel once granted: fragments may land at
  // any moment on any rail and there is no per-cookie sink to revoke.
  // Refusal is part of the cancel contract — the caller retries or the
  // message completes first.
  if (gate.collect.spray_recv.count(key) != 0) return false;
  std::vector<uint64_t> cookies;
  for (auto& [cookie, rec] : gate.collect.rdv_recv) {
    if (rec.request == req) cookies.push_back(cookie);
  }
  if (!reliable()) {
    // Once the CTS left the window the sender may stream at any moment;
    // without the reliability layer a torn-down sink would strand those
    // bytes with nowhere to go. Only cancel while the grant is still ours.
    for (uint64_t cookie : cookies) {
      if (!sched_.cts_in_window(gate, cookie)) return false;
    }
  }
  gate.collect.active_recv.erase(key);
  // Late payload is dropped, RTS refused.
  gate.collect.cancelled_recv.emplace(key, reap_tombstones(gate));
  for (uint64_t cookie : cookies) {
    RdvRecv& rec = gate.collect.rdv_recv.at(cookie);
    for (uint8_t r : rec.rails) {
      fleet_.transfer_rail(r).cancel_bulk_recv(cookie);
    }
    gate.collect.rdv_recv.erase(cookie);
    sched_.remove_window_cts(gate, cookie);
    // The sender may already hold the grant: revoke it so the job (and
    // its retransmits) unwind instead of streaming into the void.
    send_cancel_cts(gate, req->tag(), req->seq(), cookie);
  }
  sched_.kick();
  ++ctx_.stats.recvs_cancelled;
  req->complete(std::move(status));
  engine_.cancel_deadline(req);
  return true;
}

void CollectLayer::send_cancel_cts(Gate& gate, Tag tag, SeqNum seq,
                                   uint64_t cookie) {
  OutChunk* c = ctx_.chunk_pool.acquire();
  c->kind = ChunkKind::kCts;
  c->flags = kFlagCancel;
  c->tag = tag;
  c->seq = seq;
  c->cookie = cookie;
  c->prio = Priority::kHigh;
  c->owner = nullptr;
  sched_.enqueue(gate, c);
}

uint32_t CollectLayer::reap_tombstones(Gate& gate) {
  const uint32_t floor = sched_.recv_watermark(gate);
  if (reliable()) {
    // Anything referencing a key tombstoned a full reliability window
    // below the floor arrives as a duplicate and is suppressed before the
    // tombstone would ever be consulted — the entry is dead weight.
    uint64_t reaped = 0;
    const auto reap = [&](auto& tombs) {
      for (auto it = tombs.begin(); it != tombs.end();) {
        if (floor - it->second >= kReliabilityWindow && it->second <= floor) {
          it = tombs.erase(it);
          ++reaped;
        } else {
          ++it;
        }
      }
    };
    reap(gate.collect.spray_done);
    reap(gate.collect.cancelled_recv);
    ctx_.stats.tombstones_reaped += reaped;
  }
  return floor;
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void CollectLayer::teardown(Gate& gate, const util::Status& status) {
  // Posted receives learn the error; posted sinks go away.
  for (auto& [cookie, rec] : gate.collect.rdv_recv) {
    for (uint8_t r : rec.rails) {
      fleet_.transfer_rail(r).cancel_bulk_recv(cookie);
    }
  }
  gate.collect.rdv_recv.clear();
  // Spray reassemblies complete (with the error) through active_recv —
  // every in-flight SprayRecv request is matched there by construction.
  gate.collect.spray_recv.clear();
  gate.collect.spray_done.clear();
  for (auto& [key, req] : gate.collect.active_recv) req->complete(status);
  gate.collect.active_recv.clear();
  // Release the rx budget held by this peer's parked fragments. `failed`
  // is already set, so the discharge does not try to re-advertise credit.
  const auto [stored_bytes, stored_chunks] = sched_.store_gauge(gate);
  if (stored_bytes > 0 || stored_chunks > 0) {
    sched_.rx_store_discharge(gate, stored_bytes, stored_chunks);
  }
  gate.collect.unexpected.clear();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

CollectLayer::GateCounts CollectLayer::gate_counts(const Gate& gate) const {
  return {gate.collect.active_recv.size(), gate.collect.unexpected.size(),
          gate.collect.rdv_recv.size(), gate.collect.spray_recv.size()};
}

std::pair<size_t, size_t> CollectLayer::count_store(const Gate& gate) const {
  size_t bytes = 0;
  size_t chunks = 0;
  for (const auto& [key, msg] : gate.collect.unexpected) {
    for (const StoredFrag& frag : msg.frags) {
      bytes += frag.data.view().size();
      if (!frag.data.view().empty()) ++chunks;
    }
  }
  return {bytes, chunks};
}

void CollectLayer::check_gate(const Gate& gate,
                              std::vector<std::string>& out) const {
  using ULL = unsigned long long;
  const GateCollect& c = gate.collect;

  // --- unexpected store ------------------------------------------------
  for (const auto& [key, msg] : c.unexpected) {
    if (msg.peer_cancelled && (!msg.frags.empty() || !msg.rts.empty())) {
      addf(out,
           "gate %u: tombstoned unexpected message (tag %llu seq %u) "
           "still holds data",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
    if (c.active_recv.count(key) != 0) {
      addf(out,
           "gate %u: message (tag %llu seq %u) both matched and parked "
           "as unexpected",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
    if (c.cancelled_recv.count(key) != 0) {
      addf(out,
           "gate %u: message (tag %llu seq %u) both cancelled and "
           "parked as unexpected",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
  }

  // --- receive matching ------------------------------------------------
  for (const auto& [key, req] : c.active_recv) {
    if (req == nullptr) {
      addf(out, "gate %u: null receive matched (tag %llu seq %u)", gate.id,
           static_cast<ULL>(key.first), key.second);
      continue;
    }
    if (req->done()) {
      addf(out,
           "gate %u: completed receive still matched (tag %llu seq %u)",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
    if (req->tag() != key.first || req->seq() != key.second) {
      addf(out,
           "gate %u: active_recv key (tag %llu seq %u) does not match "
           "its request (tag %llu seq %u)",
           gate.id, static_cast<ULL>(key.first), key.second,
           static_cast<ULL>(req->tag()), req->seq());
    }
    if (c.cancelled_recv.count(key) != 0) {
      addf(out,
           "gate %u: receive (tag %llu seq %u) both active and "
           "cancelled",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
  }
  for (const auto& [cookie, rec] : c.rdv_recv) {
    if (rec.request == nullptr || rec.request->done()) {
      addf(out,
           "gate %u: rendezvous receive (cookie %llu) without a live "
           "request",
           gate.id, static_cast<ULL>(cookie));
      continue;
    }
    const MsgKey key{rec.request->tag(), rec.request->seq()};
    auto it = c.active_recv.find(key);
    if (it == c.active_recv.end() || it->second != rec.request) {
      addf(out,
           "gate %u: rendezvous receive (cookie %llu) not in "
           "active_recv",
           gate.id, static_cast<ULL>(cookie));
    }
  }

  // --- spray reassembly ------------------------------------------------
  for (const auto& [key, rec] : c.spray_recv) {
    if (rec.request == nullptr || rec.request->done()) {
      addf(out,
           "gate %u: spray reassembly (tag %llu seq %u) without a live "
           "request",
           gate.id, static_cast<ULL>(key.first), key.second);
      continue;
    }
    auto it = c.active_recv.find(key);
    if (it == c.active_recv.end() || it->second != rec.request) {
      addf(out,
           "gate %u: spray reassembly (tag %llu seq %u) not in "
           "active_recv",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
    if (rec.received >= rec.len) {
      addf(out,
           "gate %u: spray reassembly (tag %llu seq %u) applied %zu of "
           "%u bytes but was never completed",
           gate.id, static_cast<ULL>(key.first), key.second, rec.received,
           rec.len);
    }
    if (c.spray_done.count(key) != 0) {
      addf(out,
           "gate %u: spray reassembly (tag %llu seq %u) both in flight "
           "and completed",
           gate.id, static_cast<ULL>(key.first), key.second);
    }
    size_t covered = 0;
    size_t prev_end = 0;
    bool ordered = true;
    for (const auto& [lo, hi] : rec.covered) {
      if (lo < prev_end || hi <= lo || hi > rec.len) ordered = false;
      covered += hi - lo;
      prev_end = hi;
    }
    if (!ordered || covered != rec.received) {
      addf(out,
           "gate %u: spray coverage map of (tag %llu seq %u) is "
           "inconsistent (%zu covered vs %zu received)",
           gate.id, static_cast<ULL>(key.first), key.second, covered,
           rec.received);
    }
  }
}

}  // namespace nmad::core
