// Gate: all per-peer engine state (paper: a connection to one remote
// process, possibly spanning several heterogeneous NICs).
//
// The state is carved along the paper's layer boundary: `Gate::collect`
// belongs to the collect layer (message matching, the unexpected store,
// in-flight receives) and `Gate::sched` to the scheduling layer (the
// optimization window, rendezvous send pipeline, ack/retransmit windows,
// credit accounting). The few commons every layer reads (peer, rails,
// thresholds, failure latch) stay on the Gate itself. Each layer touches
// only its own sub-struct — scripts/check.sh lints the seam.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "nmad/core/chunk.hpp"
#include "nmad/core/request.hpp"
#include "nmad/drivers/driver.hpp"
#include "nmad/runtime/runtime.hpp"
#include "util/buffer.hpp"
#include "util/intrusive_list.hpp"
#include "util/status.hpp"

namespace nmad::core {

// Eager chunk that arrived before its receive was posted; the payload is
// copied into owned storage at arrival (charged as host work).
struct StoredFrag {
  ChunkKind kind = ChunkKind::kData;
  uint8_t flags = 0;
  uint32_t offset = 0;
  uint32_t total = 0;
  util::ByteBuffer data;
};

// RTS that arrived before its receive was posted. `flags` preserves the
// wire flags (kFlagSpray in particular) so a late-posted receive replays
// the sender's spray proposal faithfully.
struct StoredRts {
  uint8_t flags = 0;
  uint32_t len = 0;
  uint32_t offset = 0;
  uint32_t total = 0;
  uint64_t cookie = 0;
};

struct UnexpectedMsg {
  std::vector<StoredFrag> frags;
  std::vector<StoredRts> rts;
  // The sender withdrew this message (cancel-RTS) before a receive was
  // posted; a matching irecv completes with kCancelled instead of waiting
  // for data that will never come.
  bool peer_cancelled = false;
};

// Receive-side state of one in-flight rendezvous block.
struct RdvRecv {
  RecvRequest* request = nullptr;
  uint32_t len = 0;
  uint32_t offset = 0;
  std::unique_ptr<drivers::BulkSink> sink;
  std::vector<uint8_t> rails;       // rails the sink is posted on
  util::ByteBuffer bounce;          // used when the dest is not contiguous
};

using MsgKey = std::pair<Tag, SeqNum>;

// Receive-side state of one sprayed message (CoreConfig::spray): a
// reorder-tolerant reassembly buffer. Fragments land in any order, on any
// rail; `covered` merges the applied [offset, end) byte ranges (the
// BulkSink dedup idiom) so duplicates from retransmission apply exactly
// once, and `frag_epoch` records the highest re-issue epoch accepted per
// fragment sequence so a stale twin straggling in after a failover
// re-issue is fenced. Fencing is per-fragment, not per-message: after a
// partial re-issue the untouched epoch-0 fragments on healthy rails are
// still the only copy of their bytes and must stay acceptable.
struct SprayRecv {
  RecvRequest* request = nullptr;
  uint32_t len = 0;     // bytes of this sprayed block
  uint32_t offset = 0;  // logical offset of the block in the message
  uint32_t total = 0;   // total message bytes (RTS total)
  uint64_t cookie = 0;  // the rendezvous cookie echoed in the CTS
  size_t received = 0;               // distinct payload bytes applied
  std::map<size_t, size_t> covered;  // merged applied intervals: off → end
  std::map<uint32_t, uint32_t> frag_epoch;  // frag_seq → accepted epoch
  util::MutableBytes region;  // direct destination (empty → bounce path)
  util::ByteBuffer bounce;    // used when the dest is not contiguous
};

// Sender-side record of one spray fragment riding in a pending packet,
// kept so a suspect-rail failover can re-create the fragment on a
// survivor without re-parsing the flattened wire image. `payload` aliases
// the application send buffer (valid until the owning request completes,
// which cannot happen while the re-issued fragment is unacked).
struct SprayFragRef {
  Tag tag = 0;
  SeqNum seq = 0;
  uint32_t frag_seq = 0;
  uint32_t epoch = 0;
  uint32_t offset = 0;
  uint32_t total = 0;
  util::ConstBytes payload;
  SendRequest* owner = nullptr;
  size_t owner_slot = 0;  // index into PendingPacket::owners
  bool reissued = false;  // a higher-epoch twin is already in flight
};

// One unacknowledged reliable packet: a flattened copy of the wire bytes
// (retransmittable on any rail) plus the send requests whose chunks rode
// in it. part_done() for those chunks is deferred until the ack arrives.
struct PendingPacket {
  std::shared_ptr<util::ByteBuffer> wire;
  std::vector<SendRequest*> owners;  // one entry per owned payload chunk
  std::vector<SprayFragRef> spray_frags;  // spray fragments riding inside
  // Cancelled rendezvous cookies whose cancel-RTS rides in this packet:
  // the ack arms their cancelled_rdv tombstones for garbage collection
  // (until then the receiver may still issue a fresh-seq CTS).
  std::vector<uint64_t> cancel_cookies;
  RailIndex last_rail = 0;
  double issued_at = -1.0;  // runtime time of the last wire handoff
  uint32_t retries = 0;
  double timeout_us = 0.0;  // current (backed-off) retransmit deadline
  runtime::TimerId timer = 0;
  bool timer_armed = false;
  bool queued_retx = false;  // sitting in retx_queue
};

// One unacknowledged rendezvous slice, keyed by (cookie, offset). The
// body bytes live in the application buffer via job->body, so only the
// extent is recorded here.
struct PendingBulk {
  BulkJob* job = nullptr;
  size_t offset = 0;
  size_t len = 0;
  RailIndex last_rail = 0;
  double issued_at = -1.0;  // runtime time of the last wire handoff
  uint32_t retries = 0;
  double timeout_us = 0.0;
  runtime::TimerId timer = 0;
  bool timer_armed = false;
  bool queued_retx = false;
};

using BulkKey = std::pair<uint64_t, size_t>;  // (cookie, offset)

// Max unacked packets per gate under the reliability layer: window
// packing pauses at the cap. A tombstone a full window below the receive
// floor can no longer be consulted, so it is also the tombstone GC horizon.
inline constexpr uint32_t kReliabilityWindow = 64;

// Watermark sentinel for a tombstone that is not yet eligible for the
// receive-floor GC (see GateSched::cancelled_rdv).
inline constexpr uint32_t kTombUnarmed = UINT32_MAX;

// Collect-layer state: message identification and matching. Owned and
// mutated exclusively by CollectLayer.
struct GateCollect {
  std::map<Tag, SeqNum> send_seq;
  std::map<Tag, SeqNum> recv_seq;
  std::map<MsgKey, RecvRequest*> active_recv;
  std::map<MsgKey, UnexpectedMsg> unexpected;
  std::map<uint64_t, RdvRecv> rdv_recv;  // cookie → in-flight bulk receive
  std::map<MsgKey, SprayRecv> spray_recv;  // in-flight spray reassemblies
  // Tombstones, garbage-collected behind the ack-floor watermark: each
  // entry records the receive floor at creation, and is reaped once the
  // floor has advanced a full reliability window past it — any packet
  // that could still reference the key is a duplicate below the floor by
  // then, suppressed before chunk processing.
  //
  // Completed spray reassemblies: a fragment arriving after completion
  // (retransmitted or fenced twin in flight) is dropped as a late
  // straggler rather than re-opened.
  std::map<MsgKey, uint32_t> spray_done;
  // Receiver side: message keys whose receive was cancelled; payload that
  // arrives later is dropped instead of parked as unexpected.
  std::map<MsgKey, uint32_t> cancelled_recv;
};

// Scheduling-layer state: the optimization window, rendezvous send
// pipeline, reliability windows and credit accounting. Owned and mutated
// exclusively by ScheduleLayer.
struct GateSched {
  // ---- send side -------------------------------------------------------
  // The optimization window: chunks accumulate here while NICs are busy.
  util::IntrusiveList<OutChunk, &OutChunk::hook> window;
  // Rendezvous jobs whose CTS has arrived; strategies drain these first.
  util::IntrusiveList<BulkJob, &BulkJob::hook> ready_bulk;
  std::map<uint64_t, BulkJob*> rdv_wait_cts;  // parked until CTS
  // Sender side: rendezvous cookies withdrawn by cancel(); a late CTS for
  // one of these is silently dropped instead of tripping the unknown-
  // cookie assert. Tombstone, reaped in two steps: an entry is born
  // unarmed (kTombUnarmed) and only records a receive-floor watermark
  // once the packet carrying the cancel-RTS is acked — before that the
  // receiver may still issue a *fresh-seq* CTS for the cookie, which no
  // floor advance can prove to be a duplicate. Once armed, the entry is
  // reaped a full reliability window behind the floor like the
  // GateCollect tombstones.
  std::map<uint64_t, uint32_t> cancelled_rdv;
  // Cancelled messages whose cancel-RTS has not yet been packed into a
  // wire packet, mapped to the rendezvous cookies it withdraws; the
  // packet issue path moves the cookies onto PendingPacket so the ack
  // can arm the tombstones above.
  std::map<MsgKey, std::vector<uint64_t>> cancel_wait_ack;

  // ---- reliability (CoreConfig::reliability only) ----------------------
  // Send side: sliding window of unacked packets / bulk slices, plus the
  // queues of timed-out entries awaiting re-election onto an idle rail.
  uint32_t next_pkt_seq = 0;
  std::map<uint32_t, PendingPacket> pending_pkts;
  std::deque<uint32_t> retx_queue;
  std::map<BulkKey, PendingBulk> pending_bulk;
  std::deque<BulkKey> bulk_retx;

  // Receive side: duplicate suppression and deferred acknowledgements.
  // Standalone acks prefer the rail traffic was last heard on: a rail
  // that demonstrably delivers is the best guess for the return path
  // (a dark NIC silences both directions in the fault model).
  RailIndex last_heard_rail = 0;
  uint32_t recv_floor = 0;         // every packet seq below this was heard
  std::set<uint32_t> recv_seen;    // heard seqs at/above the floor
  bool ack_needed = false;
  runtime::TimerId ack_timer = 0;
  bool ack_timer_armed = false;
  std::vector<BulkAck> pending_bulk_acks;  // deposited slices to ack
  // Fully-received rdv cookies (late slices re-acked, not asserted).
  // Tombstone: reaped behind the ack-floor watermark like cancelled_rdv.
  std::map<uint64_t, uint32_t> completed_bulk;

  // ---- flow control (CoreConfig::flow_control only) --------------------
  // Sender view: cumulative eager traffic charged so far versus the
  // receiver's latest cumulative limit (TCP-window-like; see
  // wire_format.hpp on why cumulative limits tolerate loss/reordering).
  uint64_t eager_sent_bytes = 0;
  uint64_t eager_sent_chunks = 0;
  uint64_t credit_limit_bytes = UINT64_MAX;
  uint64_t credit_limit_chunks = UINT64_MAX;
  // Uncharged eager payload sitting in the window; isend consults it to
  // decide whether a new block would overshoot the limit and should
  // degrade to rendezvous instead.
  size_t window_eager_bytes = 0;
  // A stall was observed and the probe valve may need to fire: when every
  // in-flight packet has drained and the peer still advertises no room,
  // one chunk is force-admitted so a lost credit update cannot deadlock
  // the gate.
  bool credit_stalled = false;
  runtime::TimerId credit_probe_timer = 0;
  bool credit_probe_armed = false;

  // Receiver view: cumulative eager traffic heard from the peer, bytes
  // currently parked in the unexpected store, and the limits advertised.
  uint64_t eager_heard_bytes = 0;
  uint64_t eager_heard_chunks = 0;
  size_t stored_bytes = 0;    // unexpected-store payload from this peer
  size_t stored_chunks = 0;
  uint64_t advertised_limit_bytes = 0;   // monotone, never retreats
  uint64_t advertised_limit_chunks = 0;
  uint64_t last_sent_limit_bytes = 0;    // last limits put on the wire
  uint64_t last_sent_limit_chunks = 0;
  bool credit_update_needed = false;     // drained store → re-advertise
};

struct Gate {
  GateId id = 0;
  drivers::PeerAddr peer = 0;
  std::vector<RailIndex> rails;      // core rail indices reaching the peer
  size_t rdv_threshold = SIZE_MAX;   // per-block eager/rdv switch
  size_t max_packet = 32 * 1024;     // largest track-0 packet
  bool has_rdma = false;

  GateCollect collect;
  GateSched sched;

  // Set when the peer became unreachable; every request completes with
  // this status from then on.
  bool failed = false;
  util::Status fail_status = util::ok_status();

  // Peer lifecycle (CoreConfig::peer_lifecycle; owned by the façade).
  // `peer_dead` marks a gate failed *because the peer was declared dead*:
  // heartbeats still flow so a restarted peer can announce itself, and a
  // beacon proving the peer unwound too re-opens the gate (below).
  // `peer_incarnation` is the highest incarnation heard from the peer;
  // packets announcing a lower one are from a previous life and fenced.
  bool peer_dead = false;
  uint32_t peer_incarnation = 0;
  runtime::TimerId peer_grace_timer = 0;
  bool peer_grace_armed = false;
  // Unwind fence for the rejoin handshake. `gate_gen` counts this side's
  // peer-death unwinds of this gate and rides every outgoing heartbeat
  // (in the chunk's otherwise-unused tag field); `peer_gen` is the
  // highest generation heard from the peer's current incarnation. At
  // death the (incarnation, generation) last heard from the peer is
  // recorded, and a rejoin requires proof the peer's own state is fresh:
  // a strictly newer incarnation (the peer restarted) or a strictly
  // newer generation (the peer also declared us dead and unwound). A
  // same-incarnation beacon from a peer that never unwound — the
  // asymmetric outage where only our side went dark — re-opens nothing:
  // rejoining against its live pre-death sequence/credit state would
  // dup-drop our fresh sends under its old receive floor.
  uint32_t gate_gen = 0;
  uint32_t peer_gen = 0;
  uint32_t death_incarnation = 0;
  uint32_t death_peer_gen = 0;

  [[nodiscard]] bool has_rail(RailIndex rail) const {
    for (RailIndex r : rails) {
      if (r == rail) return true;
    }
    return false;
  }
};

}  // namespace nmad::core
