// Engine-wide configuration and counters, shared by all three layers
// (collect / schedule / transfer) through the EngineContext. Kept in a
// leaf header so the layer TUs can see the knobs without including the
// Core façade (and therefore each other).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "nmad/core/types.hpp"
#include "util/stats.hpp"

namespace nmad::core {

struct CoreConfig {
  // Strategy selected at startup ("the optimization function is to be
  // selected among an extensible and programmable set of strategies").
  std::string strategy = "aggreg";

  // Overrides the per-rail rendezvous threshold when non-zero.
  size_t rdv_threshold_override = 0;

  // Appends a 4-byte checksum to every track-0 packet and verifies it on
  // receive — a debugging aid for driver/strategy development (the flag
  // is carried on the wire, so mixed settings interoperate).
  bool wire_checksum = false;

  // §3.2 lists three election policies. The default is pure just-in-time
  // (elect when a NIC idles). Setting this to N > 0 enables the
  // alternatives: once the window backlog reaches N chunks while the NIC
  // is busy, the optimizer runs early and parks one ready-to-send packet,
  // which is handed over the moment the NIC idles ("prepare a single
  // ready-to-send packet to anticipate for any upcoming completion").
  // The election cost is thus overlapped with communication, at the price
  // of freezing that packet's contents early.
  size_t prebuild_backlog_chunks = 0;

  // --- Reliability layer --------------------------------------------------
  // Enables ack/retransmit on track-0 packets and rendezvous slices:
  // every payload-bearing packet carries a sequence number, the receiver
  // acknowledges (piggybacked on reverse traffic where possible), and the
  // sender retransmits on timeout with exponential backoff, failing over
  // to surviving rails. At most kReliabilityWindow (64) packets per gate
  // are unacked at once. Forces wire_checksum on; corrupt packets are
  // dropped and recovered by retransmission instead of asserting.
  bool reliability = false;
  // Base retransmit deadline for a track-0 packet. Rendezvous slices add
  // their own modelled wire time on top (large slices take longer).
  double ack_timeout_us = 1000.0;
  // Delayed-ack grace: how long the receiver waits for reverse traffic to
  // piggyback on before sending a standalone ack packet.
  double ack_delay_us = 5.0;
  // A packet/slice that times out this many times fails the gate. Each
  // retransmission grows its timeout by a seed-deterministic factor drawn
  // from [1, 3) (mean 2), so retries synchronized by a blackout or peer
  // crash do not land on the wire in lockstep.
  uint32_t max_retries = 10;
  // Consecutive timeouts on one rail before it is declared dead and its
  // in-flight traffic re-elected onto surviving rails (0 disables).
  uint32_t rail_dead_after = 6;

  // --- Receiver-driven flow control ---------------------------------------
  // Enables credit-based eager admission: the receiver advertises
  // cumulative limits on eager bytes/chunks (piggybacked on acks), the
  // strategy layer holds back eager chunks past the limit, and large
  // blocks degrade to rendezvous instead of flooding the peer. Forces
  // reliability on (credits ride the ack machinery).
  bool flow_control = false;
  // Receive-side budget for the unexpected store, in payload bytes and in
  // message-chunk count (0 = unlimited). Credit advertisements never let
  // admitted-but-unheard eager traffic exceed the free budget, so the
  // store stays bounded under overload without dropping data.
  size_t rx_budget = 0;
  size_t rx_budget_msgs = 0;
  // Credits granted to each peer at gate-open, before any advertisement
  // arrives (both endpoints must agree on these, so every core of a
  // fabric should share its flow-control config). For the rx_budget bound
  // to hold from time zero, keep the sum of initial grants across peers
  // within the budget. 0 means unlimited.
  size_t initial_credit_bytes = 64 * 1024;
  size_t initial_credit_msgs = 64;
  // Liveness valve: when the sender has been credit-stalled this long
  // with nothing in flight, it asks the receiver to restate its limits
  // (a zero-valued kCredit chunk). Recovers from a lost final credit
  // update without ever breaching the receiver's budget; never needed in
  // steady state. 0 disables the probe.
  double credit_probe_us = 2000.0;

  // --- Rail health lifecycle ----------------------------------------------
  // Active liveness and revival. Every rail carries lightweight kHeartbeat
  // beacons — piggybacked on outgoing packets when traffic flows, sent
  // standalone when the rail is idle — so silence is detected even with
  // nothing in flight: a rail unheard for suspect_after_us turns suspect,
  // and for dead_after_us is declared dead (the transfer engine re-elects
  // its in-flight traffic onto surviving rails). Dead rails are probed
  // every probe_interval_us; a reply echoing the rail's current epoch
  // proves the link works again, and probation_replies fresh replies
  // revive it — rendezvous jobs regain the rail and the next election may
  // use it. Forces reliability on (a dying rail's traffic must be
  // recoverable).
  bool rail_health = false;
  double heartbeat_interval_us = 500.0;

  // --- Per-packet multipath spray -----------------------------------------
  // Sprays rendezvous-class contiguous bodies packet-by-packet across every
  // alive rail instead of negotiating per-rail RDMA sinks: the body is cut
  // into 8 KiB kSprayFrag chunks that the strategy stripes over
  // the rails, and the receiver reassembles them into the posted buffer
  // through a reorder-tolerant coverage map. When the health machine marks
  // a rail *suspect* (not yet dead), in-flight sprayed fragments on that
  // rail are immediately re-issued on survivors with a bumped re-issue
  // epoch — the receiver fences the stale twins — which moves failover
  // from the dead_after_us horizon to the suspect_after_us horizon.
  // Forces reliability on (sprayed fragments ride the packet ack machinery).
  bool spray = false;
  // Thresholds are on receive silence, so with several peers beaconing in
  // rotation keep suspect_after_us at a few heartbeat intervals.
  double suspect_after_us = 1500.0;
  double dead_after_us = 3000.0;
  double probe_interval_us = 1000.0;
  uint32_t probation_replies = 2;

  // --- Peer lifecycle (crash detection, unwind, rejoin) -------------------
  // Aggregates per-rail health into a per-peer liveness verdict: when no
  // rail to a peer is alive and the condition persists for
  // peer_death_grace_us, the peer is declared dead — every in-flight op
  // against it is unwound with kPeerDead, a kPeerDied event is published,
  // and the gate is fenced. A restarted peer announces a bumped node
  // incarnation in its heartbeats; packets from the previous incarnation
  // are dropped (never applied). A beacon on a live rail re-opens the
  // gate with clean sequence/credit state only when it proves the peer's
  // own state is fresh — a strictly newer incarnation (restart) or a
  // strictly newer per-gate unwind generation (the peer also declared us
  // dead and unwound, as after a mutual blackout) than what was heard at
  // death — so post-rejoin traffic is exactly-once even against a peer
  // that rode out an asymmetric outage with its state intact (no rejoin
  // happens then; the gate stays fenced). Forces rail_health on (peer
  // liveness is derived from rail liveness).
  bool peer_lifecycle = false;
  // How long every rail to the peer must stay non-alive before the peer
  // is declared dead (0 declares immediately on losing the last rail).
  double peer_death_grace_us = 1000.0;

  // --- Gray-failure scoring & adaptive election ---------------------------
  // Continuous per-rail health scoring on top of the binary lifecycle: the
  // transfer engine keeps an EWMA frame-loss rate (from ack vs. timeout
  // outcomes), a delivery-latency digest and a delivered-bytes throughput
  // estimate per rail, and flags a rail *degraded* when loss or latency
  // breaches its enter threshold for 300 µs straight — even
  // though the rail still beacons and stays "alive". The schedule layer
  // closes the loop: degraded rails are evicted from spray stripe sets and
  // skipped by election, and a rail entering degraded mid-transfer has its
  // in-flight sprayed fragments re-issued on survivors exactly as the
  // suspect path does. Exit uses the (lower) exit thresholds plus a
  // minimum dwell so a borderline rail cannot flap. The loss band (enter
  // at 2%, exit at 0.5% of an EWMA with alpha 0.1) and the timings
  // (300 µs sustain, 1 ms dwell) are constants in transfer_engine.cpp.
  // Forces rail_health on (scores refine the lifecycle, they do not
  // replace it).
  bool adaptive = false;
  // Delivery-latency hysteresis band on the recent-window p99, in µs
  // (0 disables the latency criterion).
  double degraded_latency_enter_us = 0.0;
  double degraded_latency_exit_us = 0.0;
};

// One rail's position in the health lifecycle (CoreConfig::rail_health):
// alive rails carry traffic and degrade to suspect on silence; dead rails
// carry none and are probed; a probed rail answering with the current
// epoch walks through probation back to alive. kDegraded is the gray
// branch (CoreConfig::adaptive): the rail still beacons and still counts
// as alive for liveness purposes, but its score breached the loss/latency
// thresholds, so election routes around it until the score recovers.
enum class RailHealth : uint8_t {
  kAlive,
  kSuspect,
  kDead,
  kProbation,
  kDegraded
};

const char* rail_health_name(RailHealth health);

struct CoreStats {
  uint64_t sends_submitted = 0;
  uint64_t recvs_submitted = 0;
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t chunks_sent = 0;
  uint64_t chunks_received = 0;
  // Chunks that shared a packet with at least one other chunk.
  uint64_t chunks_aggregated = 0;
  uint64_t rdv_started = 0;
  uint64_t bulk_sends = 0;
  uint64_t bulk_bytes = 0;
  uint64_t unexpected_chunks = 0;
  uint64_t packets_prebuilt = 0;  // elected early under the backlog policy

  // Reliability layer.
  uint64_t packet_timeouts = 0;
  uint64_t packets_retransmitted = 0;
  uint64_t packets_rejected = 0;    // corrupt/unverifiable, dropped
  uint64_t packets_duplicate = 0;   // suppressed by seq dedup (re-acked)
  uint64_t acks_sent = 0;           // standalone delayed-ack packets
  uint64_t acks_piggybacked = 0;    // acks injected into outgoing packets
  uint64_t bulk_timeouts = 0;
  uint64_t bulk_retransmitted = 0;
  uint64_t rails_failed = 0;
  uint64_t gates_failed = 0;

  // Rail health lifecycle.
  uint64_t heartbeats_sent = 0;      // beacons (piggybacked + standalone)
  uint64_t heartbeats_received = 0;  // plain beacons heard
  uint64_t probes_sent = 0;          // revival probes on dead rails
  uint64_t probe_replies_sent = 0;
  uint64_t heartbeats_fenced = 0;    // stale-epoch beacons/replies dropped
  uint64_t rails_suspected = 0;      // alive -> suspect transitions
  uint64_t rails_revived = 0;        // probation -> alive transitions
  uint64_t probation_demotions = 0;  // probation -> dead (replies dried up)

  // Per-packet multipath spray.
  uint64_t spray_sends = 0;          // messages sent via the spray path
  uint64_t spray_frags_tx = 0;       // fragments enqueued (incl. re-issues)
  uint64_t spray_frags_rx = 0;       // fragments applied to a reassembly buf
  uint64_t spray_frag_dups = 0;      // already-covered fragments dropped
  uint64_t spray_frags_fenced = 0;   // stale-epoch fragments dropped
  uint64_t spray_frags_late = 0;     // fragments after reassembly completed
  uint64_t spray_reissues = 0;       // suspect-rail failover re-issues
  uint64_t spray_reassembled = 0;    // messages completed via reassembly
  // Suspect-transition to wire latency of each failover re-issue, in µs.
  util::QuantileDigest spray_reissue_latency_us;

  // Peer lifecycle (CoreConfig::peer_lifecycle).
  uint64_t peers_died = 0;           // gates fenced after the death grace
  uint64_t peers_rejoined = 0;       // gates re-opened by a fresh incarnation
  uint64_t incarnations_fenced = 0;  // previous-life packets dropped
  // Tombstone GC behind the ack-floor watermark (cancel tombstones and
  // spray_done markers reaped once the receive floor passes them).
  uint64_t tombstones_reaped = 0;

  // Gray-failure scoring & adaptive election (CoreConfig::adaptive).
  uint64_t rails_degraded = 0;       // score-driven entries into kDegraded
  uint64_t rails_recovered = 0;      // kDegraded -> kAlive exits
  uint64_t degraded_reissues = 0;    // fragments re-issued off degraded rails
  uint64_t adaptive_elections = 0;   // per-message spray/split/single picks
  uint64_t degraded_evictions = 0;   // stripe slots denied to degraded rails
  uint64_t probe_rtt_samples = 0;    // probe/reply RTTs fed to the digest

  // Drain / close.
  uint64_t drains_started = 0;
  uint64_t drains_completed = 0;
  uint64_t gates_closed = 0;

  // Flow control.
  uint64_t credit_grants = 0;        // credit chunks put on the wire
  uint64_t credit_stalls = 0;        // eager chunks held back by credit
  uint64_t credit_probes = 0;        // credit requests sent while stalled
  uint64_t credit_rdv_degrades = 0;  // eager blocks demoted to rendezvous
  uint64_t rx_stored_bytes = 0;      // unexpected-store payload (gauge)
  uint64_t rx_stored_hwm = 0;        // high-water mark of the above

  // Cancellation / deadlines.
  uint64_t sends_cancelled = 0;
  uint64_t recvs_cancelled = 0;
  uint64_t deadlines_exceeded = 0;
  uint64_t cancelled_payload_dropped = 0;  // chunks for a cancelled recv

  // Invariant validation (check_invariants / validate_invariants; the
  // hot-path hooks that drive these only compile under -DNMAD_VALIDATE).
  uint64_t validate_ticks = 0;
  uint64_t validate_violations = 0;
  // Per-layer breakdown of validate_violations: which layer's own checks
  // flagged the state. `engine` covers the cross-layer consistency checks
  // that no single layer can make alone (store vs. gauge, global budgets).
  uint64_t validate_violations_collect = 0;
  uint64_t validate_violations_schedule = 0;
  uint64_t validate_violations_transfer = 0;
  uint64_t validate_violations_engine = 0;
};

struct SendHints {
  Priority prio = Priority::kNormal;
  RailIndex pinned_rail = kAnyRail;
};

// Nonblocking-probe result; see Core::peek_unexpected for the sequence
// contract.
struct PeekInfo {
  bool matched = false;
  bool total_known = false;
  size_t total_bytes = 0;
};

}  // namespace nmad::core
