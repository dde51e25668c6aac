#include "harness/explorer_lib.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "harness/oracle.hpp"
#include "nmad/api/session.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"

namespace nmad::harness {
namespace {

// ---------------------------------------------------------------------------
// Plan: everything derived deterministically from the seed.
// ---------------------------------------------------------------------------

const char* const kStrategies[] = {"default", "aggreg", "aggreg_extended",
                                   "split_balance"};

// kRailFlap, kSprayReorder, kGrayRail and kPeerCrash are never drawn
// from the seed (they reshape the whole plan); they are selected with
// ExplorerOptions::force_fault only.
enum class FaultKind {
  kNone, kDrops, kFlips, kBlackout, kRxPause, kMixed, kReorder,
  kRailFlap, kSprayReorder, kGrayRail, kPeerCrash
};
constexpr size_t kDrawnFaultKinds = 7;  // kNone..kReorder

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrops: return "drops";
    case FaultKind::kFlips: return "flips";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kRxPause: return "rx-pause";
    case FaultKind::kMixed: return "mixed";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kRailFlap: return "rail-flap";
    case FaultKind::kSprayReorder: return "spray-reorder";
    case FaultKind::kGrayRail: return "gray-rail";
    case FaultKind::kPeerCrash: return "peer-crash";
  }
  return "?";
}

bool fault_kind_from_name(const std::string& name, FaultKind* out) {
  for (int k = 0; k <= static_cast<int>(FaultKind::kPeerCrash); ++k) {
    if (name == fault_kind_name(static_cast<FaultKind>(k))) {
      *out = static_cast<FaultKind>(k);
      return true;
    }
  }
  return false;
}

struct Message {
  int src = 0;
  int dst = 0;
  uint64_t tag = 0;
  size_t bytes = 0;
  uint64_t pattern = 0;  // fill_pattern seed for the payload
};

struct Op {
  enum class Kind {
    kSendPost,   // isend message `msg`
    kRecvPost,   // irecv message `msg`
    kCancel,     // cancel the send (end=0) or recv (end=1) of `msg`
    kDeadline,   // arm a deadline on the send/recv of `msg`
    kWaitFor,    // pump until `msg`'s recv completes or `us` elapses
    kStep,       // pump the world for `us` of virtual time
    kDrain,      // Core::drain on node `msg` with deadline `us`
  };
  Kind kind = Kind::kStep;
  size_t msg = 0;
  int end = 0;  // 0 = send side, 1 = recv side
  double us = 0.0;
};

struct Plan {
  size_t nodes = 2;
  size_t rails = 1;
  std::string strategy;
  FaultKind fault = FaultKind::kNone;
  core::CoreConfig config;
  std::vector<simnet::NicProfile> rail_profiles;
  std::vector<Message> messages;
  std::vector<Op> ops;
  // kPeerCrash only: the whole-node crash is injected at run time, after
  // the seed-drawn schedule has quiesced, so the dark window always lands
  // on live crash-phase traffic whatever virtual time the prefix took.
  bool crash_rejoins = false;   // window ends (rejoin) vs never ends
  double crash_delay_us = 0.0;  // dark starts this long after injection
  double crash_len_us = 0.0;    // dark length for the rejoin variant
};

// Eager/rendezvous straddle: MX threshold is 32 KiB, the override (when
// the plan picks it) is 4 KiB. Small sizes dominate so windows aggregate.
constexpr size_t kSizes[] = {0,    1,     7,     64,        256,
                             1024, 3000,  4095,  4096,      8192,
                             31744, 32768, 49152, 150 * 1024};

std::vector<simnet::FaultWindow> random_windows(util::Rng& rng, int count,
                                                double max_len_us) {
  std::vector<simnet::FaultWindow> out;
  double at = 100.0;
  for (int i = 0; i < count; ++i) {
    at += static_cast<double>(rng.next_range(200, 2000));
    const double len =
        10.0 + rng.next_double() * (max_len_us - 10.0);
    out.push_back({at, at + len});
    at += len;
  }
  return out;
}

Plan make_plan(const ExplorerOptions& opts) {
  // Decorrelate nearby seeds before drawing structure from them.
  util::Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull);
  Plan plan;

  plan.nodes = opts.ranks >= 2 ? opts.ranks
                               : 2 + rng.next_below(2);  // 2..3 ranks
  plan.rails = 1 + rng.next_below(2);
  plan.strategy = kStrategies[rng.next_below(std::size(kStrategies))];
  plan.fault = static_cast<FaultKind>(rng.next_below(kDrawnFaultKinds));
  if (!opts.force_fault.empty()) {
    // The draw above still happens, so the rest of the plan keeps the
    // same seed-derived shape whichever kind ends up forced.
    FaultKind forced = plan.fault;
    if (fault_kind_from_name(opts.force_fault, &forced)) {
      plan.fault = forced;
    }
  }

  core::CoreConfig& cfg = plan.config;
  cfg.strategy = plan.strategy;
  cfg.reliability = true;
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  // Strict mode: every fault schedule below is recoverable, so gates must
  // never fail. Rail death is disabled (a single lossy rail would
  // otherwise fail the gate) and the retry budget outlasts the longest
  // blackout by orders of magnitude (200µs · 2^19 cumulative backoff).
  cfg.rail_dead_after = 0;
  cfg.max_retries = 20;
  if (rng.next_bool(0.4)) cfg.rdv_threshold_override = 4096;
  if (rng.next_bool(0.3)) cfg.prebuild_backlog_chunks = 4;

  bool flow = rng.next_bool(0.5);
  if (opts.inject_skip_credit) flow = true;  // the bug is a credit bug
  if (flow) {
    cfg.flow_control = true;
    // Σ initial grants across peers must fit the rx budget for the
    // budget invariant to hold from time zero (core.hpp contract).
    cfg.initial_credit_bytes = 48 * 1024;
    cfg.initial_credit_msgs = 24;
    if (rng.next_bool(0.5)) {
      cfg.rx_budget = cfg.initial_credit_bytes * (plan.nodes - 1) +
                      128 * 1024;
      cfg.rx_budget_msgs = cfg.initial_credit_msgs * (plan.nodes - 1) + 64;
    }
    cfg.credit_probe_us = 500.0;
  }

  simnet::FaultProfile fault;
  fault.seed = opts.seed ^ 0xFA017EEDull;
  switch (plan.fault) {
    case FaultKind::kNone:
      break;
    case FaultKind::kDrops:
      fault.frame_drop_prob = 0.02 + rng.next_double() * 0.10;
      fault.bulk_drop_prob = 0.02 + rng.next_double() * 0.06;
      break;
    case FaultKind::kFlips:
      fault.bit_flip_prob = 0.02 + rng.next_double() * 0.08;
      break;
    case FaultKind::kBlackout:
      fault.blackouts = random_windows(rng, 3, 400.0);
      break;
    case FaultKind::kRxPause:
      fault.rx_pauses = random_windows(rng, 3, 800.0);
      break;
    case FaultKind::kMixed:
      fault.frame_drop_prob = 0.01 + rng.next_double() * 0.05;
      fault.bit_flip_prob = rng.next_double() * 0.03;
      fault.bulk_drop_prob = rng.next_double() * 0.04;
      fault.blackouts = random_windows(rng, 1, 300.0);
      fault.rx_pauses = random_windows(rng, 1, 500.0);
      break;
    case FaultKind::kReorder:
      // Adaptive-routing jitter: frames delayed, never lost. The jitter
      // ceiling comfortably exceeds the per-frame rx spacing, so frames
      // genuinely overtake each other.
      fault.reorder_prob = 0.15 + rng.next_double() * 0.45;
      fault.jitter_max_us = 20.0 + rng.next_double() * 80.0;
      break;
    case FaultKind::kRailFlap:
    case FaultKind::kSprayReorder:
      break;  // shaped below: the blackouts land on rail 1 only
    case FaultKind::kGrayRail:
      break;  // shaped below: the gray shape lands on rail 1 only
    case FaultKind::kPeerCrash:
      break;  // shaped below: the wire stays clean, the crash IS the fault
  }
  // Health thresholds below are tuned for the seed-drawn 2..3-rank
  // shapes. Under --ranks=N the schedule posts thousands of messages and
  // a single 150KB body is >100µs of wire time, so silence gaps on a
  // busy-but-healthy rail stretch far past the small-cluster windows —
  // without this scale factor the clean rail gets declared dead and an
  // unrecoverable gate failure follows. The blackout shape stretches by
  // the same factor so darkened rails still outlast dead_after_us.
  const double hs =
      plan.nodes > 64 ? static_cast<double>(plan.nodes) / 64.0 : 1.0;
  std::vector<simnet::FaultWindow> flap_windows;
  if (plan.fault == FaultKind::kRailFlap ||
      plan.fault == FaultKind::kSprayReorder) {
    // Two rails; rail 0 stays clean so kill_rail never has to fail a
    // gate and every schedule remains recoverable. Health thresholds are
    // scaled to the plan's 200µs ack timeout: suspect after 150µs of
    // silence, dead after 300µs, probed every 100µs, revived after two
    // fresh probe replies.
    plan.rails = 2;
    cfg.rail_health = true;
    cfg.heartbeat_interval_us = 50.0;
    cfg.suspect_after_us = 150.0 * hs;
    cfg.dead_after_us = 300.0 * hs;
    cfg.probe_interval_us = 100.0 * hs;
    cfg.probation_replies = 2;
    // Each blackout outlasts dead_after_us (the rail really dies) and the
    // bright gaps leave room for the probe/probation handshake to revive
    // it before the next window.
    double at = 300.0 * hs;
    for (int i = 0; i < 3; ++i) {
      at += static_cast<double>(rng.next_range(500, 3000)) * hs;
      const double len = (350.0 + rng.next_double() * 450.0) * hs;
      flap_windows.push_back({at, at + len});
      at += len + 800.0 * hs;
    }
    if (plan.fault == FaultKind::kSprayReorder) {
      // The tail-resilience profile: rendezvous bodies are sprayed
      // packet-by-packet over both rails, every frame may take a jittered
      // path, and rail 1 flaps underneath — out-of-order fragments,
      // duplicates from suspect-rail re-issues and gap-fill after death
      // all hit the reassembly buffer in one run. The fragment audits
      // below prove exactly-once delivery survived it.
      cfg.spray = true;
      cfg.rdv_threshold_override = 4096;
      fault.reorder_prob = 0.15 + rng.next_double() * 0.35;
      fault.jitter_max_us = 30.0 + rng.next_double() * 70.0;
    }
  }
  if (plan.fault == FaultKind::kGrayRail) {
    // Gray failure: rail 1 degrades — still alive, still beaconing —
    // while rail 0 stays clean. Adaptive scoring is forced on and the
    // silence thresholds leave death far out of reach (the rail must
    // NOT die: beacons keep flowing through the gray shape), so only
    // the continuous score can detect it and route around it.
    plan.rails = 2;
    cfg.rail_health = true;
    cfg.adaptive = true;
    cfg.spray = true;
    cfg.rdv_threshold_override = 4096;
    cfg.heartbeat_interval_us = 50.0;
    cfg.suspect_after_us = 250.0 * hs;
    cfg.dead_after_us = 1000.0 * hs;
    cfg.probe_interval_us = 100.0 * hs;
    cfg.probation_replies = 2;
    // Loss-based detection uses the defaults; the latency criterion is
    // armed too so throttle/jitter shapes (which lose nothing) can still
    // breach. Latency thresholds scale too: queueing on a busy healthy
    // rail inflates RTT at large rank counts.
    cfg.degraded_latency_enter_us = 400.0 * hs;
    cfg.degraded_latency_exit_us = 200.0 * hs;
  }
  if (plan.fault == FaultKind::kPeerCrash) {
    // Whole-node crash: every NIC on node 1 goes dark atomically (the
    // runner injects the window after the seed-drawn prefix quiesces).
    // Rail health is per-NIC silence, so peer death — "no alive rail to
    // the peer remains" — is only unambiguous with a single peer: force
    // two ranks. Both rails to the peer must die for the grace timer to
    // declare death, which is exactly what the node-wide blackout does.
    plan.nodes = 2;
    plan.rails = 2;
    cfg.peer_lifecycle = true;
    cfg.rail_health = true;
    cfg.heartbeat_interval_us = 50.0;
    cfg.suspect_after_us = 150.0;
    cfg.dead_after_us = 300.0;
    cfg.probe_interval_us = 100.0;
    cfg.probation_replies = 2;
    cfg.peer_death_grace_us = 150.0;
    // Rendezvous bodies (and, on half the seeds, per-packet spray) keep
    // multi-chunk transfers in flight when the node goes dark, so the
    // unwind covers mid-rendezvous and mid-spray state, not just eager.
    cfg.rdv_threshold_override = 4096;
    if (rng.next_bool(0.5)) cfg.spray = true;
    plan.crash_rejoins = rng.next_bool(0.6);
    plan.crash_delay_us = 30.0 + static_cast<double>(rng.next_below(120));
    // The dark window must outlast dead_after + peer_death_grace by a
    // wide margin so death is always declared before the restart.
    plan.crash_len_us = 900.0 + rng.next_double() * 900.0;
  }
  for (size_t r = 0; r < plan.rails; ++r) {
    simnet::NicProfile p = simnet::mx_myri10g_profile();
    p.fault = fault;
    p.fault.seed = fault.seed + r;  // decorrelate the rails' dice
    if ((plan.fault == FaultKind::kRailFlap ||
         plan.fault == FaultKind::kSprayReorder) &&
        r == 1) {
      p.fault.blackouts = flap_windows;
    }
    if (plan.fault == FaultKind::kGrayRail && r == 1) {
      // One seed-drawn degraded-but-beaconing shape per schedule.
      switch (rng.next_below(4)) {
        case 0:  // persistent elevated drop
          p.fault.frame_drop_prob = 0.03 + rng.next_double() * 0.05;
          p.fault.bulk_drop_prob = 0.02 + rng.next_double() * 0.04;
          break;
        case 1:  // intermittent flaky windows
          p.fault.flaky_drop_prob = 0.25 + rng.next_double() * 0.35;
          p.fault.flaky = random_windows(rng, 4, 600.0);
          break;
        case 2:  // bandwidth throttle
          p.fault.bandwidth_throttle = 0.10 + rng.next_double() * 0.30;
          break;
        case 3:  // latency jitter
          p.fault.reorder_prob = 0.30 + rng.next_double() * 0.40;
          p.fault.jitter_max_us = 40.0 + rng.next_double() * 80.0;
          break;
      }
    }
    plan.rail_profiles.push_back(std::move(p));
  }

  // Messages: ordered (src, dst) pairs over a handful of tags. The k-th
  // send posted on a (src, dst, tag) stream matches the k-th recv posted
  // on it, whatever the interleaving — that is the FIFO contract.
  // On the seed-drawn 2..3-rank shapes a handful of messages saturates
  // every pair; under --ranks=N draw ~2 per rank so a big topology is
  // actually exercised rather than mostly idle.
  const size_t message_count =
      plan.nodes <= 4 ? 6 + rng.next_below(10)
                      : plan.nodes * 2 + rng.next_below(plan.nodes);
  for (size_t i = 0; i < message_count; ++i) {
    Message m;
    m.src = static_cast<int>(rng.next_below(plan.nodes));
    m.dst = static_cast<int>(rng.next_below(plan.nodes - 1));
    if (m.dst >= m.src) ++m.dst;
    m.tag = rng.next_below(3);
    m.bytes = kSizes[rng.next_below(std::size(kSizes))];
    m.pattern = opts.seed ^ (i * 0x9E3779B9ull + 1);
    plan.messages.push_back(m);
  }

  // Two post ops per message, shuffled; then per-stream order is
  // restored (sends of a stream post in message order, recvs likewise),
  // which keeps the k-th-matches-k-th bookkeeping trivial while leaving
  // the cross-stream interleaving — pre-posted vs unexpected, recv-first
  // vs send-first — fully random.
  std::vector<Op> posts;
  for (size_t i = 0; i < plan.messages.size(); ++i) {
    posts.push_back({Op::Kind::kSendPost, i, 0, 0.0});
    posts.push_back({Op::Kind::kRecvPost, i, 1, 0.0});
  }
  for (size_t i = posts.size(); i > 1; --i) {
    std::swap(posts[i - 1], posts[rng.next_below(i)]);
  }
  const auto stream_of = [&](const Op& op) {
    const Message& m = plan.messages[op.msg];
    return std::tuple<int, int, uint64_t, int>{m.src, m.dst, m.tag, op.end};
  };
  {
    // Stable per-(stream, side) sort of the message indices in place.
    std::map<std::tuple<int, int, uint64_t, int>, std::vector<size_t>>
        positions;
    for (size_t i = 0; i < posts.size(); ++i) {
      positions[stream_of(posts[i])].push_back(i);
    }
    for (auto& [key, where] : positions) {
      std::vector<size_t> msgs;
      msgs.reserve(where.size());
      for (size_t i : where) msgs.push_back(posts[i].msg);
      std::sort(msgs.begin(), msgs.end());
      for (size_t k = 0; k < where.size(); ++k) {
        posts[where[k]].msg = msgs[k];
      }
    }
  }

  // Interleave chaos ops: time steps, cancels, deadlines, waits. Targets
  // are always messages whose relevant half is already posted.
  std::vector<char> send_posted(plan.messages.size(), 0);
  std::vector<char> recv_posted(plan.messages.size(), 0);
  std::vector<size_t> posted;  // message indices with either half posted
  for (const Op& post : posts) {
    plan.ops.push_back(post);
    if (post.kind == Op::Kind::kSendPost) send_posted[post.msg] = 1;
    if (post.kind == Op::Kind::kRecvPost) recv_posted[post.msg] = 1;
    posted.push_back(post.msg);
    if (rng.next_bool(0.35)) {
      plan.ops.push_back({Op::Kind::kStep, 0, 0,
                          1.0 + static_cast<double>(rng.next_below(300))});
    }
    if (rng.next_bool(0.12)) {
      const size_t target = posted[rng.next_below(posted.size())];
      const int end = rng.next_bool(0.5) ? 0 : 1;
      if ((end == 0 && send_posted[target]) ||
          (end == 1 && recv_posted[target])) {
        plan.ops.push_back({Op::Kind::kCancel, target, end, 0.0});
      }
    }
    if (rng.next_bool(0.08)) {
      const size_t target = posted[rng.next_below(posted.size())];
      const int end = rng.next_bool(0.5) ? 0 : 1;
      if ((end == 0 && send_posted[target]) ||
          (end == 1 && recv_posted[target])) {
        plan.ops.push_back(
            {Op::Kind::kDeadline, target, end,
             50.0 + static_cast<double>(rng.next_below(2000))});
      }
    }
    if (rng.next_bool(0.10)) {
      const size_t target = posted[rng.next_below(posted.size())];
      if (recv_posted[target]) {
        plan.ops.push_back(
            {Op::Kind::kWaitFor, target, 1,
             static_cast<double>(rng.next_range(100, 5000))});
      }
    }
    if (rng.next_bool(0.05)) {
      // Mid-schedule drain: flush one node's engine under load. Legal
      // outcomes are ok (everything it sent beforehand completed) or
      // kDeadlineExceeded (it could not flush in time) — never a hang,
      // never a completion left dangling after an ok.
      plan.ops.push_back(
          {Op::Kind::kDrain, static_cast<size_t>(rng.next_below(plan.nodes)),
           0, 2000.0 + static_cast<double>(rng.next_below(20000))});
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

struct LiveMessage {
  std::vector<std::byte> out;
  std::vector<std::byte> in;
  core::Request* send = nullptr;  // owned by the src core
  core::Request* recv = nullptr;  // owned by the dst core
  size_t send_index = 0;          // position in the oracle's FIFO stream
  size_t recv_index = 0;
};

class Runner {
 public:
  Runner(const ExplorerOptions& opts, Plan plan)
      : opts_(opts), plan_(std::move(plan)) {
    api::ClusterOptions cluster_opts;
    cluster_opts.nodes = plan_.nodes;
    cluster_opts.rails = plan_.rail_profiles;
    cluster_opts.core = plan_.config;
    // Past a handful of ranks the N² full mesh dominates setup; open only
    // the gates the drawn messages will use (ensure_gate wires both
    // directions, which acks/credits need).
    cluster_opts.full_mesh = plan_.nodes <= 8;
    const bool lazy_mesh = !cluster_opts.full_mesh;
    cluster_ = std::make_unique<api::Cluster>(std::move(cluster_opts));
    if (lazy_mesh) {
      for (const Message& m : plan_.messages) {
        cluster_->ensure_gate(static_cast<simnet::NodeId>(m.src),
                              static_cast<simnet::NodeId>(m.dst));
      }
    }
    // In a -DNMAD_VALIDATE build the per-tick checker would abort the
    // process on the first violation; route it into the oracle instead
    // so the sweep reports a replayable seed (no-op otherwise).
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      const int node = static_cast<int>(n);
      cluster_->core(n).set_validate_failure_handler(
          [this, node](const std::vector<std::string>& failures) {
            for (const std::string& f : failures) {
              oracle_.note_violation("validate: node " +
                                     std::to_string(node) + ": " + f);
            }
          });
    }
    live_.resize(plan_.messages.size());
    // Shadow the event-bus spine: record the first time each node saw
    // each lifecycle stage, so the run can prove the complete
    // elect -> build -> tx -> rx -> ack chain went over the bus even
    // after the bounded trace ring has recycled the early events.
    chain_.resize(plan_.nodes);
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      ChainTimes& times = chain_[n];
      core::EventBus& bus = cluster_->core(n).bus();
      bus.subscribe(core::EventKind::kElected, [&times](const core::Event& e) {
        if (times.elected < 0.0) times.elected = e.t;
      });
      bus.subscribe(core::EventKind::kPacketBuilt,
                    [&times](const core::Event& e) {
                      if (times.built < 0.0) times.built = e.t;
                    });
      bus.subscribe(core::EventKind::kWireTx, [&times](const core::Event& e) {
        if (times.tx < 0.0) times.tx = e.t;
      });
      bus.subscribe(core::EventKind::kAcked, [&times](const core::Event& e) {
        if (times.acked < 0.0) times.acked = e.t;
      });
    }
    // Fragment-granularity delivery audits (CoreConfig::spray): shadow
    // every node's reassembly buffer through the bus and flag what the
    // engine should never have let through — two *applied* fragments
    // covering overlapping byte ranges of one message, or a fragment
    // applied after that message already reported reassembly complete.
    // Rejected fragments (duplicate / epoch-fenced / late outcomes) are
    // the fault model at work, not violations.
    spray_audit_.resize(plan_.nodes);
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      auto& audit = spray_audit_[n];
      const int node = static_cast<int>(n);
      core::EventBus& bus = cluster_->core(n).bus();
      bus.subscribe(
          core::EventKind::kSprayFragRx,
          [this, node, &audit](const core::Event& e) {
            if ((e.b >> 32) != 0) return;  // rejected, nothing applied
            const uint64_t tag = e.a >> 40;
            const size_t off = e.a & ((uint64_t{1} << 40) - 1);
            const size_t len = e.b & 0xFFFFFFFFull;
            SprayState& st = audit[{e.gate, tag, e.seq}];
            const std::string who = "node " + std::to_string(node) +
                                    " gate " + std::to_string(e.gate) +
                                    " tag " + std::to_string(tag) + " seq " +
                                    std::to_string(e.seq);
            if (st.completed) {
              oracle_.note_violation(
                  who + ": spray fragment [" + std::to_string(off) + ", " +
                  std::to_string(off + len) +
                  ") applied after reassembly completed");
            }
            auto it = st.covered.upper_bound(off);
            const bool overlap =
                (it != st.covered.begin() && std::prev(it)->second > off) ||
                (it != st.covered.end() && it->first < off + len);
            if (overlap) {
              oracle_.note_violation(
                  who + ": spray fragment [" + std::to_string(off) + ", " +
                  std::to_string(off + len) +
                  ") overlaps an already-applied fragment");
            }
            st.applied += len;
            st.covered[off] = std::max(st.covered[off], off + len);
          });
      bus.subscribe(
          core::EventKind::kReassembled,
          [this, node, &audit](const core::Event& e) {
            SprayState& st = audit[{e.gate, e.a >> 40, e.seq}];
            st.completed = true;
            if (st.applied != e.b) {
              oracle_.note_violation(
                  "node " + std::to_string(node) + " gate " +
                  std::to_string(e.gate) + " seq " + std::to_string(e.seq) +
                  ": reassembly completed at " + std::to_string(e.b) +
                  " bytes but the applied fragments sum to " +
                  std::to_string(st.applied));
            }
          });
    }
    if (opts_.inject_skip_credit) {
      cluster_->core(0).test_skip_next_credit_charge(3);
    }
  }

  ExplorerResult run() {
    ExplorerResult result;
    result.ops_total = plan_.ops.size();
    result.strategy = plan_.strategy;
    result.fault_kind = fault_kind_name(plan_.fault);
    result.nodes = plan_.nodes;
    result.rails = plan_.rails;
    result.flow_control = plan_.config.flow_control;

    const size_t limit = std::min(opts_.max_ops, plan_.ops.size());
    for (size_t i = 0; i < limit; ++i) {
      execute(plan_.ops[i]);
    }
    result.ops_executed = limit;

    // Balance the prefix: a message with only one half posted would hang
    // (send with no recv) or leave the oracle unbalanced, and neither is
    // an engine bug. Messages with neither half posted are skipped.
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].send && !live_[i].recv) post_recv(i);
      if (live_[i].recv && !live_[i].send) post_send(i);
    }

    // Drain to quiescence, bounded: a live-locked protocol (e.g. a credit
    // probe re-arming forever) must terminate the run as a violation, not
    // hang the harness.
    size_t events = 0;
    constexpr size_t kEventCap = 4'000'000;
    if (!plan_.config.rail_health) {
      while (events < kEventCap && cluster_->world().run_one()) ++events;
    } else if (plan_.fault == FaultKind::kPeerCrash) {
      run_peer_crash(events, kEventCap);
    } else {
      // The heartbeat timers re-arm forever, so the world never goes
      // quiescent on its own. Pump until the workload is done and the
      // last blackout is well past (room for the probe/probation
      // handshake), audit that every darkened rail died AND came back,
      // then disarm the monitors and drain the remainder normally.
      double settle = 0.0;
      for (const simnet::NicProfile& p : plan_.rail_profiles) {
        for (const simnet::FaultWindow& w : p.fault.blackouts) {
          settle = std::max(settle, w.end_us);
        }
      }
      settle += 3000.0;
      while (events < kEventCap && cluster_->world().run_one()) {
        ++events;
        if (cluster_->now() >= settle && workload_done()) break;
      }
      for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
        core::Core& core = cluster_->core(n);
        // A rank with no gates (possible on a --ranks lazy mesh) runs no
        // heartbeats, so it has no rail lifecycle to audit.
        const bool has_peer = core.gate_count() != 0;
        if (has_peer && (plan_.fault == FaultKind::kRailFlap ||
                         plan_.fault == FaultKind::kSprayReorder)) {
          if (core.stats().rails_failed == 0) {
            oracle_.note_violation(
                "node " + std::to_string(n) +
                ": rail-flap plan but no rail ever died");
          }
          if (core.stats().rails_revived == 0) {
            oracle_.note_violation(
                "node " + std::to_string(n) +
                ": rail-flap plan but no rail was ever revived");
          }
        }
        for (simnet::RailIndex r = 0;
             r < static_cast<simnet::RailIndex>(core.rail_count()); ++r) {
          if (!core.rail_alive(r)) {
            oracle_.note_violation(
                "node " + std::to_string(n) + " rail " + std::to_string(r) +
                " still dead after the last blackout — revival failed");
          }
        }
        core.stop_health_monitors();
      }
      while (events < kEventCap && cluster_->world().run_one()) ++events;
    }
    if (events >= kEventCap) {
      oracle_.note_violation(
          "world still busy after 4M events — live-locked protocol");
    }
    result.virtual_us = cluster_->now();

    // Every request the harness still holds must be done at quiescence.
    for (size_t i = 0; i < live_.size(); ++i) {
      LiveMessage& m = live_[i];
      const Message& spec = plan_.messages[i];
      if (m.send || m.recv) ++result.messages;
      if (m.send && m.send->done()) {
        cluster_->core(spec.src).release(m.send);
        m.send = nullptr;
      }
      if (m.recv && m.recv->done()) {
        cluster_->core(spec.dst).release(m.recv);
        m.recv = nullptr;
      }
    }
    // A terminal crash leaves the gate pair dead on purpose; every other
    // plan (including crash-then-rejoin, whose gates re-opened) must end
    // with healthy gates.
    oracle_.finalize(cluster_->cores(),
                     /*allow_gate_failures=*/plan_.fault ==
                             FaultKind::kPeerCrash &&
                         !plan_.crash_rejoins);
    if (!oracle_.ok()) {
      // Oracle violations always come with the engine dumps: the event-bus
      // trace at the end of each dump is the schedule's last moves in order.
      for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
        cluster_->core(n).debug_dump(std::cerr);
      }
    }

    // Fold the per-node event-bus accounting into the result and audit
    // the trace rings: chronological order always, and at least one node
    // must have retained the sender-side elect/build/tx chain (plus an
    // ack when the plan was reliable) so a failing seed's dump shows the
    // schedule's actual moves.
    bool any_chain = false;
    bool rings_ordered = true;
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      const core::Core& c = cluster_->core(n);
      const core::CoreStats& s = c.stats();
      const core::EventBus& bus = c.bus();
      result.ev_elected += bus.count(core::EventKind::kElected);
      result.ev_packet_built += bus.count(core::EventKind::kPacketBuilt);
      result.ev_wire_tx += bus.count(core::EventKind::kWireTx);
      result.ev_wire_rx += bus.count(core::EventKind::kWireRx);
      result.ev_acked += bus.count(core::EventKind::kAcked);
      result.spray_sends += s.spray_sends;
      result.spray_frags_tx += s.spray_frags_tx;
      result.spray_frags_rx += s.spray_frags_rx;
      result.spray_reissues += s.spray_reissues;
      result.spray_reassembled += s.spray_reassembled;
      result.rails_degraded += s.rails_degraded;
      result.degraded_reissues += s.degraded_reissues;
      result.adaptive_elections += s.adaptive_elections;
      double last_t = 0.0;
      for (const core::Event& ev : c.bus().trace()) {
        if (ev.t < last_t) rings_ordered = false;
        last_t = ev.t;
      }
      // The shadow subscription saw the stages as they happened; a
      // complete sender-side chain is causally ordered first times.
      const ChainTimes& times = chain_[n];
      if (times.elected >= 0.0 && times.elected <= times.built &&
          times.built <= times.tx &&
          (!plan_.config.reliability || times.tx <= times.acked)) {
        any_chain = true;
      }
    }
    result.trace_lifecycle_ok =
        rings_ordered && (any_chain || result.messages == 0);

    result.violations = oracle_.violations();
    result.ok = result.violations.empty();
    return result;
  }

 private:
  void execute(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kSendPost:
        post_send(op.msg);
        break;
      case Op::Kind::kRecvPost:
        post_recv(op.msg);
        break;
      case Op::Kind::kCancel: {
        LiveMessage& m = live_[op.msg];
        const Message& spec = plan_.messages[op.msg];
        if (op.end == 0 && m.send && !m.send->done()) {
          cluster_->core(spec.src).cancel(m.send);  // may refuse; fine
        } else if (op.end == 1 && m.recv && !m.recv->done()) {
          cluster_->core(spec.dst).cancel(m.recv);
        }
        break;
      }
      case Op::Kind::kDeadline: {
        LiveMessage& m = live_[op.msg];
        const Message& spec = plan_.messages[op.msg];
        if (op.end == 0 && m.send && !m.send->done()) {
          cluster_->core(spec.src).set_deadline(m.send, op.us);
        } else if (op.end == 1 && m.recv && !m.recv->done()) {
          cluster_->core(spec.dst).set_deadline(m.recv, op.us);
        }
        break;
      }
      case Op::Kind::kWaitFor: {
        core::Request* req = live_[op.msg].recv;
        const double until = cluster_->now() + op.us;
        while (req && !req->done() && cluster_->now() < until) {
          if (!cluster_->world().run_one()) break;
        }
        break;
      }
      case Op::Kind::kStep: {
        const double until = cluster_->now() + op.us;
        while (cluster_->now() < until) {
          if (!cluster_->world().run_one()) break;
        }
        break;
      }
      case Op::Kind::kDrain: {
        const int node = static_cast<int>(op.msg);
        const util::Status st =
            cluster_->core(static_cast<simnet::NodeId>(op.msg))
                .drain(op.us);
        if (!st.is_ok() &&
            st.code() != util::StatusCode::kDeadlineExceeded) {
          oracle_.note_violation("drain on node " + std::to_string(node) +
                                 " returned " + st.to_string());
        }
        if (st.is_ok()) {
          // Drain legality: ok means this node flushed everything, so no
          // send it posted before the drain may still be pending (a later
          // completion would be a completion after a successful drain).
          for (size_t i = 0; i < live_.size(); ++i) {
            if (plan_.messages[i].src != node) continue;
            if (live_[i].send && !live_[i].send->done()) {
              oracle_.note_violation(
                  "drain ok on node " + std::to_string(node) +
                  " but its send of message " + std::to_string(i) +
                  " is still pending");
            }
          }
        }
        if (opts_.verbose) {
          std::printf("  [%8.1fus] drain node %d (deadline %.0fus): %s\n",
                      cluster_->now(), node, op.us, st.to_string().c_str());
        }
        break;
      }
    }
  }

  [[nodiscard]] bool workload_done() const {
    for (const LiveMessage& m : live_) {
      if (m.send && !m.send->done()) return false;
      if (m.recv && !m.recv->done()) return false;
    }
    return true;
  }

  // Appends a message to the plan at run time (kPeerCrash phases post
  // traffic the seed-drawn prefix never saw). Fresh tags keep the new
  // streams disjoint from the prefix's, so the oracle's k-th-matches-k-th
  // bookkeeping is untouched by the engine's post-rejoin sequence reset.
  size_t add_message(int src, int dst, uint64_t tag, size_t bytes) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.tag = tag;
    m.bytes = bytes;
    m.pattern =
        opts_.seed ^ (plan_.messages.size() * 0x9E3779B9ull + 0xC4A5Bull);
    plan_.messages.push_back(m);
    live_.emplace_back();
    return plan_.messages.size() - 1;
  }

  // kPeerCrash driver. The seed-drawn prefix has already executed and
  // been balanced on a healthy fabric; from here the run is phased:
  //   1. pump the prefix to completion;
  //   2. install the node-1 dark window, post crash-phase traffic (fresh
  //      tags, both halves, eager through rendezvous/spray sizes) so the
  //      blackout lands mid-transfer, and drain the survivor through the
  //      death — the quiescence audit runs against the unwind itself;
  //   3. audit that both sides declared the peer dead;
  //   4. rejoin variant: wait for the incarnation handshake to re-open
  //      the gates, then prove post-rejoin traffic is exactly-once.
  void run_peer_crash(size_t& events, size_t cap) {
    // Phase 1: heartbeat timers re-arm forever, so pump until the
    // workload is done rather than to world quiescence.
    while (events < cap && cluster_->world().run_one()) {
      ++events;
      if (workload_done()) break;
    }
    // Phase 2: every NIC on node 1 goes dark at once. From here on a
    // completion may be ok (finished before the dark) or kPeerDead.
    const double start = cluster_->now() + plan_.crash_delay_us;
    const double end =
        plan_.crash_rejoins ? start + plan_.crash_len_us : 1e15;
    cluster_->fabric().set_node_crashes(1, {{start, end}});
    oracle_.set_allow_failures(true);
    static constexpr size_t kCrashSizes[] = {48,    256,   4096,
                                             8192,  32768, 150 * 1024};
    std::vector<size_t> crash_msgs;
    for (size_t i = 0; i < std::size(kCrashSizes); ++i) {
      const int src = static_cast<int>(i % 2);
      crash_msgs.push_back(add_message(src, 1 - src, 10 + i, kCrashSizes[i]));
    }
    for (size_t m : crash_msgs) {
      post_send(m);
      post_recv(m);
    }
    // Crash-mid-drain: the survivor starts flushing before the dark hits
    // and must come back ok once the unwind fences the dead peer. A
    // deadline-exceeded here means in-flight state survived the unwind.
    const util::Status mid = cluster_->core(0).drain(
        plan_.crash_delay_us + 30000.0);
    if (!mid.is_ok()) {
      oracle_.note_violation(
          "survivor drain through the peer's death returned " +
          mid.to_string() + " — the unwind left in-flight state behind");
    }
    // Phase 3: both sides must declare the peer dead (the dark node's own
    // rails hear nothing either, so death is symmetric) and complete
    // every crash-phase request.
    while (events < cap && cluster_->world().run_one()) {
      ++events;
      if (cluster_->core(0).stats().peers_died >= 1 &&
          cluster_->core(1).stats().peers_died >= 1 && workload_done()) {
        break;
      }
    }
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      if (cluster_->core(n).stats().peers_died == 0) {
        oracle_.note_violation(
            "node " + std::to_string(n) +
            ": peer-crash plan but no peer death was ever declared");
      }
    }
    // Quiescence audit after the unwind settled: nothing stranded.
    const util::Status post = cluster_->core(0).drain(5000.0);
    if (!post.is_ok()) {
      oracle_.note_violation("survivor drain after peer death returned " +
                             post.to_string());
    }
    if (plan_.crash_rejoins) {
      // Phase 4: the restart bumped node 1's incarnation; probes revive
      // the rails and the fenced handshake re-opens the gates.
      while (events < cap && cluster_->world().run_one()) {
        ++events;
        if (cluster_->core(0).stats().peers_rejoined >= 1 &&
            cluster_->core(1).stats().peers_rejoined >= 1) {
          break;
        }
      }
      for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
        if (cluster_->core(n).stats().peers_rejoined == 0) {
          oracle_.note_violation(
              "node " + std::to_string(n) +
              ": crash window ended but the gate never rejoined");
        }
      }
      // Post-rejoin traffic on fresh tags: sequence and credit state
      // restarted with the new incarnation, so these must complete ok
      // with intact payloads (the oracle checks the checksums).
      std::vector<size_t> rejoin_msgs;
      for (size_t i = 0; i < std::size(kCrashSizes); ++i) {
        const int src = static_cast<int>(i % 2);
        rejoin_msgs.push_back(
            add_message(src, 1 - src, 100 + i, kCrashSizes[i]));
      }
      for (size_t m : rejoin_msgs) {
        post_send(m);
        post_recv(m);
      }
      while (events < cap && cluster_->world().run_one()) {
        ++events;
        if (workload_done()) break;
      }
      for (size_t m : rejoin_msgs) {
        const LiveMessage& lm = live_[m];
        const bool send_ok =
            lm.send && lm.send->done() && lm.send->status().is_ok();
        const bool recv_ok =
            lm.recv && lm.recv->done() && lm.recv->status().is_ok();
        if (!send_ok || !recv_ok) {
          oracle_.note_violation(
              "post-rejoin message " + std::to_string(m) +
              " did not complete ok — rejoin traffic is not exactly-once");
        }
      }
      for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
        core::Core& core = cluster_->core(n);
        for (simnet::RailIndex r = 0;
             r < static_cast<simnet::RailIndex>(core.rail_count()); ++r) {
          if (!core.rail_alive(r)) {
            oracle_.note_violation(
                "node " + std::to_string(n) + " rail " + std::to_string(r) +
                " still dead after the rejoin settled");
          }
        }
      }
    }
    for (simnet::NodeId n = 0; n < cluster_->node_count(); ++n) {
      cluster_->core(n).stop_health_monitors();
    }
    while (events < cap && cluster_->world().run_one()) ++events;
  }

  void post_send(size_t msg) {
    LiveMessage& m = live_[msg];
    if (m.send) return;
    const Message& spec = plan_.messages[msg];
    m.out.resize(spec.bytes);
    util::fill_pattern({m.out.data(), m.out.size()}, spec.pattern);
    const util::ConstBytes payload{m.out.data(), m.out.size()};
    m.send_index =
        oracle_.send_posted(spec.src, spec.dst, spec.tag, payload);
    core::Core& src = cluster_->core(spec.src);
    core::Request* req = src.isend(
        cluster_->gate(static_cast<simnet::NodeId>(spec.src),
                       static_cast<simnet::NodeId>(spec.dst)),
        core::Tag(spec.tag), payload);
    m.send = req;
    // A request can complete inside isend itself (failed gate); the
    // callback must not be armed after the fact.
    if (req->done()) {
      oracle_.send_completed(spec.src, spec.dst, spec.tag, m.send_index,
                             req->status());
    } else {
      req->set_on_complete([this, msg, req] {
        const Message& s = plan_.messages[msg];
        oracle_.send_completed(s.src, s.dst, s.tag, live_[msg].send_index,
                               req->status());
      });
    }
    if (opts_.verbose) {
      std::printf("  [%8.1fus] isend %d->%d tag %llu %zuB (#%zu)\n",
                  cluster_->now(), spec.src, spec.dst,
                  static_cast<unsigned long long>(spec.tag), spec.bytes,
                  m.send_index);
    }
  }

  void post_recv(size_t msg) {
    LiveMessage& m = live_[msg];
    if (m.recv) return;
    const Message& spec = plan_.messages[msg];
    m.in.assign(spec.bytes, std::byte{0xEE});
    m.recv_index = oracle_.recv_posted(
        spec.dst, spec.src, spec.tag,
        util::ConstBytes{m.in.data(), m.in.size()});
    core::Core& dst = cluster_->core(spec.dst);
    auto* req = dst.irecv(
        cluster_->gate(static_cast<simnet::NodeId>(spec.dst),
                       static_cast<simnet::NodeId>(spec.src)),
        core::Tag(spec.tag), util::MutableBytes{m.in.data(), m.in.size()});
    m.recv = req;
    // irecv can complete synchronously (unexpected-store replay of a
    // fully-arrived message, peer-cancelled tombstone, failed gate) —
    // in that case the completion already happened and a late callback
    // would never fire.
    if (req->done()) {
      oracle_.recv_completed(spec.dst, spec.src, spec.tag, m.recv_index,
                             req->status(), req->received_bytes());
    } else {
      req->set_on_complete([this, msg, req] {
        const Message& s = plan_.messages[msg];
        oracle_.recv_completed(s.dst, s.src, s.tag, live_[msg].recv_index,
                               req->status(), req->received_bytes());
      });
    }
    if (opts_.verbose) {
      std::printf("  [%8.1fus] irecv %d<-%d tag %llu %zuB (#%zu)\n",
                  cluster_->now(), spec.dst, spec.src,
                  static_cast<unsigned long long>(spec.tag), spec.bytes,
                  m.recv_index);
    }
  }

  ExplorerOptions opts_;
  Plan plan_;
  std::unique_ptr<api::Cluster> cluster_;
  // First time each node's bus reported each lifecycle stage (-1 =
  // never). Filled by the shadow subscriptions wired in the ctor.
  struct ChainTimes {
    double elected = -1.0;
    double built = -1.0;
    double tx = -1.0;
    double acked = -1.0;
  };

  // Shadow reassembly state of one sprayed message on one node, keyed
  // by (gate, tag, seq): the byte ranges the engine *applied* (accepted
  // into the destination), and whether it declared reassembly done.
  struct SprayState {
    std::map<size_t, size_t> covered;  // offset → end, as applied
    uint64_t applied = 0;              // Σ applied fragment lengths
    bool completed = false;
  };
  using SprayKey = std::tuple<core::GateId, uint64_t, uint32_t>;

  std::vector<LiveMessage> live_;
  std::vector<ChainTimes> chain_;
  std::vector<std::map<SprayKey, SprayState>> spray_audit_;
  ProtocolOracle oracle_;
};

}  // namespace

ExplorerResult run_schedule(const ExplorerOptions& opts) {
  Plan plan = make_plan(opts);
  if (opts.verbose) {
    std::printf(
        "seed=%llu nodes=%zu rails=%zu strategy=%s fault=%s flow=%d "
        "ops=%zu msgs=%zu\n",
        static_cast<unsigned long long>(opts.seed), plan.nodes, plan.rails,
        plan.strategy.c_str(), fault_kind_name(plan.fault),
        plan.config.flow_control ? 1 : 0, plan.ops.size(),
        plan.messages.size());
  }
  Runner runner(opts, std::move(plan));
  return runner.run();
}

size_t minimize(ExplorerOptions opts) {
  const ExplorerResult full = run_schedule(opts);
  if (full.ok) return 0;
  size_t lo = 1;
  size_t hi = std::min(opts.max_ops, full.ops_total);
  // Binary search assuming prefix-monotone failure; the final re-run
  // verifies the assumption and falls back to the known-failing length.
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ExplorerOptions probe = opts;
    probe.max_ops = mid;
    probe.verbose = false;
    if (!run_schedule(probe).ok) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ExplorerOptions check = opts;
  check.max_ops = lo;
  check.verbose = false;
  if (run_schedule(check).ok) {
    return std::min(opts.max_ops, full.ops_total);  // non-monotone; keep all
  }
  return lo;
}

std::string replay_command(const ExplorerOptions& opts, size_t ops) {
  std::string cmd = "explorer --seed=" + std::to_string(opts.seed) +
                    " --ops=" + std::to_string(ops);
  if (opts.ranks != 0) cmd += " --ranks=" + std::to_string(opts.ranks);
  if (!opts.force_fault.empty()) cmd += " --fault=" + opts.force_fault;
  if (opts.inject_skip_credit) cmd += " --inject=skip-credit-charge";
  return cmd;
}

bool known_fault_kind(const std::string& name) {
  FaultKind ignored = FaultKind::kNone;
  return fault_kind_from_name(name, &ignored);
}

}  // namespace nmad::harness
