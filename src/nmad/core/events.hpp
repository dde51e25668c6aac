// The internal event bus: the spine connecting the three layers.
//
// Layers publish typed events instead of calling across each other for
// anything that is a *notification* (a packet went on the wire, a rail
// changed health, an ack retired a packet). Interested layers subscribe;
// the façade wires the subscriptions at construction. Delivery is
// synchronous and in subscription order, so the bus adds no scheduling
// nondeterminism — it is a structured function call, not a queue.
//
// The bus doubles as the observability spine: every published event lands
// in a fixed-capacity ring (the packet tracer) that debug_dump and the
// invariant-failure path render, and bumps a per-kind counter (count()),
// so "what just happened" survives into any failure report.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "nmad/core/types.hpp"
#include "nmad/runtime/runtime.hpp"

namespace nmad::core {

enum class EventKind : uint8_t {
  kPacketBuilt = 0,    // a track-0 packet was finalized for the wire
  kElected,            // the strategy elected chunks / a bulk slice
  kWireTx,             // a transfer engine handed bytes to its driver
  kWireRx,             // a packet was decoded off the wire
  kAcked,              // an ack retired a pending packet / bulk slice
  kRetransmit,         // a timed-out entry was re-sent
  kHealthTransition,   // a rail moved in the health lifecycle
  kDrainMilestone,     // drain started / completed, or a gate closed
  // Per-packet multipath spray. Operand encoding (consumed by the
  // fragment-granularity delivery audits in the explorer harness):
  //   kSprayReissued:  a = (tag << 40) | offset, b = payload len
  //   kSprayFragRx:    a = (tag << 40) | offset,
  //                    b = (outcome << 32) | len with outcome
  //                    0 = applied, 1 = duplicate, 2 = epoch-fenced,
  //                    3 = after-completion straggler
  //   kReassembled:    a = (tag << 40), b = total bytes
  // Tags above 2^24 alias in `a`; the harness workloads keep tags small.
  kSprayReissued,      // suspect-rail failover re-issued an in-flight frag
  kSprayFragRx,        // a spray fragment reached the reassembly buffer
  kReassembled,        // a sprayed message completed reassembly
  // Peer lifecycle. Operand encoding: a = peer incarnation known at the
  // transition, b = in-flight ops unwound (kPeerDied only).
  kPeerDied,           // every rail to the peer stayed dead past the grace
  kPeerRejoined,       // a fresh-incarnation beacon re-opened the gate
};

inline constexpr size_t kEventKindCount = 13;

const char* event_kind_name(EventKind kind);

// One bus event. `a` and `b` are kind-specific operands (bytes, cookie,
// old/new health, ...); unused fields stay at their defaults.
struct Event {
  EventKind kind = EventKind::kPacketBuilt;
  double t = 0.0;  // stamped by publish() from the runtime clock
  GateId gate = 0;
  RailIndex rail = kAnyRail;
  uint32_t seq = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

class EventBus {
 public:
  using Subscriber = std::function<void(const Event&)>;

  static constexpr size_t kDefaultTraceCapacity = 256;

  explicit EventBus(runtime::IRuntime& rt,
                    size_t trace_capacity = kDefaultTraceCapacity);

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // Stamps the event with the runtime's current time, records it in the
  // trace ring, bumps the per-kind counter, and synchronously notifies
  // every subscriber of that kind (in subscription order).
  void publish(Event ev);

  void subscribe(EventKind kind, Subscriber fn);

  [[nodiscard]] uint64_t published() const { return published_; }
  // Events of `kind` published so far.
  [[nodiscard]] uint64_t count(EventKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  [[nodiscard]] size_t trace_size() const;
  // Oldest-first snapshot of the retained ring.
  [[nodiscard]] std::vector<Event> trace() const;
  // Renders the newest `max_events` trace entries, oldest first.
  void dump_trace(std::ostream& out, size_t max_events = 32) const;

 private:
  runtime::IRuntime& rt_;
  std::vector<Event> ring_;
  size_t capacity_;
  size_t next_ = 0;  // ring write position once full
  uint64_t published_ = 0;
  std::array<uint64_t, kEventKindCount> counts_{};
  std::vector<Subscriber> subscribers_[kEventKindCount];
};

}  // namespace nmad::core
