#include "nmad/core/events.hpp"

#include <ostream>

#include "nmad/core/format_util.hpp"

namespace nmad::core {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPacketBuilt:
      return "packet-built";
    case EventKind::kElected:
      return "elected";
    case EventKind::kWireTx:
      return "wire-tx";
    case EventKind::kWireRx:
      return "wire-rx";
    case EventKind::kAcked:
      return "acked";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kHealthTransition:
      return "health-transition";
    case EventKind::kDrainMilestone:
      return "drain-milestone";
    case EventKind::kSprayReissued:
      return "spray-reissued";
    case EventKind::kSprayFragRx:
      return "spray-frag-rx";
    case EventKind::kReassembled:
      return "reassembled";
    case EventKind::kPeerDied:
      return "peer-died";
    case EventKind::kPeerRejoined:
      return "peer-rejoined";
  }
  return "?";
}

EventBus::EventBus(runtime::IRuntime& rt, size_t trace_capacity)
    : rt_(rt), capacity_(trace_capacity) {
  ring_.reserve(capacity_);
}

void EventBus::publish(Event ev) {
  ev.t = rt_.now_us();
  ++published_;
  ++counts_[static_cast<size_t>(ev.kind)];
  if (capacity_ > 0) {
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[next_] = ev;
      next_ = (next_ + 1) % capacity_;
    }
  }
  for (const auto& fn : subscribers_[static_cast<size_t>(ev.kind)]) {
    fn(ev);
  }
}

void EventBus::subscribe(EventKind kind, Subscriber fn) {
  subscribers_[static_cast<size_t>(kind)].push_back(std::move(fn));
}

size_t EventBus::trace_size() const { return ring_.size(); }

std::vector<Event> EventBus::trace() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

void EventBus::dump_trace(std::ostream& out, size_t max_events) const {
  const auto events = trace();
  const size_t n = events.size() < max_events ? events.size() : max_events;
  dumpf(out, "trace (last %zu of %llu events):\n", n,
        static_cast<unsigned long long>(published_));
  for (size_t i = events.size() - n; i < events.size(); ++i) {
    const Event& ev = events[i];
    dumpf(out, "  [%10.2fus] %-17s gate=%u", ev.t,
          event_kind_name(ev.kind), static_cast<unsigned>(ev.gate));
    if (ev.rail != kAnyRail) {
      dumpf(out, " rail=%u", static_cast<unsigned>(ev.rail));
    }
    dumpf(out, " seq=%u a=%llu b=%llu\n", static_cast<unsigned>(ev.seq),
          static_cast<unsigned long long>(ev.a),
          static_cast<unsigned long long>(ev.b));
  }
}

}  // namespace nmad::core
