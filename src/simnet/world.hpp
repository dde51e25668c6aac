// SimWorld: the virtual clock and event loop shared by every simulated
// node, NIC and engine instance in one experiment.
#pragma once

#include <cstdint>

#include "simnet/time.hpp"
#include "util/event_queue.hpp"

namespace nmad::simnet {

class SimWorld {
 public:
  SimWorld() = default;
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  util::EventId at(SimTime when, util::EventFn fn) {
    return queue_.schedule_at(when, std::move(fn));
  }
  util::EventId after(SimTime delay, util::EventFn fn) {
    NMAD_ASSERT_MSG(delay >= 0.0, "negative delay");
    return queue_.schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(util::EventId id) { queue_.cancel(id); }

  // Runs the next pending event; false when the simulation is quiescent.
  bool run_one() { return queue_.run_one(&now_); }

  // Runs until the predicate becomes true; returns false if the event queue
  // drained first (deadlock in the modelled protocol — callers assert).
  template <typename Pred>
  bool run_until(Pred&& done) {
    while (!done()) {
      if (!run_one()) return false;
    }
    return true;
  }

  // Drains every pending event.
  void run_to_quiescence() {
    while (run_one()) {
    }
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] util::EventQueue::Stats queue_stats() const {
    return queue_.stats();
  }

 private:
  SimTime now_ = 0.0;
  util::EventQueue queue_;
};

}  // namespace nmad::simnet
