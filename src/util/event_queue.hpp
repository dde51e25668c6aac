// Timer queue for both clocks: the simulator's discrete-event loop
// (SimWorld) and the wall-clock runtime's timers (WallClockRuntime).
//
// Time is a double in µs on whichever clock the owner runs. Ties at the
// same timestamp are broken by insertion order so simulation runs are
// fully deterministic regardless of queue internals.
//
// EventQueue is a Brown-style calendar queue: a power-of-two array of
// time buckets, each holding a short (at, seq)-sorted list, with a
// cursor that walks bucket-by-bucket through the current "year".
// Schedule and pop are O(1) amortized — the bucket array grows to track
// the pending-event high-water mark (grow-only, like the node slabs, so
// bursty populations never oscillate the allocator) and the bucket width
// is re-derived from the observed inter-event gaps on every rebuild —
// which is what lets one SimWorld carry thousands of ranks. If the
// workload's time scale shifts and the year scan starts missing, a
// same-size rebuild retunes the width. cancel() is O(1) through
// generation-stamped slots (the EventId encodes slot + gen, so a stale or
// duplicate cancel is fenced instead of corrupting a neighbour);
// cancelled events are skipped lazily when they surface at a bucket head,
// preserving the old lazy-cancel contract. Event nodes come from
// grow-only slabs and callbacks are small-buffer InlineFunctions, so the
// steady-state hot path performs no heap allocation at all.
//
// The two clocks pop differently. The simulation runs the earliest event
// and jumps its clock there (run_one). The wall clock asks for a callback
// that is due at the current time (pop_due) and runs it after dropping
// its lock; its deadlines may lie behind the clock, and such an event
// pulls the year cursor back, so it still pops in (at, insertion) order.
//
// ReferenceHeapQueue below keeps the original binary-heap implementation
// (std::priority_queue + a sorted cancelled-id vector with its O(n)
// cancel) as the differential-test oracle for both clocks and the
// benchmark baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "util/assert.hpp"
#include "util/inline_fn.hpp"

namespace nmad::util {

// 64 inline bytes cover every hot engine lambda (the largest, SimNic's
// bulk-delivery closure, measures 56); anything larger spills to the heap
// and bumps inline_fn_heap_allocs() for the regression tests.
using EventFn = InlineFunction<64>;
using EventId = uint64_t;

// next_time() of an empty queue.
inline constexpr double kNever = 1e300;

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `at`. Returns an id usable for
  // cancel(); ids are never zero.
  EventId schedule_at(double at, EventFn fn);

  // Lazily cancels a pending event (it is skipped when popped). O(1):
  // the id's generation stamp fences ids that already fired, were
  // already cancelled, or belong to a recycled slot. Returns whether a
  // pending event was cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] size_t size() const { return live_; }

  // Time of the earliest pending event; kNever when empty.
  [[nodiscard]] double next_time() const;

  // Pops the earliest event if its time is at or before `now`: moves its
  // callback into `*fn` (and its time into `*at`, when given) without
  // running it. Returns false, leaving both alone, when nothing is due.
  bool pop_due(double now, EventFn* fn, double* at = nullptr);

  // Pops and runs the earliest event; returns false if none pending.
  // `now` is updated to the event's timestamp before the callback runs.
  bool run_one(double* now);

  // Counters for the scale bench and the allocation-regression tests.
  // The capacity fields only grow while the queue warms up; a flat
  // snapshot across a steady-state phase proves the hot path allocated
  // nothing.
  struct Stats {
    uint64_t scheduled = 0;
    uint64_t executed = 0;
    uint64_t cancelled = 0;
    uint64_t resizes = 0;          // bucket-array rebuilds
    uint64_t direct_searches = 0;  // year scans that fell through
    size_t buckets = 0;            // current bucket-array size
    size_t pending = 0;            // live (non-cancelled) events
    size_t node_capacity = 0;      // slab-backed event nodes
    size_t node_slabs = 0;
    size_t slot_capacity = 0;      // generation-stamped cancel slots
  };
  [[nodiscard]] Stats stats() const;

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr size_t kMinBuckets = 16;
  static constexpr size_t kSlabNodes = 256;
  static constexpr double kMinWidth = 1e-6;  // µs; below tie-break noise

  struct Node {
    double at = 0.0;
    uint64_t seq = 0;
    uint64_t vb = 0;  // virtual bucket: floor(at / width_), never wraps
    Node* next = nullptr;
    uint32_t slot = kNoSlot;
    bool cancelled = false;
    EventFn fn;
  };
  struct SlotRec {
    uint32_t gen = 1;  // starts at 1 so an EventId is never zero
    Node* node = nullptr;
  };

  [[nodiscard]] uint64_t vbucket_of(double at) const {
    return static_cast<uint64_t>(at / width_);
  }
  static bool before(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  Node* acquire_node();
  void release_node(Node* node) const;
  void retire_slot(uint32_t slot);
  void insert_node(Node* node);
  Node* clean_head(size_t bucket) const;
  Node* find_min() const;
  void resize(size_t want_buckets);
  [[nodiscard]] double choose_width() const;

  // Bucket array (heads + tails for O(1) append of monotone streams).
  // Mutable: next_time() is logically const but lazily reaps cancelled
  // nodes and advances the year cursor, exactly like the old
  // drop_cancelled().
  mutable std::vector<Node*> buckets_;
  mutable std::vector<Node*> tails_;
  size_t mask_ = 0;
  double width_ = 1.0;
  mutable uint64_t cur_vb_ = 0;  // year cursor: next virtual bucket to scan

  // Event-node slabs + freelist (nodes are recycled, never freed).
  std::vector<std::unique_ptr<Node[]>> slabs_;
  mutable Node* free_nodes_ = nullptr;
  mutable size_t nodes_outstanding_ = 0;  // live + lazily-cancelled

  // Generation-stamped cancel slots.
  std::vector<SlotRec> slots_;
  std::vector<uint32_t> free_slots_;

  size_t live_ = 0;
  uint64_t direct_at_resize_ = 0;  // direct_searches_ at the last rebuild
  uint64_t next_seq_ = 1;
  uint64_t scheduled_ = 0;
  uint64_t executed_ = 0;
  uint64_t cancelled_count_ = 0;
  uint64_t resizes_ = 0;
  mutable uint64_t direct_searches_ = 0;
  mutable std::vector<Node*> scratch_;  // reused by resize()
};

// The pre-calendar implementation, kept as the differential-test oracle
// (identical (at, insertion-order) pop contract) and the heap baseline
// the scale bench measures the calendar queue against — including its
// O(n) sorted-vector cancel, which is the bug being fixed.
class ReferenceHeapQueue {
 public:
  EventId schedule_at(double at, EventFn fn) {
    NMAD_ASSERT_MSG(at >= 0.0, "event scheduled before time zero");
    const EventId id = next_id_++;
    heap_.push(Event{at, id, std::move(fn)});
    ++live_;
    return id;
  }

  void cancel(EventId id) {
    auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id);
    if (it != cancelled_.end() && *it == id) return;  // already cancelled
    cancelled_.insert(it, id);
    NMAD_ASSERT(live_ > 0);
    --live_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] size_t size() const { return live_; }

  [[nodiscard]] double next_time() const {
    drop_cancelled();
    return heap_.empty() ? kNever : heap_.top().at;
  }

  bool pop_due(double now, EventFn* fn, double* at = nullptr) {
    drop_cancelled();
    if (heap_.empty() || heap_.top().at > now) return false;
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    --live_;
    *fn = std::move(event.fn);
    if (at != nullptr) *at = event.at;
    return true;
  }

  bool run_one(double* now) {
    EventFn fn;
    double at = 0.0;
    if (!pop_due(std::numeric_limits<double>::infinity(), &fn, &at)) {
      return false;
    }
    NMAD_ASSERT_MSG(at + 1e-9 >= *now, "time went backwards");
    if (at > *now) *now = at;
    fn();
    return true;
  }

 private:
  struct Event {
    double at;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // earlier insertion first
    }
  };

  void drop_cancelled() const {
    while (!heap_.empty()) {
      const EventId id = heap_.top().id;
      auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id);
      if (it == cancelled_.end() || *it != id) break;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  mutable std::priority_queue<Event, std::vector<Event>, Later> heap_;
  mutable std::vector<EventId> cancelled_;  // sorted ids pending skip
  size_t live_ = 0;
  EventId next_id_ = 1;
};

}  // namespace nmad::util
