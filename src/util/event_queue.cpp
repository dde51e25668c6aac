#include "util/event_queue.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace nmad::util {

EventQueue::EventQueue() {
  buckets_.assign(kMinBuckets, nullptr);
  tails_.assign(kMinBuckets, nullptr);
  mask_ = kMinBuckets - 1;
}

EventQueue::~EventQueue() = default;  // slabs destroy the nodes (and fns)

EventQueue::Node* EventQueue::acquire_node() {
  if (free_nodes_ == nullptr) {
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next = free_nodes_;
      free_nodes_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  Node* node = free_nodes_;
  free_nodes_ = node->next;
  ++nodes_outstanding_;
  return node;
}

void EventQueue::release_node(Node* node) const {
  node->fn.reset();  // drop captures eagerly
  node->next = free_nodes_;
  free_nodes_ = node;
  NMAD_ASSERT(nodes_outstanding_ > 0);
  --nodes_outstanding_;
}

void EventQueue::retire_slot(uint32_t slot) {
  SlotRec& rec = slots_[slot];
  rec.node = nullptr;
  if (++rec.gen == 0) rec.gen = 1;  // keep ids non-zero across wrap
  free_slots_.push_back(slot);
}

void EventQueue::insert_node(Node* node) {
  // An event behind the year cursor would be skipped by the scan; pull
  // the cursor back so the invariant "no node precedes cur_vb_" holds.
  if (node->vb < cur_vb_ || live_ == 0) cur_vb_ = node->vb;
  const size_t b = node->vb & mask_;
  Node* tail = tails_[b];
  if (tail == nullptr) {
    buckets_[b] = tails_[b] = node;
    return;
  }
  if (before(*tail, *node)) {  // monotone streams append in O(1)
    tail->next = node;
    tails_[b] = node;
    return;
  }
  Node** link = &buckets_[b];
  while (*link != nullptr && before(**link, *node)) {
    link = &(*link)->next;
  }
  node->next = *link;
  *link = node;
}

EventQueue::Node* EventQueue::clean_head(size_t bucket) const {
  Node* head = buckets_[bucket];
  while (head != nullptr && head->cancelled) {
    buckets_[bucket] = head->next;
    release_node(head);
    head = buckets_[bucket];
  }
  if (head == nullptr) tails_[bucket] = nullptr;
  return head;
}

EventQueue::Node* EventQueue::find_min() const {
  // Year scan: bucket (cur_vb_ + k) covers virtual bucket cur_vb_ + k in
  // this pass; the first head that is exactly in its own virtual bucket
  // is the global minimum (buckets cover disjoint, increasing time
  // intervals, and no pending node precedes cur_vb_).
  for (size_t k = 0; k < buckets_.size(); ++k) {
    const uint64_t vb = cur_vb_ + k;
    Node* head = clean_head(vb & mask_);
    if (head != nullptr && head->vb == vb) {
      cur_vb_ = vb;
      return head;
    }
  }
  // Sparse year: nothing within a full rotation. Direct-search the
  // minimum head and jump the cursor to it.
  ++direct_searches_;
  Node* best = nullptr;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    Node* head = clean_head(b);
    if (head != nullptr && (best == nullptr || before(*head, *best))) {
      best = head;
    }
  }
  NMAD_ASSERT_MSG(best != nullptr, "live_ > 0 but no pending node found");
  cur_vb_ = best->vb;
  return best;
}

double EventQueue::choose_width() const {
  // Deterministic width estimate from the (sorted) pending set in
  // scratch_: the median gap over up to 64 evenly spaced samples, scaled
  // so a bucket holds a few events. The median shrugs off far-future
  // outliers (idle-rail probe timers parked seconds out) that would
  // wreck a simple span/count estimate.
  const size_t n = scratch_.size();
  if (n < 2) return std::max(width_, kMinWidth);
  const size_t samples = std::min<size_t>(n, 64);
  const size_t step = n / samples;
  std::array<double, 64> gaps;  // fixed-size: no allocation on rebuilds
  size_t count = 0;
  for (size_t i = step; i < n && count < gaps.size(); i += step) {
    gaps[count++] = (scratch_[i]->at - scratch_[i - step]->at) /
                    static_cast<double>(step);
  }
  std::sort(gaps.begin(), gaps.begin() + count);
  double gap = gaps[count / 2];
  if (gap <= 0.0) {
    // Median gap zero (heavy same-time bursts): fall back to the first
    // strictly positive gap, if any.
    auto it = std::upper_bound(gaps.begin(), gaps.begin() + count, 0.0);
    gap = it != gaps.begin() + count ? *it : 0.0;
  }
  return std::max(3.0 * gap, kMinWidth);
}

void EventQueue::resize(size_t want_buckets) {
  const size_t nbuckets = std::max(kMinBuckets, std::bit_ceil(want_buckets));
  // Collect every pending node (reaping lazily-cancelled ones on the
  // way) and rebuild in sorted order so every re-insert hits the O(1)
  // tail-append path.
  scratch_.clear();
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (Node* node = buckets_[b]; node != nullptr;) {
      Node* next = node->next;
      if (node->cancelled) {
        release_node(node);
      } else {
        scratch_.push_back(node);
      }
      node = next;
    }
  }
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Node* a, const Node* b) { return before(*a, *b); });
  width_ = choose_width();
  buckets_.assign(nbuckets, nullptr);
  tails_.assign(nbuckets, nullptr);
  mask_ = nbuckets - 1;
  cur_vb_ = scratch_.empty() ? 0 : vbucket_of(scratch_.front()->at);
  for (Node* node : scratch_) {
    node->vb = vbucket_of(node->at);
    node->next = nullptr;
    const size_t b = node->vb & mask_;
    if (tails_[b] == nullptr) {
      buckets_[b] = node;
    } else {
      tails_[b]->next = node;
    }
    tails_[b] = node;
  }
  scratch_.clear();
  direct_at_resize_ = direct_searches_;
  ++resizes_;
}

EventId EventQueue::schedule_at(double at, EventFn fn) {
  NMAD_ASSERT_MSG(at >= 0.0, "event scheduled before time zero");
  if (nodes_outstanding_ + 1 > buckets_.size() * 2) {
    resize(buckets_.size() * 2);
  }
  Node* node = acquire_node();
  node->at = at;
  node->seq = next_seq_++;
  node->vb = vbucket_of(at);
  node->next = nullptr;
  node->cancelled = false;
  node->fn = std::move(fn);

  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(SlotRec{});
  }
  slots_[slot].node = node;
  node->slot = slot;

  insert_node(node);
  ++live_;
  ++scheduled_;
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  SlotRec& rec = slots_[slot];
  if (rec.gen != gen || rec.node == nullptr) return false;  // fired/stale/dup
  Node* node = rec.node;
  node->cancelled = true;
  node->fn.reset();  // free captures now; the shell is reaped lazily
  node->slot = kNoSlot;
  retire_slot(slot);
  NMAD_ASSERT(live_ > 0);
  --live_;
  ++cancelled_count_;
  return true;
}

double EventQueue::next_time() const {
  if (live_ == 0) return kNever;
  return find_min()->at;
}

bool EventQueue::pop_due(double now, EventFn* fn, double* at) {
  if (live_ == 0) return false;
  // Width retune: if the year scan keeps falling through to the linear
  // direct search, the bucket width no longer matches the event spacing
  // (the workload's time scale changed). Rebuild at the same bucket count
  // with a width re-derived from the current pending set.
  if (direct_searches_ - direct_at_resize_ > buckets_.size() * 4) {
    resize(buckets_.size());
  }
  Node* node = find_min();
  if (node->at > now) return false;
  const size_t b = node->vb & mask_;
  NMAD_ASSERT(buckets_[b] == node);
  buckets_[b] = node->next;
  if (buckets_[b] == nullptr) tails_[b] = nullptr;
  retire_slot(node->slot);
  *fn = std::move(node->fn);
  if (at != nullptr) *at = node->at;
  release_node(node);
  --live_;
  ++executed_;
  return true;
}

bool EventQueue::run_one(double* now) {
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

EventQueue::Stats EventQueue::stats() const {
  Stats s;
  s.scheduled = scheduled_;
  s.executed = executed_;
  s.cancelled = cancelled_count_;
  s.resizes = resizes_;
  s.direct_searches = direct_searches_;
  s.buckets = buckets_.size();
  s.pending = live_;
  s.node_capacity = slabs_.size() * kSlabNodes;
  s.node_slabs = slabs_.size();
  s.slot_capacity = slots_.size();
  return s;
}

}  // namespace nmad::util
