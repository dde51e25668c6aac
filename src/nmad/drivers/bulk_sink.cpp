#include "nmad/drivers/bulk_sink.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace nmad::drivers {

BulkSink::BulkSink(uint64_t cookie, util::MutableBytes region,
                   size_t expected, CompletionFn on_complete)
    : cookie_(cookie),
      region_(region),
      expected_(expected),
      on_complete_(std::move(on_complete)) {
  NMAD_ASSERT(expected <= region.size());
}

void BulkSink::note_deposited(size_t offset, size_t len) {
  NMAD_ASSERT_MSG(offset + len <= region_.size(),
                  "bulk deposit outside sink region");
  // Merge [offset, offset + len) into the covered-interval set so that
  // retransmitted slices never double-count towards completion.
  size_t begin = offset;
  size_t end = offset + len;
  auto it = covered_.upper_bound(begin);
  if (it != covered_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      begin = prev->first;
      end = std::max(end, prev->second);
      it = covered_.erase(prev);
    }
  }
  while (it != covered_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = covered_.erase(it);
  }
  covered_.emplace(begin, end);
  received_ = 0;
  for (const auto& [b, e] : covered_) received_ += e - b;
  NMAD_ASSERT_MSG(received_ <= expected_, "bulk sink overfilled");

  if (on_deposit_) on_deposit_(offset, len);
  if (received_ == expected_ && on_complete_) {
    // Move out first: the callback commonly frees the sink.
    auto fn = std::move(on_complete_);
    on_complete_.reset();
    fn();
  }
}

}  // namespace nmad::drivers
