// Exact per-sample statistics: every timing is kept, so a quantile is read
// off the sorted samples, never off a bucketed digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <vector>

#include "alloc_count.hpp"

namespace perfbench {

// One clock for every stamp the benchmark takes, on every thread: the
// engine's own event times are relative to each node's runtime epoch and
// cannot be compared across nodes.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process (all threads), in ns.
inline int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double ns_to_us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

class Samples {
 public:
  // The benchmark's own bookkeeping: never counted as an engine
  // allocation.
  void add(double x) {
    UncountedScope uncounted;
    v_.push_back(x);
    sorted_ = false;
  }
  void add_ns(int64_t ns) { add(ns_to_us(ns)); }
  [[nodiscard]] size_t size() const { return v_.size(); }

  // Linear interpolation between the two closest ranks; 0 when empty.
  [[nodiscard]] double quantile(double q) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double p50() { return quantile(0.50); }
  [[nodiscard]] double p99() { return quantile(0.99); }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

}  // namespace perfbench
