// Streaming statistics and sample collections for benchmark reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nmad::util {

// Welford-style running mean/variance plus min/max; O(1) memory.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void reset() { *this = RunningStats{}; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Retains all samples; supports exact percentiles. Used for latency series.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Exact percentile by linear interpolation; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;

  void ensure_sorted() const;
};

// Streaming quantile digest: a log-linear (HDR-style) histogram with 32
// sub-buckets per octave, so any quantile is answered in O(buckets) with
// bounded relative error (≤ ~3 %) and O(1) memory per sample. Values are
// non-negative (latencies in µs); min/max/mean are tracked exactly, so
// max() and quantiles at the extremes are never approximated away.
// Digests merge bucket-wise, which is how per-gate tails roll up into an
// engine-wide tail.
class QuantileDigest {
 public:
  void add(double x);
  void merge(const QuantileDigest& other);

  [[nodiscard]] size_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  // Quantile by cumulative bucket walk; q in [0, 1]. Empty digest → 0.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }

  void reset() { *this = QuantileDigest{}; }

 private:
  // 32 sub-buckets per octave; ticks are value µs × 1024 (sub-ns floor).
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr double kTicksPerUnit = 1024.0;
  static constexpr size_t kBuckets =
      static_cast<size_t>((64 - kSubBits) * kSubBuckets);

  static size_t bucket_of(uint64_t ticks);
  static double bucket_mid(size_t idx);

  std::vector<uint64_t> buckets_;  // lazily sized, kBuckets max
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Power-of-two bucketed histogram for message-size distributions.
class SizeHistogram {
 public:
  void add(uint64_t value);

  [[nodiscard]] size_t count() const { return total_; }
  // Bucket i counts values in [2^i, 2^(i+1)) with bucket 0 holding 0 and 1.
  [[nodiscard]] uint64_t bucket(size_t i) const;
  [[nodiscard]] size_t bucket_count() const { return buckets_.size(); }

 private:
  std::vector<uint64_t> buckets_;
  size_t total_ = 0;
};

}  // namespace nmad::util
