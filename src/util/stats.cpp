#include "util/stats.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace nmad::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  NMAD_ASSERT(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  NMAD_ASSERT(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  NMAD_ASSERT(!samples_.empty());
  NMAD_ASSERT(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

size_t QuantileDigest::bucket_of(uint64_t ticks) {
  if (ticks < kSubBuckets) return static_cast<size_t>(ticks);
  const int octave = std::bit_width(ticks) - 1;  // >= kSubBits
  const uint64_t sub = (ticks >> (octave - kSubBits)) & (kSubBuckets - 1);
  return static_cast<size_t>(octave - kSubBits + 1) * kSubBuckets +
         static_cast<size_t>(sub);
}

double QuantileDigest::bucket_mid(size_t idx) {
  if (idx < kSubBuckets) {
    return static_cast<double>(idx) / kTicksPerUnit;
  }
  const int octave =
      static_cast<int>(idx / kSubBuckets) + kSubBits - 1;
  const uint64_t sub = idx % kSubBuckets;
  const uint64_t lo = (uint64_t{1} << octave) |
                      (sub << (octave - kSubBits));
  const uint64_t width = uint64_t{1} << (octave - kSubBits);
  return (static_cast<double>(lo) + static_cast<double>(width) / 2.0) /
         kTicksPerUnit;
}

void QuantileDigest::add(double x) {
  if (x < 0.0) x = 0.0;
  const auto ticks = static_cast<uint64_t>(x * kTicksPerUnit);
  const size_t idx = bucket_of(ticks);
  if (buckets_.size() <= idx) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  sum_ += x;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
}

void QuantileDigest::merge(const QuantileDigest& other) {
  if (other.count_ == 0) return;
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

double QuantileDigest::quantile(double q) const {
  if (count_ == 0) return 0.0;
  NMAD_ASSERT(q >= 0.0 && q <= 1.0);
  // Nearest-rank over the cumulative counts, clamped to the exact
  // observed range so q=0 / q=1 report true min/max.
  const auto rank = static_cast<uint64_t>(
      q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      return std::min(std::max(bucket_mid(i), min_), max_);
    }
  }
  return max_;
}

void SizeHistogram::add(uint64_t value) {
  const size_t bucket = value < 2 ? 0 : std::bit_width(value) - 1;
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++total_;
}

uint64_t SizeHistogram::bucket(size_t i) const {
  return i < buckets_.size() ? buckets_[i] : 0;
}

}  // namespace nmad::util
