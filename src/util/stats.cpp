#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rdcn {

void Summary::add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
}

double Summary::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double ss = 0.0;
  for (double s : samples_) ss += (s - m) * (s - m);
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

double Summary::min() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty Summary");
  assert(q >= 0.0 && q <= 100.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LatencyHistogram::LatencyHistogram(int sub_bucket_bits) : bits_(sub_bucket_bits) {
  if (sub_bucket_bits < 0 || sub_bucket_bits > 20) {
    throw std::invalid_argument("sub_bucket_bits must be in [0, 20]");
  }
}

std::size_t LatencyHistogram::bucket_index(std::int64_t value, int sub_bucket_bits) {
  if (value < 0) value = 0;
  const std::int64_t sub = std::int64_t{1} << sub_bucket_bits;
  if (value < 2 * sub) return static_cast<std::size_t>(value);
  // value in octave [2^(k-1), 2^k) with k - 1 > sub_bucket_bits; the
  // octave splits into `sub` equal sub-buckets of width 2^(k-1-bits).
  int msb = 0;
  for (std::int64_t v = value; v > 1; v >>= 1) ++msb;  // value in [2^msb, 2^(msb+1))
  const int shift = msb - sub_bucket_bits;
  const auto octave = static_cast<std::size_t>(msb - sub_bucket_bits - 1);
  const auto within = static_cast<std::size_t>((value - (std::int64_t{1} << msb)) >> shift);
  return static_cast<std::size_t>(2 * sub) + octave * static_cast<std::size_t>(sub) + within;
}

std::pair<std::int64_t, std::int64_t> LatencyHistogram::bucket_range(std::size_t index,
                                                                     int sub_bucket_bits) {
  const std::int64_t sub = std::int64_t{1} << sub_bucket_bits;
  if (index < static_cast<std::size_t>(2 * sub)) {
    const auto v = static_cast<std::int64_t>(index);
    return {v, v};
  }
  const std::size_t rest = index - static_cast<std::size_t>(2 * sub);
  const auto octave = static_cast<int>(rest / static_cast<std::size_t>(sub));
  const auto within = static_cast<std::int64_t>(rest % static_cast<std::size_t>(sub));
  const std::int64_t width = std::int64_t{1} << (octave + 1);
  const std::int64_t lower = (std::int64_t{1} << (octave + sub_bucket_bits + 1)) + within * width;
  return {lower, lower + width - 1};
}

void LatencyHistogram::add(std::int64_t value) {
  if (value < 0) value = 0;
  const std::size_t index = bucket_index(value, bits_);
  if (index >= counts_.size()) counts_.resize(index + 1, 0);
  ++counts_[index];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.bits_ != bits_) {
    throw std::invalid_argument("cannot merge histograms with different layouts");
  }
  if (other.count_ == 0) return;
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::int64_t LatencyHistogram::min() const noexcept { return count_ == 0 ? 0 : min_; }

std::int64_t LatencyHistogram::max() const noexcept { return count_ == 0 ? 0 : max_; }

std::int64_t LatencyHistogram::percentile(double q) const {
  if (count_ == 0) throw std::logic_error("percentile of empty LatencyHistogram");
  assert(q >= 0.0 && q <= 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(count_))));
  // Rank 1 is the smallest recorded sample exactly; answering with its
  // bucket's upper bound would let a low quantile exceed every sample in
  // the bucket (p0 > min()).
  if (target <= 1) return min_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      return std::clamp(bucket_range(i, bits_).second, min_, max_);
    }
  }
  return max();
}

double geometric_mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double s : samples) {
    if (s <= 0.0) throw std::invalid_argument("geometric_mean needs positive samples");
    log_sum += std::log(s);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

}  // namespace rdcn
