#pragma once

// Lightweight summary statistics used by the benchmark harness to report
// mean / stddev / percentiles / confidence intervals over repeated runs,
// plus a bounded-memory log-bucket histogram for streaming latency
// telemetry (steady-state p50/p95/p99/p999 over millions of samples).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rdcn {

/// Accumulates scalar samples and answers summary queries. Percentile
/// queries sort a copy lazily; the accumulator is meant for at most a few
/// million samples (experiment sweeps), not streaming telemetry.
class Summary {
 public:
  void add(double sample);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double sum() const noexcept { return sum_; }
  double mean() const noexcept;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  /// Linear-interpolated percentile, q in [0, 100].
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Geometric mean of strictly positive samples (competitive-ratio tables).
double geometric_mean(const std::vector<double>& samples);

/// Log-bucket histogram over nonnegative integer samples (latencies in
/// steps) with bounded memory: O(log(max) * 2^sub_bucket_bits) buckets
/// regardless of sample count, so a streamed run can fold millions of
/// per-packet latencies without retaining them.
///
/// Bucket layout (HDR-histogram style): values below 2 * S (S = 2 ^
/// sub_bucket_bits) get one bucket each -- exact; above that, every octave
/// [2^k, 2^(k+1)) splits into S equal sub-buckets, bounding the relative
/// quantization error by 2^-sub_bucket_bits. Percentiles use the
/// nearest-rank convention on bucket upper bounds, so in the exact region
/// (small samples, small values) they reproduce the exact order statistic.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(int sub_bucket_bits = 5);

  /// Records one sample; negative values clamp to 0.
  void add(std::int64_t value);
  /// Folds `other` in; layouts (sub_bucket_bits) must match.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double mean() const noexcept;  ///< of the raw (unquantized) samples
  std::int64_t min() const noexcept;  ///< exact; 0 when empty
  std::int64_t max() const noexcept;  ///< exact; 0 when empty

  /// Nearest-rank percentile, q in [0, 100]: the upper bound of the first
  /// bucket whose cumulative count reaches ceil(q/100 * count), clamped
  /// into the observed [min(), max()]; rank 1 (q = 0, or any q resolving
  /// to the first sample) returns min() exactly, so no quantile can
  /// exceed / undercut every recorded sample. Throws std::logic_error
  /// when empty.
  std::int64_t percentile(double q) const;
  std::int64_t p50() const { return percentile(50.0); }
  std::int64_t p95() const { return percentile(95.0); }
  std::int64_t p99() const { return percentile(99.0); }
  std::int64_t p999() const { return percentile(99.9); }

  int sub_bucket_bits() const noexcept { return bits_; }
  std::size_t num_buckets() const noexcept { return counts_.size(); }

  /// Layout hooks (exposed for tests): the bucket a value lands in, and
  /// the inclusive [lower, upper] value range of a bucket.
  static std::size_t bucket_index(std::int64_t value, int sub_bucket_bits);
  static std::pair<std::int64_t, std::int64_t> bucket_range(std::size_t index,
                                                            int sub_bucket_bits);

 private:
  int bits_;
  std::vector<std::uint64_t> counts_;  ///< grown lazily to the max bucket
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace rdcn
