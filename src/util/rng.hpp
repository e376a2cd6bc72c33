#pragma once

// Deterministic, seedable random number generation for reproducible
// experiments. We ship our own generator (xoshiro256**, seeded via
// splitmix64) instead of std::mt19937 so that streams are identical across
// standard library implementations, which matters when goldens and
// benches pin exact simulated numbers.

#include <cstdint>
#include <vector>

namespace rdcn {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** — fast, high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound) via Lemire rejection; bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) noexcept;

  /// Poisson-distributed count with given mean (Knuth for small means,
  /// normal approximation for large ones).
  std::uint64_t next_poisson(double mean) noexcept;

  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double next_pareto(double x_m, double alpha) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derive an independent child stream (for per-task RNGs in parallel
  /// sweeps): deterministic function of the parent seed and the index.
  Rng fork(std::uint64_t index) const noexcept;

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;
};

/// Discrete Zipf(s) sampler over {0, ..., n-1} with exponent s >= 0,
/// P(k) proportional to 1/(k+1)^s. Precomputes the CDF; O(log n) sampling.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t sample(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }
  double exponent() const noexcept { return exponent_; }

 private:
  std::vector<double> cdf_;
  double exponent_;
};

}  // namespace rdcn
