#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace rdcn {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) noexcept { return next_double() < p; }

std::uint64_t Rng::next_poisson(double mean) noexcept {
  assert(mean >= 0);
  if (mean <= 0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = next_double();
    while (product > limit) {
      ++k;
      product *= next_double();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for workload
  // generation at high arrival rates.
  const double u1 = next_double();
  const double u2 = next_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
  const double value = mean + std::sqrt(mean) * z + 0.5;
  return value <= 0 ? 0 : static_cast<std::uint64_t>(value);
}

double Rng::next_pareto(double x_m, double alpha) noexcept {
  assert(x_m > 0 && alpha > 0);
  double u = next_double();
  if (u >= 1.0) u = 0.9999999999999999;
  return x_m / std::pow(1.0 - u, 1.0 / alpha);
}

Rng Rng::fork(std::uint64_t index) const noexcept {
  std::uint64_t sm = seed_ ^ (0xd1342543de82ef95ULL * (index + 1));
  return Rng(splitmix64(sm));
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : exponent_(exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& value : cdf_) value /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.next_double();
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace rdcn
