// Tests for the utility substrate: RNG determinism and distribution
// sanity, summary statistics, table rendering, thread pool, and exact
// rational arithmetic.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "util/rational.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {
namespace {

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextIntCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_int(1, 6));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, DoublesInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, PoissonMeanApproximatelyCorrect) {
  Rng rng(5);
  for (const double mean : {0.5, 3.0, 50.0}) {
    double total = 0.0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) total += static_cast<double>(rng.next_poisson(mean));
    EXPECT_NEAR(total / samples, mean, mean * 0.1 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.next_pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng fork_a = parent.fork(0);
  Rng fork_b = parent.fork(1);
  Rng fork_a_again = Rng(99).fork(0);
  EXPECT_EQ(fork_a.next_u64(), fork_a_again.next_u64());
  EXPECT_NE(fork_a.next_u64(), fork_b.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  Rng rng(13);
  ZipfSampler zipf(100, 1.5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 10);  // rank 0 carries a large share
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  Rng rng(14);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

// ----------------------------------------------------------------- stats --

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (double v : {0.0, 10.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

TEST(Summary, EmptyThrowsOnPercentile) {
  Summary s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(GeometricMean, MatchesHandValue) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
}

// ----------------------------------------------------------------- table --

TEST(Table, AsciiAlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("| name   | value |"), std::string::npos);
  EXPECT_NE(ascii.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtFormats) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(static_cast<std::int64_t>(-7)), "-7");
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ThreadPool pool(4);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 10, [&counter](std::size_t) { ++counter; });
  parallel_for(pool, 5, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 15);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

// -------------------------------------------------------------- rational --

TEST(Rational, NormalizesSignAndGcd) {
  const Rational r(6, -4);
  EXPECT_EQ(r.numerator(), -3);
  EXPECT_EQ(r.denominator(), 2);
  EXPECT_EQ(Rational(0, 5), Rational(0));
}

TEST(Rational, Arithmetic) {
  const Rational half(1, 2), third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, ThrowsOnZeroDenominatorAndDivZero) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
  EXPECT_THROW(Rational(1) / Rational(0), std::invalid_argument);
}

TEST(Rational, DetectsOverflow) {
  const Rational huge(INT64_MAX, 1);
  EXPECT_THROW(huge + huge, RationalOverflow);
  EXPECT_THROW(huge * Rational(2), RationalOverflow);
}

TEST(Rational, ExactAccumulationOfChunks) {
  // Sum of 7 chunks of weight 3/7 equals exactly 3 -- the property the
  // exact charging audit relies on.
  Rational total(0);
  for (int i = 0; i < 7; ++i) total += Rational(3, 7);
  EXPECT_EQ(total, Rational(3));
}

TEST(Rational, ToStringAndDouble) {
  EXPECT_EQ(Rational(3, 2).to_string(), "3/2");
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

// -------------------------------------------------------- log histogram --

TEST(LatencyHistogram, ExactRegionBucketsAreSingletons) {
  // With sub_bucket_bits = 5 every value below 2 * 32 = 64 has its own
  // bucket: [v, v].
  for (std::int64_t v : {0, 1, 17, 63}) {
    const std::size_t index = LatencyHistogram::bucket_index(v, 5);
    EXPECT_EQ(index, static_cast<std::size_t>(v));
    const auto [lower, upper] = LatencyHistogram::bucket_range(index, 5);
    EXPECT_EQ(lower, v);
    EXPECT_EQ(upper, v);
  }
}

TEST(LatencyHistogram, BucketBoundariesTileWithoutGaps) {
  // Consecutive buckets cover adjacent, non-overlapping ranges, and every
  // value maps into the bucket whose range contains it.
  for (std::size_t index = 0; index < 300; ++index) {
    const auto [lower, upper] = LatencyHistogram::bucket_range(index, 5);
    EXPECT_LE(lower, upper);
    if (index > 0) {
      EXPECT_EQ(lower, LatencyHistogram::bucket_range(index - 1, 5).second + 1);
    }
    EXPECT_EQ(LatencyHistogram::bucket_index(lower, 5), index);
    EXPECT_EQ(LatencyHistogram::bucket_index(upper, 5), index);
  }
}

TEST(LatencyHistogram, RelativeQuantizationErrorIsBounded) {
  // Octave sub-buckets bound the error by 2^-bits of the true value.
  for (std::int64_t v : {64, 100, 1000, 123456, 99999999}) {
    const auto [lower, upper] = LatencyHistogram::bucket_range(
        LatencyHistogram::bucket_index(v, 5), 5);
    EXPECT_LE(lower, v);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - lower),
              static_cast<double>(v) / 32.0 + 1.0);
  }
}

TEST(LatencyHistogram, SmallSamplePercentilesAreExact) {
  // Values inside the exact region: nearest-rank percentiles equal the
  // exact order statistics.
  LatencyHistogram histogram;
  for (std::int64_t v : {5, 1, 9, 3, 7}) histogram.add(v);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.min(), 1);
  EXPECT_EQ(histogram.max(), 9);
  EXPECT_DOUBLE_EQ(histogram.mean(), 5.0);
  EXPECT_EQ(histogram.percentile(0.0), 1);   // ceil clamps to rank 1
  EXPECT_EQ(histogram.percentile(20.0), 1);  // rank 1
  EXPECT_EQ(histogram.percentile(40.0), 3);  // rank 2
  EXPECT_EQ(histogram.p50(), 5);             // rank 3
  EXPECT_EQ(histogram.percentile(80.0), 7);  // rank 4
  EXPECT_EQ(histogram.percentile(100.0), 9); // rank 5
  EXPECT_EQ(histogram.p999(), 9);
}

TEST(LatencyHistogram, PercentileClampsToObservedMax) {
  LatencyHistogram histogram;
  histogram.add(1000);  // bucket upper bound exceeds the sample
  EXPECT_EQ(histogram.p999(), 1000);
}

TEST(LatencyHistogram, LowQuantilesNeverExceedTheMinimum) {
  // Regression: with coarse buckets, q = 0 used to answer with the first
  // bucket's UPPER bound -- exceeding every recorded sample in it. Bits 0
  // puts 5 into bucket [4, 7]; alongside 1000, p0 must still be exactly 5.
  LatencyHistogram histogram(0);
  histogram.add(5);
  histogram.add(1000);
  EXPECT_EQ(histogram.percentile(0.0), 5);
  EXPECT_EQ(histogram.min(), 5);
  EXPECT_EQ(histogram.percentile(100.0), 1000);
}

TEST(LatencyHistogram, SingleSamplePercentilesAreTheSample) {
  for (const std::int64_t sample :
       {std::int64_t{0}, std::int64_t{6}, std::int64_t{777}, std::int64_t{1} << 33}) {
    LatencyHistogram histogram(2);
    histogram.add(sample);
    for (const double q : {0.0, 17.0, 50.0, 99.9, 100.0}) {
      EXPECT_EQ(histogram.percentile(q), sample) << "q=" << q << " sample=" << sample;
    }
  }
}

TEST(LatencyHistogram, CrossOctaveQuantilesStayInsideTheSampleRange) {
  // Samples spanning several octaves at every sub-bucket resolution: each
  // quantile must land in [min, max] -- the quantized answer may round up
  // within a bucket, never past the observed extremes.
  for (const int bits : {0, 2, 5}) {
    LatencyHistogram histogram(bits);
    for (const std::int64_t v : {3, 17, 150, 4097, 70000}) histogram.add(v);
    for (const double q : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const std::int64_t answer = histogram.percentile(q);
      EXPECT_GE(answer, histogram.min()) << "bits=" << bits << " q=" << q;
      EXPECT_LE(answer, histogram.max()) << "bits=" << bits << " q=" << q;
    }
    EXPECT_EQ(histogram.percentile(0.0), 3) << "bits=" << bits;
    EXPECT_EQ(histogram.percentile(100.0), 70000) << "bits=" << bits;
  }
}

TEST(LatencyHistogram, MergeEqualsCombinedStream) {
  Rng rng(7);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next_below(100000));
    ((i % 2) ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (double q : {1.0, 50.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(a.percentile(q), combined.percentile(q)) << q;
  }
  // Merging an empty histogram is a no-op.
  const std::uint64_t before = a.count();
  a.merge(LatencyHistogram{});
  EXPECT_EQ(a.count(), before);
}

TEST(LatencyHistogram, MergeRejectsMismatchedLayouts) {
  LatencyHistogram a(5), b(6);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencyHistogram, NegativesClampAndEmptyThrows) {
  LatencyHistogram histogram;
  EXPECT_THROW(histogram.percentile(50.0), std::logic_error);
  histogram.add(-5);
  EXPECT_EQ(histogram.min(), 0);
  EXPECT_EQ(histogram.p50(), 0);
}

TEST(LatencyHistogram, BoundedMemoryForHugeValues) {
  LatencyHistogram histogram;
  for (std::int64_t v = 1; v < (std::int64_t{1} << 40); v *= 3) histogram.add(v);
  // ~40 octaves x 32 sub-buckets tops out in the low thousands of buckets.
  EXPECT_LT(histogram.num_buckets(), 2500u);
}

}  // namespace
}  // namespace rdcn
