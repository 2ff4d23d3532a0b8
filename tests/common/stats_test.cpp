#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // m2 = 32 over 8 samples: sample variance 32/7, population 32/8.
  EXPECT_DOUBLE_EQ(s.variance(), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(32.0 / 7.0));
  EXPECT_DOUBLE_EQ(s.population_variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.population_stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.14);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.population_variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats whole, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(10, 4);
    whole.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  const double offset = 1e9;
  for (double x : {offset + 1, offset + 2, offset + 3}) s.add(x);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
  EXPECT_NEAR(s.population_variance(), 2.0 / 3.0, 1e-6);
}

TEST(Percentile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);  // interpolation
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  EXPECT_THROW(percentile({}, 0.5), ConfigError);
  EXPECT_THROW(percentile({1.0}, -0.1), ConfigError);
  EXPECT_THROW(percentile({1.0}, 1.1), ConfigError);
}

TEST(Percentile, SpanVariantsAgreeWithByValueForm) {
  // The allocation-free variants (ISSUE 6) must compute the same
  // quantiles as the sort-a-copy convenience form.
  std::vector<double> unsorted{5, 1, 4, 2, 3};
  for (const double q : {0.0, 0.125, 0.25, 0.5, 0.75, 1.0}) {
    std::vector<double> scratch = unsorted;
    EXPECT_DOUBLE_EQ(percentile_in_place(scratch, q), percentile(unsorted, q));
  }
  // percentile_in_place leaves the span ascending-sorted, ready for
  // repeated percentile_sorted reads without re-sorting.
  std::vector<double> scratch = unsorted;
  percentile_in_place(scratch, 0.5);
  EXPECT_TRUE(std::is_sorted(scratch.begin(), scratch.end()));
  EXPECT_DOUBLE_EQ(percentile_sorted(scratch, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(scratch, 0.125), 1.5);
}

TEST(Percentile, SpanVariantsRejectEmptyAndBadQuantile) {
  std::vector<double> one{1.0};
  EXPECT_THROW(percentile_sorted({}, 0.5), ConfigError);
  EXPECT_THROW(percentile_in_place(std::span<double>{}, 0.5), ConfigError);
  EXPECT_THROW(percentile_sorted(one, -0.1), ConfigError);
  EXPECT_THROW(percentile_in_place(one, 1.1), ConfigError);
}

}  // namespace
}  // namespace asap
