#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace asap {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::population_variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::population_stddev() const {
  return std::sqrt(population_variance());
}

double percentile_sorted(std::span<const double> sorted, double q) {
  ASAP_REQUIRE(!sorted.empty(), "percentile of empty sample set");
  ASAP_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double percentile_in_place(std::span<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double percentile(std::vector<double> samples, double q) {
  return percentile_in_place(samples, q);
}

}  // namespace asap
