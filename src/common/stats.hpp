// Streaming and batch statistics used by the metrics collectors.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace asap {

/// Numerically stable streaming mean/variance (Welford), plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Bessel-corrected sample variance (denominator n-1) — the unbiased
  /// estimator appropriate when the samples are trials drawn from a wider
  /// population, which is how the matrix runner summarizes per-trial metrics.
  /// 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  /// Population variance (denominator n), for when the samples ARE the
  /// whole population — e.g. every per-second bucket of a load series.
  double population_variance() const;
  double population_stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile of an ALREADY ASCENDING-SORTED sample span (q in
/// [0,1], linear interpolation). The allocation-free core: sort once,
/// then read as many quantiles as needed.
double percentile_sorted(std::span<const double> sorted, double q);

/// Sorts `samples` in place (ascending) and returns the percentile.
/// Callers that own a scratch buffer use this to avoid the copy; repeated
/// quantiles of the same data should sort once and use percentile_sorted.
double percentile_in_place(std::span<double> samples, double q);

/// Exact percentile of a sample vector (q in [0,1], linear interpolation).
/// Sorts a copy; convenience form for call sites where the copy is cold
/// (one-shot reporting). Hot paths use the span variants above.
double percentile(std::vector<double> samples, double q);

}  // namespace asap
