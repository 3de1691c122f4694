// Streaming and batch statistics used by every benchmark harness:
// online mean/variance, percentile extraction, empirical CDFs, and
// least-squares fits for the failure-analysis module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pdsi {

/// Welford online accumulator: numerically stable mean/variance plus
/// min/max, suitable for billions of samples.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  void merge(const OnlineStats& other);

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of a sample set with linear interpolation; q in [0, 1].
/// Copies the input (callers usually want the data intact for CDFs).
double Percentile(std::vector<double> samples, double q);

/// Empirical CDF: sorted (value, cumulative fraction) points.
struct CdfPoint {
  double value;
  double fraction;
};

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> samples);

/// Evaluate an empirical CDF at a value (fraction of samples <= value).
double CdfAt(const std::vector<CdfPoint>& cdf, double value);

/// Simple linear regression y = a + b*x; returns {a, b, r2}.
struct LinearFit {
  double intercept;
  double slope;
  double r2;
};

LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y);

/// Weibull(shape, scale) fit by maximum likelihood (Newton on the shape
/// profile equation). Used to re-derive the FAST'07 finding that disk
/// replacement inter-arrivals have shape < 1 (decreasing hazard).
struct WeibullFit {
  double shape;
  double scale;
  bool converged;
};

WeibullFit FitWeibull(const std::vector<double>& samples);

/// Format helper: fixed decimals, e.g. FormatDouble(3.14159, 2) == "3.14".
std::string FormatDouble(double v, int decimals);

}  // namespace pdsi
