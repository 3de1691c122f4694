#include "pdsi/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pdsi {

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> samples) {
  std::vector<CdfPoint> cdf;
  if (samples.empty()) return cdf;
  std::sort(samples.begin(), samples.end());
  cdf.reserve(samples.size());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Collapse duplicates: keep the last (highest fraction) point per value.
    if (!cdf.empty() && cdf.back().value == samples[i]) {
      cdf.back().fraction = static_cast<double>(i + 1) / n;
    } else {
      cdf.push_back({samples[i], static_cast<double>(i + 1) / n});
    }
  }
  return cdf;
}

double CdfAt(const std::vector<CdfPoint>& cdf, double value) {
  if (cdf.empty()) return 0.0;
  auto it = std::upper_bound(cdf.begin(), cdf.end(), value,
                             [](double v, const CdfPoint& p) { return v < p.value; });
  if (it == cdf.begin()) return 0.0;
  return (it - 1)->fraction;
}

LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("FitLinear requires two equal-length series");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit{};
  fit.slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double sst = syy - sy * sy / n;
  double sse = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.intercept + fit.slope * x[i]);
    sse += r * r;
  }
  fit.r2 = sst > 0.0 ? 1.0 - sse / sst : 1.0;
  return fit;
}

WeibullFit FitWeibull(const std::vector<double>& samples) {
  WeibullFit fit{1.0, 1.0, false};
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (double s : samples) {
    if (s > 0.0) xs.push_back(s);
  }
  if (xs.size() < 3) return fit;

  const double n = static_cast<double>(xs.size());
  double sum_log = 0.0;
  for (double x : xs) sum_log += std::log(x);
  const double mean_log = sum_log / n;

  // Profile-likelihood equation in the shape k:
  //   g(k) = sum(x^k log x)/sum(x^k) - 1/k - mean(log x) = 0
  double k = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (double x : xs) {
      const double xk = std::pow(x, k);
      const double lx = std::log(x);
      s0 += xk;
      s1 += xk * lx;
      s2 += xk * lx * lx;
    }
    const double g = s1 / s0 - 1.0 / k - mean_log;
    const double gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    const double step = g / gp;
    k -= step;
    if (k <= 1e-6) k = 1e-6;
    if (std::abs(step) < 1e-10) {
      fit.converged = true;
      break;
    }
  }
  double s0 = 0.0;
  for (double x : xs) s0 += std::pow(x, k);
  fit.shape = k;
  fit.scale = std::pow(s0 / n, 1.0 / k);
  return fit;
}

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace pdsi
