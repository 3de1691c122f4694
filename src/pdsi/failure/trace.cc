#include "pdsi/failure/trace.h"

#include <algorithm>
#include <cmath>

#include "pdsi/common/units.h"

namespace pdsi::failure {

std::vector<FailureEvent> GenerateTrace(const SystemTraceParams& params, Rng& rng) {
  std::vector<FailureEvent> trace;
  const double total = params.years * kYear;
  const double base_rate_per_node =
      params.interrupts_per_chip_year * params.chips_per_node / kYear;

  for (std::uint32_t node = 0; node < params.nodes; ++node) {
    Rng node_rng = rng.fork();
    double t = 0.0;
    while (true) {
      // Weibull renewal process whose scale is adjusted so the *current*
      // ageing-scaled rate is honoured; ageing multiplies the hazard as
      // the system grows old (no infant-mortality bathtub).
      const double age_years = t / kYear;
      const double rate =
          base_rate_per_node * std::pow(params.ageing_per_year, age_years);
      // Weibull with mean 1/rate: scale = 1 / (rate * Gamma(1 + 1/shape)).
      const double gamma_term = std::tgamma(1.0 + 1.0 / params.tbf_weibull_shape);
      const double scale = 1.0 / (rate * gamma_term);
      t += node_rng.weibull(params.tbf_weibull_shape, scale);
      if (t >= total) break;
      FailureEvent e;
      e.time = t;
      e.node = node;
      const double u = node_rng.uniform();
      e.what = u < 0.55   ? FailureClass::hardware
               : u < 0.85 ? FailureClass::software
               : u < 0.93 ? FailureClass::network
               : u < 0.97 ? FailureClass::environment
                          : FailureClass::unknown;
      e.repair_seconds = node_rng.lognormal(params.repair_mu, params.repair_sigma);
      trace.push_back(e);

      // Correlated follow-ups (bounded chain).
      double ft = t;
      for (int chain = 0; chain < 4; ++chain) {
        if (!node_rng.chance(params.burst_probability)) break;
        ft += node_rng.exponential(params.burst_mean_gap);
        if (ft >= total) break;
        FailureEvent f = e;
        f.time = ft;
        f.repair_seconds =
            node_rng.lognormal(params.repair_mu, params.repair_sigma);
        trace.push_back(f);
      }
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const FailureEvent& a, const FailureEvent& b) { return a.time < b.time; });
  return trace;
}

std::vector<double> AnnualRatePerNode(const std::vector<FailureEvent>& trace,
                                      const SystemTraceParams& params) {
  std::vector<double> rates(static_cast<std::size_t>(std::ceil(params.years)), 0.0);
  for (const auto& e : trace) {
    const std::size_t year = static_cast<std::size_t>(e.time / kYear);
    if (year < rates.size()) rates[year] += 1.0;
  }
  for (auto& r : rates) r /= params.nodes;
  return rates;
}

WeibullFit FitTimeBetweenFailures(const std::vector<FailureEvent>& trace) {
  std::vector<double> gaps;
  gaps.reserve(trace.size());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace[i].time - trace[i - 1].time;
    if (dt > 0) gaps.push_back(dt);
  }
  return FitWeibull(gaps);
}

}  // namespace pdsi::failure
