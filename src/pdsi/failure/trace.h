// Synthetic failure traces calibrated to the published analyses of the
// LANL data (Schroeder & Gibson, FAST'07 / DSN'06):
//  * time-between-failure is well fit by a Weibull with shape < 1
//    (decreasing hazard; Poisson models underestimate burstiness);
//  * disk replacement rates show no infant-mortality bathtub — they grow
//    steadily with deployment age;
//  * enterprise and nearline drives replace at similar rates;
//  * node failure counts are roughly linear in the number of processor
//    chips.
// The generator produces traces embodying these properties; the analysis
// functions re-derive them, so the whole Fig. 3.3 pipeline is testable.
#pragma once

#include <cstdint>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/common/stats.h"

namespace pdsi::failure {

enum class FailureClass { hardware, software, network, environment, unknown };

struct FailureEvent {
  double time;              ///< seconds since system deployment
  std::uint32_t node;
  FailureClass what;
  double repair_seconds;
};

struct SystemTraceParams {
  std::uint32_t nodes = 1024;
  std::uint32_t chips_per_node = 2;
  double years = 5.0;
  /// Mean interrupts per chip-year (LANL analysis: ~0.1-0.7 depending on
  /// system class; Fig. 4 uses an optimistic 0.1).
  double interrupts_per_chip_year = 0.25;
  /// Weibull shape for time-between-failure (FAST'07: 0.7-0.8).
  double tbf_weibull_shape = 0.75;
  /// Drive-ageing effect: hazard multiplier per deployed year (no infant
  /// mortality; replacement rate grows with age).
  double ageing_per_year = 1.12;
  /// Lognormal repair time parameters (median ~1.5 h, heavy tail).
  double repair_mu = std::log(5400.0);
  double repair_sigma = 1.0;
  /// Correlated follow-up failures: after each event, another strikes
  /// with this probability within ~burst_mean_gap (LANL analysis found
  /// strong short-range correlation; this is what gives the *system-wide*
  /// time-between-failure its decreasing-hazard Weibull shape — pooled
  /// independent renewals alone would look Poisson).
  double burst_probability = 0.3;
  double burst_mean_gap = 2.0 * 3600.0;
};

/// Generates a whole-system failure trace, sorted by time.
std::vector<FailureEvent> GenerateTrace(const SystemTraceParams& params, Rng& rng);

/// Events per node-year within each deployment year — the "replacement
/// rate vs age" series that refutes the bathtub model.
std::vector<double> AnnualRatePerNode(const std::vector<FailureEvent>& trace,
                                      const SystemTraceParams& params);

/// Weibull fit of the system-wide time-between-failure sequence.
WeibullFit FitTimeBetweenFailures(const std::vector<FailureEvent>& trace);

}  // namespace pdsi::failure
