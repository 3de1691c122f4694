// The benchmark's three seeded workloads. Each round builds a fresh
// simulated system from the seed (set-up), runs the measured phase, then
// checks the outputs and reports:
//   * virtual metrics — the modelled storage system's numbers, which must
//     repeat bit-exactly across rounds, seeds held fixed, traced or not;
//   * in traced rounds, per-layer samples and values from the benchmark's
//     own spans and the counters the library exposes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct RoundResult {
  std::uint64_t ops = 0;     ///< workload calls into the library's API
  std::uint64_t failed = 0;  ///< calls that returned a non-ok status
  std::vector<std::string> errors;     ///< output-check failures
  std::map<std::string, double> virt;  ///< virtual-time metrics
  std::uint64_t virt_op_samples = 0;   ///< calls behind virt_op_p50/p99_ms
  // Traced rounds only.
  std::map<std::string, std::vector<double>> samples;  ///< per-call samples
  std::map<std::string, double> values;                ///< per-layer values
  std::vector<Span> spans;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and builds the simulated system; rank threads
  /// are started and parked. Timed as set-up.
  virtual void setup() = 0;
  /// The measured phase.
  virtual void run() = 0;
  /// Output checks and metrics; called once after run().
  virtual RoundResult collect() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool traced);

}  // namespace perfbench
