// Automatic diagnosis of performance problems in a parallel file system
// (§4.2.6; Kasick HotDep'09). Premise: in a homogeneous PVFS cluster the
// servers see statistically similar load, so a faulty server manifests as
// the odd one out. The diagnoser samples commonly available per-server
// metrics (throughput, latency), computes pairwise dissimilarity over a
// window, and indicts a server whose metrics persistently diverge from
// its peers. Evaluated with injected faults (rogue "hog" processes,
// lossy/blocked resources); the report quotes >= 66% correct
// identification with essentially no false indictments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pdsi/pfs/oss.h"

namespace pdsi::diagnosis {

/// One sampling window's worth of per-server observations.
struct MetricSample {
  double ops_per_s = 0.0;
  double bytes_per_s = 0.0;
  double mean_latency_s = 0.0;
};

/// Detector tuning.
struct DiagnoserOptions {
  /// A server is suspicious in a window when its distance from the peer
  /// median exceeds `threshold` times the peer spread.
  double threshold = 3.0;
  /// Windows of persistent suspicion required to indict.
  std::uint32_t persistence = 3;
  /// Initial windows used only to learn "normal" (startup transients of
  /// a fresh workload are not representative).
  std::uint32_t warmup_windows = 4;
};

/// Peer-comparison detector over a sliding history of windows.
class PeerDiagnoser {
 public:
  explicit PeerDiagnoser(std::uint32_t num_servers,
                         DiagnoserOptions opts = DiagnoserOptions());

  /// Feeds one window of samples (one per server); returns the indicted
  /// server for this window, if any.
  std::optional<std::uint32_t> observe(const std::vector<MetricSample>& window);

  /// Cumulative per-server indictment counts.
  const std::vector<std::uint32_t>& indictments() const { return indictments_; }

 private:
  double deviation(const std::vector<double>& values, std::uint32_t server) const;

  DiagnoserOptions opts_;
  std::uint64_t windows_seen_ = 0;
  std::vector<std::uint32_t> suspicion_;    ///< consecutive suspicious windows
  std::vector<std::uint32_t> indictments_;
};

/// Fault types from the evaluation.
enum class FaultKind {
  none,
  disk_hog,     ///< rogue process stealing disk time
  network_loss, ///< lossy/blocked network resource
  cpu_hog,      ///< runaway consumer of server CPU
};

std::string_view FaultKindName(FaultKind k);

/// Experiment harness: runs an iozone-like workload over a PVFS-like
/// cluster whose fault::FaultInjector slows `faulty_server` by `fault`
/// from the start of the middle window on, samples windows, and reports
/// what the diagnoser concluded.
struct ExperimentParams {
  std::uint32_t servers = 20;
  std::uint32_t clients = 16;
  std::uint32_t windows = 24;
  double window_s = 2.0;
  FaultKind fault = FaultKind::none;
  std::uint32_t faulty_server = 7;
  double severity = 3.0;  ///< service-time multiplier of the fault
  std::uint64_t seed = 1;
};

struct ExperimentResult {
  bool any_indictment = false;
  std::uint32_t indicted_server = 0;   ///< valid when any_indictment
  bool correct = false;                ///< indicted the injected server
  bool false_alarm = false;            ///< indicted a healthy server
  std::uint32_t windows_to_detect = 0;
};

ExperimentResult RunDiagnosisExperiment(const ExperimentParams& params);

}  // namespace pdsi::diagnosis
