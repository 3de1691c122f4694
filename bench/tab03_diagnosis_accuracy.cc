// §4.2.6 — diagnosis accuracy on a 20-server PVFS-like cluster.
//
// Paper: "at least 66% correct identification of a server suffering
// under an injected fault and essentially no falsely indicated servers"
// (iozone workload, injected hog / blocked-resource faults). Runs many
// trials per fault kind with varying seeds and fault locations.
//
// One BENCH row per fault kind: trials, detected, correct, false_alarms
// and median_windows_to_detect (absent when nothing was identified).
//
// Shape gate (exit 1, reason on stderr): every injected fault kind is
// identified correctly in at least 2/3 of its trials, and the healthy
// row (fault=none) indicts no server.
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/diagnosis/diagnosis.h"

using namespace pdsi;
using diagnosis::ExperimentParams;
using diagnosis::FaultKind;

int main() {
  bench::Header("Table: fault diagnosis accuracy (20-server cluster)",
                ">= 66% correct identification, ~0 false indictments");

  constexpr int kTrials = 8;
  bench::Report t("tab03_diagnosis_accuracy",
                  {{"fault", "fault"}, {"trials", "trials"}, {"detected", "detected"},
                   {"correct", "correct"}, {"false alarms", "false_alarms"},
                   {"median windows-to-detect", "median_windows_to_detect",
                    bench::Fixed(1)}});
  int healthy_false = 0;
  std::string broken;  // the rows the shape gate rejects
  for (FaultKind kind : {FaultKind::disk_hog, FaultKind::network_loss,
                         FaultKind::cpu_hog, FaultKind::none}) {
    int detected = 0, correct = 0, false_alarm = 0;
    std::vector<double> latencies;
    for (int trial = 0; trial < kTrials; ++trial) {
      ExperimentParams p;
      p.servers = 20;
      p.clients = 16;
      p.windows = 20;
      p.fault = kind;
      p.faulty_server = static_cast<std::uint32_t>((trial * 7 + 3) % p.servers);
      p.severity = 3.0 + trial % 3;
      p.seed = 1000 + trial;
      const auto r = diagnosis::RunDiagnosisExperiment(p);
      detected += r.any_indictment;
      correct += r.correct;
      false_alarm += r.false_alarm;
      if (r.correct) latencies.push_back(r.windows_to_detect);
    }
    if (kind == FaultKind::none) healthy_false = detected;
    if (kind == FaultKind::none ? detected != 0 : 3 * correct < 2 * kTrials) {
      broken += ' ';
      broken += diagnosis::FaultKindName(kind);
    }
    t.row({std::string(diagnosis::FaultKindName(kind)), kTrials, detected, correct,
           false_alarm,
           latencies.empty() ? bench::Cell("-") : bench::Value(Percentile(latencies, 0.5))});
  }
  t.print();
  bench::Note("shape check: correct >= 2/3 of trials per fault kind; the "
              "healthy row (fault=none) shows " +
              std::to_string(healthy_false) + " false indictments.");
  if (!broken.empty()) {
    std::cerr << "tab03_diagnosis_accuracy: FAILED (a fault kind correct in "
                 "under 2/3 of its trials, or a detection on none:"
              << broken << ")\n";
    return 1;
  }
  return 0;
}
