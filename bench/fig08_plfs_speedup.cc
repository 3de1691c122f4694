// Fig. 8 — PLFS checkpoint speedups on SciDAC applications.
//
// Paper: "order of magnitude speedup to the Chombo benchmark and two
// orders of magnitude to the FLASH benchmark. Moreover, LANL production
// applications see speedups of 5X to 28X"; demonstrated on PanFS, Lustre
// and GPFS. Here every paper app model runs on all three file-system
// personalities, directly vs through PLFS.
//
// Shape gate (exit 1, reason on stderr): on each personality FLASH-io's
// speedup is greater than Chombo's, and Chombo's is greater than 1.
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/config.h"
#include "pdsi/workload/driver.h"

using namespace pdsi;

int main(int argc, char** argv) {
  bench::Header("Fig. 8: PLFS vs direct N-1 checkpoint bandwidth",
                "Chombo ~10x, FLASH ~100x, LANL apps 5-28x; gains on "
                "PanFS, Lustre and GPFS alike");
  // With --trace <path>, the first (PanFS-like, FLASH-io) *direct* run of
  // the app table is traced — the N-1 lock-convoy case the profile and
  // critical path explain; one run per file keeps its tracks unambiguous.
  // --profile additionally aggregates that run into a BENCH_ profile line.
  bench::BenchObs trace(bench::TraceFlag(argc, argv),
                        bench::ProfileFlag(argc, argv), "fig08_plfs_speedup");
  bool traced = false;

  constexpr std::uint32_t kRanks = 64;
  const std::vector<pfs::PfsConfig> systems = {
      pfs::PfsConfig::PanFsLike(8),
      pfs::PfsConfig::LustreLike(8),
      pfs::PfsConfig::GpfsLike(8),
  };

  std::string broken;  // the personalities the shape gate rejects
  for (const auto& cfg : systems) {
    PrintBanner(std::cout, cfg.name + " (" + std::to_string(cfg.num_oss) +
                               " OSS, " + std::to_string(kRanks) + " ranks)");
    bench::Report t("fig08_plfs_speedup",
                    {{"", "system"}, {"app", "app"}, {"pattern", ""}, {"record", "", FormatBytes},
                     {"direct", "direct_mbs", FormatRate, 1e6},
                     {"plfs", "plfs_mbs", FormatRate, 1e6},
                     {"speedup", "speedup", bench::Fixed(1, "x")}, {"paper", ""}});
    double flash = 0.0, chombo = 0.0;
    for (const auto& app : workload::PaperApps(kRanks)) {
      obs::Context* ctx = traced ? nullptr : trace.ctx();
      traced = traced || ctx != nullptr;
      const auto direct =
          workload::RunDirectCheckpoint(cfg, app.spec, nullptr, ctx);
      const auto plfs = workload::RunPlfsCheckpoint(cfg, app.spec);
      const double speedup = direct.seconds / plfs.seconds;
      t.row({cfg.name, app.name, std::string(workload::PatternName(app.spec.pattern)),
             app.spec.record_bytes, direct.bandwidth(), plfs.bandwidth(), speedup,
             "~" + FormatDouble(app.paper_speedup, 0) + "x"});
      if (app.name == "FLASH-io") flash = speedup;
      if (app.name == "Chombo") chombo = speedup;
    }
    t.print();
    if (!(flash > chombo && chombo > 1.0)) broken += " " + cfg.name;
  }

  // Speedup vs scale on one app model: with the server count fixed, both
  // paths are disk-array-bound and the ratio is roughly scale-invariant;
  // the absolute time saved per checkpoint grows linearly with ranks.
  PrintBanner(std::cout, "speedup vs rank count (LANL-app-A on panfs-like)");
  {
    bench::Report t("fig08_plfs_speedup",
                    {{"", "scale_app"}, {"ranks", "ranks", bench::Fixed(0)},
                     {"direct", "", FormatRate}, {"plfs", "", FormatRate},
                     {"speedup", "speedup", bench::Fixed(1, "x")}});
    for (std::uint32_t ranks : {16u, 32u, 64u, 128u}) {
      workload::CheckpointSpec spec{workload::Pattern::n1_strided, ranks,
                                    47 * KiB, 64};
      const auto cfg = pfs::PfsConfig::PanFsLike(8);
      const auto direct = workload::RunDirectCheckpoint(cfg, spec);
      const auto plfs = workload::RunPlfsCheckpoint(cfg, spec);
      t.row({"lanl-app-a", ranks, direct.bandwidth(), plfs.bandwidth(),
             direct.seconds / plfs.seconds});
    }
    t.print();
  }

  bench::Note(
      "shape check: FLASH-like tiny records gain the most, larger-record "
      "apps gain less, N-1 segmented (S3D) gains least; ordering should "
      "match the paper even though absolute MB/s reflects the simulated "
      "substrate. Mid-size-record speedups are compressed ~2-4x against the "
      "paper's production numbers (thousands of ranks, hundreds of OSS); "
      "see EXPERIMENTS.md.");
  if (!broken.empty()) {
    std::cerr << "fig08_plfs_speedup: FAILED (FLASH-io > Chombo > 1 does not "
                 "hold on" << broken << ")\n";
    return 1;
  }
  return 0;
}
