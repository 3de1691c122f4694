// Fig. 15 — Ninjat visualisations of concurrent writes to a shared file.
//
// Paper: traces captured by PLFS from an anonymous LANL application show
// an N-1 strided pattern; the left image plots each write at (time,
// offset) coloured by rank, the right image wraps the file into a
// rectangle coloured by writer. This bench regenerates both views from a
// simulated trace and prints the ASCII file map (PPMs land in --out-dir,
// defaulting to the directory holding the binary).
#include <iostream>

#include "bench_util.h"
#include "pdsi/ninjat/ninjat.h"
#include "pdsi/pfs/config.h"
#include "pdsi/workload/driver.h"

using namespace pdsi;

int main(int argc, char** argv) {
  bench::Header("Fig. 15: Ninjat views of an N-1 strided checkpoint",
                "strided interleaving visible as repeating rank stripes");
  const std::string out_dir = bench::OutDirFlag(argc, argv);

  workload::CheckpointSpec spec;
  spec.pattern = workload::Pattern::n1_strided;
  spec.ranks = 8;
  spec.record_bytes = 47 * KiB;
  spec.records_per_rank = 16;

  workload::WriteTrace trace;
  workload::RunDirectCheckpoint(pfs::PfsConfig::PanFsLike(4), spec, &trace);
  std::cout << "workload: " << trace.size() << " writes, "
            << FormatBytes(static_cast<double>(spec.total_bytes())) << " total\n";

  const auto time_offset = ninjat::RenderTimeOffset(trace, {800, 400});
  const auto file_map = ninjat::RenderFileMap(trace, spec.total_bytes(), {512, 256});
  const std::string to = out_dir + "/fig15_time_offset.ppm";
  const std::string fm = out_dir + "/fig15_file_map.ppm";
  const bool ppm_ok = time_offset.write_ppm(to).ok() && file_map.write_ppm(fm).ok();
  std::cout << "PPM output: " << (ppm_ok ? to + ", " + fm : "FAILED") << "\n";

  PrintBanner(std::cout, "file map (one char per region, letter = rank)");
  std::cout << ninjat::AsciiFileMap(trace, spec.total_bytes(), 64, 16);
  bench::Note("shape check: rows repeat abcdefgh... — each rank's records "
              "interleave through the whole file (N-1 strided signature).");
  return 0;
}
