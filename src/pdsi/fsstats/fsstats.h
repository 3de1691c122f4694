// fsstats — file-system-at-rest survey (§3.2.2, Fig. 3; Dayal,
// CMU-PDL-08-109). The CMU/Panasas fsstats tool walked production file
// systems and published static statistics: counts and CDFs of file size,
// directory size, filename length, etc. This module provides
//  * the survey itself (over synthetic populations or a real directory),
//  * population models calibrated to the published HEC survey shapes
//    (lognormal body with a heavy power-law tail; most files small, most
//    bytes in few huge files), and
//  * CDF emission matching the Fig. 3 presentation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/common/stats.h"

namespace pdsi::fsstats {

struct FileRecord {
  std::uint64_t size = 0;
  std::uint32_t directory = 0;
  std::uint16_t name_length = 0;
};

/// One surveyed file system.
struct Survey {
  std::string name;
  std::vector<FileRecord> files;

  std::uint64_t total_bytes() const;
  std::size_t file_count() const { return files.size(); }

  /// CDF over file count by size.
  std::vector<CdfPoint> size_cdf() const;
  /// CDF over *bytes* by file size (where the capacity lives).
  std::vector<CdfPoint> bytes_by_size_cdf() const;

  /// Fraction of files at or below `size` bytes.
  double fraction_below(std::uint64_t size) const;
};

/// Parameters of the synthetic population: mixture of a lognormal body
/// and a Pareto tail, matching the published finding that the median HEC
/// file is tens of KB while most bytes sit in GB-scale files.
struct PopulationParams {
  std::string name = "hec-fs";
  std::size_t file_count = 100000;
  double lognormal_mu = std::log(32.0 * 1024);  ///< median ~32 KiB
  double lognormal_sigma = 2.2;
  double tail_fraction = 0.02;    ///< fraction of files drawn from the tail
  double tail_min = 64.0 * 1024 * 1024;
  double tail_alpha = 1.1;
  double mean_dir_files = 64.0;   ///< geometric directory occupancy
};

Survey GeneratePopulation(const PopulationParams& params, Rng& rng);

/// The eleven non-archival production file systems of Fig. 3, with
/// per-site variations (scratch vs project vs home shapes).
std::vector<PopulationParams> Fig3Populations();

/// Surveys a real directory tree (the actual fsstats use case).
Survey SurveyDirectory(const std::string& root);

}  // namespace pdsi::fsstats
