// hdf5lite — a miniature parallel hierarchical-format library over the
// simulated PFS, built to reproduce the NERSC/HDF-Group tuning study
// (§5.2.1, Fig. 13).
//
// A parallel "HDF5-style" dump has three performance sins on Lustre-like
// systems, each of which the study removed with one optimisation:
//  * every rank writes many small unaligned records (fix: collective
//    buffering — two-phase aggregation into large contiguous buffers),
//  * dataset regions straddle stripe/lock boundaries (fix: alignment),
//  * object headers and attributes are updated eagerly at the file front
//    by every rank, ping-ponging one lock unit (fix: metadata
//    coalescing — defer and flush once at close).
// The optimisations are independent toggles so the Fig. 13 cumulative
// bars can be regenerated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdsi/pfs/config.h"

namespace pdsi::hdf5lite {

struct H5Options {
  bool collective_buffering = false;
  std::uint64_t cb_buffer_bytes = 4 * MiB;
  bool align_to_stripe = false;
  bool metadata_coalescing = false;
};

/// What one dump writes. `record_bytes` is the application's natural
/// write granularity (a variable's slab, an AMR box row, ...).
struct DumpSpec {
  std::string name = "dataset";
  std::uint32_t ranks = 64;
  std::uint64_t record_bytes = 48 * 1024;
  std::uint32_t records_per_rank = 64;
  /// Metadata updates issued per rank during the dump (attributes, object
  /// headers); each is a ~256 B write near the file front.
  std::uint32_t metadata_updates_per_rank = 16;
  /// Irregular layouts (Chombo AMR) vary record sizes so nothing
  /// aligns even when the region start does.
  bool irregular = false;

  std::uint64_t bytes_per_rank() const {
    return record_bytes * records_per_rank;
  }
  std::uint64_t total_bytes() const {
    return bytes_per_rank() * ranks;
  }
};

struct DumpResult {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  double bandwidth() const {
    return seconds > 0 ? static_cast<double>(bytes) / seconds : 0.0;
  }
};

/// Runs one parallel dump through the simulated PFS with the given
/// optimisation set.
DumpResult RunDump(const pfs::PfsConfig& cfg, const DumpSpec& spec,
                   const H5Options& options);

/// The Fig. 13 application models (record shapes scaled to `ranks`).
DumpSpec ChomboSpec(std::uint32_t ranks);
DumpSpec GcrmSpec(std::uint32_t ranks);

}  // namespace pdsi::hdf5lite
