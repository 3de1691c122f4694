// Checkpoint driver: runs a CheckpointSpec against the simulated parallel
// file system, either writing directly (the baseline the paper's Fig. 8
// measures against) or through PLFS middleware, and reports virtual-time
// bandwidth. Optionally captures a write trace for Ninjat.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pdsi/obs/obs.h"
#include "pdsi/pfs/config.h"
#include "pdsi/plfs/options.h"
#include "pdsi/workload/patterns.h"

namespace pdsi::workload {

/// One traced write, in virtual time (Ninjat input; PLFS's "maps" traces).
struct TraceEvent {
  std::uint32_t rank;
  double start;
  double end;
  std::uint64_t offset;
  std::uint64_t length;
};

/// A captured run's events, ordered by (start, rank, offset): ranks
/// finish in a different order every run, so the driver sorts after the
/// join and two runs of one spec yield identical traces.
using WriteTrace = std::vector<TraceEvent>;

struct CheckpointResult {
  double seconds = 0.0;        ///< barrier-to-barrier virtual time
  std::uint64_t bytes = 0;     ///< payload written
  double bandwidth() const { return seconds > 0 ? static_cast<double>(bytes) / seconds : 0.0; }
};

/// Direct writes through PfsClient (what the unmodified application does).
/// When `trace` is non-null, one event per write is added to it and the
/// whole trace is left in WriteTrace order. `obs` (optional, must outlive the call) observes the
/// whole run: PFS server spans plus per-rank client activity.
CheckpointResult RunDirectCheckpoint(const pfs::PfsConfig& cfg,
                                     const CheckpointSpec& spec,
                                     WriteTrace* trace = nullptr,
                                     obs::Context* obs = nullptr);

/// The same logical writes routed through PLFS containers.
CheckpointResult RunPlfsCheckpoint(const pfs::PfsConfig& cfg,
                                   const CheckpointSpec& spec,
                                   const plfs::Options& options = {},
                                   WriteTrace* trace = nullptr,
                                   obs::Context* obs = nullptr);

/// Reads the whole logical file back N-way after a PLFS checkpoint
/// (restart path); returns the read phase result.
struct PlfsRoundTripResult {
  CheckpointResult write;
  CheckpointResult read;
};
PlfsRoundTripResult RunPlfsRoundTrip(const pfs::PfsConfig& cfg,
                                     const CheckpointSpec& spec,
                                     const plfs::Options& options = {},
                                     obs::Context* obs = nullptr);

}  // namespace pdsi::workload
