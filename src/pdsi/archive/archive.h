// Tape archive media verification (§5.2.3, NERSC).
//
// NERSC read 23,820 enterprise cartridges end-to-end while migrating
// 5+ PB: 13 tapes had unreadable data (99.945% full-read probability),
// and the worst tapes needed 3-5 read passes before their data came
// back. The model: each cartridge has per-GB soft-error rates that grow
// with media age; a verification appliance reads each tape once (like
// the Crossroads appliance), flagging suspects; the migration process
// retries suspect tapes several times, recovering data whose errors are
// transient. Permanently bad spots defeat all passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdsi/common/rng.h"

namespace pdsi::archive {

struct MediaClass {
  std::string name;
  std::uint32_t count = 1000;
  double capacity_gb = 300.0;
  double age_years = 2.0;
  /// Per-GB probability of a *transient* read error on one pass (dirty
  /// head, tracking, servo), growing with age.
  double soft_error_per_gb = 2e-5;
  /// Per-tape probability of a *permanent* defect (unrecoverable data).
  double permanent_defect_per_tape = 4e-4;
  double ageing_per_year = 1.25;
};

struct Cartridge {
  std::uint32_t media_class = 0;
  bool permanently_bad = false;   ///< some region unrecoverable
  double pass_failure_p = 0.0;    ///< chance one full-read pass hiccups
};

struct VerificationPolicy {
  std::uint32_t appliance_passes = 1;   ///< the appliance reads once
  std::uint32_t migration_retries = 5;  ///< max rereads for suspects
};

struct VerificationResult {
  std::uint64_t tapes = 0;
  std::uint64_t appliance_suspects = 0;   ///< failed the single-pass check
  std::uint64_t recovered_with_retries = 0;
  std::uint64_t unreadable = 0;           ///< data lost after all passes
  std::vector<std::uint32_t> passes_needed;  ///< per recovered-suspect
  double full_read_probability() const {
    return tapes ? 1.0 - static_cast<double>(unreadable) / tapes : 1.0;
  }
};

/// Builds the cartridge population from media classes.
std::vector<Cartridge> BuildLibrary(const std::vector<MediaClass>& classes, Rng& rng);

/// Runs the verification + migration campaign.
VerificationResult RunVerification(const std::vector<Cartridge>& library,
                                   const VerificationPolicy& policy, Rng& rng);

/// The NERSC media mix (scaled counts preserve the class proportions:
/// 6,859 T10KA up to 2 yrs; 9,155 9940B up to 8 yrs; 7,806 9840A up to
/// 12 yrs).
std::vector<MediaClass> NerscMediaMix();

}  // namespace pdsi::archive
