#include "pdsi/archive/archive.h"

#include <cmath>

namespace pdsi::archive {

std::vector<Cartridge> BuildLibrary(const std::vector<MediaClass>& classes,
                                    Rng& rng) {
  std::vector<Cartridge> lib;
  for (std::uint32_t c = 0; c < classes.size(); ++c) {
    const MediaClass& mc = classes[c];
    const double ageing = std::pow(mc.ageing_per_year, mc.age_years);
    for (std::uint32_t i = 0; i < mc.count; ++i) {
      Cartridge tape;
      tape.media_class = c;
      tape.permanently_bad =
          rng.chance(mc.permanent_defect_per_tape * ageing);
      // Probability that a full-capacity read pass sees >= 1 soft error.
      // Per-tape condition spread is heavy-tailed: a few tapes are in
      // far worse shape than the fleet (these are the 3-5-pass tapes).
      const double condition = rng.lognormal(0.0, 1.2);
      const double lambda =
          mc.soft_error_per_gb * mc.capacity_gb * ageing * condition;
      tape.pass_failure_p = 1.0 - std::exp(-lambda);
      lib.push_back(tape);
    }
  }
  return lib;
}

VerificationResult RunVerification(const std::vector<Cartridge>& library,
                                   const VerificationPolicy& policy, Rng& rng) {
  VerificationResult r;
  r.tapes = library.size();
  for (const Cartridge& tape : library) {
    // Appliance check: a single end-to-end read.
    bool appliance_ok = !tape.permanently_bad;
    for (std::uint32_t p = 0; appliance_ok && p < policy.appliance_passes; ++p) {
      if (rng.chance(tape.pass_failure_p)) appliance_ok = false;
    }
    if (appliance_ok) continue;
    ++r.appliance_suspects;

    // Migration retries the suspect tape; transient hiccups eventually
    // pass, permanent defects never do.
    bool recovered = false;
    for (std::uint32_t attempt = 1;
         !recovered && attempt <= policy.migration_retries; ++attempt) {
      if (tape.permanently_bad) break;
      if (!rng.chance(tape.pass_failure_p)) {
        recovered = true;
        ++r.recovered_with_retries;
        r.passes_needed.push_back(attempt + policy.appliance_passes);
      }
    }
    if (!recovered) ++r.unreadable;
  }
  return r;
}

std::vector<MediaClass> NerscMediaMix() {
  std::vector<MediaClass> mix;
  {
    MediaClass m;
    m.name = "Oracle T10KA";
    m.count = 6859;
    m.capacity_gb = 500.0;
    m.age_years = 2.0;
    m.soft_error_per_gb = 6e-6;
    m.permanent_defect_per_tape = 0.5e-4;
    mix.push_back(m);
  }
  {
    MediaClass m;
    m.name = "Oracle 9940B";
    m.count = 9155;
    m.capacity_gb = 200.0;
    m.age_years = 8.0;
    m.soft_error_per_gb = 1.2e-5;
    m.permanent_defect_per_tape = 0.8e-4;
    mix.push_back(m);
  }
  {
    MediaClass m;
    m.name = "Oracle 9840A";
    m.count = 7806;
    m.capacity_gb = 20.0;
    m.age_years = 12.0;
    m.soft_error_per_gb = 8e-5;
    m.permanent_defect_per_tape = 0.8e-4;
    mix.push_back(m);
  }
  return mix;
}

}  // namespace pdsi::archive
