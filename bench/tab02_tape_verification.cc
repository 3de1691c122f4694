// §5.2.3 — NERSC tape media verification campaign.
//
// Paper: 23,820 cartridges (T10KA/9940B/9840A, up to 12 years old) read
// end to end; 13 tapes had unreadable data (99.945% probability of
// reading 100% of a tape); the worst tapes took 3-5 reads to yield their
// data; the single-pass appliance is a useful first check but not
// conclusive.
#include <iostream>

#include "bench_util.h"
#include "pdsi/archive/archive.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"

using namespace pdsi;

int main() {
  bench::Header("Table: tape media verification (NERSC migration)",
                "99.945% full-read probability; worst tapes need 3-5 reads");

  Rng rng(20090601);
  const auto mix = archive::NerscMediaMix();
  const auto library = archive::BuildLibrary(mix, rng);

  {
    Table t({"media", "count", "capacity", "age"});
    for (const auto& m : mix) {
      t.row({m.name, std::to_string(m.count),
             FormatDouble(m.capacity_gb, 0) + " GB",
             FormatDouble(m.age_years, 0) + " yr"});
    }
    t.print(std::cout);
  }

  archive::VerificationPolicy policy;
  const auto r = archive::RunVerification(library, policy, rng);

  PrintBanner(std::cout, "campaign outcome");
  Table t({"metric", "value", "paper"});
  t.row({"tapes read", std::to_string(r.tapes), "23,820"});
  t.row({"appliance suspects (1 pass)", std::to_string(r.appliance_suspects), "-"});
  t.row({"recovered by rereads", std::to_string(r.recovered_with_retries), "-"});
  t.row({"unreadable tapes", std::to_string(r.unreadable), "13"});
  t.row({"full-read probability",
         FormatDouble(100.0 * r.full_read_probability(), 3) + "%", "99.945%"});

  std::uint32_t hist[8] = {0};
  for (auto p : r.passes_needed) hist[std::min<std::uint32_t>(p, 7)]++;
  for (std::uint32_t p = 2; p <= 6; ++p) {
    if (hist[p]) {
      t.row({"suspects needing " + std::to_string(p) + " reads",
             std::to_string(hist[p]), p >= 3 ? "worst: 3-5 reads" : "-"});
    }
  }
  t.print(std::cout);
  bench::Note("shape check: unreadable count near 13/23,820 and a reread "
              "tail reaching 3-5 passes.");
  return 0;
}
