// Tests for pdsi::consist: the model switch, the trace-driven checker on
// clean multi-client workloads recorded through the real pfs client, the
// seeded violation injector (every planted violation must be caught with
// the exact op pair named), and the lattice-monotonicity property that
// POSIX-clean traces pass every relaxed model's check.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "consist_testing.h"
#include "pdsi/common/bytes.h"
#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/consist/mutate.h"
#include "pdsi/obs/obs.h"
#include "pdsi/obs/profile.h"

namespace pdsi::consist {
namespace {

/// Indices of consist write/read op spans in `events`.
void OpIndices(const std::vector<obs::AnalysisEvent>& events,
               std::vector<std::size_t>* writes,
               std::vector<std::size_t>* reads) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.cat != "consist" || !e.is_span()) continue;
    if (e.name == "write") writes->push_back(i);
    if (e.name == "read") reads->push_back(i);
  }
}

TEST(ConsistModel, NamesRoundTrip) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    ConsistencyModel back;
    ASSERT_TRUE(ParseConsistencyModel(ConsistencyModelName(m), &back));
    EXPECT_EQ(back, m);
  }
  ConsistencyModel out;
  EXPECT_FALSE(ParseConsistencyModel("bogus", &out));
}

TEST(ConsistModel, RelaxationOrderIsStrict) {
  for (int i = 1; i < kNumConsistencyModels; ++i) {
    EXPECT_LT(RelaxationRank(kAllConsistencyModels[i - 1]),
              RelaxationRank(kAllConsistencyModels[i]));
  }
}

TEST(ConsistChecker, ZeroFingerprintMatchesHashOfZeros) {
  Bytes zeros(kLen, 0);
  EXPECT_EQ(ZeroFingerprint(kLen), HashBytes(zeros) & 0xffffffffULL);
  EXPECT_EQ(ZeroFingerprint(0), HashBytes(Bytes{}) & 0xffffffffULL);
}

TEST(ConsistChecker, CleanTracesPassTheirModel) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = m;
    spec.ranks = 4;
    spec.rounds = 3;
    auto events = RecordWorkload(spec);
    auto res = CheckConsistency(events, m);
    EXPECT_TRUE(res.clean)
        << ConsistencyModelName(m) << ": " << FormatViolation(res.first, events);
    EXPECT_EQ(res.stats.writes, 12u) << ConsistencyModelName(m);
    EXPECT_EQ(res.stats.reads, 12u) << ConsistencyModelName(m);
    EXPECT_GT(res.stats.content_checks, 0u) << ConsistencyModelName(m);
  }
}

TEST(ConsistChecker, ContendedPosixSerializedByLocksIsClean) {
  WorkloadSpec spec;
  spec.contended = true;
  spec.ranks = 3;
  spec.rounds = 2;
  auto events = RecordWorkload(spec);
  auto res = CheckConsistency(events, ConsistencyModel::posix);
  EXPECT_TRUE(res.clean) << FormatViolation(res.first, events);
  // Cross-client byte-overlapping pairs were examined — the serialization
  // check actually ran.
  EXPECT_GT(res.stats.conflict_pairs, 0u);
}

// The lattice-monotonicity pin: a trace recorded (and clean) under POSIX
// passes the session, commit, and MPI-IO checks too — relaxed models
// require strictly less.
TEST(ConsistChecker, PosixCleanTracesPassEveryRelaxedModel) {
  for (bool contended : {false, true}) {
    WorkloadSpec spec;
    spec.contended = contended;
    auto events = RecordWorkload(spec);
    for (ConsistencyModel m : kAllConsistencyModels) {
      auto res = CheckConsistency(events, m);
      EXPECT_TRUE(res.clean)
          << "contended=" << contended << " model=" << ConsistencyModelName(m)
          << ": " << FormatViolation(res.first, events);
    }
  }
}

// Required-visibility shrinks down the lattice: whenever a relaxed model
// obliges a read to see a write, POSIX does too; and whenever MPI-IO
// does, commit does.
TEST(ConsistChecker, RequiredVisibleShrinksTowardPosix) {
  for (ConsistencyModel rec : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = rec;
    auto events = RecordWorkload(spec);
    std::vector<std::size_t> writes, reads;
    OpIndices(events, &writes, &reads);
    ASSERT_FALSE(writes.empty());
    ASSERT_FALSE(reads.empty());
    bool any_required = false;
    for (std::size_t w : writes) {
      for (std::size_t r : reads) {
        for (ConsistencyModel m :
             {ConsistencyModel::session, ConsistencyModel::commit,
              ConsistencyModel::mpiio}) {
          if (RequiredVisible(events, m, w, r)) {
            any_required = true;
            EXPECT_TRUE(RequiredVisible(events, ConsistencyModel::posix, w, r))
                << "recorded=" << ConsistencyModelName(rec)
                << " model=" << ConsistencyModelName(m) << " w=" << w
                << " r=" << r;
          }
        }
        if (RequiredVisible(events, ConsistencyModel::mpiio, w, r)) {
          EXPECT_TRUE(RequiredVisible(events, ConsistencyModel::commit, w, r))
              << "recorded=" << ConsistencyModelName(rec) << " w=" << w
              << " r=" << r;
        }
      }
    }
    EXPECT_TRUE(any_required) << ConsistencyModelName(rec);
  }
}

// Randomized schedules (seeded, deterministic): whatever the hash picks,
// a workload that follows the model's publication discipline is clean —
// and POSIX-recorded ones are clean under all four models.
TEST(ConsistProperty, RandomizedSchedulesAreClean) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    for (std::uint64_t seed : {11u, 29u, 63u}) {
      WorkloadSpec spec;
      spec.model = m;
      spec.ranks = 4;
      spec.rounds = 4;
      spec.randomized = true;
      spec.salt = seed;
      auto events = RecordWorkload(spec);
      auto res = CheckConsistency(events, m);
      EXPECT_TRUE(res.clean)
          << ConsistencyModelName(m) << " seed=" << seed << ": "
          << FormatViolation(res.first, events);
      if (m == ConsistencyModel::posix) {
        for (ConsistencyModel weaker : kAllConsistencyModels) {
          auto wres = CheckConsistency(events, weaker);
          EXPECT_TRUE(wres.clean)
              << "posix seed=" << seed << " under "
              << ConsistencyModelName(weaker) << ": "
              << FormatViolation(wres.first, events);
        }
      }
    }
  }
}

// -- Seeded violation injection: every planted violation must be caught,
// with the checker naming exactly the planted op pair. ------------------

void ExpectCaught(const std::vector<obs::AnalysisEvent>& events,
                  ConsistencyModel model, const PlantedViolation& p,
                  const char* label, std::uint64_t seed) {
  ASSERT_TRUE(p.applied) << label << " seed=" << seed;
  auto res = CheckConsistency(events, model);
  ASSERT_FALSE(res.clean) << label << " seed=" << seed << " (" << p.what
                          << ") was not caught";
  EXPECT_EQ(res.first.kind, p.kind)
      << label << " seed=" << seed << ": " << FormatViolation(res.first, events);
  EXPECT_EQ(res.first.op_a, p.op_a)
      << label << " seed=" << seed << ": " << FormatViolation(res.first, events);
  EXPECT_EQ(res.first.op_b, p.op_b)
      << label << " seed=" << seed << ": " << FormatViolation(res.first, events);
}

TEST(ConsistMutate, ReorderWritePastCloseCaught) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::session;
  spec.ranks = 4;
  spec.rounds = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = ReorderWritePastClose(&events, seed);
    ExpectCaught(events, ConsistencyModel::session, p, "reorder", seed);
  }
}

TEST(ConsistMutate, DropSyncEdgeCaughtUnderCommit) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::commit;
  spec.ranks = 4;
  spec.rounds = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = DropSyncEdge(&events, seed);
    ExpectCaught(events, ConsistencyModel::commit, p, "drop-sync", seed);
  }
}

TEST(ConsistMutate, DropSyncEdgeCaughtUnderMpiio) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::mpiio;
  spec.ranks = 4;
  spec.rounds = 3;
  spec.split_roles = true;  // one publish per write: unambiguous candidates
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = DropSyncEdge(&events, seed);
    ExpectCaught(events, ConsistencyModel::mpiio, p, "drop-sync-mpiio", seed);
  }
}

TEST(ConsistMutate, SpliceStaleReadCaughtUnderEveryModel) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = m;
    spec.ranks = 4;
    spec.rounds = 3;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      auto events = RecordWorkload(spec);
      auto p = SpliceStaleRead(&events, m, seed);
      ExpectCaught(events, m, p, ConsistencyModelName(m).data(), seed);
    }
  }
}

TEST(ConsistMutate, OverlapConflictingWritesCaught) {
  WorkloadSpec spec;
  spec.contended = true;
  spec.ranks = 3;
  spec.rounds = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = OverlapConflictingWrites(&events, seed);
    ExpectCaught(events, ConsistencyModel::posix, p, "overlap", seed);
  }
}

TEST(ConsistMutate, InapplicableMutatorsReportUnapplied) {
  // A POSIX trace records no close-published writes' sync edges to drop;
  // DropSyncEdge must decline rather than corrupt the trace.
  WorkloadSpec spec;
  auto events = RecordWorkload(spec);
  const auto size_before = events.size();
  auto p = DropSyncEdge(&events, 1);
  EXPECT_FALSE(p.applied);
  EXPECT_EQ(events.size(), size_before);
  auto res = CheckConsistency(events, ConsistencyModel::posix);
  EXPECT_TRUE(res.clean);
}

// The checker consumes traces parsed back from the compact text format
// identically to in-process snapshots: same verdict, same stats, and a
// mutation planted in the parsed copy is still pinned to the right pair.
TEST(ConsistChecker, CompactTraceRoundTrip) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::commit;
  spec.ranks = 4;
  spec.rounds = 3;
  obs::Tracer tracer;
  RunWorkload(spec, &tracer);
  auto direct = obs::CollectEvents(tracer);

  std::ostringstream os;
  tracer.write_compact(os);
  std::istringstream is(os.str());
  std::vector<obs::AnalysisEvent> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParseCompactTrace(is, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), direct.size());

  auto r1 = CheckConsistency(direct, ConsistencyModel::commit);
  auto r2 = CheckConsistency(parsed, ConsistencyModel::commit);
  EXPECT_TRUE(r1.clean) << FormatViolation(r1.first, direct);
  EXPECT_TRUE(r2.clean) << FormatViolation(r2.first, parsed);
  EXPECT_EQ(r1.stats.writes, r2.stats.writes);
  EXPECT_EQ(r1.stats.reads, r2.stats.reads);
  EXPECT_EQ(r1.stats.content_checks, r2.stats.content_checks);
  EXPECT_EQ(r1.stats.composite_skips, r2.stats.composite_skips);

  auto p = DropSyncEdge(&parsed, 2);
  ExpectCaught(parsed, ConsistencyModel::commit, p, "parsed-drop-sync", 2);
}

TEST(ConsistChecker, FormatViolationNamesBothOps) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::session;
  auto events = RecordWorkload(spec);
  auto p = ReorderWritePastClose(&events, 0);
  ASSERT_TRUE(p.applied);
  auto res = CheckConsistency(events, ConsistencyModel::session);
  ASSERT_FALSE(res.clean);
  const std::string line = FormatViolation(res.first, events);
  EXPECT_NE(line.find("unpublished_read"), std::string::npos) << line;
  EXPECT_NE(line.find("write"), std::string::npos) << line;
  EXPECT_NE(line.find("read"), std::string::npos) << line;
}

// Verdicts are deterministic: the same workload re-recorded and the same
// mutation seed always name the same first violation.
TEST(ConsistChecker, DeterministicFirstViolation) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::session;
  spec.ranks = 4;
  spec.rounds = 3;
  auto run = [&] {
    auto events = RecordWorkload(spec);
    auto p = ReorderWritePastClose(&events, 5);
    EXPECT_TRUE(p.applied);
    auto res = CheckConsistency(events, ConsistencyModel::session);
    EXPECT_FALSE(res.clean);
    return std::make_tuple(res.first.kind, res.first.op_a, res.first.op_b,
                           events.size());
  };
  EXPECT_EQ(run(), run());
}

// The relaxed-model client really skips the lock path and counts it.
TEST(ConsistCounters, RelaxedModelsSkipLockCharges) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = m;
    obs::Tracer tracer;
    obs::Registry reg;
    RunWorkload(spec, &tracer, &reg);
    const auto skips = reg.counter("consist.lock_skips").value();
    const auto ops = reg.counter("consist.ops").value();
    EXPECT_GT(ops, 0u) << ConsistencyModelName(m);
    if (m == ConsistencyModel::posix) {
      EXPECT_EQ(skips, 0u);
    } else {
      EXPECT_EQ(skips, 9u) << ConsistencyModelName(m);  // 3 ranks x 3 rounds
      EXPECT_EQ(reg.counter("pfs.lock_conflicts").value(), 0u)
          << ConsistencyModelName(m);
    }
    if (m == ConsistencyModel::session || m == ConsistencyModel::commit ||
        m == ConsistencyModel::mpiio) {
      EXPECT_GT(reg.counter("mds.publishes").value(), 0u)
          << ConsistencyModelName(m);
    }
  }
}

}  // namespace
}  // namespace pdsi::consist
