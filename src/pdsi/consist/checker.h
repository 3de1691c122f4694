// Consistency checking of a recorded run.
//
// The pfs client (with `PfsConfig::record_consist_ops`) annotates every
// successful data operation with its byte interval and a 32-bit content
// fingerprint, and emits the visibility edges the configured model
// publishes (lock-release per write for POSIX, close for session, fsync
// for commit/MPI-IO). CheckConsistency replays the sorted event stream —
// an in-process `Tracer::for_each_sorted` snapshot or a compact trace
// file parsed back with `ParseCompactTrace` — through a
// ConsistencyMonitor (monitor.h), the one checker, which applies the
// model's two visibility rules (model.h) to every op:
//
//   freshness  — a read must not return content older than the newest
//                covering write the model `Required` it to see. Every
//                relaxed model's required set is a subset of POSIX's
//                (and MPI-IO's of commit's), so a POSIX-clean trace is
//                clean under every weaker model;
//   provenance — whatever write the read's fingerprint attributes it to
//                must be `Justified`: published by a recorded `pub` edge
//                before the read began, concurrent with the read in
//                virtual time, or the reader's own program order. This
//                is what catches a sync edge that was dropped or a write
//                reordered past the close that published it;
//   POSIX only — conflicting (byte-overlapping) writes from different
//                clients must be serialised: no overlap in virtual time.
//
// Determinism: ops are judged in canonical (ts, track, seq) order and the
// first violating op pair is reported with indices into the input
// vector; the same trace always yields the same verdict. monitor.h states
// exactly how reads that mix intervals or match no write are judged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdsi/consist/model.h"
#include "pdsi/obs/profile.h"

namespace pdsi::consist {

enum class ViolationKind {
  /// The read returned content provably older than the newest write the
  /// model required it to see. op_a = the write that was due, op_b = the
  /// read that missed it.
  stale_read,
  /// The read returned a write that no recorded publish edge (and no
  /// concurrency or program-order rule) justifies under the model.
  /// op_a = the write that leaked, op_b = the read that saw it.
  unpublished_read,
  /// The read's fingerprint matches no write and no hole; the trace's
  /// content annotations are inconsistent. op_a = the expected write (or
  /// the read itself when nothing was expected), op_b = the read.
  corrupt_read,
  /// POSIX only: two byte-overlapping writes from different clients
  /// overlap in virtual time — the lock protocol failed to serialise
  /// conflicting extent ops. op_a = the earlier write, op_b = the later.
  conflicting_writes,
};

std::string_view ViolationKindName(ViolationKind k);

struct Violation {
  ViolationKind kind = ViolationKind::corrupt_read;
  std::size_t op_a = 0;  ///< index into the checked event vector
  std::size_t op_b = 0;  ///< index into the checked event vector
  std::string detail;    ///< human-readable explanation
};

/// Counts over the whole stream, including ops after the first violation.
struct CheckStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t content_checks = 0;    ///< reads with a binding expectation
  std::uint64_t composite_skips = 0;   ///< reads spanning multiple sources
  /// POSIX cross-client byte-overlapping write pairs examined (the
  /// earlier write still live, i.e. able to overlap in time).
  std::uint64_t conflict_pairs = 0;
};

struct CheckResult {
  bool clean = true;
  Violation first;  ///< meaningful only when !clean
  CheckStats stats;
};

/// Verifies `events` (canonical order, e.g. from obs::CollectEvents or
/// obs::ParseCompactTrace) against `model` by replaying them through a
/// ConsistencyMonitor. Only `consist`-category events participate;
/// anything else (lock_wait spans, oss activity) is ignored, so whole
/// bench traces can be audited directly.
CheckResult CheckConsistency(const std::vector<obs::AnalysisEvent>& events,
                             ConsistencyModel model);

/// True when `model` obliges the read at index `read_ev` to observe the
/// write at index `write_ev` (both indices into `events`, which must be
/// a write/read consist span respectively): `Required` applied to the
/// writer's and reader's edges found in `events`. Exposed for the
/// violation injector's candidate selection and for tests; false on
/// non-op indices.
bool RequiredVisible(const std::vector<obs::AnalysisEvent>& events,
                     ConsistencyModel model, std::size_t write_ev,
                     std::size_t read_ev);

/// One-line rendering of a violation, resolving the op pair against the
/// events it indexes ("stale_read: rank1 read [0,65536) @1.25 missed
/// rank0 write @0.90 ...").
std::string FormatViolation(const Violation& v,
                            const std::vector<obs::AnalysisEvent>& events);

/// 32-bit fingerprint of `len` zero bytes — what a read of a never
/// written hole must report. Exposed for the client recorder and tests.
std::uint64_t ZeroFingerprint(std::uint64_t len);

/// Integer arg of a consist event ("file", "off", "len", "fp"). Traces
/// carry args as doubles, which hold these values exactly below 2^53.
std::uint64_t U64Arg(const obs::AnalysisEvent& e, const char* key);

}  // namespace pdsi::consist
