// pdsi::consist — tunable consistency models for the parallel file
// system substrate, after Wang, Mohror & Snir, "Formal Definitions and
// Performance Comparison of Consistency Models for Parallel File
// Systems" (arXiv 2402.14105).
//
// The paper's observation: POSIX strong consistency is what the lock
// managers in `pdsi::pfs` implement implicitly, but HPC deployments
// deliberately relax it — close-to-open (NFS-style session semantics),
// commit (visibility at fsync), and MPI-IO's sync-barrier-sync pattern —
// and each relaxation removes serialization cost. This header makes the
// model an explicit switch; `checker.h` provides the trace-driven
// verifier that proves a recorded run actually honoured the model it
// claimed.
#pragma once

#include <string_view>

namespace pdsi::consist {

/// Visibility contract between a writer and a later reader on another
/// client, strongest first. In every model a client always sees its own
/// completed writes (program order), and writes racing a read in virtual
/// time are unordered (either outcome is legal).
enum class ConsistencyModel {
  /// Every write is globally visible the instant it completes. The pfs
  /// lock protocols (extent tokens, whole-file locks) pay for exactly
  /// this; it is the behaviour the substrate has always had.
  posix,
  /// Close-to-open: a write is promised to a reader only once the writer
  /// has closed the file and the reader has (re)opened it afterwards.
  session,
  /// Commit: a write is promised once the writer has issued fsync; no
  /// reader-side action is required.
  commit,
  /// MPI-IO sync-barrier-sync: the writer must sync, then the reader
  /// must sync, then read. The weakest (and cheapest) model here.
  mpiio,
};

inline constexpr int kNumConsistencyModels = 4;

std::string_view ConsistencyModelName(ConsistencyModel m);

/// Parses the names produced by ConsistencyModelName; false on unknown.
bool ParseConsistencyModel(std::string_view name, ConsistencyModel* out);

/// Position in the relaxation order: posix=0 < session=1 < commit=2 <
/// mpiio=3. Larger means weaker guarantees (and fewer required
/// visibility edges), which is why a trace clean under a stronger model
/// is clean under every weaker one (the lattice-monotonicity property
/// the checker's tests pin).
int RelaxationRank(ConsistencyModel m);

/// All four models in relaxation order, for sweeps.
inline constexpr ConsistencyModel kAllConsistencyModels[kNumConsistencyModels] = {
    ConsistencyModel::posix, ConsistencyModel::session,
    ConsistencyModel::commit, ConsistencyModel::mpiio};

// -- Visibility rules --------------------------------------------------------

/// Timestamp slack for the compact-trace round trip: the text format
/// prints ts and dur with nine fractional digits, so an op end rebuilt as
/// ts + dur can drift ~1e-9 from an edge instant recorded at the same
/// virtual time. Acceptance windows (the rules below, program order)
/// widen by it; the violation-triggering time-overlap test narrows by it.
/// Real op separations are >= microseconds, so the slack can neither hide
/// a violation nor invent one.
inline constexpr double kTsSlack = 2e-9;

/// "No such edge" (every recorded instant is >= 0).
inline constexpr double kNoEdge = -1.0;

/// A write as the rules see it: the writer, the write's virtual-time
/// span, and the writer's first close, sync and pub edge on the file at
/// or after the write's end (kNoEdge when there is none).
struct WriteEdges {
  std::string_view client;
  double start = 0.0;
  double end = 0.0;
  double first_close = kNoEdge;
  double first_sync = kNoEdge;
  double first_pub = kNoEdge;
};

/// A read as the rules see it: the reader, the read's span, and the
/// reader's last open and sync on the file at or before the read's start
/// (kNoEdge when there is none).
struct ReadEdges {
  std::string_view client;
  double start = 0.0;
  double end = 0.0;
  double last_open = kNoEdge;
  double last_sync = kNoEdge;
};

/// The two spans overlap in virtual time (narrowed by kTsSlack): racing
/// ops are unordered, so either outcome is legal.
bool TimeOverlaps(double a_start, double a_end, double b_start, double b_end);

/// Freshness: does `model` oblige read `r` to observe write `w`? Program
/// order always does (same client, w ended before r began). Across
/// clients: posix — w ended before r began; session — the writer closed
/// after w and the reader (re)opened after that close; commit — the
/// writer synced after w and before r; mpiio — the writer synced after w
/// and the reader synced after that. Every relaxed model's edges lie
/// inside [w.end, r.start], so each required set is a subset of POSIX's
/// (and MPI-IO's of commit's): the lattice monotonicity the tests pin.
bool Required(ConsistencyModel model, const WriteEdges& w, const ReadEdges& r);

/// Provenance: may read `r` legally return write `w`? Yes by program
/// order, when the two race in virtual time, or when a recorded `pub`
/// edge published w before r began. Model-independent: `pub` marks
/// wherever the recording model published, so content that no recorded
/// edge delivers is exactly what this rejects.
bool Justified(const WriteEdges& w, const ReadEdges& r);

}  // namespace pdsi::consist
