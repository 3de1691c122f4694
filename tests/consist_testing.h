// Shared by consist_test and monitor_test: the phase-disciplined
// multi-client workload recorder, and a brute-force reference checker
// that the parity tests hold CheckConsistency against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/obs/obs.h"
#include "pdsi/obs/profile.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::consist {

inline constexpr std::uint64_t kSlot = 64 * KiB;  // one extent-lock unit per rank
inline constexpr std::uint64_t kLen = 4 * KiB;    // record length within a slot

/// SplitMix64, for per-(rank, round) schedule decisions that do not
/// depend on host-thread interleaving.
inline std::uint64_t Mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t Hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return Mix64(Mix64(Mix64(a) ^ b) ^ c);
}

struct WorkloadSpec {
  ConsistencyModel model = ConsistencyModel::posix;
  int ranks = 3;
  int rounds = 3;
  /// All ranks write the same interval under whole-file locks (the
  /// serialized-conflict workload); otherwise each rank owns a
  /// lock-unit-aligned slot and reads rotate across the others'.
  bool contended = false;
  /// First half of the ranks only write, second half only read — gives
  /// MPI-IO traces exactly one publish per write, so DropSyncEdge has an
  /// unambiguous candidate.
  bool split_roles = false;
  /// Randomize the schedule (skip writes, pick read targets by hash)
  /// while keeping the phase discipline the model demands.
  bool randomized = false;
  std::uint64_t salt = 1;
};

/// Runs a phase-disciplined multi-client workload through the real pfs
/// client with consist-op recording on, under the model's publication
/// discipline:
///   posix   — write; barrier; read
///   session — open, write, close; barrier; open, read, close
///   commit  — write, fsync; barrier; read
///   mpiio   — write, fsync; barrier; fsync, read
/// Barriers separate the phases so writes never race reads; content is
/// distinct per (rank, round) so fingerprints attribute uniquely.
inline void RunWorkload(const WorkloadSpec& spec, obs::Tracer* tracer,
                        obs::Registry* reg = nullptr) {
  obs::Context ctx;
  ctx.tracer = tracer;
  ctx.registry = reg;
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(2);
  cfg.consistency = spec.model;
  cfg.record_consist_ops = true;
  if (spec.contended) cfg.locking = pfs::LockProtocol::whole_file;
  sim::VirtualScheduler sched(spec.ranks);
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  sim::VirtualBarrier barrier(sched);

  const bool session = spec.model == ConsistencyModel::session;
  const bool commit = spec.model == ConsistencyModel::commit;
  const bool mpiio = spec.model == ConsistencyModel::mpiio;
  const int writers = spec.split_roles ? (spec.ranks + 1) / 2 : spec.ranks;

  sched.run([&](std::size_t actor) {
    const int r = static_cast<int>(actor);
    pfs::PfsClient client(cluster, r);
    const bool is_writer = r < writers;
    const bool is_reader = !spec.split_roles || r >= writers;
    pfs::FileHandle fh = -1;
    if (r == 0) {
      fh = *client.create("/shared");
      if (session) client.close(fh);
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      if (!session) fh = *client.open("/shared");
    }
    for (int k = 0; k < spec.rounds; ++k) {
      const bool write_this_round =
          is_writer &&
          (!spec.randomized || Hash3(spec.salt, r, 2 * k) % 4 != 0);
      if (write_this_round) {
        if (session) fh = *client.open("/shared");
        const std::uint64_t off =
            spec.contended ? 0 : static_cast<std::uint64_t>(r) * kSlot;
        const auto tag = static_cast<std::uint32_t>(
            spec.salt * 1000003 + static_cast<std::uint64_t>(k) * 131 + r);
        EXPECT_TRUE(client.write(fh, off, MakePattern(tag, off, kLen)).ok());
        if (session) {
          EXPECT_TRUE(client.close(fh).ok());
        } else if (commit || mpiio) {
          EXPECT_TRUE(client.fsync(fh).ok());
        }
      }
      barrier.arrive(r);
      const bool read_this_round =
          is_reader &&
          (!spec.randomized || Hash3(spec.salt, r, 2 * k + 1) % 8 != 0);
      if (read_this_round) {
        const int target =
            spec.contended
                ? 0
                : static_cast<int>(
                      (spec.randomized
                           ? Hash3(spec.salt, 977 + r, k)
                           : static_cast<std::uint64_t>(r) + 1 + k) %
                      writers);
        if (session) fh = *client.open("/shared");
        if (mpiio) {
          EXPECT_TRUE(client.fsync(fh).ok());
        }
        Bytes out(kLen);
        auto n = client.read(
            fh, static_cast<std::uint64_t>(target) * kSlot, out);
        EXPECT_TRUE(n.ok());
        if (session) client.close(fh);
      }
      barrier.arrive(r);
    }
    if (!session && fh >= 0) client.close(fh);
  });
}

inline std::vector<obs::AnalysisEvent> RecordWorkload(const WorkloadSpec& spec) {
  obs::Tracer tracer;
  RunWorkload(spec, &tracer);
  return obs::CollectEvents(tracer);
}

// -- Reference checker --------------------------------------------------------
//
// The consistency rules of Wang, Mohror & Snir (arXiv 2402.14105) written
// straight from their definitions. Every rule is an existence scan over
// the whole event vector: no indexes, no retirement, no markers, no
// deferral. Quadratic and then some, which is fine at test scale.
// Windows widen by kTsSlack, the overlap test narrows by it.

struct RefOp {
  std::size_t ev = 0;
  bool is_write = false;
  std::string client;
  std::uint64_t file = 0, off = 0, len = 0, fp = 0;
  double start = 0.0, end = 0.0;
};

inline std::uint64_t RefArg(const obs::AnalysisEvent& e, const char* key) {
  return static_cast<std::uint64_t>(std::llround(e.arg(key)));
}

inline std::vector<RefOp> RefOps(const std::vector<obs::AnalysisEvent>& events) {
  std::vector<RefOp> ops;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.cat != "consist" || !e.is_span()) continue;
    if (e.name != "write" && e.name != "read") continue;
    ops.push_back({i, e.name == "write", e.track, RefArg(e, "file"),
                   RefArg(e, "off"), RefArg(e, "len"), RefArg(e, "fp"), e.ts,
                   e.end()});
  }
  return ops;
}

inline bool RefRacing(const RefOp& a, const RefOp& b) {
  return a.start + kTsSlack < b.end && b.start + kTsSlack < a.end;
}

/// Did `client` record edge `name` on `file` at an instant in [lo, hi]?
inline bool RefEdgeIn(const std::vector<obs::AnalysisEvent>& events,
                      const char* name, const std::string& client,
                      std::uint64_t file, double lo, double hi) {
  for (const auto& e : events) {
    if (e.cat == "consist" && !e.is_span() && e.name == name &&
        e.track == client && RefArg(e, "file") == file &&
        e.ts >= lo - kTsSlack && e.ts <= hi + kTsSlack) {
      return true;
    }
  }
  return false;
}

/// Did the writer record `wname` after `w` ended, and the reader then
/// record `rname` no earlier than that and before `r` began?
inline bool RefEdgeThen(const std::vector<obs::AnalysisEvent>& events,
                        const char* wname, const RefOp& w, const char* rname,
                        const RefOp& r) {
  for (const auto& e : events) {
    if (e.cat == "consist" && !e.is_span() && e.name == wname &&
        e.track == w.client && RefArg(e, "file") == w.file &&
        e.ts >= w.end - kTsSlack &&
        RefEdgeIn(events, rname, r.client, r.file, e.ts, r.start)) {
      return true;
    }
  }
  return false;
}

/// Must read `r` see write `w` under `model`?
inline bool RefRequired(const std::vector<obs::AnalysisEvent>& events,
                        ConsistencyModel model, const RefOp& w, const RefOp& r) {
  const bool ordered = w.end <= r.start + kTsSlack;
  if (w.client == r.client) return ordered;  // program order
  switch (model) {
    case ConsistencyModel::posix:  // visible once complete
      return ordered;
    case ConsistencyModel::session:  // writer close, then reader open
      return RefEdgeThen(events, "close", w, "open", r);
    case ConsistencyModel::commit:  // writer sync before the read
      return RefEdgeIn(events, "sync", w.client, w.file, w.end, r.start);
    case ConsistencyModel::mpiio:  // writer sync, then reader sync
      return RefEdgeThen(events, "sync", w, "sync", r);
  }
  return false;
}

/// May read `r` return write `w`: program order, a race, or a publish
/// the trace recorded between the write and the read?
inline bool RefJustified(const std::vector<obs::AnalysisEvent>& events,
                         const RefOp& w, const RefOp& r) {
  if (w.client == r.client && w.end <= r.start + kTsSlack) return true;
  if (RefRacing(w, r)) return true;
  return RefEdgeIn(events, "pub", w.client, w.file, w.end, r.start);
}

/// The verdict of CheckConsistency, decided by brute force: the first op
/// (in event order) that breaks a rule, and writes/reads/content_checks/
/// composite_skips over the whole stream (conflict_pairs stays 0).
inline CheckResult ReferenceCheck(const std::vector<obs::AnalysisEvent>& events,
                                  ConsistencyModel model) {
  const std::vector<RefOp> ops = RefOps(events);
  CheckResult res;
  auto flag = [&](ViolationKind kind, std::size_t a, std::size_t b,
                  std::string detail) {
    if (!res.clean) return;
    res.clean = false;
    res.first = {kind, a, b, std::move(detail)};
  };
  for (const RefOp& op : ops) {
    if (op.is_write) {
      ++res.stats.writes;
      if (model != ConsistencyModel::posix) continue;
      // POSIX: cross-client writes sharing bytes must not share time.
      for (const RefOp& e : ops) {
        if (e.ev >= op.ev) break;
        if (!e.is_write || e.file != op.file || e.client == op.client) continue;
        const std::uint64_t lo = std::max(e.off, op.off);
        const std::uint64_t hi = std::min(e.off + e.len, op.off + op.len);
        if (lo >= hi || !RefRacing(e, op)) continue;
        std::ostringstream d;
        d << "cross-client writes overlap bytes [" << lo << "," << hi
          << ") and virtual time";
        flag(ViolationKind::conflicting_writes, e.ev, op.ev, d.str());
        break;
      }
      continue;
    }
    const RefOp& r = op;
    ++res.stats.reads;
    const RefOp* req = nullptr;      // newest required write of r's interval
    const RefOp* match = nullptr;    // newest write of r's interval and content
    const RefOp* overlap = nullptr;  // newest write touching r's bytes
    bool composite = false, racing = false, justified = false;
    for (const RefOp& w : ops) {
      if (!w.is_write || w.file != r.file || w.off >= r.off + r.len ||
          r.off >= w.off + w.len) {
        continue;
      }
      overlap = &w;
      if (w.off != r.off || w.len != r.len) {
        composite = true;
        continue;
      }
      if (RefRacing(w, r)) racing = true;
      if (RefRequired(events, model, w, r)) req = &w;
      if (w.fp == r.fp) {
        match = &w;
        if (RefJustified(events, w, r)) justified = true;
      }
    }
    if (composite) {
      ++res.stats.composite_skips;
      continue;
    }
    const bool hole = r.fp == (HashBytes(Bytes(r.len, 0)) & 0xffffffffULL);
    if (match == nullptr && !hole && racing) {
      ++res.stats.composite_skips;  // a torn read of a racing write
      continue;
    }
    ++res.stats.content_checks;
    if (match != nullptr) {
      if (req != nullptr && match->ev < req->ev) {
        flag(ViolationKind::stale_read, req->ev, r.ev,
             "read returned content older than a required write");
      } else if (!justified) {
        flag(ViolationKind::unpublished_read, match->ev, r.ev,
             "read observed a write no publish edge, program order, or "
             "concurrency justifies");
      }
    } else if (hole) {
      if (req != nullptr) {
        flag(ViolationKind::stale_read, req->ev, r.ev,
             "read returned the unwritten hole after a required write");
      }
    } else {
      flag(ViolationKind::corrupt_read,
           req != nullptr ? req->ev : (overlap != nullptr ? overlap->ev : r.ev),
           r.ev, "read fingerprint matches no write and no hole");
    }
  }
  return res;
}

}  // namespace pdsi::consist
