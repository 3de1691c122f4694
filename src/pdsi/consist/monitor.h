// The consistency checker, as a streaming sink.
//
// ConsistencyMonitor is an obs::MonitorSink that consumes the canonical
// event stream — live via Tracer::subscribe or replayed via ReplayEvents
// (which is all CheckConsistency does) — and judges every consist op
// against the model's rules (model.h, `Required` and `Justified`) without
// retaining the full trace. It keeps only:
//
//   * live writes — per (file, byte-interval) deques of writes that can
//     still bind a future read (as its required version, its content
//     match, or a torn-read race), each with the writer's first close,
//     sync and pub edge after it. A write retires once a newer write of
//     the same interval supersedes it for every possible future read
//     under the model AND the horizon (min of the earliest pending read
//     start and the delivered watermark) has passed its end;
//   * markers — compact summaries (event index, fingerprint, writer set,
//     first publish instant) of retired writes, merged per fingerprint,
//     enough to still judge a read that returns that stale content;
//   * pending reads — a read is judged once the watermark passes its end
//     (every edge and overlapping write that can bind it has then been
//     delivered);
//   * reader edges — per (file, client) open/sync instants, pruned below
//     the horizon to the single newest entry each.
//
// How a read is judged, once the watermark passes its end:
//   * any seen write that overlaps its bytes without covering exactly
//     its interval makes the content an overlay per-op hashes cannot
//     reconstruct: a composite skip (counted, never flagged). A partial
//     overlap that arrives later does not change a verdict already made;
//   * a fingerprint matching a seen write of its interval is checked for
//     freshness (not older than the newest required write: stale_read)
//     and provenance (some matching write justified: unpublished_read);
//   * the hole's fingerprint is stale when a required write exists;
//   * a fingerprint matching nothing is a torn race (skip) when a write
//     raced the read; otherwise the read is deferred. The first later
//     write of its interval with that fingerprint makes it
//     unpublished_read (e.g. a write reordered past its publishing
//     close), a later partial overlap makes it a composite skip, and end
//     of stream makes it corrupt_read.
//
// Verdicts surface in op order: ops enter a decision queue in event order
// and a verdict is reported only when it reaches the front with every
// earlier op decided, so a deferred read cannot be overtaken by a later
// violation and the reported pair is the first in canonical op order.
// Stats count the whole stream, including ops after the first violation,
// and conflict_pairs counts only pairs whose earlier write is still live.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/obs/monitor.h"
#include "pdsi/obs/profile.h"

namespace pdsi::consist {

class ConsistencyMonitor : public obs::MonitorSink {
 public:
  explicit ConsistencyMonitor(ConsistencyModel model) : model_(model) {}

  void on_event(const obs::AnalysisEvent& e, std::uint64_t index) override;
  void finish(double now) override;

  /// No violation so far. Final only after finish().
  bool clean() const { return !violated_; }
  /// The first violation in canonical op order (meaningful when !clean()).
  const Violation& first() const { return first_; }
  const CheckStats& stats() const { return stats_; }

  /// Ops currently held: live writes + undecided (pending or deferred)
  /// reads. Markers and pruned edges are compact summaries, not retained
  /// ops — this is the O(open intervals) bound the tests pin.
  std::size_t retained() const;
  std::size_t peak_retained() const { return peak_retained_; }

  /// The first violation as a monitor alarm (kind "consistency", key =
  /// the violation kind name, value/threshold = the op pair indices).
  /// Call when !clean().
  obs::Alarm alarm() const;

 private:
  struct LiveWrite {
    std::size_t ev = 0;
    std::string client;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t fp = 0;
    // First visibility edge of each type from the writer at or after the
    // write's end (the only instants the rules consult).
    double first_close = kNoEdge;
    double first_sync = kNoEdge;
    double first_pub = kNoEdge;

    WriteEdges edges() const {
      return {client, start, end, first_close, first_sync, first_pub};
    }
  };

  /// Retired writes of one interval, merged per fingerprint: enough to
  /// judge a read returning this (stale) content.
  struct Marker {
    std::size_t ev = 0;  ///< newest merged event index (freshness compare)
    std::uint64_t fp = 0;
    /// Writer client -> min end among its merged writes. Membership gives
    /// program-order justification; the min end decides whether a later
    /// publish instant applies (justifying the earliest-ending merged
    /// write justifies the fingerprint).
    std::map<std::string, double> client_end;
    double first_pub = kNoEdge;  ///< earliest applicable publish
  };

  struct IntervalState {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::deque<LiveWrite> live;     ///< event order; retire from front only
    std::vector<Marker> markers;    ///< per distinct fingerprint
  };

  struct ReaderEdges {
    // Ascending instants, pruned below the horizon to the newest entry.
    std::vector<double> opens;
    std::vector<double> syncs;
  };

  struct FileState {
    std::map<std::pair<std::uint64_t, std::uint64_t>, IntervalState> intervals;
    std::map<std::string, ReaderEdges> readers;
  };

  struct PendingRead {
    std::size_t ev = 0;
    std::string client;
    std::uint64_t file = 0;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t fp = 0;
    double start = 0.0;
    double end = 0.0;
    bool deferred = false;  ///< fingerprint matched nothing yet seen
    // Frozen at deferral time (op_a candidates for corrupt_read).
    bool has_w_req = false;
    std::size_t w_req_ev = 0;
    bool has_overlap = false;
    std::size_t last_overlap_ev = 0;
  };

  /// One op awaiting its verdict in event order.
  struct Slot {
    std::size_t ev = 0;
    bool decided = false;
    bool bad = false;
    Violation v;
  };

  void on_write(const obs::AnalysisEvent& e, std::size_t index);
  void on_read(const obs::AnalysisEvent& e, std::size_t index);
  void on_edge(const obs::AnalysisEvent& e);
  /// Judges every pending (not deferred) read whose end the watermark
  /// passed; `all` forces the rest (end of stream).
  void finalize_ready(bool all);
  void finalize_read(PendingRead& r);
  /// Offers a newly arrived write to the deferred reads of its file.
  void feed_deferred(const LiveWrite& w, const IntervalState& is,
                     std::uint64_t file);
  void decide(std::size_t ev, bool bad, const Violation& v);
  void advance_front();
  /// Horizon: no future (or still pending) read starts before this.
  double horizon() const;
  void try_retire(IntervalState& is, std::uint64_t file);
  void prune_edges(ReaderEdges& re) const;
  void note_retained();

  ConsistencyModel model_;
  double last_ts_ = 0.0;
  std::map<std::uint64_t, FileState> files_;
  std::deque<PendingRead> pending_;  ///< arrival order (undecided reads)
  std::deque<Slot> queue_;           ///< ops in event order, front = oldest
  bool violated_ = false;
  Violation first_;
  CheckStats stats_;
  std::size_t live_writes_ = 0;
  std::size_t peak_retained_ = 0;
};

}  // namespace pdsi::consist
