#include "pdsi/consist/monitor.h"

#include <algorithm>
#include <sstream>

namespace pdsi::consist {
namespace {

constexpr const char* kConsistCat = "consist";
constexpr const char* kUnpublished =
    "read observed a write no publish edge, program order, or concurrency "
    "justifies";

bool RangesOverlap(std::uint64_t off_a, std::uint64_t len_a, std::uint64_t off_b,
                   std::uint64_t len_b) {
  return off_a < off_b + len_b && off_b < off_a + len_a;
}

/// Largest instant <= hi (with slack); kNoEdge when none.
double LastAtOrBefore(const std::vector<double>& v, double hi) {
  auto it = std::upper_bound(v.begin(), v.end(), hi + kTsSlack);
  return it == v.begin() ? kNoEdge : *(it - 1);
}

}  // namespace

void ConsistencyMonitor::on_event(const obs::AnalysisEvent& e,
                                  std::uint64_t index) {
  last_ts_ = std::max(last_ts_, e.ts);
  if (e.cat == kConsistCat) {
    if (e.is_span()) {
      if (e.name == "write") {
        on_write(e, static_cast<std::size_t>(index));
      } else if (e.name == "read") {
        on_read(e, static_cast<std::size_t>(index));
      }
    } else {
      on_edge(e);
    }
  }
  finalize_ready(false);
}

void ConsistencyMonitor::finish(double now) {
  last_ts_ = std::max(last_ts_, now);
  finalize_ready(true);
}

std::size_t ConsistencyMonitor::retained() const {
  return live_writes_ + pending_.size();
}

obs::Alarm ConsistencyMonitor::alarm() const {
  obs::Alarm a;
  a.ts = last_ts_;
  a.kind = "consistency";
  a.key = std::string(ViolationKindName(first_.kind));
  a.value = static_cast<double>(first_.op_a);
  a.threshold = static_cast<double>(first_.op_b);
  a.detail = first_.detail;
  return a;
}

void ConsistencyMonitor::note_retained() {
  peak_retained_ = std::max(peak_retained_, retained());
}

double ConsistencyMonitor::horizon() const {
  double h = last_ts_;
  if (!pending_.empty()) h = std::min(h, pending_.front().start);
  return h;
}

void ConsistencyMonitor::decide(std::size_t ev, bool bad, const Violation& v) {
  auto it = std::lower_bound(
      queue_.begin(), queue_.end(), ev,
      [](const Slot& s, std::size_t e) { return s.ev < e; });
  if (it == queue_.end() || it->ev != ev) return;
  it->decided = true;
  it->bad = bad;
  it->v = v;
  advance_front();
}

void ConsistencyMonitor::advance_front() {
  // Verdicts surface only from the queue front with every earlier op
  // decided, so the latched violation is the first in op order, not
  // merely the first discovered.
  while (!queue_.empty() && queue_.front().decided) {
    if (queue_.front().bad && !violated_) {
      violated_ = true;
      first_ = queue_.front().v;
    }
    queue_.pop_front();
  }
}

void ConsistencyMonitor::prune_edges(ReaderEdges& re) const {
  const double h = horizon();
  auto prune = [h](std::vector<double>& v) {
    // Entries below the horizon can never be the LastAtOrBefore answer
    // for any still-possible read once a newer sub-horizon entry exists.
    while (v.size() >= 2 && v[1] <= h - kTsSlack) v.erase(v.begin());
  };
  prune(re.opens);
  prune(re.syncs);
}

void ConsistencyMonitor::on_write(const obs::AnalysisEvent& e,
                                  std::size_t index) {
  ++stats_.writes;
  LiveWrite w;
  w.ev = index;
  w.client = e.track;
  w.start = e.ts;
  w.end = e.end();
  w.fp = U64Arg(e, "fp");
  const std::uint64_t file = U64Arg(e, "file");
  const std::uint64_t off = U64Arg(e, "off");
  const std::uint64_t len = U64Arg(e, "len");
  FileState& fs = files_[file];

  queue_.push_back(Slot{index, false, false, {}});
  Violation v;
  bool bad = false;
  if (model_ == ConsistencyModel::posix) {
    // POSIX conflict check against earlier cross-client overlapping
    // writes, in event order. Retired writes ended before the horizon,
    // so they cannot time-overlap this one — live writes are the
    // complete candidate set.
    struct Earlier {
      const LiveWrite* w;
      std::uint64_t lo, hi;  ///< the shared bytes
    };
    std::vector<Earlier> earlier;
    for (const auto& [key, is] : fs.intervals) {
      if (!RangesOverlap(key.first, key.second, off, len)) continue;
      for (const LiveWrite& ew : is.live) {
        if (ew.client == w.client) continue;
        earlier.push_back({&ew, std::max(key.first, off),
                           std::min(key.first + key.second, off + len)});
      }
    }
    std::sort(earlier.begin(), earlier.end(),
              [](const Earlier& a, const Earlier& b) { return a.w->ev < b.w->ev; });
    for (const Earlier& c : earlier) {
      ++stats_.conflict_pairs;
      if (!TimeOverlaps(c.w->start, c.w->end, w.start, w.end)) continue;
      v.kind = ViolationKind::conflicting_writes;
      v.op_a = c.w->ev;
      v.op_b = index;
      std::ostringstream d;
      d << "cross-client writes overlap bytes [" << c.lo << "," << c.hi
        << ") and virtual time";
      v.detail = d.str();
      bad = true;
      break;
    }
  }
  decide(index, bad, v);

  auto& is = fs.intervals[{off, len}];
  is.off = off;
  is.len = len;
  feed_deferred(w, is, file);
  is.live.push_back(w);
  ++live_writes_;
  note_retained();
  try_retire(is, file);
}

void ConsistencyMonitor::on_read(const obs::AnalysisEvent& e,
                                 std::size_t index) {
  ++stats_.reads;
  PendingRead r;
  r.ev = index;
  r.client = e.track;
  r.file = U64Arg(e, "file");
  r.off = U64Arg(e, "off");
  r.len = U64Arg(e, "len");
  r.fp = U64Arg(e, "fp");
  r.start = e.ts;
  r.end = e.end();
  queue_.push_back(Slot{index, false, false, {}});
  pending_.push_back(std::move(r));
  note_retained();
}

void ConsistencyMonitor::on_edge(const obs::AnalysisEvent& e) {
  const std::uint64_t file = U64Arg(e, "file");
  FileState& fs = files_[file];
  const double ts = e.ts;
  if (e.name == "open") {
    ReaderEdges& re = fs.readers[e.track];
    re.opens.push_back(ts);
    prune_edges(re);
    return;
  }
  if (e.name == "sync") {
    ReaderEdges& re = fs.readers[e.track];
    re.syncs.push_back(ts);
    prune_edges(re);
  }
  // Writer-side firsts: the earliest edge of each type at or after a
  // write's end is the only instant the rules consult.
  for (auto& [key, is] : fs.intervals) {
    for (LiveWrite& w : is.live) {
      if (w.client != e.track || ts < w.end - kTsSlack) continue;
      if (e.name == "close" && w.first_close == kNoEdge) w.first_close = ts;
      else if (e.name == "sync" && w.first_sync == kNoEdge) w.first_sync = ts;
      else if (e.name == "pub" && w.first_pub == kNoEdge) w.first_pub = ts;
    }
    if (e.name == "pub") {
      for (Marker& m : is.markers) {
        if (m.first_pub != kNoEdge) continue;
        auto it = m.client_end.find(e.track);
        if (it != m.client_end.end() && ts >= it->second - kTsSlack) {
          m.first_pub = ts;
        }
      }
    }
  }
}

void ConsistencyMonitor::try_retire(IntervalState& is, std::uint64_t file) {
  const FileState& fs = files_[file];
  while (is.live.size() >= 2) {
    const LiveWrite& w = is.live.front();
    const double h = horizon();
    // The horizon must have passed: no still-possible read can race or
    // time-overlap the front write once h > w.end.
    if (!(w.end + kTsSlack < h)) break;
    // A newer live write must supersede it as the required version for
    // every possible future read under the model.
    bool superseded = false;
    for (std::size_t k = 1; k < is.live.size() && !superseded; ++k) {
      const LiveWrite& n = is.live[k];
      if (n.end > h) continue;  // program order not yet guaranteed
      switch (model_) {
        case ConsistencyModel::posix:
          superseded = true;
          break;
        case ConsistencyModel::commit:
          superseded = n.first_sync != kNoEdge && n.first_sync <= h;
          break;
        case ConsistencyModel::session:
        case ConsistencyModel::mpiio: {
          // n is required wherever w is once each reader's newest open
          // (session) or sync (mpiio) follows n's close (sync). A reader
          // with none yet is obliged to see neither until it has one —
          // except w's own writer, whom program order obliges to see w.
          // A reader that never catches up keeps w alive: conservative,
          // never wrong.
          const bool session = model_ == ConsistencyModel::session;
          const double edge = session ? n.first_close : n.first_sync;
          if (edge == kNoEdge) break;
          auto newest = [&](const std::string& client) {
            auto it = fs.readers.find(client);
            if (it == fs.readers.end()) return kNoEdge;
            const std::vector<double>& v =
                session ? it->second.opens : it->second.syncs;
            return v.empty() ? kNoEdge : v.back();
          };
          auto caught_up = [&](const std::string& client) {
            const double t = newest(client);
            return client == n.client || (t != kNoEdge && t >= edge - kTsSlack);
          };
          superseded = caught_up(w.client);
          for (auto it = fs.readers.begin();
               superseded && it != fs.readers.end(); ++it) {
            if (newest(it->first) != kNoEdge) superseded = caught_up(it->first);
          }
          break;
        }
      }
    }
    if (!superseded) break;
    // Retire to a per-fingerprint marker: enough to judge a future read
    // that returns this (now stale) content.
    Marker* m = nullptr;
    for (Marker& cand : is.markers) {
      if (cand.fp == w.fp) {
        m = &cand;
        break;
      }
    }
    if (m == nullptr) {
      is.markers.push_back(Marker{});
      m = &is.markers.back();
      m->fp = w.fp;
    }
    m->ev = std::max(m->ev, w.ev);
    auto [it, inserted] = m->client_end.emplace(w.client, w.end);
    if (!inserted) it->second = std::min(it->second, w.end);
    if (w.first_pub != kNoEdge &&
        (m->first_pub == kNoEdge || w.first_pub < m->first_pub)) {
      m->first_pub = w.first_pub;
    }
    is.live.pop_front();
    --live_writes_;
  }
}

void ConsistencyMonitor::feed_deferred(const LiveWrite& w,
                                       const IntervalState& is,
                                       std::uint64_t file) {
  // A deferred read waits for the write whose content it returned. A
  // later matching write of the same interval resolves it as unpublished
  // (it cannot be justified: it neither raced the read nor published
  // before it began); a later partial overlap makes it a composite skip.
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingRead& r = *it;
    if (!r.deferred || r.file != file ||
        !RangesOverlap(r.off, r.len, is.off, is.len)) {
      ++it;
      continue;
    }
    if (is.off != r.off || is.len != r.len) {
      ++stats_.composite_skips;
      decide(r.ev, false, {});
      it = pending_.erase(it);
      continue;
    }
    if (w.fp == r.fp) {
      ++stats_.content_checks;
      decide(r.ev, true,
             {ViolationKind::unpublished_read, w.ev, r.ev, kUnpublished});
      it = pending_.erase(it);
      continue;
    }
    r.has_overlap = true;
    r.last_overlap_ev = w.ev;
    ++it;
  }
}

void ConsistencyMonitor::finalize_ready(bool all) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingRead& r = *it;
    if (!r.deferred && (all || last_ts_ > r.end + kTsSlack)) {
      finalize_read(r);
      if (!r.deferred) {
        it = pending_.erase(it);
        continue;
      }
    }
    if (r.deferred && all) {
      // End of stream: no matching write ever arrived.
      ++stats_.content_checks;
      const std::size_t op_a =
          r.has_w_req ? r.w_req_ev : (r.has_overlap ? r.last_overlap_ev : r.ev);
      decide(r.ev, true,
             {ViolationKind::corrupt_read, op_a, r.ev,
              "read fingerprint matches no write and no hole"});
      it = pending_.erase(it);
      continue;
    }
    ++it;
  }
}

void ConsistencyMonitor::finalize_read(PendingRead& r) {
  auto fit = files_.find(r.file);
  const FileState* fs = fit == files_.end() ? nullptr : &fit->second;

  // Composite: any differently-shaped write history overlapping the
  // read's bytes makes the observable content an overlay per-op hashes
  // cannot reconstruct — skipped.
  const IntervalState* same = nullptr;
  if (fs != nullptr) {
    for (const auto& [key, is] : fs->intervals) {
      if (!RangesOverlap(key.first, key.second, r.off, r.len)) continue;
      if (key.first == r.off && key.second == r.len) {
        same = &is;
        continue;
      }
      ++stats_.composite_skips;
      decide(r.ev, false, {});
      return;
    }
  }

  ReadEdges re{r.client, r.start, r.end};
  if (fs != nullptr) {
    auto it = fs->readers.find(r.client);
    if (it != fs->readers.end()) {
      re.last_open = LastAtOrBefore(it->second.opens, r.start);
      re.last_sync = LastAtOrBefore(it->second.syncs, r.start);
    }
  }
  bool torn = false;
  bool has_w_req = false;
  std::size_t w_req_ev = 0;
  bool has_match = false;
  std::size_t match_ev = 0;
  bool match_justified = false;
  bool has_overlap = false;
  std::size_t overlap_ev = 0;
  if (same != nullptr) {
    for (const LiveWrite& w : same->live) {
      has_overlap = true;
      overlap_ev = w.ev;  // event order == newest-last
      if (TimeOverlaps(w.start, w.end, r.start, r.end)) torn = true;
      if (Required(model_, w.edges(), re)) {
        has_w_req = true;
        w_req_ev = w.ev;
      }
      if (w.fp == r.fp) {
        has_match = true;
        match_ev = w.ev;
        if (Justified(w.edges(), re)) match_justified = true;
      }
    }
    for (const Marker& m : same->markers) {
      // Markers are all older than live writes; they only decide overlap
      // recency when no live write exists.
      if (same->live.empty() && (!has_overlap || m.ev > overlap_ev)) {
        has_overlap = true;
        overlap_ev = m.ev;
      }
      if (m.fp != r.fp) continue;
      if (!has_match) {
        // A live fp-match is always newer than any marker, so the
        // freshness event index stays the live one when present.
        has_match = true;
        match_ev = m.ev;
      }
      // Justification ORs over every match, retired ones included:
      // Justified summarised over the merged writes. Program order holds
      // for a marker writer (the write ended before the horizon, hence
      // before this read began), no retired write races the read, and
      // the earliest applicable publish stands for the rest.
      if (m.client_end.count(r.client) != 0 ||
          (m.first_pub != kNoEdge && m.first_pub <= r.start + kTsSlack)) {
        match_justified = true;
      }
    }
  }

  if (has_match) {
    ++stats_.content_checks;
    if (has_w_req && match_ev < w_req_ev) {
      decide(r.ev, true,
             {ViolationKind::stale_read, w_req_ev, r.ev,
              "read returned content older than a required write"});
    } else if (!match_justified) {
      decide(r.ev, true,
             {ViolationKind::unpublished_read, match_ev, r.ev, kUnpublished});
    } else {
      decide(r.ev, false, {});
    }
    return;
  }
  if (r.fp == ZeroFingerprint(r.len)) {
    ++stats_.content_checks;
    if (has_w_req) {
      decide(r.ev, true,
             {ViolationKind::stale_read, w_req_ev, r.ev,
              "read returned the unwritten hole after a required write"});
    } else {
      decide(r.ev, false, {});
    }
    return;
  }
  if (torn) {
    ++stats_.composite_skips;
    decide(r.ev, false, {});
    return;
  }
  // No match anywhere yet: defer for a possible future matching write,
  // deciding corrupt only at end of stream. Freeze the op_a candidates
  // now.
  r.deferred = true;
  r.has_w_req = has_w_req;
  r.w_req_ev = w_req_ev;
  r.has_overlap = has_overlap;
  r.last_overlap_ev = overlap_ev;
}

}  // namespace pdsi::consist
