#include "pdsi/consist/mutate.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace pdsi::consist {
namespace {

struct MOp {
  std::size_t ev = 0;
  bool is_write = false;
  std::string client;
  std::uint64_t file = 0, off = 0, len = 0, fp = 0;
  double start = 0.0, end = 0.0;

  std::uint64_t hi() const { return off + len; }
  bool overlaps(const MOp& o) const { return off < o.hi() && o.off < hi(); }
  bool same_interval(const MOp& o) const {
    return off == o.off && len == o.len;
  }
  bool time_overlaps(const MOp& o) const {
    return start < o.end && o.start < end;
  }
};

struct MEdge {
  std::size_t ev = 0;
  std::string client;
  std::string name;
  std::uint64_t file = 0;
  double ts = 0.0;
};

void SetArg(obs::AnalysisEvent* e, const std::string& key, double v) {
  for (auto& [k, val] : e->args) {
    if (k == key) {
      val = v;
      return;
    }
  }
  e->args.emplace_back(key, v);
}

void Extract(const std::vector<obs::AnalysisEvent>& events,
             std::vector<MOp>* ops, std::vector<MEdge>* edges) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.cat != "consist") continue;
    if (e.is_span() && (e.name == "write" || e.name == "read")) {
      MOp op;
      op.ev = i;
      op.is_write = e.name == "write";
      op.client = e.track;
      op.file = U64Arg(e, "file");
      op.off = U64Arg(e, "off");
      op.len = U64Arg(e, "len");
      op.fp = U64Arg(e, "fp");
      op.start = e.ts;
      op.end = e.end();
      ops->push_back(op);
    } else if (!e.is_span() && edges != nullptr) {
      MEdge ed;
      ed.ev = i;
      ed.client = e.track;
      ed.name = e.name;
      ed.file = U64Arg(e, "file");
      ed.ts = e.ts;
      edges->push_back(ed);
    }
  }
}

/// SplitMix64 scramble so adjacent seeds pick unrelated candidates.
std::uint64_t Mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Pick(std::uint64_t seed, std::size_t n) {
  return static_cast<std::size_t>(Mix(seed) % n);
}

/// Stable canonical re-sort by (ts, track). `tracked` entries (old
/// indices) are rewritten to the corresponding new indices.
void Canonicalize(std::vector<obs::AnalysisEvent>* events,
                  std::vector<std::size_t*> tracked) {
  std::vector<std::size_t> order(events->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto& ea = (*events)[a];
                     const auto& eb = (*events)[b];
                     if (ea.ts != eb.ts) return ea.ts < eb.ts;
                     return ea.track < eb.track;
                   });
  std::vector<std::size_t> pos(events->size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<obs::AnalysisEvent> sorted;
  sorted.reserve(events->size());
  for (std::size_t i : order) sorted.push_back(std::move((*events)[i]));
  *events = std::move(sorted);
  for (std::size_t* t : tracked) *t = pos[*t];
}

/// The model's Justified rule for two extracted ops, optionally with one
/// pub edge deleted — used to predict which read the checker names first.
bool IsJustified(const MOp& w, const MOp& r, const std::vector<MEdge>& edges,
                 std::size_t skip_pub_ev) {
  WriteEdges we{w.client, w.start, w.end};
  for (const auto& e : edges) {
    if (e.ev == skip_pub_ev || e.name != "pub" || e.file != w.file ||
        e.client != w.client || e.ts < w.end - kTsSlack)
      continue;
    if (we.first_pub == kNoEdge || e.ts < we.first_pub) we.first_pub = e.ts;
  }
  return Justified(we, {r.client, r.start, r.end});
}

double MaxEnd(const std::vector<obs::AnalysisEvent>& events) {
  double m = 0.0;
  for (const auto& e : events) m = std::max(m, e.end());
  return m;
}

}  // namespace

PlantedViolation ReorderWritePastClose(std::vector<obs::AnalysisEvent>* events,
                                       std::uint64_t seed) {
  std::vector<MOp> ops;
  std::vector<MEdge> edges;
  Extract(*events, &ops, &edges);
  // Eligible: a write that (a) was published by a later close of its own
  // client, (b) has at least one observing read, and (c) carries a
  // fingerprint unique among writes (so attribution is unambiguous).
  std::vector<std::size_t> cands;  // index into ops
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const MOp& w = ops[i];
    if (!w.is_write) continue;
    bool closed = false;
    for (const auto& e : edges)
      if (e.name == "close" && e.file == w.file && e.client == w.client &&
          e.ts >= w.end)
        closed = true;
    if (!closed) continue;
    bool unique = true, observed = false;
    for (const MOp& o : ops) {
      if (o.is_write && o.ev != w.ev && o.file == w.file && o.fp == w.fp &&
          o.same_interval(w))
        unique = false;
      if (!o.is_write && o.file == w.file && o.same_interval(w) &&
          o.fp == w.fp)
        observed = true;
    }
    if (unique && observed) cands.push_back(i);
  }
  if (cands.empty()) return {};
  const MOp w = ops[cands[Pick(seed, cands.size())]];

  std::size_t w_new = w.ev;
  (*events)[w.ev].ts = MaxEnd(*events) + 1.0;
  // The observing reads' positions are unchanged (only the write moved,
  // to the very end); the earliest observer is who the checker names.
  std::size_t r_new = static_cast<std::size_t>(-1);
  for (const MOp& o : ops) {
    if (!o.is_write && o.file == w.file && o.same_interval(w) &&
        o.fp == w.fp) {
      r_new = std::min(r_new, o.ev);
    }
  }
  Canonicalize(events, {&w_new, &r_new});

  PlantedViolation p;
  p.applied = true;
  p.kind = ViolationKind::unpublished_read;
  p.op_a = w_new;
  p.op_b = r_new;
  std::ostringstream d;
  d << "moved " << w.client << " write file" << w.file << " [" << w.off << ","
    << w.hi() << ") past its publishing close";
  p.what = d.str();
  return p;
}

PlantedViolation DropSyncEdge(std::vector<obs::AnalysisEvent>* events,
                              std::uint64_t seed) {
  std::vector<MOp> ops;
  std::vector<MEdge> edges;
  Extract(*events, &ops, &edges);
  // Eligible: a pub co-located with a sync (commit/mpiio publish points)
  // whose deletion leaves some observed write with no justification.
  // Predict, per candidate, the first read the checker would flag.
  struct Cand {
    std::size_t pub_ev, sync_ev, w_ev, r_ev;
  };
  std::vector<Cand> cands;
  for (const auto& pub : edges) {
    if (pub.name != "pub") continue;
    std::size_t sync_ev = static_cast<std::size_t>(-1);
    for (const auto& s : edges)
      if (s.name == "sync" && s.file == pub.file && s.client == pub.client &&
          s.ts == pub.ts)
        sync_ev = s.ev;
    if (sync_ev == static_cast<std::size_t>(-1)) continue;
    // First read (event order) left unjustified once `pub` is gone.
    std::size_t flagged_r = static_cast<std::size_t>(-1);
    std::size_t flagged_w = static_cast<std::size_t>(-1);
    for (const MOp& r : ops) {
      if (r.is_write) continue;
      const MOp* last_match = nullptr;
      bool any_justified = false;
      for (const MOp& w : ops) {
        if (!w.is_write || w.file != r.file || !w.same_interval(r) ||
            w.fp != r.fp)
          continue;
        last_match = &w;
        if (IsJustified(w, r, edges, pub.ev)) any_justified = true;
      }
      if (last_match != nullptr && !any_justified) {
        flagged_r = r.ev;
        flagged_w = last_match->ev;
        break;
      }
    }
    if (flagged_r != static_cast<std::size_t>(-1))
      cands.push_back({pub.ev, sync_ev, flagged_w, flagged_r});
  }
  if (cands.empty()) return {};
  Cand c = cands[Pick(seed, cands.size())];

  // Erase the two instants (higher index first so the lower stays valid)
  // and re-map the expected pair.
  std::size_t first = std::min(c.pub_ev, c.sync_ev);
  std::size_t second = std::max(c.pub_ev, c.sync_ev);
  events->erase(events->begin() + second);
  events->erase(events->begin() + first);
  auto remap = [&](std::size_t i) {
    return i - (i > first ? 1 : 0) - (i > second ? 1 : 0);
  };
  PlantedViolation p;
  p.applied = true;
  p.kind = ViolationKind::unpublished_read;
  p.op_a = remap(c.w_ev);
  p.op_b = remap(c.r_ev);
  p.what = "dropped a sync edge (sync + co-located pub)";
  return p;
}

PlantedViolation SpliceStaleRead(std::vector<obs::AnalysisEvent>* events,
                                 ConsistencyModel model, std::uint64_t seed) {
  std::vector<MOp> ops;
  Extract(*events, &ops, nullptr);
  // Eligible: a read that returned the newest model-required write of its
  // exact interval, with no partial-overlap writes muddying the content
  // (the checker skips composite reads) and no write racing it in time.
  struct Cand {
    std::size_t r_ev, req_ev;
    std::uint64_t stale_fp;
    bool from_hole;
  };
  std::vector<Cand> cands;
  for (const MOp& r : ops) {
    if (r.is_write) continue;
    const MOp* w_req = nullptr;
    bool composite = false, racing = false;
    for (const MOp& w : ops) {
      if (!w.is_write || w.file != r.file || !w.overlaps(r)) continue;
      if (!w.same_interval(r)) {
        composite = true;
        break;
      }
      if (w.time_overlaps(r)) racing = true;
      if (RequiredVisible(*events, model, w.ev, r.ev)) w_req = &w;
    }
    if (composite || racing || w_req == nullptr || w_req->fp != r.fp)
      continue;
    // Stale content: the newest older same-interval write, else the hole.
    const MOp* older = nullptr;
    for (const MOp& w : ops) {
      if (w.is_write && w.file == r.file && w.same_interval(r) &&
          w.ev < w_req->ev && w.fp != w_req->fp)
        older = &w;
    }
    std::uint64_t stale_fp =
        older != nullptr ? older->fp : ZeroFingerprint(r.len);
    // The spliced fingerprint must not be as fresh as the required write.
    bool fresh_collision = false;
    for (const MOp& w : ops)
      if (w.is_write && w.file == r.file && w.same_interval(r) &&
          w.fp == stale_fp && w.ev >= w_req->ev)
        fresh_collision = true;
    if (fresh_collision || stale_fp == r.fp) continue;
    cands.push_back({r.ev, w_req->ev, stale_fp, older == nullptr});
  }
  if (cands.empty()) return {};
  Cand c = cands[Pick(seed, cands.size())];

  SetArg(&(*events)[c.r_ev], "fp", static_cast<double>(c.stale_fp));
  // No timestamps changed, so indices are already canonical.
  PlantedViolation p;
  p.applied = true;
  p.kind = ViolationKind::stale_read;
  p.op_a = c.req_ev;
  p.op_b = c.r_ev;
  p.what = c.from_hole ? "spliced read back to the unwritten hole"
                       : "spliced read back to a superseded write";
  return p;
}

PlantedViolation OverlapConflictingWrites(std::vector<obs::AnalysisEvent>* events,
                                          std::uint64_t seed) {
  std::vector<MOp> ops;
  Extract(*events, &ops, nullptr);
  // Eligible: serialised cross-client byte-overlapping write pairs.
  struct Cand {
    std::size_t w1, w2;  // index into ops, event order w1 < w2
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      const MOp& a = ops[i];
      const MOp& b = ops[j];
      if (a.is_write && b.is_write && a.client != b.client &&
          a.file == b.file && a.overlaps(b) && !a.time_overlaps(b) &&
          a.end > a.start)
        cands.push_back({i, j});
    }
  }
  if (cands.empty()) return {};
  Cand c = cands[Pick(seed, cands.size())];
  const MOp w1 = ops[c.w1];
  MOp w2 = ops[c.w2];

  // Drop the later write into the middle of the earlier one's span: they
  // now overlap in virtual time while both claim the same bytes.
  double new_ts = w1.start + (w1.end - w1.start) * 0.5;
  double dur = w2.end - w2.start;
  (*events)[w2.ev].ts = new_ts;
  w2.start = new_ts;
  w2.end = new_ts + dur;

  // The checker reports, at the later write's event, the earliest
  // earlier write that byte- and time-overlaps it.
  std::size_t a_new = w1.ev;
  std::size_t b_new = w2.ev;
  Canonicalize(events, {&a_new, &b_new});
  std::vector<MOp> ops2;
  Extract(*events, &ops2, nullptr);
  for (const MOp& e : ops2) {
    if (!e.is_write || e.ev >= b_new || e.file != w2.file) continue;
    if (e.client != w2.client && e.overlaps(w2) && e.time_overlaps(w2)) {
      a_new = e.ev;
      break;
    }
  }

  PlantedViolation p;
  p.applied = true;
  p.kind = ViolationKind::conflicting_writes;
  p.op_a = a_new;
  p.op_b = b_new;
  std::ostringstream d;
  d << "overlapped " << w2.client << " write into " << w1.client
    << "'s span on file" << w1.file;
  p.what = d.str();
  return p;
}

}  // namespace pdsi::consist
