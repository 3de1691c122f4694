#include "pdsi/consist/model.h"

namespace pdsi::consist {

std::string_view ConsistencyModelName(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::posix: return "posix";
    case ConsistencyModel::session: return "session";
    case ConsistencyModel::commit: return "commit";
    case ConsistencyModel::mpiio: return "mpiio";
  }
  return "?";
}

bool ParseConsistencyModel(std::string_view name, ConsistencyModel* out) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    if (name == ConsistencyModelName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

int RelaxationRank(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::posix: return 0;
    case ConsistencyModel::session: return 1;
    case ConsistencyModel::commit: return 2;
    case ConsistencyModel::mpiio: return 3;
  }
  return 0;
}

bool TimeOverlaps(double a_start, double a_end, double b_start, double b_end) {
  return a_start + kTsSlack < b_end && b_start + kTsSlack < a_end;
}

namespace {

/// `edge` exists and lies no later than `bound` (with round-trip slack).
bool ByEdge(double edge, double bound) {
  return edge != kNoEdge && bound != kNoEdge && edge <= bound + kTsSlack;
}

}  // namespace

bool Required(ConsistencyModel model, const WriteEdges& w, const ReadEdges& r) {
  const bool ordered = w.end <= r.start + kTsSlack;
  if (w.client == r.client) return ordered;
  switch (model) {
    case ConsistencyModel::posix: return ordered;
    case ConsistencyModel::session: return ByEdge(w.first_close, r.last_open);
    case ConsistencyModel::commit: return ByEdge(w.first_sync, r.start);
    case ConsistencyModel::mpiio: return ByEdge(w.first_sync, r.last_sync);
  }
  return false;
}

bool Justified(const WriteEdges& w, const ReadEdges& r) {
  if (w.client == r.client && w.end <= r.start + kTsSlack) return true;
  if (TimeOverlaps(w.start, w.end, r.start, r.end)) return true;
  return ByEdge(w.first_pub, r.start);
}

}  // namespace pdsi::consist
