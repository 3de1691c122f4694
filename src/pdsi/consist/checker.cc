#include "pdsi/consist/checker.h"

#include <cmath>
#include <map>
#include <sstream>

#include "pdsi/common/bytes.h"
#include "pdsi/consist/monitor.h"
#include "pdsi/obs/monitor.h"

namespace pdsi::consist {

std::string_view ViolationKindName(ViolationKind k) {
  switch (k) {
    case ViolationKind::stale_read: return "stale_read";
    case ViolationKind::unpublished_read: return "unpublished_read";
    case ViolationKind::corrupt_read: return "corrupt_read";
    case ViolationKind::conflicting_writes: return "conflicting_writes";
  }
  return "?";
}

CheckResult CheckConsistency(const std::vector<obs::AnalysisEvent>& events,
                             ConsistencyModel model) {
  ConsistencyMonitor mon(model);
  obs::ReplayEvents(events, {&mon});
  return {mon.clean(), mon.first(), mon.stats()};
}

bool RequiredVisible(const std::vector<obs::AnalysisEvent>& events,
                     ConsistencyModel model, std::size_t write_ev,
                     std::size_t read_ev) {
  auto is_op = [&](std::size_t i, const char* name) {
    return i < events.size() && events[i].cat == "consist" &&
           events[i].is_span() && events[i].name == name;
  };
  if (!is_op(write_ev, "write") || !is_op(read_ev, "read")) return false;
  const obs::AnalysisEvent& we = events[write_ev];
  const obs::AnalysisEvent& re = events[read_ev];
  const std::uint64_t w_file = U64Arg(we, "file");
  const std::uint64_t r_file = U64Arg(re, "file");
  WriteEdges w{we.track, we.ts, we.end()};
  ReadEdges r{re.track, re.ts, re.end()};
  for (const obs::AnalysisEvent& e : events) {
    if (e.cat != "consist" || e.is_span()) continue;
    const std::uint64_t file = U64Arg(e, "file");
    if (file == w_file && e.track == w.client && e.ts >= w.end - kTsSlack) {
      double* first = e.name == "close"  ? &w.first_close
                      : e.name == "sync" ? &w.first_sync
                      : e.name == "pub"  ? &w.first_pub
                                         : nullptr;
      if (first != nullptr && (*first == kNoEdge || e.ts < *first)) {
        *first = e.ts;
      }
    }
    if (file == r_file && e.track == r.client && e.ts <= r.start + kTsSlack) {
      double* last = e.name == "open"   ? &r.last_open
                     : e.name == "sync" ? &r.last_sync
                                        : nullptr;
      if (last != nullptr && e.ts > *last) *last = e.ts;
    }
  }
  return Required(model, w, r);
}

std::string FormatViolation(const Violation& v,
                            const std::vector<obs::AnalysisEvent>& events) {
  std::ostringstream os;
  os << ViolationKindName(v.kind) << ": ";
  auto describe = [&](std::size_t i) {
    if (i >= events.size()) {
      os << "<op " << i << ">";
      return;
    }
    const auto& e = events[i];
    os << e.track << " " << e.name << " file" << U64Arg(e, "file") << " ["
       << U64Arg(e, "off") << "," << U64Arg(e, "off") + U64Arg(e, "len")
       << ") @" << e.ts;
  };
  describe(v.op_a);
  os << " vs ";
  describe(v.op_b);
  os << " — " << v.detail;
  return os.str();
}

std::uint64_t ZeroFingerprint(std::uint64_t len) {
  thread_local std::map<std::uint64_t, std::uint64_t> cache;
  auto it = cache.find(len);
  if (it != cache.end()) return it->second;
  Bytes zeros(static_cast<std::size_t>(len), 0);
  std::uint64_t fp = HashBytes(zeros) & 0xffffffffULL;
  cache.emplace(len, fp);
  return fp;
}

std::uint64_t U64Arg(const obs::AnalysisEvent& e, const char* key) {
  return static_cast<std::uint64_t>(std::llround(e.arg(key, 0.0)));
}

}  // namespace pdsi::consist
