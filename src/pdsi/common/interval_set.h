// Interval set over byte offsets: disjoint half-open ranges [start, end)
// kept in a std::map from start to end. No two ranges overlap or touch
// (RangeAdd merges neighbours), so "is [s, e) covered?" is a single
// lookup. The burst buffer tracks its resident, dirty and in-flight bytes
// with it; the tiering engine tracks which bytes are durable on the warm
// tier.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

namespace pdsi {

/// Disjoint, non-touching half-open byte ranges, start -> end.
using RangeMap = std::map<std::uint64_t, std::uint64_t>;

/// Adds [s, e), merging it with every range it overlaps or touches.
/// Returns the number of bytes that were not covered before.
inline std::uint64_t RangeAdd(RangeMap& m, std::uint64_t s, std::uint64_t e) {
  if (s >= e) return 0;
  std::uint64_t added = e - s;
  auto it = m.upper_bound(s);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= s) it = prev;  // overlaps or touches on the left
  }
  std::uint64_t ns = s, ne = e;
  while (it != m.end() && it->first <= ne) {
    const std::uint64_t os = std::max(it->first, s);
    const std::uint64_t oe = std::min(it->second, e);
    if (oe > os) added -= oe - os;
    ns = std::min(ns, it->first);
    ne = std::max(ne, it->second);
    it = m.erase(it);
  }
  m.emplace(ns, ne);
  return added;
}

/// Removes [s, e), splitting any range that straddles either end.
/// Returns the number of bytes that were covered before.
inline std::uint64_t RangeRemove(RangeMap& m, std::uint64_t s, std::uint64_t e) {
  if (s >= e) return 0;
  std::uint64_t removed = 0;
  auto it = m.lower_bound(s);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second > s) it = prev;
  }
  while (it != m.end() && it->first < e) {
    const std::uint64_t rs = it->first, re = it->second;
    const std::uint64_t os = std::max(rs, s), oe = std::min(re, e);
    removed += oe - os;
    it = m.erase(it);
    if (rs < os) m.emplace(rs, os);
    if (oe < re) m.emplace(oe, re);
  }
  return removed;
}

/// True when every byte of [s, e) is covered; an empty range always is.
inline bool RangeCovers(const RangeMap& m, std::uint64_t s, std::uint64_t e) {
  if (s >= e) return true;
  auto it = m.upper_bound(s);
  if (it == m.begin()) return false;
  --it;
  return it->second >= e;
}

}  // namespace pdsi
