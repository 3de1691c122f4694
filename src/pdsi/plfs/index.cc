#include "pdsi/plfs/index.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pdsi::plfs {
namespace {

void Put64(std::span<std::uint8_t> out, std::size_t at, std::uint64_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}
void Put32(std::span<std::uint8_t> out, std::size_t at, std::uint32_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}
std::uint64_t Get64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}
std::uint32_t Get32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}

}  // namespace

void SerializeEntry(const IndexEntry& e, std::span<std::uint8_t> out) {
  if (out.size() < kRawEntrySize) throw std::invalid_argument("index buffer too small");
  Put64(out, 0, e.logical);
  // Length and sequence fit comfortably in 32 bits for any realistic
  // record; pack to keep the record at 48 bytes.
  Put64(out, 8, e.length);
  Put64(out, 16, e.physical);
  Put64(out, 24, e.stride);
  Put32(out, 32, e.count);
  Put32(out, 36, e.rank);
  Put64(out, 40, e.sequence);
}

IndexEntry DeserializeEntry(std::span<const std::uint8_t> in) {
  if (in.size() < kRawEntrySize) throw std::invalid_argument("short index record");
  IndexEntry e;
  e.logical = Get64(in, 0);
  e.length = Get64(in, 8);
  e.physical = Get64(in, 16);
  e.stride = Get64(in, 24);
  e.count = Get32(in, 32);
  e.rank = Get32(in, 36);
  e.sequence = Get64(in, 40);
  return e;
}

Bytes SerializeEntries(const std::vector<IndexEntry>& entries) {
  Bytes out(entries.size() * kRawEntrySize);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    SerializeEntry(entries[i], std::span(out).subspan(i * kRawEntrySize));
  }
  return out;
}

std::vector<IndexEntry> DeserializeEntries(std::span<const std::uint8_t> data) {
  if (data.size() % kRawEntrySize != 0) {
    throw std::invalid_argument("index dropping size not a record multiple");
  }
  std::vector<IndexEntry> out;
  out.reserve(data.size() / kRawEntrySize);
  for (std::size_t at = 0; at < data.size(); at += kRawEntrySize) {
    out.push_back(DeserializeEntry(data.subspan(at)));
  }
  return out;
}

void PatternCompressor::add(const IndexEntry& e) {
  if (e.count != 1) throw std::invalid_argument("feed plain entries only");
  if (!enabled_) {
    out_.push_back(e);
    return;
  }
  if (run_) {
    IndexEntry& r = *run_;
    const bool same_shape = e.length == r.length && e.rank == r.rank;
    const bool physically_contiguous =
        e.physical == r.physical + static_cast<std::uint64_t>(r.count) * r.length;
    if (same_shape && physically_contiguous) {
      if (r.count == 1) {
        // Second record fixes the stride (forward strides only).
        if (e.logical > r.logical) {
          r.stride = e.logical - r.logical;
          r.count = 2;
          return;
        }
      } else if (e.logical == r.logical + r.stride * r.count) {
        ++r.count;
        return;
      }
    }
    emit_run();
  }
  run_ = e;
  run_->stride = 0;
  run_->count = 1;
}

void PatternCompressor::finish() {
  if (run_) emit_run();
}

void PatternCompressor::emit_run() {
  out_.push_back(*run_);
  run_.reset();
}

std::vector<IndexEntry> PatternCompressor::take() {
  std::vector<IndexEntry> out;
  out.swap(out_);
  return out;
}

void GlobalIndex::Builder::add(const IndexEntry& e, std::uint32_t dropping_id) {
  if (e.length == 0) return;
  for (std::uint32_t k = 0; k < e.count; ++k) {
    const std::uint64_t logical = e.logical + e.stride * k;
    if (logical + e.length < logical) continue;  // wraps: corrupt record
    records_.push_back({logical, logical + e.length,
                        e.physical + static_cast<std::uint64_t>(k) * e.length,
                        records_.size(), dropping_id});
  }
}

GlobalIndex GlobalIndex::Builder::build() && {
  std::vector<Record> recs = std::move(records_);
  std::sort(recs.begin(), recs.end(), [](const Record& a, const Record& b) {
    return a.logical != b.logical ? a.logical < b.logical : a.order < b.order;
  });
  GlobalIndex out;
  out.segments_.reserve(recs.size());
  // Sweep the logical axis from event to event (a record's start or the
  // owner's end). The records covering the current position sit in a
  // max-heap by application order, so its top owns the position. Ended
  // records leave the heap lazily, once they reach the top; popping them
  // before the next starts join keeps the heap at one or two records
  // when nothing overlaps.
  const auto older = [&recs](std::size_t a, std::size_t b) {
    return recs[a].order < recs[b].order;
  };
  std::vector<std::size_t> live;
  std::size_t next = 0;
  std::size_t last_owner = recs.size();  // owner of segments_.back()
  std::uint64_t pos = 0;
  for (;;) {
    while (!live.empty() && recs[live.front()].end <= pos) {
      std::pop_heap(live.begin(), live.end(), older);
      live.pop_back();
    }
    if (live.empty()) {
      if (next == recs.size()) break;
      pos = recs[next].logical;  // skip a hole
    }
    for (; next < recs.size() && recs[next].logical == pos; ++next) {
      live.push_back(next);
      std::push_heap(live.begin(), live.end(), older);
    }
    const std::size_t owner = live.front();
    const Record& r = recs[owner];
    std::uint64_t stop = r.end;
    if (next < recs.size()) stop = std::min(stop, recs[next].logical);
    if (owner == last_owner) {
      // An older record started under the owner: the run continues (a
      // record is contiguous, so its run cannot resume after a gap).
      out.segments_.back().length += stop - pos;
    } else {
      out.segments_.push_back(
          {pos, stop - pos, r.dropping, r.physical + (pos - r.logical)});
      last_owner = owner;
    }
    pos = stop;
  }
  // The newest record covering the highest written byte owns it.
  if (!out.segments_.empty()) {
    out.size_ = out.segments_.back().logical + out.segments_.back().length;
  }
  return out;
}

std::vector<GlobalIndex::Segment> GlobalIndex::lookup(std::uint64_t off,
                                                      std::uint64_t len) const {
  std::vector<Segment> out;
  if (len == 0) return out;
  const std::uint64_t end = off + len;
  std::uint64_t pos = off;

  // The first segment ending after `off`; segments are disjoint, so every
  // later one starts at or past it.
  auto it = std::partition_point(
      segments_.begin(), segments_.end(),
      [off](const Segment& s) { return s.logical + s.length <= off; });
  while (pos < end) {
    if (it == segments_.end() || it->logical >= end) {
      out.push_back({pos, end - pos, kHole, 0});
      break;
    }
    if (it->logical > pos) {
      out.push_back({pos, it->logical - pos, kHole, 0});
      pos = it->logical;
    }
    const std::uint64_t send = it->logical + it->length;
    const std::uint64_t from = std::max(pos, it->logical);
    const std::uint64_t to = std::min(end, send);
    out.push_back({from, to - from, it->dropping, it->physical + (from - it->logical)});
    pos = to;
    ++it;
  }
  return out;
}

}  // namespace pdsi::plfs
