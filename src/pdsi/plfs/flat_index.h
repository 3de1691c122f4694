// Flattened container index — the restart-read compaction format.
//
// A container's N raw index droppings must be fetched and merged on every
// open, which makes the N-to-1 restart read scale linearly with writer
// ranks. `FlattenIndex` (plfs.h) resolves the merge once and writes the
// result into a single `index.flat` dropping at the container root:
// overlap-resolved segments in logical order, re-compressed into pattern
// records per data dropping, framed with a fingerprint of the raw index
// droppings (relative names + sizes) it was built from. `Reader::build`
// prefers a flat dropping whose fingerprint still matches the live
// droppings and falls back to the raw N-way merge when any dropping was
// added, rewritten, or grew since the flatten — so the flat index is a
// pure accelerator, never a source of staleness.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/result.h"
#include "pdsi/plfs/index.h"

namespace pdsi::plfs {

/// Name of the flat dropping inside the container (a sibling of the
/// hostdirs, so dropping discovery never mistakes it for a rank's index).
inline constexpr const char* kFlatIndexName = "index.flat";

/// In-memory form of an `index.flat` dropping.
struct FlatIndex {
  /// FingerprintDroppings() over the raw index droppings at flatten time.
  std::uint64_t fingerprint = 0;
  /// Logical EOF of the flattened file.
  std::uint64_t logical_size = 0;
  /// Container-relative data-dropping paths ("hostdir.K/data.R"); the
  /// entries' `rank` field indexes this table.
  std::vector<std::string> droppings;
  /// Overlap-free, pattern-compressed entries. `sequence` is the emission
  /// index — entries never overlap, so any ascending order reproduces the
  /// same GlobalIndex.
  std::vector<IndexEntry> entries;
};

/// Order-insensitive fingerprint over (container-relative index-dropping
/// path, size) pairs: the pairs are sorted by path and FNV-1a hashed, so
/// any added, removed, renamed, or resized dropping changes the value.
std::uint64_t FingerprintDroppings(
    std::vector<std::pair<std::string, std::uint64_t>> name_sizes);

/// Collapses resolved, logically-sorted, non-overlapping segments (the
/// GlobalIndex::all() output) into pattern-compressed entries, grouped by
/// data dropping so strided layouts collapse N·K segments into N runs.
std::vector<IndexEntry> CompressSegments(
    const std::vector<GlobalIndex::Segment>& segments);

Bytes SerializeFlatIndex(const FlatIndex& flat);

/// Strict parse; any framing violation (magic, version, truncation, a
/// count the remaining bytes cannot hold, out-of-range dropping
/// reference) returns Errc::invalid so the reader can fall back to the
/// raw merge instead of trusting a corrupt file.
Result<FlatIndex> ParseFlatIndex(std::span<const std::uint8_t> data);

}  // namespace pdsi::plfs
