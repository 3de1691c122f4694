// PLFS index machinery.
//
// Every rank logs its writes as (logical offset, length) -> (position in
// that rank's data dropping). Reading the logical file later requires
// merging every rank's index into one global map from logical ranges to
// (dropping, physical offset) — later writes shadow earlier ones.
//
// Index records support run-length "pattern" compression: an N-to-1
// strided checkpoint produces, per rank, an arithmetic sequence of
// records (constant length, constant logical stride, contiguous physical
// placement), which collapses into a single PatternEntry. This is the
// index-compression extension the report lists (§1.1, item 5) and is an
// ablation axis in bench/abl01_plfs_ablation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pdsi/common/bytes.h"

namespace pdsi::plfs {

/// One run of writes from a single rank. count == 1 describes a plain
/// write; count > 1 describes `count` records of `length` bytes whose
/// logical offsets step by `stride` and whose payloads are contiguous in
/// the data dropping starting at `physical`.
struct IndexEntry {
  std::uint64_t logical = 0;
  std::uint64_t length = 0;
  std::uint64_t physical = 0;
  std::uint64_t stride = 0;
  std::uint32_t count = 1;
  std::uint32_t rank = 0;
  std::uint64_t sequence = 0;  ///< global write-order stamp (later wins)

  std::uint64_t logical_end() const {
    return count == 0 ? logical
                      : logical + stride * (count - 1) + length;
  }
  std::uint64_t bytes() const { return static_cast<std::uint64_t>(count) * length; }
};

/// Fixed-size on-disk record; entries serialise to exactly kRawEntrySize
/// bytes so droppings can be scanned without framing.
inline constexpr std::size_t kRawEntrySize = 48;

void SerializeEntry(const IndexEntry& e, std::span<std::uint8_t> out);
IndexEntry DeserializeEntry(std::span<const std::uint8_t> in);

Bytes SerializeEntries(const std::vector<IndexEntry>& entries);
std::vector<IndexEntry> DeserializeEntries(std::span<const std::uint8_t> data);

/// Streaming pattern compressor: feed plain (count==1) entries in write
/// order; emits compressed entries. A run is extended while length is
/// constant, physical placement is contiguous, and the logical stride
/// matches the run's stride.
class PatternCompressor {
 public:
  /// When disabled, entries pass through unmodified (ablation baseline).
  explicit PatternCompressor(bool enabled) : enabled_(enabled) {}

  void add(const IndexEntry& e);

  /// Flushes the open run; call before serialising.
  void finish();

  /// Entries emitted so far (consumed by the caller; cleared on take()).
  std::vector<IndexEntry> take();

 private:
  void emit_run();

  bool enabled_;
  std::optional<IndexEntry> run_;
  std::vector<IndexEntry> out_;
};

/// The merged, queryable view of a container's index droppings.
///
/// Built once by a Builder from records in application order (later
/// records shadow earlier ones), then immutable: a sorted array of
/// disjoint data segments, each a maximal logical run owned by one
/// record.
class GlobalIndex {
 public:
  /// A resolved logical extent. dropping == kHole marks unwritten bytes.
  struct Segment {
    std::uint64_t logical;
    std::uint64_t length;
    std::uint32_t dropping;  ///< caller-assigned data-dropping id
    std::uint64_t physical;  ///< offset within that dropping
  };
  static constexpr std::uint32_t kHole = ~0u;

  /// Collects a container's records, then resolves them in one pass.
  class Builder {
   public:
    /// Appends all records of an entry, attributing them to data dropping
    /// `dropping_id`. Add entries in application order (ascending
    /// `sequence`, ties broken by position) for correct shadowing.
    /// Empty records, and records that would end past 2^64 (only a
    /// corrupt dropping holds one), are skipped.
    void add(const IndexEntry& e, std::uint32_t dropping_id);

    /// Resolves newest-wins: sorts the records by logical offset, then
    /// sweeps them once, the newest record covering each byte owning it.
    GlobalIndex build() &&;

   private:
    struct Record {
      std::uint64_t logical;
      std::uint64_t end;
      std::uint64_t physical;
      std::uint64_t order;  ///< position in application order
      std::uint32_t dropping;
    };
    std::vector<Record> records_;
  };

  /// Logical EOF: one past the highest written byte.
  std::uint64_t size() const { return size_; }

  std::size_t segment_count() const { return segments_.size(); }

  /// Decomposes [off, off+len) into data segments and holes, in order.
  std::vector<Segment> lookup(std::uint64_t off, std::uint64_t len) const;

  /// All data segments in logical order (flatten, visualisation).
  const std::vector<Segment>& all() const { return segments_; }

 private:
  std::vector<Segment> segments_;  ///< disjoint, ascending logical
  std::uint64_t size_ = 0;
};

}  // namespace pdsi::plfs
