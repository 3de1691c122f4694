// NAND-flash SSD model with an explicit flash translation layer.
//
// The report's flash findings (§4.2.6, Table 1, Figs. 11 & 14) are all
// FTL artifacts: random reads fly because there is no head; small random
// writes are slower than reads because pages must be programmed whole;
// and sustained random writing collapses roughly 10x once the pre-erased
// page pool is depleted and every host write drags garbage-collection
// relocations behind it. This model reproduces those mechanics directly:
// page-level mapping, greedy min-valid victim selection, background pool
// refill while idle, and channel-level parallelism.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pdsi::storage {

struct SsdParams {
  std::string name = "generic-mlc";
  std::uint64_t capacity_bytes = 2ULL << 30;   ///< host-visible capacity
  double over_provision = 0.12;                ///< extra physical space
  std::uint32_t page_bytes = 4096;
  std::uint32_t pages_per_block = 128;
  std::uint32_t channels = 4;                  ///< parallel flash dies
  double read_page_us = 60.0;                  ///< page read incl. bus
  double program_page_us = 220.0;              ///< page program incl. bus
  double erase_block_ms = 1.5;
  double cmd_overhead_us = 25.0;               ///< per-host-command cost
  /// Host interface ceilings (SATA vs PCIe); 0 means uncapped.
  double interface_read_bw = 0.0;
  double interface_write_bw = 0.0;
  /// Extra cost charged to a write command that is not sequential with the
  /// previous one. Models the merge work of the hybrid (block-mapped) FTLs
  /// in SATA-era drives; page-mapped PCIe devices set this to ~0.
  double random_write_penalty_us = 0.0;
  /// GC starts when the free-page fraction of physical space drops below
  /// this; it stops at 1.5x this level.
  double gc_low_watermark = 0.05;
  /// Victim selection: pick the least-valid block among this many sampled
  /// candidates ("d-choices"). 0 means exhaustive greedy. Real controllers
  /// sample; exhaustive greedy understates steady-state write
  /// amplification.
  std::uint32_t gc_sample = 16;
};

/// Cumulative counters for wear and amplification reporting.
struct SsdStats {
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_programmed = 0;     ///< host + relocation programs
  std::uint64_t relocations = 0;          ///< GC page copies
  std::uint64_t erases = 0;

  /// Pages programmed on behalf of the host (excludes GC relocations).
  std::uint64_t host_pages() const { return pages_programmed - relocations; }

  /// total programs / host programs. A fresh device (no programs at all)
  /// reports 1.0; programs with zero host pages — pure GC churn, e.g. a
  /// windowed delta taken across an idle-grooming pass — report infinity
  /// rather than masking pathological GC as 1.0.
  double write_amplification() const {
    if (host_pages() > 0) {
      return static_cast<double>(pages_programmed) /
             static_cast<double>(host_pages());
    }
    return pages_programmed == 0 ? 1.0
                                 : std::numeric_limits<double>::infinity();
  }
};

class SsdModel {
 public:
  /// Throws std::invalid_argument for a degenerate geometry or for three
  /// spare erase blocks or fewer beyond the logical capacity.
  explicit SsdModel(SsdParams params = {});

  const SsdParams& params() const { return params_; }
  const SsdStats& stats() const { return stats_; }


  /// Reads `len` bytes at logical byte offset `off`; returns service time.
  double read(std::uint64_t off, std::uint64_t len);

  /// Writes `len` bytes at logical byte offset `off`; returns service
  /// time including any synchronous garbage collection it triggered.
  double write(std::uint64_t off, std::uint64_t len);

  /// Credits `seconds` of host idle time to background garbage collection
  /// (models the drive "grooming" between bursts).
  void idle(double seconds);

  /// Current pre-erased pool as a fraction of physical pages.
  double free_fraction() const {
    return static_cast<double>(free_pages_) / static_cast<double>(physical_pages_);
  }

 private:
  static constexpr std::uint32_t kUnmapped = ~0u;

  struct Block {
    std::uint32_t valid = 0;       ///< live pages in this block
    std::uint32_t next_page = 0;   ///< next unwritten page slot
    std::uint32_t erase_count = 0;
  };

  double page_write_cost(std::uint64_t pages) const;
  double page_read_cost(std::uint64_t pages) const;

  /// Programs one logical page, invalidating any previous mapping.
  void program_page(std::uint64_t lpn);

  /// Runs greedy GC until the pool recovers to the high watermark;
  /// returns the time spent.
  double collect_garbage();

  /// Relocate + erase a single victim block; returns time spent, or a
  /// negative value if no victim is available.
  double collect_one_block();

  std::uint32_t allocate_physical_page();

  SsdParams params_;
  SsdStats stats_;
  std::uint64_t logical_pages_;
  std::uint64_t physical_pages_;
  std::uint64_t free_pages_;
  std::uint32_t active_block_;                 ///< block receiving programs
  std::uint64_t gc_cursor_ = 0x2545f4914f6cdd1dULL;  ///< victim-sampling LCG
  bool has_write_position_ = false;
  std::uint64_t last_write_end_lpn_ = 0;
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> map_;             ///< lpn -> physical page
  std::vector<std::uint32_t> reverse_;         ///< physical page -> lpn
  std::vector<std::uint32_t> free_blocks_;     ///< fully erased blocks
};

}  // namespace pdsi::storage
