#include "pdsi/storage/ssd_model.h"

#include <cassert>
#include <stdexcept>

namespace pdsi::storage {

SsdModel::SsdModel(SsdParams params) : params_(params) {
  if (params_.page_bytes == 0 || params_.pages_per_block == 0 ||
      params_.channels == 0) {
    throw std::invalid_argument("SsdModel: degenerate geometry");
  }
  logical_pages_ = params_.capacity_bytes / params_.page_bytes;
  std::uint64_t physical =
      static_cast<std::uint64_t>(static_cast<double>(logical_pages_) *
                                 (1.0 + params_.over_provision));
  // Round physical space up to whole blocks, with at least one spare block
  // so GC always has somewhere to relocate into.
  const std::uint64_t bpb = params_.pages_per_block;
  std::uint64_t num_blocks = (physical + bpb - 1) / bpb;
  if (num_blocks < logical_pages_ / bpb + 2) num_blocks = logical_pages_ / bpb + 2;
  physical_pages_ = num_blocks * bpb;
  // The write path's hard floor keeps one erased block in reserve, the
  // block being filled may hold up to a block of invalid pages GC cannot
  // reach, and one command programs up to a block plus a straddled page.
  // With three spare blocks or fewer a full device under a wrapping
  // workload can wedge.
  if (physical_pages_ - logical_pages_ <= 3 * bpb) {
    throw std::invalid_argument(
        "SsdModel: needs more than three spare erase blocks beyond the "
        "logical capacity, or GC can wedge the device");
  }
  free_pages_ = physical_pages_;

  blocks_.resize(num_blocks);
  map_.assign(logical_pages_, kUnmapped);
  reverse_.assign(physical_pages_, kUnmapped);
  free_blocks_.reserve(num_blocks);
  for (std::uint32_t b = static_cast<std::uint32_t>(num_blocks); b-- > 1;) {
    free_blocks_.push_back(b);
  }
  active_block_ = 0;
}

double SsdModel::page_read_cost(std::uint64_t pages) const {
  const std::uint64_t waves = (pages + params_.channels - 1) / params_.channels;
  return static_cast<double>(waves) * params_.read_page_us * 1e-6;
}

double SsdModel::page_write_cost(std::uint64_t pages) const {
  const std::uint64_t waves = (pages + params_.channels - 1) / params_.channels;
  return static_cast<double>(waves) * params_.program_page_us * 1e-6;
}

double SsdModel::read(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return 0.0;
  const std::uint64_t first = off / params_.page_bytes;
  const std::uint64_t last = (off + len - 1) / params_.page_bytes;
  if (last >= logical_pages_) throw std::out_of_range("SsdModel::read past capacity");
  const std::uint64_t n = last - first + 1;
  ++stats_.host_reads;
  stats_.pages_read += n;
  double media = page_read_cost(n);
  if (params_.interface_read_bw > 0.0) {
    const double wire = static_cast<double>(len) / params_.interface_read_bw;
    if (wire > media) media = wire;
  }
  return params_.cmd_overhead_us * 1e-6 + media;
}

std::uint32_t SsdModel::allocate_physical_page() {
  Block& active = blocks_[active_block_];
  if (active.next_page == params_.pages_per_block) {
    if (free_blocks_.empty()) {
      throw std::logic_error("SsdModel: out of erased blocks (GC invariant broken)");
    }
    active_block_ = free_blocks_.back();
    free_blocks_.pop_back();
  }
  Block& blk = blocks_[active_block_];
  const std::uint32_t ppn =
      active_block_ * params_.pages_per_block + blk.next_page;
  ++blk.next_page;
  --free_pages_;
  return ppn;
}

void SsdModel::program_page(std::uint64_t lpn) {
  const std::uint32_t old = map_[lpn];
  if (old != kUnmapped) {
    Block& ob = blocks_[old / params_.pages_per_block];
    assert(ob.valid > 0);
    --ob.valid;
    reverse_[old] = kUnmapped;
  }
  const std::uint32_t ppn = allocate_physical_page();
  map_[lpn] = ppn;
  reverse_[ppn] = static_cast<std::uint32_t>(lpn);
  ++blocks_[ppn / params_.pages_per_block].valid;
  ++stats_.pages_programmed;
}

double SsdModel::collect_one_block() {
  // Victim selection: least-valid full block, either exhaustively or among
  // a deterministic pseudo-random sample (d-choices).
  std::uint32_t victim = kUnmapped;
  std::uint32_t best_valid = params_.pages_per_block + 1;
  auto consider = [&](std::uint32_t b) {
    if (b == active_block_) return;
    const Block& blk = blocks_[b];
    if (blk.next_page < params_.pages_per_block) return;  // not yet full
    if (blk.valid < best_valid) {
      best_valid = blk.valid;
      victim = b;
    }
  };
  if (params_.gc_sample == 0 || params_.gc_sample >= blocks_.size()) {
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) consider(b);
  } else {
    for (std::uint32_t i = 0; i < params_.gc_sample; ++i) {
      gc_cursor_ = gc_cursor_ * 6364136223846793005ULL + 1442695040888963407ULL;
      consider(static_cast<std::uint32_t>((gc_cursor_ >> 33) % blocks_.size()));
    }
    if (victim == kUnmapped || best_valid >= params_.pages_per_block) {
      // Sample found nothing reclaimable (no full block, or only fully
      // valid ones); fall back to exhaustive scan.
      for (std::uint32_t b = 0; b < blocks_.size(); ++b) consider(b);
    }
  }
  if (victim == kUnmapped || best_valid >= params_.pages_per_block) {
    return -1.0;  // nothing reclaimable
  }

  double t = 0.0;
  const std::uint64_t base =
      static_cast<std::uint64_t>(victim) * params_.pages_per_block;
  for (std::uint32_t p = 0; p < params_.pages_per_block; ++p) {
    const std::uint32_t lpn = reverse_[base + p];
    if (lpn == kUnmapped) continue;
    // Relocate the still-valid page.
    t += page_read_cost(1);
    program_page(lpn);
    t += page_write_cost(1);
    ++stats_.relocations;
    ++stats_.pages_read;
  }
  Block& blk = blocks_[victim];
  assert(blk.valid == 0);
  blk.next_page = 0;
  ++blk.erase_count;
  ++stats_.erases;
  free_pages_ += params_.pages_per_block;
  free_blocks_.push_back(victim);
  t += params_.erase_block_ms * 1e-3;
  return t;
}

double SsdModel::collect_garbage() {
  double t = 0.0;
  const double target = 1.5 * params_.gc_low_watermark;
  while (free_fraction() < target) {
    const double dt = collect_one_block();
    if (dt < 0.0) break;
    t += dt;
  }
  return t;
}

double SsdModel::write(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return 0.0;
  const std::uint64_t first = off / params_.page_bytes;
  const std::uint64_t last = (off + len - 1) / params_.page_bytes;
  if (last >= logical_pages_) throw std::out_of_range("SsdModel::write past capacity");
  const std::uint64_t n = last - first + 1;
  ++stats_.host_writes;

  double t = params_.cmd_overhead_us * 1e-6;
  if (has_write_position_ && first != last_write_end_lpn_) {
    t += params_.random_write_penalty_us * 1e-6;
  }
  has_write_position_ = true;
  last_write_end_lpn_ = last + 1;

  if (free_fraction() < params_.gc_low_watermark) {
    t += collect_garbage();
  }
  // Hard floor: never program into the last erased block.
  while (free_pages_ < n + params_.pages_per_block) {
    const double dt = collect_one_block();
    if (dt < 0.0) throw std::logic_error("SsdModel: device wedged (no reclaimable space)");
    t += dt;
  }
  for (std::uint64_t lpn = first; lpn <= last; ++lpn) program_page(lpn);
  double media = page_write_cost(n);
  if (params_.interface_write_bw > 0.0) {
    const double wire = static_cast<double>(len) / params_.interface_write_bw;
    if (wire > media) media = wire;
  }
  t += media;
  return t;
}

void SsdModel::idle(double seconds) {
  // Background grooming: spend idle time re-erasing most of the
  // over-provisioned space so the next burst starts from a full pool.
  const double target = 0.9 * params_.over_provision / (1.0 + params_.over_provision);
  double budget = seconds;
  while (budget > 0.0 && free_fraction() < target) {
    const double dt = collect_one_block();
    if (dt < 0.0) break;
    budget -= dt;
  }
}

}  // namespace pdsi::storage
