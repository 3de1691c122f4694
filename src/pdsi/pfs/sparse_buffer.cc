#include "pdsi/pfs/sparse_buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace pdsi::pfs {

void SparseBuffer::write(std::uint64_t off, std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  std::uint64_t pos = off;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint64_t index = pos / chunk_bytes_;
    const std::size_t in_chunk = static_cast<std::size_t>(pos % chunk_bytes_);
    const std::size_t n = std::min(chunk_bytes_ - in_chunk, data.size() - i);
    const std::size_t end = in_chunk + n;
    Chunk& c = chunks_[index];
    if (end > c.capacity) {
      // Doubling keeps appends amortised O(1). realloc grows in place
      // where the allocator can, so many chunks appended in turn do not
      // leave a trail of freed smaller copies behind.
      const std::size_t cap = std::min(chunk_bytes_, std::max(end, 2 * c.capacity));
      auto* grown = static_cast<std::uint8_t*>(std::realloc(c.bytes.get(), cap));
      if (!grown) throw std::bad_alloc();
      (void)c.bytes.release();  // realloc has freed or reused the old block
      c.bytes.reset(grown);
      c.capacity = cap;
    }
    if (in_chunk > c.extent) std::memset(c.bytes.get() + c.extent, 0, in_chunk - c.extent);
    std::memcpy(c.bytes.get() + in_chunk, data.data() + i, n);
    c.extent = std::max(c.extent, end);
    pos += n;
    i += n;
  }
  size_ = std::max(size_, off + data.size());
}

void SparseBuffer::read(std::uint64_t off, std::span<std::uint8_t> out) const {
  std::uint64_t pos = off;
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t index = pos / chunk_bytes_;
    const std::size_t in_chunk = static_cast<std::size_t>(pos % chunk_bytes_);
    const std::size_t n = std::min(chunk_bytes_ - in_chunk, out.size() - i);
    auto it = chunks_.find(index);
    const std::size_t extent = it == chunks_.end() ? 0 : it->second.extent;
    const std::size_t stored = in_chunk < extent ? std::min(n, extent - in_chunk) : 0;
    if (stored > 0) std::memcpy(out.data() + i, it->second.bytes.get() + in_chunk, stored);
    std::memset(out.data() + i + stored, 0, n - stored);
    pos += n;
    i += n;
  }
}

std::uint64_t SparseBuffer::allocated_bytes() const {
  std::uint64_t total = 0;
  for (const auto& entry : chunks_) total += entry.second.capacity;
  return total;
}

}  // namespace pdsi::pfs
