// Chunked sparse byte store backing simulated file contents. Files written
// N-to-1 strided are sparse until all ranks land, and benchmark files can
// be multi-GiB, so the file is indexed in fixed-size chunks. Each chunk
// stores only its written extent: the bytes from the chunk's start up to
// the highest byte written in it, grown with geometric capacity (never
// past the chunk size) as a log appends. Bytes past a chunk's extent,
// chunks never written and bytes past EOF read back as zeros (POSIX
// holes), so a small append-only dropping costs about its own length.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <unordered_map>

namespace pdsi::pfs {

class SparseBuffer {
 public:
  explicit SparseBuffer(std::size_t chunk_bytes = 256 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  /// Stores `data` at `off`; an empty write changes nothing.
  void write(std::uint64_t off, std::span<const std::uint8_t> data);

  /// Reads into `out`, zero-filling holes and bytes past EOF.
  void read(std::uint64_t off, std::span<std::uint8_t> out) const;

  /// Highest written offset + 1 (POSIX st_size).
  std::uint64_t size() const { return size_; }

  /// Bytes of memory the chunks hold allocated (their capacities).
  std::uint64_t allocated_bytes() const;

 private:
  struct Free {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };
  /// Bytes [0, extent) are written data or zeroed holes; the rest of the
  /// capacity is never read.
  struct Chunk {
    std::unique_ptr<std::uint8_t, Free> bytes;
    std::size_t extent = 0;
    std::size_t capacity = 0;
  };

  std::size_t chunk_bytes_;
  std::uint64_t size_ = 0;
  std::unordered_map<std::uint64_t, Chunk> chunks_;
};

}  // namespace pdsi::pfs
