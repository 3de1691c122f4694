// Quickstart: PLFS in five minutes.
//
// Eight "ranks" (threads) concurrently write one logical checkpoint file
// in the N-1 strided pattern that cripples ordinary shared-file I/O.
// PLFS decouples that into per-rank logs under a real directory tree,
// then reconstructs and verifies the logical file, prints the container
// layout, and flattens it into a plain file.
//
// Run from anywhere; it works in a temp directory and cleans up.
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/plfs/plfs.h"

using namespace pdsi;

int main() {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "plfs_quickstart";
  fs::remove_all(root);
  fs::create_directories(root);

  constexpr int kRanks = 8;
  constexpr std::uint64_t kRecord = 47 * KiB + 301;  // small & unaligned
  constexpr int kSteps = 24;

  plfs::Plfs store(plfs::MakePosixBackend(root.string()));

  std::cout << "writing /ckpt: " << kRanks << " ranks x " << kSteps
            << " strided records of "
            << FormatBytes(static_cast<double>(kRecord)) << "\n";

  std::vector<std::thread> ranks;
  for (int rank = 0; rank < kRanks; ++rank) {
    ranks.emplace_back([&store, rank] {
      auto writer = store.open_write("/ckpt", static_cast<std::uint32_t>(rank));
      if (!writer.ok()) {
        std::cerr << "open_write failed: " << ErrcName(writer.error()) << "\n";
        return;
      }
      for (int k = 0; k < kSteps; ++k) {
        const std::uint64_t off =
            (static_cast<std::uint64_t>(k) * kRanks + rank) * kRecord;
        const Bytes data =
            MakePattern(static_cast<std::uint32_t>(rank), off, kRecord);
        (*writer)->write(off, data);
      }
      (*writer)->close();
    });
  }
  for (auto& t : ranks) t.join();

  // What landed on the backing store?
  std::cout << "\ncontainer layout under " << root << "/ckpt:\n";
  auto top = store.backend().readdir("/ckpt");
  int hostdirs = 0, droppings = 0;
  for (const auto& name : *top) {
    if (name.rfind("hostdir.", 0) == 0) {
      ++hostdirs;
      droppings += static_cast<int>(store.backend().readdir("/ckpt/" + name)->size());
    }
  }
  std::cout << "  " << hostdirs << " hostdirs, " << droppings
            << " droppings (data+index per rank)\n";

  // Read back through the global index and verify every byte.
  auto reader = store.open_read("/ckpt");
  const std::uint64_t total = (*reader)->size();
  std::cout << "\nlogical size: " << FormatBytes(static_cast<double>(total))
            << " from " << (*reader)->dropping_count() << " droppings, index "
            << FormatBytes(static_cast<double>((*reader)->index_bytes_read()))
            << "\n";

  Bytes buf(total);
  (*reader)->read(0, buf);
  std::size_t bad = 0;
  for (std::uint64_t block = 0; block < kRanks * kSteps; ++block) {
    const auto rank = static_cast<std::uint32_t>(block % kRanks);
    const std::uint64_t off = block * kRecord;
    if (FindPatternMismatch(rank, off, std::span(buf).subspan(off, kRecord)) !=
        kNoMismatch) {
      ++bad;
    }
  }
  std::cout << "verification: " << (bad == 0 ? "every byte correct" : "MISMATCH!")
            << "\n";

  // Flatten to a plain file for tools that cannot read containers.
  store.flatten("/ckpt", "/ckpt.flat");
  auto h = store.backend().open("/ckpt.flat");
  std::cout << "flattened copy: "
            << FormatBytes(static_cast<double>(*store.backend().size(*h))) << "\n";
  store.backend().close(*h);

  store.unlink("/ckpt");
  fs::remove_all(root);
  std::cout << "\nok.\n";
  return bad == 0 ? 0 : 1;
}
