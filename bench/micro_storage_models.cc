// Microbenchmarks: the storage service-time models themselves. These sit
// on the hot path of every simulated I/O, so their cost bounds how large
// a simulated system the harness can afford.
//
// Two outputs: BENCH_ JSON lines holding the models' *virtual-time*
// answers for a fixed op sequence — those are deterministic, so bench_diff
// can gate them byte-for-byte in CI — and host-time rows (how expensive
// the models are to evaluate). `--models-only` emits just the JSON (the CI
// mode).
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/rng.h"
#include "pdsi/storage/device_catalog.h"

using namespace pdsi;
using namespace pdsi::storage;
using bench::DoNotOptimize;
using bench::TimeLoop;

namespace {

void TimeModels() {
  DiskModel seq(ReferenceSataDisk());
  std::uint64_t seq_off = 0;
  TimeLoop("DiskAccessSequential", [&] {
    DoNotOptimize(seq.access(1, seq_off, 65536));
    seq_off += 65536;
  });

  DiskModel rnd(ReferenceSataDisk());
  Rng disk_rng(1);
  TimeLoop("DiskAccessRandom", [&] {
    DoNotOptimize(rnd.access(1, disk_rng.below(1ull << 38), 4096));
  });

  SsdParams sp = FlashDevice("fusionio-iodrive-duo");
  sp.capacity_bytes = 256ull << 20;
  SsdModel ssd_seq(sp);
  std::uint64_t ssd_off = 0;
  TimeLoop("SsdSequentialWrite", [&] {
    DoNotOptimize(ssd_seq.write(ssd_off % (sp.capacity_bytes - 65536), 65536));
    ssd_off += 65536;
  });

  SsdParams rp = FlashDevice("fusionio-iodrive-duo");
  rp.capacity_bytes = 64ull << 20;
  SsdModel ssd_rand(rp);
  Rng ssd_rng(2);
  const std::uint64_t pages = rp.capacity_bytes / 4096;
  // Pre-fill so GC is active during measurement.
  for (std::uint64_t i = 0; i < pages * 2; ++i) {
    ssd_rand.write(ssd_rng.below(pages) * 4096, 4096);
  }
  TimeLoop("SsdRandomWriteSteadyState", [&] {
    DoNotOptimize(ssd_rand.write(ssd_rng.below(pages) * 4096, 4096));
  });
}

/// Fixed op sequences through each model; the summed service times are
/// pure functions of the parameters, so the emitted row is byte-stable.
void EmitModelAnswers() {
  constexpr int kOps = 1024;

  DiskModel seq(ReferenceSataDisk());
  double disk_seq_s = 0.0;
  for (int i = 0; i < kOps; ++i) {
    disk_seq_s += seq.access(1, static_cast<std::uint64_t>(i) * 65536, 65536);
  }

  DiskModel rnd(ReferenceSataDisk());
  Rng disk_rng(1);
  double disk_rand_s = 0.0;
  for (int i = 0; i < kOps; ++i) {
    disk_rand_s += rnd.access(1, disk_rng.below(1ull << 38), 4096);
  }

  SsdParams sp = FlashDevice("fusionio-iodrive-duo");
  sp.capacity_bytes = 256ull << 20;
  SsdModel ssd_seq(sp);
  double ssd_seq_write_s = 0.0;
  for (int i = 0; i < kOps; ++i) {
    ssd_seq_write_s += ssd_seq.write(static_cast<std::uint64_t>(i) * 65536, 65536);
  }

  SsdParams rp = FlashDevice("fusionio-iodrive-duo");
  rp.capacity_bytes = 64ull << 20;
  SsdModel ssd_rand(rp);
  Rng ssd_rng(2);
  const std::uint64_t pages = rp.capacity_bytes / 4096;
  for (std::uint64_t i = 0; i < pages * 2; ++i) {
    ssd_rand.write(ssd_rng.below(pages) * 4096, 4096);
  }
  double ssd_rand_steady_s = 0.0;
  for (int i = 0; i < kOps; ++i) {
    ssd_rand_steady_s += ssd_rand.write(ssd_rng.below(pages) * 4096, 4096);
  }

  bench::Report::Emit("micro_storage_models",
                      {{"ops", kOps},
                       {"disk_seq_s", disk_seq_s},
                       {"disk_rand_s", disk_rand_s},
                       {"ssd_seq_write_s", ssd_seq_write_s},
                       {"ssd_rand_steady_s", ssd_rand_steady_s},
                       {"ssd_write_amp", ssd_rand.stats().write_amplification()}});
}

}  // namespace

int main(int argc, char** argv) {
  bool models_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--models-only") == 0) models_only = true;
  }
  EmitModelAnswers();
  if (!models_only) TimeModels();
  return 0;
}
