// Extension — SSD burst-buffer tier in front of the parallel file system
// (§4.2.6 flash study + the Fig. 2/5 checkpoint workload).
//
// Three regimes of pdsi::bb, all on virtual time:
//   1. absorb — the N-1 strided checkpoint pattern lands on flash instead
//      of seek-bound OSS disks; the drain rewrites it sequentially;
//   2. overlap — the Fig. 5 checkpoint simulator with the absorb/drain
//      split: utilisation uplift grows with drain bandwidth until the
//      drain hides inside the compute interval;
//   3. backpressure — an undersized buffer against a slow PFS degrades
//      ingest to drain speed via watermark stalls instead of failing.
#include <iostream>

#include "bench_util.h"
#include "pdsi/bb/burst_buffer.h"
#include "pdsi/bb/drain_target.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/failure/checkpoint_sim.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/storage/device_catalog.h"

using namespace pdsi;

namespace {

// Issues the N-1 strided checkpoint: `ranks` writers, `chunk`-byte
// records interleaved rank-major, one scheduler actor per writer
// (admission in (time, rank) order keeps arrivals FIFO). Returns the time
// the last record lands.
template <typename WriteFn>
double StridedCheckpointTime(std::uint32_t ranks, std::uint64_t chunk,
                             std::uint64_t per_rank, WriteFn&& write) {
  sim::VirtualScheduler sched(ranks);
  return sched.run([&](std::size_t r) {
    for (std::uint64_t k = 0; k < per_rank / chunk; ++k) {
      const std::uint64_t off = (k * ranks + r) * chunk;
      sched.atomically(r, [&](double now) { return write(off, chunk, now); });
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Burst buffer: flash staging tier for defensive checkpoints",
                "§4.2.6 flash + Figs. 2/5: the machine idles until the last "
                "checkpoint byte is durable; staging on flash shrinks that "
                "window to the absorb time");
  // --trace <path>: part 1's buffer traces onto the bb.* tracks and one
  // part-2 checkpoint sim (the fastest drain) onto the ckpt.* tracks; the
  // other runs stay untraced so each track holds a single unambiguous run.
  // --profile aggregates the traced runs into a BENCH_ profile line.
  bench::BenchObs trace(bench::TraceFlag(argc, argv),
                        bench::ProfileFlag(argc, argv), "ext12_burst_buffer");

  // ---- 1. absorb bandwidth vs direct-to-PFS --------------------------------
  PrintBanner(std::cout, "N-1 strided checkpoint: direct PFS vs flash absorb");
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kChunk = 47 * KiB;   // unaligned, LANL-app-like
  constexpr std::uint64_t kPerRank = 16 * MiB;
  const std::uint64_t total = kRanks * (kPerRank / kChunk) * kChunk;

  sim::VirtualScheduler direct_sched(1);
  pfs::PfsCluster direct_cluster(pfs::PfsConfig{}, direct_sched);
  auto direct_target = bb::MakePfsDrainTarget(direct_cluster);
  const double direct_time = StridedCheckpointTime(
      kRanks, kChunk, kPerRank,
      [&](std::uint64_t off, std::uint64_t len, double now) {
        return direct_target->drain(1, off, len, now);
      });

  sim::VirtualScheduler bb_sched(1);
  pfs::PfsCluster bb_cluster(pfs::PfsConfig{}, bb_sched);
  auto bb_target = bb::MakePfsDrainTarget(bb_cluster);
  bb::BbParams bp;
  bp.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  bp.ssd.capacity_bytes = 512 * MiB;
  bb::BurstBuffer buf(bp, *bb_target, trace.ctx());
  const double absorb_time = StridedCheckpointTime(
      kRanks, kChunk, kPerRank,
      [&](std::uint64_t off, std::uint64_t len, double now) {
        return buf.write(1, off, len, now);
      });
  const double durable_time = buf.flush(absorb_time);

  const double direct_bw = static_cast<double>(total) / direct_time;
  const double absorb_bw = static_cast<double>(total) / absorb_time;
  Table t1({"path", "application blocked", "bandwidth", "durable at"});
  t1.row({"direct to PFS", FormatDuration(direct_time), FormatRate(direct_bw),
          FormatDuration(direct_time)});
  t1.row({"burst buffer (" + bp.ssd.name + ")", FormatDuration(absorb_time),
          FormatRate(absorb_bw), FormatDuration(durable_time)});
  t1.print(std::cout);
  bench::Note("absorb speedup " + FormatDouble(absorb_bw / direct_bw, 1) +
              "x; the drain rewrites the strided mess as " +
              FormatBytes(static_cast<double>(buf.params().drain_unit)) +
              " sequential units, so even the durable point beats the "
              "direct write; staging-log write amplification " +
              FormatDouble(buf.ssd().stats().write_amplification(), 3));
  bench::Report::Emit("ext12_burst_buffer",
                      {{"direct_bw_mbs", direct_bw / 1e6},
                       {"absorb_bw_mbs", absorb_bw / 1e6},
                       {"absorb_speedup", absorb_bw / direct_bw},
                       {"durable_seconds", durable_time},
                       {"direct_seconds", direct_time},
                       {"staging_write_amplification", buf.ssd().stats().write_amplification()}});

  // ---- 2. utilisation uplift vs drain overlap ------------------------------
  PrintBanner(std::cout, "Fig. 5 checkpoint sim with absorb/drain split "
                         "(1h interval, 5min direct checkpoint, 30s absorb, "
                         "24h MTTI)");
  failure::CheckpointSimParams base;
  base.work_seconds = 60 * kDay;
  base.interval = kHour;
  base.checkpoint_seconds = 5 * kMinute;
  base.mtti_seconds = 24 * kHour;
  Rng rng(2026);
  const auto direct = failure::SimulateCheckpointing(base, rng);

  bench::Report t2("ext12_burst_buffer",
                   {{"", "mode"}, {"drain time", "drain_seconds", FormatDuration},
                    {"utilisation", "utilization", bench::Pct(1)},
                    {"uplift", "uplift", bench::Fixed(2, "x")},
                    {"stall", "stall_seconds", FormatDuration},
                    {"lost drains", "lost_drains", bench::Fixed(0)}});
  t2.row({"direct", bench::Cell("direct (no BB)"), direct.utilization, bench::Cell("--"),
          bench::Cell("--"), bench::Cell("--")});
  for (double drain : {4 * kHour, 2 * kHour, kHour, 30 * kMinute,
                       10 * kMinute, kMinute}) {
    failure::CheckpointSimParams p = base;
    p.checkpoint_seconds = 30.0;  // the absorb into the burst buffer
    p.drain_seconds = drain;
    if (drain == kMinute) p.obs = trace.ctx();
    Rng r(2026);
    const auto res = failure::SimulateCheckpointing(p, r);
    t2.row({"bb", drain, res.utilization, res.utilization / direct.utilization,
            res.stall_seconds, res.lost_drains});
  }
  t2.print();
  bench::Note("uplift grows as the drain shrinks and plateaus once it fits "
              "inside the compute interval (further drain bandwidth buys "
              "nothing); drains slower than the interval stall the next "
              "absorb (single staging slot) and leave long windows where a "
              "failure loses the in-flight checkpoint");

  // ---- 3. backpressure regime ---------------------------------------------
  PrintBanner(std::cout, "undersized buffer vs slow PFS: watermark backpressure");
  bb::BbParams small;
  small.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  small.ssd.capacity_bytes = 64 * MiB;
  small.high_watermark = 0.50;
  small.low_watermark = 0.25;
  bb::FixedRateDrainTarget slow_pfs(25e6);
  bb::BurstBuffer pressured(small, slow_pfs);
  double t = 0.0;
  const std::uint64_t burst = 256 * MiB;
  for (std::uint64_t off = 0; off < burst; off += MiB) {
    t = pressured.write(1, off, MiB, t);
  }
  const auto& s = pressured.stats();
  // The table shows the effective ingest before the stalls, the BENCH row
  // after them.
  const double ingest = static_cast<double>(burst) / t;
  bench::Report t3("ext12_burst_buffer",
                   {{"", "mode"}, {"burst written", "", FormatBytes},
                    {"buffer capacity", "", FormatBytes}, {"effective ingest", "", FormatRate},
                    {"ingest stalls", "ingest_stalls", bench::Fixed(0)},
                    {"stall time", "stall_seconds", FormatDuration},
                    {"flash absorb time", "", FormatDuration},
                    {"", "effective_ingest_mbs", FormatRate, 1e6}});
  t3.metrics({"backpressure", burst, small.ssd.capacity_bytes, ingest, s.ingest_stalls,
              s.stall_seconds, s.absorb_seconds, ingest});
  bench::Note("a checkpoint 4x the buffer degrades to drain speed through "
              "stalls — hysteresis between the watermarks keeps the drain "
              "streaming in large units instead of thrashing");
  return 0;
}
