// pdsi::fault — the deterministic fault-injection layer and every data
// path that consults it: client retry/failover, OSS crash recovery and
// degradations (slowed disk, NIC and CPU), burst-buffer drain parking,
// PLFS degraded reads, and the injected interrupt schedule for the
// checkpoint simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "pdsi/bb/drain_target.h"
#include "pdsi/common/bytes.h"
#include "pdsi/failure/checkpoint_sim.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/reader.h"
#include "pdsi/plfs/writer.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/tier/tier_engine.h"

namespace pdsi {
namespace {

constexpr double kForever = 1e18;

fault::FaultPlan CrashPlan(double mtbf, double restart, double horizon) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.oss_mtbf_s = mtbf;
  plan.oss_restart_s = restart;
  plan.horizon_s = horizon;
  return plan;
}

TEST(FaultSchedule, DeterministicAcrossInstances) {
  const fault::FaultPlan plan = CrashPlan(50.0, 5.0, 2000.0);
  fault::FaultInjector a(plan, 4);
  fault::FaultInjector b(plan, 4);
  EXPECT_GT(a.crash_count(), 0u);
  EXPECT_EQ(a.crash_count(), b.crash_count());
  EXPECT_EQ(a.interrupt_times(), b.interrupt_times());
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (double t = 0.0; t < 2000.0; t += 13.7) {
      ASSERT_EQ(a.down(s, t), b.down(s, t)) << "server " << s << " t " << t;
      ASSERT_EQ(a.next_up(s, t), b.next_up(s, t));
    }
  }
  const auto times = a.interrupt_times();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), a.crash_count());

  // A different seed produces a different schedule.
  fault::FaultPlan other = plan;
  other.seed = 43;
  fault::FaultInjector c(other, 4);
  EXPECT_NE(a.interrupt_times(), c.interrupt_times());
}

TEST(FaultSchedule, DownNextUpAndForceDown) {
  fault::FaultInjector inj(fault::FaultPlan{}, 2);  // inactive: never down
  EXPECT_FALSE(inj.down(0, 123.0));
  EXPECT_EQ(inj.next_up(0, 123.0), 123.0);
  EXPECT_EQ(inj.crash_count(), 0u);

  inj.force_down(0, 10.0, 20.0);
  EXPECT_FALSE(inj.down(0, 9.999));
  EXPECT_TRUE(inj.down(0, 10.0));
  EXPECT_TRUE(inj.down(0, 19.999));
  EXPECT_FALSE(inj.down(0, 20.0));
  EXPECT_FALSE(inj.down(1, 15.0)) << "windows are per-server";
  EXPECT_EQ(inj.next_up(0, 15.0), 20.0);
  EXPECT_EQ(inj.crashes_between(0, 0.0, 15.0), 1u);
  EXPECT_EQ(inj.crashes_between(0, 10.0, 15.0), 0u) << "(since, until] is half-open";

  // Overlapping forced windows coalesce into one outage.
  inj.force_down(0, 15.0, 30.0);
  EXPECT_TRUE(inj.down(0, 22.0));
  EXPECT_EQ(inj.next_up(0, 12.0), 30.0);
  EXPECT_EQ(inj.crash_count(), 1u);
}

TEST(FaultSchedule, SlowDiskFactor) {
  fault::FaultPlan plan;
  plan.slow_disk_prob = 1.0;
  plan.slow_disk_factor = 4.0;
  fault::FaultInjector inj(plan, 3);
  for (std::uint32_t s = 0; s < 3; ++s) EXPECT_EQ(inj.factors(s, 0.0).disk, 4.0);
  fault::FaultInjector none(fault::FaultPlan{}, 3);
  for (std::uint32_t s = 0; s < 3; ++s) EXPECT_EQ(none.factors(s, 0.0).disk, 1.0);
}

void ExpectFactors(const fault::Factors& got, double disk, double nic,
                   double cpu) {
  EXPECT_EQ(got.disk, disk);
  EXPECT_EQ(got.nic, nic);
  EXPECT_EQ(got.cpu, cpu);
}

TEST(FaultDegrade, AppliesToItsServerStrictlyAfterItsStart) {
  fault::FaultInjector inj(fault::FaultPlan{}, 3);
  inj.degrade(1, 2.0, {.disk = 2.0, .nic = 3.0, .cpu = 5.0});
  ExpectFactors(inj.factors(1, 1.0), 1.0, 1.0, 1.0);
  ExpectFactors(inj.factors(1, 2.0), 1.0, 1.0, 1.0);
  ExpectFactors(inj.factors(1, std::nextafter(2.0, 3.0)), 2.0, 3.0, 5.0);
  ExpectFactors(inj.factors(0, 10.0), 1.0, 1.0, 1.0);
  ExpectFactors(inj.factors(2, 10.0), 1.0, 1.0, 1.0);

  // A second degradation multiplies into the first from its own start.
  inj.degrade(1, 4.0, {.disk = 7.0, .nic = 1.0, .cpu = 1.0});
  ExpectFactors(inj.factors(1, 3.0), 2.0, 3.0, 5.0);
  ExpectFactors(inj.factors(1, 5.0), 14.0, 3.0, 5.0);
}

TEST(FaultDegrade, MultipliesWithRandomSlowDisk) {
  fault::FaultPlan plan;
  plan.slow_disk_prob = 1.0;
  plan.slow_disk_factor = 4.0;
  fault::FaultInjector inj(plan, 2);
  inj.degrade(0, 1.0, {.disk = 3.0, .nic = 1.0, .cpu = 1.0});
  EXPECT_EQ(inj.factors(0, 0.5).disk, 4.0);
  EXPECT_EQ(inj.factors(0, 1.5).disk, 12.0);
  EXPECT_EQ(inj.factors(1, 1.5).disk, 4.0);

  // The OSS charges the product: a 4 MiB flush keeps its disk 12x as
  // long as on a server with no injector.
  const pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(2);
  pfs::Oss plain(cfg, 0);
  pfs::Oss slowed(cfg, 0);
  slowed.set_fault(&inj);
  plain.serve_write(7, 0, 4 * 1024 * 1024, 1.5);
  slowed.serve_write(7, 0, 4 * 1024 * 1024, 1.5);
  ASSERT_GT(plain.disk_busy_seconds(), 0.0);
  EXPECT_EQ(slowed.disk_busy_seconds(), plain.disk_busy_seconds() * 12.0);
}

TEST(FaultDegrade, OssSlowsOnlyItsServerAndLaterArrivals) {
  const pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(2);
  fault::FaultInjector inj(fault::FaultPlan{}, 2);
  inj.degrade(0, 1.0, {.disk = 2.0, .nic = 2.0, .cpu = 2.0});
  pfs::Oss ref(cfg, 0);  // no injector
  pfs::Oss degraded(cfg, 0);
  pfs::Oss peer(cfg, 1);
  degraded.set_fault(&inj);
  peer.set_fault(&inj);

  // Each request flushes the previous one's dirty run (a discontiguous
  // write), so every charge kind is exercised.
  const std::uint64_t len = 256 * 1024;
  const double at_start = ref.serve_write(7, 0, len, 1.0);
  EXPECT_EQ(degraded.serve_write(7, 0, len, 1.0), at_start)
      << "a request arriving at the start instant is not slowed";
  EXPECT_EQ(peer.serve_write(7, 0, len, 1.0), at_start);

  const double later = ref.serve_write(7, 4 * len, len, 2.0);
  EXPECT_GT(degraded.serve_write(7, 4 * len, len, 2.0), later);
  EXPECT_EQ(peer.serve_write(7, 4 * len, len, 2.0), later);
  const double read = ref.serve_read(7, 0, len, 3.0);
  EXPECT_GT(degraded.serve_read(7, 0, len, 3.0), read);
  EXPECT_EQ(peer.serve_read(7, 0, len, 3.0), read);
  const double op = ref.serve_small_op(4.0);
  EXPECT_GT(degraded.serve_small_op(4.0), op);
  EXPECT_EQ(peer.serve_small_op(4.0), op);
  EXPECT_EQ(peer.disk_busy_seconds(), ref.disk_busy_seconds());
  EXPECT_GT(degraded.disk_busy_seconds(), ref.disk_busy_seconds());
}

// One client writes `bytes` in 256 KiB stripe units over PanFsLike(4),
// fsyncs, reads it back and closes; returns its finish time and each
// server's disk busy seconds.
struct StripedRun {
  double finish = 0.0;
  std::vector<double> disk_busy;
};

StripedRun RunStriped(fault::FaultInjector* inj, std::uint64_t bytes) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.stripe_unit = 256 * 1024;
  pfs::PfsCluster cluster(cfg, sched);
  if (inj) cluster.set_fault(inj);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");
  Bytes buf(bytes);
  EXPECT_TRUE(client.write(fh, 0, buf).ok());
  EXPECT_TRUE(client.fsync(fh).ok());
  EXPECT_TRUE(client.read(fh, 0, buf).ok());
  EXPECT_TRUE(client.close(fh).ok());
  StripedRun run;
  run.finish = client.now();
  for (std::uint32_t s = 0; s < cluster.num_oss(); ++s) {
    run.disk_busy.push_back(cluster.oss(s).disk_busy_seconds());
  }
  return run;
}

void ExpectSameRun(const StripedRun& a, const StripedRun& b) {
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.disk_busy, b.disk_busy);
}

TEST(FaultDegrade, InertDegradationsLeaveTheRunBitIdentical) {
  // Two of the four servers hold the 512 KiB file.
  const StripedRun base = RunStriped(nullptr, 512 * 1024);
  std::vector<std::uint32_t> untouched;
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (base.disk_busy[s] == 0.0) untouched.push_back(s);
  }
  ASSERT_EQ(untouched.size(), 2u);

  fault::FaultInjector unit(fault::FaultPlan{}, 4);
  for (std::uint32_t s = 0; s < 4; ++s) unit.degrade(s, 0.0, {});
  ExpectSameRun(RunStriped(&unit, 512 * 1024), base);

  fault::FaultInjector after_end(fault::FaultPlan{}, 4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    after_end.degrade(s, base.finish, {.disk = 2.0, .nic = 2.0, .cpu = 2.0});
  }
  ExpectSameRun(RunStriped(&after_end, 512 * 1024), base);

  fault::FaultInjector elsewhere(fault::FaultPlan{}, 4);
  for (std::uint32_t s : untouched) {
    elsewhere.degrade(s, -std::numeric_limits<double>::infinity(),
                      {.disk = 2.0, .nic = 2.0, .cpu = 2.0});
  }
  ExpectSameRun(RunStriped(&elsewhere, 512 * 1024), base);
}

TEST(FaultDegrade, SlowingOneServerNeverLowersTheFinishTime) {
  const std::uint64_t bytes = 2 * 1024 * 1024;  // two stripes on each server
  const double base = RunStriped(nullptr, bytes).finish;
  for (const fault::Factors f : {fault::Factors{.disk = 2.0, .nic = 1.0, .cpu = 1.0},
                                 fault::Factors{.disk = 1.0, .nic = 2.0, .cpu = 1.0},
                                 fault::Factors{.disk = 1.0, .nic = 1.0, .cpu = 2.0}}) {
    double slowest = base;
    for (std::uint32_t s = 0; s < 4; ++s) {
      fault::FaultInjector inj(fault::FaultPlan{}, 4);
      inj.degrade(s, 0.0, f);
      const double finish = RunStriped(&inj, bytes).finish;
      EXPECT_GE(finish, base) << "server " << s << " disk " << f.disk << " nic "
                              << f.nic << " cpu " << f.cpu;
      slowest = std::max(slowest, finish);
    }
    EXPECT_GT(slowest, base) << "disk " << f.disk << " nic " << f.nic << " cpu "
                             << f.cpu << " reaches no charge";
  }
}

// Runs a small write/read/fsync workload and returns the client's final
// virtual time plus total disk busy-seconds.
std::pair<double, double> RunWorkload(fault::FaultInjector* inj) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(4), sched);
  if (inj) cluster.set_fault(inj);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");
  Bytes buf(256 * 1024);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.write(fh, static_cast<std::uint64_t>(i) * buf.size(), buf).ok());
  }
  EXPECT_TRUE(client.fsync(fh).ok());
  Bytes out(buf.size());
  EXPECT_TRUE(client.read(fh, 0, out).ok());
  EXPECT_TRUE(client.close(fh).ok());
  const double t = client.now();
  return {t, cluster.total_disk_busy()};
}

TEST(FaultInert, ZeroPlanChangesNothing) {
  const auto [t_none, busy_none] = RunWorkload(nullptr);
  fault::FaultInjector zero(fault::FaultPlan{}, 4);
  const auto [t_zero, busy_zero] = RunWorkload(&zero);
  EXPECT_EQ(t_none, t_zero);
  EXPECT_EQ(busy_none, busy_zero);
  EXPECT_EQ(zero.retries(), 0u);
  EXPECT_EQ(zero.dropped_rpcs(), 0u);
}

TEST(FaultClient, DroppedRpcsAreRetriedAndDeterministic) {
  auto run = [](fault::FaultInjector& inj) {
    sim::VirtualScheduler sched(1);
    pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(2), sched);
    cluster.set_fault(&inj);
    pfs::PfsClient client(cluster, 0);
    auto fh = *client.create("/f");
    Bytes buf(4096);
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(client.write(fh, static_cast<std::uint64_t>(i) * buf.size(), buf).ok())
          << "write " << i << " should survive drops within the retry budget";
    }
    const double t = client.now();
    return t;
  };
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.rpc_drop_prob = 0.3;
  fault::FaultInjector a(plan, 2);
  const double ta = run(a);
  EXPECT_GT(a.dropped_rpcs(), 0u);
  EXPECT_GE(a.retries(), a.dropped_rpcs());

  fault::FaultInjector b(plan, 2);
  EXPECT_EQ(ta, run(b)) << "same seed, same drop sequence, same timing";
  EXPECT_EQ(a.dropped_rpcs(), b.dropped_rpcs());

  const auto [t_clean, busy] = RunWorkload(nullptr);
  (void)t_clean;
  (void)busy;
}

TEST(FaultClient, FailedWriteLeavesNoPhantomTouchedServers) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(1), sched);
  fault::FaultInjector inj(fault::FaultPlan{}, 1);
  inj.force_down(0, 0.0, kForever);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");  // MDS only: succeeds with the OSS down
  Bytes buf(4096);
  const double before = client.now();
  Status st = client.write(fh, 0, buf);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(inj.retries(), inj.plan().max_retries);
  EXPECT_GT(client.now(), before) << "the failed attempts still cost time";
  // The write failed wholesale: the file was never extended.
  EXPECT_EQ(*client.file_size(fh), 0u);
  // A server registers as touched only when a chunk lands, so a wholesale
  // failure leaves nothing to flush: fsync has no server to wait for and
  // succeeds instantly instead of burning a second retry schedule against
  // data that never existed.
  const std::uint64_t fid = cluster.mds().lookup("/f")->file_id;
  EXPECT_TRUE(cluster.touched_servers(fid).empty())
      << "failed write must not register the server as touched";
  const double before_sync = client.now();
  EXPECT_TRUE(client.fsync(fh).ok());
  EXPECT_EQ(client.now(), before_sync) << "no touched servers, nothing to await";
  EXPECT_TRUE(client.close(fh).ok());
}

TEST(FaultClient, PartialWriteStillSurfacesFsyncError) {
  // Two servers, one down: the chunk on the live server lands (and is
  // touched); the chunk on the dead server exhausts its retries. fsync
  // must still fail — the dead server holds no data, but the write as a
  // whole did not complete and the failure cannot be swallowed.
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(2);
  pfs::PfsCluster cluster(cfg, sched);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");
  Bytes warm(4096);
  EXPECT_TRUE(client.write(fh, 0, warm).ok());  // touch stripe-0's server

  const std::uint64_t fid = cluster.mds().lookup("/f")->file_id;
  const std::uint32_t owner0 = cluster.placement().server_for(fid, 0, 2);
  fault::FaultInjector inj(fault::FaultPlan{}, 2);
  inj.force_down(owner0, client.now(), kForever);
  cluster.set_fault(&inj);

  Bytes both(2 * cfg.stripe_unit);
  EXPECT_FALSE(client.write(fh, 0, both).ok());
  // Only the pre-fault touch remains; the surviving server's chunk of the
  // failed write never ran (the stripe-0 chunk fails first and the write
  // bails out wholesale).
  EXPECT_EQ(cluster.touched_servers(fid).size(), 1u);
  EXPECT_EQ(*cluster.touched_servers(fid).begin(), owner0);
  // The touched (now dead) server cannot be flushed: close -> fsync fails.
  EXPECT_FALSE(client.close(fh).ok());
}

TEST(FaultClient, ReadFailsOverToSurvivingServer) {
  auto run = [](bool failover, std::uint64_t* failovers) {
    sim::VirtualScheduler sched(1);
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(2);
    pfs::PfsCluster cluster(cfg, sched);
    pfs::PfsClient client(cluster, 0);
    auto fh = *client.create("/f");
    Bytes data = MakePattern(0, 0, 2 * cfg.stripe_unit);  // both servers
    EXPECT_TRUE(client.write(fh, 0, data).ok());
    EXPECT_TRUE(client.fsync(fh).ok());

    const std::uint64_t fid = cluster.mds().lookup("/f")->file_id;
    const std::uint32_t owner = cluster.placement().server_for(fid, 0, 2);
    fault::FaultPlan plan;
    plan.read_failover = failover;
    fault::FaultInjector inj(plan, 2);
    inj.force_down(owner, client.now(), kForever);
    cluster.set_fault(&inj);

    Bytes out(cfg.stripe_unit);
    auto n = client.read(fh, 0, out);
    if (failovers) *failovers = inj.failovers();
    Status st = n.ok() ? Status::Ok() : Status(n.error());
    if (n.ok()) {
      EXPECT_EQ(*n, out.size());
      EXPECT_EQ(FindPatternMismatch(0, 0, out), kNoMismatch)
          << "failover must serve the real bytes";
    }
    return st;
  };
  std::uint64_t failovers = 0;
  EXPECT_TRUE(run(true, &failovers).ok());
  EXPECT_GT(failovers, 0u);
  // Single-copy regime: the same read fails while the owner is down.
  EXPECT_FALSE(run(false, nullptr).ok());
}

TEST(FaultOss, CrashDropsReadaheadWindow) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(1), sched);
  fault::FaultInjector inj(fault::FaultPlan{}, 1);
  cluster.set_fault(&inj);
  pfs::Oss& oss = cluster.oss(0);

  double t = oss.serve_write(7, 0, 256 * 1024, 0.0);
  t = oss.serve_read(7, 0, 64 * 1024, t);  // flush + cold read, arms readahead
  const double busy_cold = oss.disk_busy_seconds();
  t = oss.serve_read(7, 0, 64 * 1024, t);  // readahead hit: no disk charge
  EXPECT_EQ(oss.disk_busy_seconds(), busy_cold);

  inj.force_down(0, t + 0.1, t + 0.2);  // crash + restart between requests
  t = oss.serve_read(7, 0, 64 * 1024, t + 0.3);
  EXPECT_GT(oss.disk_busy_seconds(), busy_cold)
      << "the restarted server lost its readahead window and must re-read";
}

TEST(FaultBb, DrainParksUntilServerRestarts) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(1);
  pfs::PfsCluster cluster(cfg, sched);
  fault::FaultInjector inj(fault::FaultPlan{}, 1);
  inj.force_down(0, 0.0, 3.0);
  cluster.set_fault(&inj);
  auto target = bb::MakePfsDrainTarget(cluster);
  const double done = target->drain(1, 0, 1024 * 1024, 1.0);
  EXPECT_GE(done, 3.0) << "the chunk waits out the crash window";
  EXPECT_EQ(inj.drain_retries(), 1u);
}

TEST(FaultPlfs, DegradedReadReturnsPartialDataWithErrorCount) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(8);
  pfs::PfsCluster cluster(cfg, sched);
  auto backend = plfs::MakePfsBackend(cluster, 0);
  plfs::WriteClock clock{0};
  const std::uint64_t kHalf = 256 * 1024;
  const std::uint64_t kRec = 64 * 1024;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    auto w = plfs::Writer::Open(*backend, "/ckpt", rank, plfs::Options{}, clock);
    ASSERT_TRUE(w.ok());
    for (std::uint64_t o = 0; o < kHalf; o += kRec) {
      Bytes rec = MakePattern(rank, rank * kHalf + o, kRec);
      ASSERT_TRUE((*w)->write(rank * kHalf + o, rec).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }

  // Find a server holding rank 1's data log but not rank 0's.
  pfs::PfsClient lister(cluster, 0);
  std::vector<std::vector<std::uint32_t>> data_servers(2);
  auto top = lister.readdir("/ckpt");
  ASSERT_TRUE(top.ok());
  for (const auto& name : *top) {
    if (name.rfind("hostdir.", 0) != 0) continue;
    const std::string hostdir = "/ckpt/" + name;
    const auto entries = lister.readdir(hostdir);
    ASSERT_TRUE(entries.ok());
    for (const auto& e : *entries) {
      if (e.rfind("data.", 0) != 0) continue;
      const std::uint32_t rank = static_cast<std::uint32_t>(std::stoul(e.substr(5)));
      const auto inode = cluster.mds().lookup(hostdir + "/" + e);
      ASSERT_TRUE(inode.ok());
      const std::uint64_t stripes =
          (inode->size + cfg.stripe_unit - 1) / cfg.stripe_unit;
      for (std::uint64_t s = 0; s < stripes; ++s) {
        data_servers[rank].push_back(
            cluster.placement().server_for(inode->file_id, s, cluster.num_oss()));
      }
    }
  }
  ASSERT_EQ(data_servers[0].size(), 1u);
  ASSERT_EQ(data_servers[1].size(), 1u);
  const std::uint32_t victim = data_servers[1][0];
  ASSERT_NE(victim, data_servers[0][0])
      << "placement put both logs on one server; enlarge the cluster";

  // Healthy build, then the victim crashes for good before the read. The
  // injector is declared before both readers so it outlives their close
  // (an fsync that consults it).
  fault::FaultPlan plan;
  plan.read_failover = false;
  fault::FaultInjector inj(plan, cluster.num_oss());
  inj.force_down(victim, 0.0, kForever);
  plfs::Options ropt;
  ropt.degraded_reads = true;
  auto reader = plfs::Reader::Open(*backend, "/ckpt", ropt);
  ASSERT_TRUE(reader.ok());
  cluster.set_fault(&inj);

  Bytes out(2 * kHalf, 0xFF);
  auto n = (*reader)->read(0, out);
  ASSERT_TRUE(n.ok()) << "degraded mode must not fail the read";
  EXPECT_EQ(*n, out.size());
  EXPECT_GT((*reader)->read_errors(), 0u);
  std::span<const std::uint8_t> survived(out.data(), kHalf);
  EXPECT_EQ(FindPatternMismatch(0, 0, survived), kNoMismatch)
      << "the surviving rank's bytes are intact";
  for (std::uint64_t i = kHalf; i < 2 * kHalf; ++i) {
    ASSERT_EQ(out[i], 0u) << "lost region must read back as a hole at " << i;
  }

  // Without degraded_reads the same situation is a hard error.
  auto strict = plfs::Reader::Open(*backend, "/ckpt");
  ASSERT_TRUE(strict.ok());
  Bytes out2(2 * kHalf);
  EXPECT_FALSE((*strict)->read(0, out2).ok());
  // Closing a reader issues a simulated fsync, which must precede finish.
  strict->reset();
  reader->reset();
}

TEST(FaultPlfs, DegradedBuildSkipsUnreadableIndexDroppings) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(1), sched);
  auto backend = plfs::MakePfsBackend(cluster, 0);
  plfs::WriteClock clock{0};
  {
    auto w = plfs::Writer::Open(*backend, "/ckpt", 0, plfs::Options{}, clock);
    ASSERT_TRUE(w.ok());
    Bytes rec(4096, 1);
    ASSERT_TRUE((*w)->write(0, rec).ok());
    ASSERT_TRUE((*w)->close().ok());
  }
  fault::FaultPlan plan;
  plan.read_failover = false;
  fault::FaultInjector inj(plan, 1);
  inj.force_down(0, 0.0, kForever);
  cluster.set_fault(&inj);

  EXPECT_FALSE(plfs::Reader::Open(*backend, "/ckpt").ok());

  plfs::Options ropt;
  ropt.degraded_reads = true;
  auto reader = plfs::Reader::Open(*backend, "/ckpt", ropt);
  ASSERT_TRUE(reader.ok()) << "degraded build tolerates a lost index dropping";
  EXPECT_GT((*reader)->read_errors(), 0u);
  EXPECT_EQ((*reader)->size(), 0u) << "that rank's writes are invisible";
}

// -- Tiering engine under faults --------------------------------------------

/// Checkpoint-then-analyse workload on a small three-tier stack. Returns
/// the final clock plus the accounting the regression compares.
struct TierRunResult {
  double final_t = 0.0;
  std::uint64_t degraded = 0;
  std::uint64_t read_errors = 0;
  bool data_ok = false;

  bool operator==(const TierRunResult&) const = default;
};

TierRunResult RunTierScenario(fault::FaultInjector* inj) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(2), sched);
  tier::TierEngineParams p;
  p.bb.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  p.bb.ssd.capacity_bytes = 64 * MiB;
  p.warm_capacity_bytes = 64 * MiB;
  p.cold.data_shards = 4;
  p.cold.parity_shards = 2;
  p.cold.shard_unit = 64 * KiB;
  p.cold.num_devices = 8;
  tier::TierEngine engine(p, cluster);
  if (inj) engine.set_fault(inj);

  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "ckpt" + std::to_string(i);
    engine.pin(name, tier::kWarmTier);  // warm-resident: reads hit the PFS
    for (std::uint64_t off = 0; off < 4 * MiB; off += MiB) {
      t = *engine.write(name, off,
                        MakePattern(static_cast<std::uint32_t>(i), off, MiB), t);
    }
  }
  t = engine.flush(t);

  TierRunResult r;
  r.data_ok = true;
  Bytes back(4 * MiB);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 3; ++i) {
      auto g = engine.read("ckpt" + std::to_string(i), 0, back, t + 1.0);
      if (g.ok()) {
        t = std::max(t, *g);
        r.data_ok = r.data_ok &&
                    FindPatternMismatch(static_cast<std::uint32_t>(i), 0, back) ==
                        kNoMismatch;
      }
    }
  }
  r.final_t = t;
  r.degraded = engine.degraded_reads();
  r.read_errors = engine.read_errors();
  return r;
}

TEST(FaultTier, InactivePlanLeavesEngineTimingIdentical) {
  const TierRunResult bare = RunTierScenario(nullptr);
  EXPECT_TRUE(bare.data_ok);
  EXPECT_EQ(bare.degraded, 0u);
  EXPECT_EQ(bare.read_errors, 0u);

  // An installed-but-inactive plan must be a pure bystander: identical
  // clocks, identical counters, no randomness consumed.
  fault::FaultPlan inert;  // all rates zero -> !active()
  ASSERT_FALSE(inert.active());
  fault::FaultInjector inj(inert, 2 + 8);
  const TierRunResult with_inert = RunTierScenario(&inj);
  EXPECT_EQ(with_inert, bare);
}

TEST(FaultTier, ActivePlanYieldsDegradedReadsWithAccounting) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.oss_mtbf_s = 1e12;  // active, but organically crash-free
  plan.read_failover = true;
  fault::FaultInjector inj(plan, 2 + 8);
  // Down warm server 0 across the whole read phase; server 1 survives.
  inj.force_down(0, 0.5, kForever);

  const TierRunResult r = RunTierScenario(&inj);
  EXPECT_TRUE(r.data_ok);
  EXPECT_GT(r.degraded, 0u);
  EXPECT_EQ(r.read_errors, 0u);

  // Same plan with failover disabled: warm reads have no surviving
  // replica and no cold copy yet, so every read of a stripe on the dead
  // server is a counted error.
  fault::FaultPlan no_failover = plan;
  no_failover.read_failover = false;
  fault::FaultInjector inj2(no_failover, 2 + 8);
  inj2.force_down(0, 0.5, kForever);
  const TierRunResult r2 = RunTierScenario(&inj2);
  EXPECT_GT(r2.read_errors, 0u);
  EXPECT_EQ(r2.degraded, 0u);

  // Determinism: the faulty run replays byte-identically.
  fault::FaultInjector inj3(plan, 2 + 8);
  inj3.force_down(0, 0.5, kForever);
  EXPECT_EQ(RunTierScenario(&inj3), r);
}

TEST(FaultCheckpointSim, InjectedScheduleDrivesFailures) {
  failure::CheckpointSimParams p;
  p.work_seconds = 10 * 3600.0;
  p.interval = 3600.0;
  p.checkpoint_seconds = 300.0;
  p.restart_seconds = 600.0;

  const std::vector<double> empty;
  p.interrupts = &empty;
  Rng r0(1);
  const auto clean = failure::SimulateCheckpointing(p, r0);
  EXPECT_EQ(clean.failures, 0u);
  EXPECT_EQ(clean.wall_seconds, 10 * (3600.0 + 300.0));

  // One failure mid-third-segment, plus an instant inside the restart that
  // must be absorbed (the machine is already down).
  const std::vector<double> schedule = {2 * 3900.0 + 100.0, 2 * 3900.0 + 200.0};
  p.interrupts = &schedule;
  Rng r1(1);
  const auto faulty = failure::SimulateCheckpointing(p, r1);
  EXPECT_EQ(faulty.failures, 1u);
  EXPECT_GT(faulty.wall_seconds, clean.wall_seconds);

  Rng r2(1);
  const auto again = failure::SimulateCheckpointing(p, r2);
  EXPECT_EQ(faulty.wall_seconds, again.wall_seconds);
  EXPECT_EQ(faulty.failures, again.failures);

  // The injector's interrupt_times() slot straight in.
  fault::FaultInjector inj(CrashPlan(4 * 3600.0, 600.0, 40 * 3600.0), 1);
  const auto times = inj.interrupt_times();
  ASSERT_FALSE(times.empty());
  p.interrupts = &times;
  Rng r3(1);
  const auto injected = failure::SimulateCheckpointing(p, r3);
  EXPECT_GT(injected.failures, 0u);
}

}  // namespace
}  // namespace pdsi
