#include "pdsi/workload/driver.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <tuple>

#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"

namespace pdsi::workload {
namespace {

/// Ranks append their events in thread-exit order, which varies from run
/// to run; sorting by (start, rank, offset) makes the trace reproducible.
void SortTrace(WriteTrace* trace) {
  if (!trace) return;
  std::sort(trace->begin(), trace->end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.start, a.rank, a.offset) <
                     std::tie(b.start, b.rank, b.offset);
            });
}

}  // namespace

CheckpointResult RunDirectCheckpoint(const pfs::PfsConfig& cfg,
                                     const CheckpointSpec& spec,
                                     WriteTrace* trace, obs::Context* obs) {
  pfs::PfsConfig config = cfg;
  config.store_data = false;  // timing-only at benchmark scales
  sim::VirtualScheduler sched(spec.ranks);
  sim::VirtualBarrier barrier(sched);
  pfs::PfsCluster cluster(config, sched, nullptr, obs);

  double t_begin = 0.0, t_end = 0.0;
  std::mutex trace_mu;
  sched.run([&](std::size_t actor) {
    const auto r = static_cast<std::uint32_t>(actor);
    pfs::PfsClient client(cluster, r);
    const double t0 = barrier.arrive(r);
    if (r == 0) t_begin = t0;

    pfs::FileHandle fh = -1;
    const std::string path = TargetPath(spec, r);
    if (spec.pattern == Pattern::nn) {
      fh = *client.create(path);
    } else if (r == 0) {
      fh = *client.create(path);
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      fh = *client.open(path);
    }

    Bytes payload(spec.record_bytes);
    WriteTrace local;
    for (const WriteOp& op : WritesForRank(spec, r)) {
      const double s = client.now();
      [[maybe_unused]] auto st = client.write(fh, op.offset, payload);
      assert(st.ok());
      if (trace) local.push_back({r, s, client.now(), op.offset, op.length});
    }
    client.close(fh);

    const double t1 = barrier.arrive(r);
    if (r == 0) t_end = t1;
    if (trace) {
      std::lock_guard<std::mutex> lk(trace_mu);
      trace->insert(trace->end(), local.begin(), local.end());
    }
  });
  SortTrace(trace);

  return {t_end - t_begin, spec.total_bytes()};
}

CheckpointResult RunPlfsCheckpoint(const pfs::PfsConfig& cfg,
                                   const CheckpointSpec& spec,
                                   const plfs::Options& options,
                                   WriteTrace* trace, obs::Context* obs) {
  pfs::PfsConfig config = cfg;
  config.store_data = false;
  sim::VirtualScheduler sched(spec.ranks);
  sim::VirtualBarrier barrier(sched);
  pfs::PfsCluster cluster(config, sched, nullptr, obs);
  plfs::Options opts = options;
  opts.obs = obs;
  plfs::WriteClock clock{1};

  double t_begin = 0.0, t_end = 0.0;
  std::mutex trace_mu;
  sched.run([&](std::size_t actor) {
    const auto r = static_cast<std::uint32_t>(actor);
    auto backend = plfs::MakePfsBackend(cluster, r);
    const double t0 = barrier.arrive(r);
    if (r == 0) t_begin = t0;

    // N-N through PLFS still gets a container per rank; N-1 shares one.
    const std::string path = TargetPath(spec, r);
    auto writer = plfs::Writer::Open(*backend, path, r, opts, clock);
    assert(writer.ok());

    Bytes payload(spec.record_bytes);
    WriteTrace local;
    pfs::PfsClient probe(cluster, r);  // clock probe only (no I/O issued)
    for (const WriteOp& op : WritesForRank(spec, r)) {
      const double s = probe.now();
      [[maybe_unused]] auto st = (*writer)->write(op.offset, payload);
      assert(st.ok());
      if (trace) local.push_back({r, s, probe.now(), op.offset, op.length});
    }
    (*writer)->close();

    const double t1 = barrier.arrive(r);
    if (r == 0) t_end = t1;
    if (trace) {
      std::lock_guard<std::mutex> lk(trace_mu);
      trace->insert(trace->end(), local.begin(), local.end());
    }
  });
  SortTrace(trace);

  return {t_end - t_begin, spec.total_bytes()};
}

PlfsRoundTripResult RunPlfsRoundTrip(const pfs::PfsConfig& cfg,
                                     const CheckpointSpec& spec,
                                     const plfs::Options& options,
                                     obs::Context* obs) {
  assert(spec.pattern != Pattern::nn && "round trip reads the shared file");
  pfs::PfsConfig config = cfg;
  config.store_data = true;  // restart must read real bytes
  sim::VirtualScheduler sched(spec.ranks);
  sim::VirtualBarrier barrier(sched);
  pfs::PfsCluster cluster(config, sched, nullptr, obs);
  plfs::Options base_opts = options;
  base_opts.obs = obs;
  plfs::WriteClock clock{1};

  PlfsRoundTripResult result;
  result.write.bytes = spec.total_bytes();
  result.read.bytes = spec.total_bytes();
  double tw0 = 0.0, tw1 = 0.0, tr1 = 0.0;

  sched.run([&](std::size_t actor) {
    const auto r = static_cast<std::uint32_t>(actor);
    auto backend = plfs::MakePfsBackend(cluster, r);
    const double t0 = barrier.arrive(r);
    if (r == 0) tw0 = t0;

    {
      auto writer = plfs::Writer::Open(*backend, "/ckpt", r, base_opts, clock);
      assert(writer.ok());
      Bytes payload(spec.record_bytes);
      for (const WriteOp& op : WritesForRank(spec, r)) {
        (*writer)->write(op.offset, payload);
      }
      (*writer)->close();
    }
    const double t1 = barrier.arrive(r);
    if (r == 0) tw1 = t1;

    // Restart: every rank merges the index and reads its 1/N slice.
    {
      plfs::Options ropts = base_opts;
      ropts.obs_track = obs::kReaderTrackBase + r;
      auto reader = plfs::Reader::Open(*backend, "/ckpt", ropts);
      assert(reader.ok());
      const std::uint64_t total = (*reader)->size();
      const std::uint64_t slice = total / spec.ranks;
      Bytes buf(static_cast<std::size_t>(slice));
      (*reader)->read(static_cast<std::uint64_t>(r) * slice, buf);
    }
    const double t2 = barrier.arrive(r);
    if (r == 0) tr1 = t2;
  });

  result.write.seconds = tw1 - tw0;
  result.read.seconds = tr1 - tw1;
  return result;
}

}  // namespace pdsi::workload
