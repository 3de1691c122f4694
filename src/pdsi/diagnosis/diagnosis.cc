// The peer diagnoser and its experiment harness. The injected fault is a
// fault::FaultInjector degradation of one server, installed before any
// traffic; the monitor actor only samples windows and runs the diagnoser.
#include "pdsi/diagnosis/diagnosis.h"

#include <algorithm>
#include <cmath>

#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::diagnosis {

namespace {

/// The service-time factors one fault kind applies to its server. Packet
/// loss collapses TCP goodput far more than it slows a disk, so the NIC
/// factor makes the wire term comparable to the disk term it must stand
/// out against; a runaway process leaves only a sliver of CPU.
fault::Factors FaultFactors(FaultKind kind, double severity) {
  switch (kind) {
    case FaultKind::disk_hog: return {.disk = severity, .nic = 1.0, .cpu = 1.0};
    case FaultKind::network_loss: return {.disk = 1.0, .nic = 12.0 * severity, .cpu = 1.0};
    case FaultKind::cpu_hog: return {.disk = 1.0, .nic = 1.0, .cpu = 200.0 * severity};
    case FaultKind::none: break;
  }
  return {};
}

}  // namespace

std::string_view FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::none: return "none";
    case FaultKind::disk_hog: return "disk-hog";
    case FaultKind::network_loss: return "network-loss";
    case FaultKind::cpu_hog: return "cpu-hog";
  }
  return "?";
}

PeerDiagnoser::PeerDiagnoser(std::uint32_t num_servers, DiagnoserOptions opts)
    : opts_(opts), suspicion_(num_servers, 0), indictments_(num_servers, 0) {}

double PeerDiagnoser::deviation(const std::vector<double>& values,
                                std::uint32_t server) const {
  // Robust z-score: |x - median| / (MAD + eps).
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<double> dev;
  dev.reserve(values.size());
  for (double v : values) dev.push_back(std::abs(v - median));
  std::sort(dev.begin(), dev.end());
  const double mad = dev[dev.size() / 2];
  const double eps = 1e-9 + 0.05 * std::abs(median);
  return std::abs(values[server] - median) / (mad + eps);
}

std::optional<std::uint32_t> PeerDiagnoser::observe(
    const std::vector<MetricSample>& window) {
  if (windows_seen_++ < opts_.warmup_windows) return std::nullopt;
  const std::uint32_t n = static_cast<std::uint32_t>(window.size());
  std::vector<double> ops(n), bytes(n), lat(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    ops[s] = window[s].ops_per_s;
    bytes[s] = window[s].bytes_per_s;
    lat[s] = window[s].mean_latency_s;
  }
  std::optional<std::uint32_t> indicted;
  for (std::uint32_t s = 0; s < n; ++s) {
    const double z = std::max({deviation(ops, s), deviation(bytes, s),
                               deviation(lat, s)});
    if (z > opts_.threshold) {
      if (++suspicion_[s] >= opts_.persistence) {
        ++indictments_[s];
        if (!indicted) indicted = s;
      }
    } else {
      suspicion_[s] = 0;
    }
  }
  return indicted;
}

ExperimentResult RunDiagnosisExperiment(const ExperimentParams& params) {
  // Cluster sized so every server sees comparable load; hashed placement
  // spreads each client's file over all servers.
  pfs::PfsConfig cfg = pfs::PfsConfig::PvfsLike(params.servers);
  cfg.stripe_unit = 256 * KiB;
  cfg.store_data = false;

  const std::uint32_t actors = params.clients + 1;  // + monitor
  const double total_time = params.windows * params.window_s;
  const std::uint32_t fault_window = params.windows / 2;

  // The fault window opens at the monitor's clock after `fault_window`
  // advances. Requests at that instant are admitted before the monitor's
  // sample (it has the highest actor id), so they belong to the window
  // before and are not slowed: the fault starts strictly after it.
  double fault_start = 0.0;
  for (std::uint32_t w = 0; w < fault_window; ++w) fault_start += params.window_s;
  fault::FaultInjector injector(fault::FaultPlan{}, params.servers);
  injector.degrade(params.faulty_server, fault_start,
                   FaultFactors(params.fault, params.severity));
  sim::VirtualScheduler sched(actors);
  pfs::PfsCluster cluster(cfg, sched, pfs::MakeHashedPlacement());
  cluster.set_fault(&injector);

  ExperimentResult result;
  sched.run([&](std::size_t me) {
    if (me < params.clients) {
      // Clients: iozone-like mixed streaming writes + random reads.
      Rng rng(params.seed * 977 + me);
      pfs::PfsClient client(cluster, me);
      auto fh = client.create("/ioz." + std::to_string(me));
      Bytes chunk(256 * KiB);
      Bytes small(64 * KiB);
      std::uint64_t wpos = 0;
      while (client.now() < total_time) {
        client.write(*fh, wpos, chunk);
        wpos += chunk.size();
        const std::uint64_t rpos =
            rng.below(std::max<std::uint64_t>(1, wpos / small.size())) * small.size();
        client.read(*fh, rpos, small);
      }
      return;
    }

    // Monitor: samples windows and runs the diagnoser.
    PeerDiagnoser diagnoser(params.servers);
    for (std::uint32_t s = 0; s < params.servers; ++s) {
      cluster.oss(s).drain_metrics();  // reset
    }
    for (std::uint32_t w = 0; w < params.windows; ++w) {
      sched.advance(me, params.window_s);
      std::vector<MetricSample> window(params.servers);
      sched.atomically(me, [&](double now) {
        for (std::uint32_t s = 0; s < params.servers; ++s) {
          auto m = cluster.oss(s).drain_metrics();
          window[s].ops_per_s = static_cast<double>(m.ops) / params.window_s;
          window[s].bytes_per_s = static_cast<double>(m.bytes) / params.window_s;
          window[s].mean_latency_s = m.latency.mean();
        }
        return now;
      });
      if (auto indicted = diagnoser.observe(window)) {
        if (!result.any_indictment) {
          result.any_indictment = true;
          result.indicted_server = *indicted;
          result.correct = params.fault != FaultKind::none &&
                           *indicted == params.faulty_server;
          result.false_alarm = !result.correct;
          result.windows_to_detect =
              w >= fault_window ? w - fault_window + 1 : 0;
        }
      }
    }
  });
  return result;
}

}  // namespace pdsi::diagnosis
