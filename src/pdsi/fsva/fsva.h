// File System Virtual Appliances (§4.2.1 / Fig. 6; Abd-El-Malek,
// CMU-PDL-08-106 / 09-102).
//
// Problem: parallel file system client code lives in the client OS kernel
// and must be re-ported for every kernel release. FSVA moves the real
// client into a dedicated VM with a frozen OS; the application OS keeps
// only a simple forwarding client. The cost is an inter-VM hop per VFS
// operation; with shared-memory rings (instead of hypervisor calls per
// message) the report expects this "need not slow down applications
// significantly".
//
// This model prices the three mount options per operation and evaluates
// them over workload mixes, reproducing the claim and showing where the
// overhead concentrates (metadata-heavy workloads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdsi::fsva {

enum class Mount {
  native,            ///< in-kernel PFS client
  fsva_hypercall,    ///< forwarding via hypervisor per message
  fsva_shared_ring,  ///< forwarding via shared-memory rings
};

struct CostModel {
  double vfs_dispatch_s = 1.5e-6;     ///< in-kernel VFS overhead (always)
  double hypercall_s = 12e-6;         ///< VM world switch per message
  double ring_notify_s = 2.5e-6;      ///< shared-ring doorbell (amortised)
  double copy_bw_bytes = 4e9;         ///< inter-VM data copy bandwidth
  bool zero_copy_grants = true;       ///< page-flip bulk data (no copy)
  double backend_small_op_s = 250e-6; ///< PFS RPC for a metadata op
  double backend_data_bw = 300e6;     ///< PFS streaming bandwidth
};

/// Per-operation wall time under a mount.
double MetadataOpSeconds(const CostModel& m, Mount mount);
double DataOpSeconds(const CostModel& m, Mount mount, std::uint64_t bytes);

/// A workload as an operation mix per "unit of work".
struct Workload {
  std::string name;
  std::uint64_t metadata_ops = 0;
  std::uint64_t data_ops = 0;
  std::uint64_t bytes_per_data_op = 0;
};

/// Wall seconds to run the workload once.
double WorkloadSeconds(const CostModel& m, Mount mount, const Workload& w);

/// Slowdown of `mount` relative to the native client.
double Slowdown(const CostModel& m, Mount mount, const Workload& w);

/// The evaluation mixes: untar/compile-like (metadata heavy), grep-like
/// (streaming reads), checkpoint-like (streaming writes), and a
/// mixed "postmark" style load.
std::vector<Workload> PaperWorkloads();

}  // namespace pdsi::fsva
