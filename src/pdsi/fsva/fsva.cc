#include "pdsi/fsva/fsva.h"

namespace pdsi::fsva {

namespace {

/// Forwarding cost for one request/response pair.
double ForwardingSeconds(const CostModel& m, Mount mount) {
  switch (mount) {
    case Mount::native: return 0.0;
    case Mount::fsva_hypercall: return 2.0 * m.hypercall_s;  // there and back
    case Mount::fsva_shared_ring: return 2.0 * m.ring_notify_s;
  }
  return 0.0;
}

double DataMovementSeconds(const CostModel& m, Mount mount, std::uint64_t bytes) {
  if (mount == Mount::native) return 0.0;
  if (m.zero_copy_grants) return 0.0;  // pages flipped between VMs
  return static_cast<double>(bytes) / m.copy_bw_bytes;
}

}  // namespace

double MetadataOpSeconds(const CostModel& m, Mount mount) {
  return m.vfs_dispatch_s + ForwardingSeconds(m, mount) + m.backend_small_op_s;
}

double DataOpSeconds(const CostModel& m, Mount mount, std::uint64_t bytes) {
  return m.vfs_dispatch_s + ForwardingSeconds(m, mount) +
         DataMovementSeconds(m, mount, bytes) +
         static_cast<double>(bytes) / m.backend_data_bw;
}

double WorkloadSeconds(const CostModel& m, Mount mount, const Workload& w) {
  return static_cast<double>(w.metadata_ops) * MetadataOpSeconds(m, mount) +
         static_cast<double>(w.data_ops) *
             DataOpSeconds(m, mount, w.bytes_per_data_op);
}

double Slowdown(const CostModel& m, Mount mount, const Workload& w) {
  return WorkloadSeconds(m, mount, w) / WorkloadSeconds(m, Mount::native, w);
}

std::vector<Workload> PaperWorkloads() {
  return {
      // untar + build tree: dominated by creates/stats/small writes.
      {"untar+compile (metadata heavy)", 200000, 20000, 8 * 1024},
      // streaming grep over big files.
      {"grep (streaming reads)", 2000, 30000, 1024 * 1024},
      // checkpoint: large sequential writes.
      {"checkpoint (streaming writes)", 200, 12000, 4 * 1024 * 1024},
      // postmark-ish mix.
      {"postmark (mixed)", 80000, 40000, 64 * 1024},
  };
}

}  // namespace pdsi::fsva
