#include "pdsi/pnfs/pnfs.h"

#include <algorithm>
#include <vector>

#include "pdsi/sim/virtual_time.h"
#include "pdsi/storage/disk_model.h"

namespace pdsi::pnfs {

PnfsResult RunStreamingClients(const PnfsParams& p) {
  sim::VirtualScheduler sched(p.clients);

  // Shared resources, touched only inside atomically sections.
  std::vector<storage::DiskModel> disks;
  std::vector<sim::SimResource> disk_res(p.data_servers);
  std::vector<sim::SimResource> ds_nic(p.data_servers);
  for (std::uint32_t s = 0; s < p.data_servers; ++s) {
    storage::DiskParams dp;
    dp.seq_bw_bytes = p.disk_bw_bytes;
    disks.emplace_back(dp);
  }
  sim::SimResource nas_nic;   // the single NFS server's wire
  sim::SimResource nas_cpu;
  sim::SimResource mds;       // pNFS metadata server

  const double finish = sched.run([&](std::size_t c) {
    sim::SimResource my_nic;  // client's own link
    if (p.protocol == Protocol::pnfs) {
      // LAYOUTGET once per file.
      sched.atomically(c, [&](double now) {
        return mds.reserve(now + p.rpc_latency_s, p.layout_rpc_s);
      });
    }
    // Streaming with readahead: a window of requests stays in flight,
    // so disk, server wire and client wire pipeline; the client's clock
    // advances to the delivery of each window rather than summing every
    // stage of every chunk.
    constexpr int kReadaheadChunks = 16;
    const std::uint64_t object = 5000 + c;
    std::uint64_t off = 0;
    std::uint64_t stripe = c;  // start server staggered per client
    // Independent per-server fetch chains: a striped file's pieces on
    // one server are a contiguous object, and different servers stream
    // in parallel.
    std::vector<double> disk_chain(p.data_servers, 0.0);
    std::vector<std::uint64_t> srv_off(p.data_servers, 0);
    while (off < p.bytes_per_client) {
      sched.atomically(c, [&](double now) {
        double deliver = now;
        for (int k = 0; k < kReadaheadChunks && off < p.bytes_per_client; ++k) {
          const std::uint64_t len =
              std::min(p.chunk_bytes, p.bytes_per_client - off);
          const std::uint32_t server =
              static_cast<std::uint32_t>(stripe % p.data_servers);
          const double wire = static_cast<double>(len);
          const double service =
              disks[server].access(object * 64 + server, srv_off[server], len);
          srv_off[server] += len;
          const double disk_done = disk_res[server].reserve(
              std::max(disk_chain[server], now + p.rpc_latency_s), service);
          disk_chain[server] = disk_done;
          double t = disk_done;
          if (p.protocol == Protocol::nfs) {
            // Proxy hop: storage -> NAS head -> client. The head's NIC
            // carries each byte twice and its CPU touches every op.
            t = nas_cpu.reserve(t, p.server_cpu_per_op_s);
            t = nas_nic.reserve(t, 2.0 * wire / p.nas_head_nic_bw);
          } else {
            t = ds_nic[server].reserve(t, wire / p.data_server_nic_bw);
          }
          t = my_nic.reserve(t, wire / p.client_nic_bw);
          deliver = std::max(deliver, t);
          off += len;
          ++stripe;
        }
        return deliver;
      });
    }
  });

  PnfsResult r;
  r.seconds = finish;
  r.bytes = static_cast<std::uint64_t>(p.clients) * p.bytes_per_client;
  return r;
}

}  // namespace pdsi::pnfs
