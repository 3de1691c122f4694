#include "pdsi/pfs/cluster.h"

#include "pdsi/fault/fault.h"

namespace pdsi::pfs {

PfsCluster::PfsCluster(PfsConfig cfg, sim::VirtualScheduler& sched,
                       std::unique_ptr<PlacementStrategy> placement,
                       obs::Context* obs)
    : cfg_(std::move(cfg)),
      sched_(sched),
      placement_(placement ? std::move(placement) : MakeRoundRobinPlacement()),
      obs_(obs),
      smds_(cfg_, obs_) {
  servers_.reserve(cfg_.num_oss);
  for (std::uint32_t i = 0; i < cfg_.num_oss; ++i) {
    servers_.push_back(std::make_unique<Oss>(cfg_, i, obs_));
  }
}

void PfsCluster::set_fault(fault::FaultInjector* f) {
  fault_ = f;
  for (auto& s : servers_) s->set_fault(f);
}

std::uint32_t PfsCluster::survivor(std::uint32_t server, double at) const {
  const std::uint32_t servers = num_oss();
  for (std::uint32_t step = 1; step < servers; ++step) {
    const std::uint32_t cand = (server + step) % servers;
    if (!fault_ || !fault_->down(cand, at)) return cand;
  }
  return server;
}

double PfsCluster::total_disk_busy() const {
  double t = 0.0;
  for (const auto& s : servers_) t += s->disk_busy_seconds();
  return t;
}

SparseBuffer* PfsCluster::data_for(std::uint64_t file_id, bool create_if_missing) {
  if (!cfg_.store_data) return nullptr;
  auto it = file_data_.find(file_id);
  if (it == file_data_.end()) {
    if (!create_if_missing) return nullptr;
    it = file_data_.emplace(file_id, SparseBuffer{}).first;
  }
  return &it->second;
}

void PfsCluster::drop_data(std::uint64_t file_id) { file_data_.erase(file_id); }

PfsCluster::LockUnit& PfsCluster::lock_unit(std::uint64_t file_id, std::uint64_t unit) {
  return locks_[file_id][unit];
}

void PfsCluster::drop_locks(std::uint64_t file_id) { locks_.erase(file_id); }

std::unordered_set<std::uint32_t>& PfsCluster::touched_servers(std::uint64_t file_id) {
  return touched_[file_id];
}

void PfsCluster::drop_touched(std::uint64_t file_id) { touched_.erase(file_id); }

}  // namespace pdsi::pfs
