#include "pdsi/plfs/index_cache.h"

namespace pdsi::plfs {

std::shared_ptr<const IndexSnapshot> IndexCache::find(
    const std::string& container, std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_path_.find(container);
  if (it == by_path_.end() || it->second->second->fingerprint != fingerprint) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

void IndexCache::put(const std::string& container,
                     std::shared_ptr<const IndexSnapshot> snapshot) {
  if (!snapshot) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_path_.find(container);
  if (it != by_path_.end()) {
    it->second->second = std::move(snapshot);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(container, std::move(snapshot));
  by_path_[container] = lru_.begin();
  while (lru_.size() > max_entries_) {
    by_path_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void IndexCache::invalidate(const std::string& container) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_path_.find(container);
  if (it == by_path_.end()) return;
  lru_.erase(it->second);
  by_path_.erase(it);
}

std::size_t IndexCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

std::uint64_t IndexCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

std::uint64_t IndexCache::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

}  // namespace pdsi::plfs
