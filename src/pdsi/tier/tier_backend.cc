#include "pdsi/tier/tier_backend.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "pdsi/pfs/namespace.h"
#include "pdsi/tier/tier_engine.h"

namespace pdsi::tier {
namespace {

using pfs::NormalizePath;

/// The directory tree is a pfs::Namespace (the MDS's own rules); file
/// payloads live in the engine under the normalised path. Engine objects
/// are created lazily on first write, so a created-but-never-written file
/// is namespace-only with size 0.
class TierBackend final : public plfs::Backend {
 public:
  explicit TierBackend(TierEngine& engine) : engine_(engine) {}

  Status mkdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.mkdir(path);
  }

  Result<plfs::BackendHandle> create(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto node = ns_.create(p, clock_);
    if (!node.ok()) return node.error();
    return handles_.open(p);
  }

  Result<plfs::BackendHandle> open(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto node = ns_.lookup(p);
    if (!node.ok()) return node.error();
    if (node->is_dir) return Errc::is_dir;
    return handles_.open(p);
  }

  Status write(plfs::BackendHandle h, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string* p = path_for(h);
    if (!p) return Errc::bad_handle;
    if (data.empty()) return Status::Ok();
    auto t = engine_.write(*p, off, data, clock_);
    if (!t.ok()) return t.error();
    clock_ = std::max(clock_, *t);
    return Status::Ok();
  }

  Result<std::size_t> read(plfs::BackendHandle h, std::uint64_t off,
                           std::span<std::uint8_t> out) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string* p = path_for(h);
    if (!p) return Errc::bad_handle;
    if (!engine_.exists(*p)) return static_cast<std::size_t>(0);
    std::size_t n = 0;
    auto t = engine_.read(*p, off, out, clock_, &n);
    if (!t.ok()) return t.error();
    clock_ = std::max(clock_, *t);
    return n;
  }

  Result<std::uint64_t> size(plfs::BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string* p = path_for(h);
    if (!p) return Errc::bad_handle;
    auto sz = engine_.size(*p);
    if (!sz.ok()) return static_cast<std::uint64_t>(0);  // never written
    return *sz;
  }

  Status fsync(plfs::BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (!path_for(h)) return Errc::bad_handle;
    clock_ = std::max(clock_, engine_.flush(clock_));
    return Status::Ok();
  }

  Status close(plfs::BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    return handles_.close(h);
  }

  Result<std::uint64_t> stat_size(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto node = ns_.lookup(p);
    if (!node.ok()) return node.error();
    if (node->is_dir) return Errc::invalid;
    auto sz = engine_.size(p);
    if (!sz.ok()) return static_cast<std::uint64_t>(0);
    return *sz;
  }

  Result<std::vector<std::string>> readdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.readdir(path);
  }

  Status unlink(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    const Status st = ns_.unlink(p);
    if (st.ok() && engine_.exists(p)) engine_.remove(p);
    return st;
  }

  Status rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string f = NormalizePath(from);
    const std::string t = NormalizePath(to);
    const Status st = ns_.rename(f, t, clock_);
    // The engine holds objects only for files of this namespace, so once
    // the namespace accepts the move the engine's destination is free.
    if (!st.ok() || f == t || !engine_.exists(f)) return st;
    return engine_.rename(f, t);
  }

  Result<bool> is_dir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto node = ns_.lookup(path);
    if (!node.ok()) return node.error();
    return node->is_dir;
  }

  Result<bool> exists(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.lookup(path).ok();
  }

  void compute(double seconds) override {
    std::lock_guard<std::mutex> lk(mu_);
    clock_ += seconds;
    engine_.run_until(clock_);
  }

  double now() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return clock_;
  }

 private:
  /// The open file's path, or nullptr once it is closed, renamed away or
  /// unlinked.
  const std::string* path_for(plfs::BackendHandle h) const {
    const std::string* p = handles_.path(h);
    if (!p) return nullptr;
    auto node = ns_.lookup(*p);
    return node.ok() && !node->is_dir ? p : nullptr;
  }

  TierEngine& engine_;
  mutable std::mutex mu_;
  pfs::Namespace ns_;
  plfs::HandleTable handles_;
  double clock_ = 0.0;
};

}  // namespace

std::unique_ptr<plfs::Backend> MakeTierBackend(TierEngine& engine) {
  return std::make_unique<TierBackend>(engine);
}

}  // namespace pdsi::tier
