#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "pdsi/plfs/backend.h"
#include "pdsi/pfs/namespace.h"
#include "pdsi/pfs/sparse_buffer.h"

namespace pdsi::plfs {
namespace {

using pfs::NormalizePath;

/// In-memory file tree: the directory tree is a pfs::Namespace (the MDS's
/// own rules), file payloads are sparse buffers keyed by inode file id and
/// made on first use.
class MemBackend final : public Backend {
 public:
  Status mkdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.mkdir(path);
  }

  Result<BackendHandle> create(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto node = ns_.create(p, 0.0);
    if (!node.ok()) return node.error();
    return handles_.open(p);
  }

  Result<BackendHandle> open(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto node = ns_.lookup(p);
    if (!node.ok()) return node.error();
    if (node->is_dir) return Errc::is_dir;
    return handles_.open(p);
  }

  Status write(BackendHandle h, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lk(mu_);
    pfs::SparseBuffer* buf = buffer_for(h);
    if (!buf) return Errc::bad_handle;
    buf->write(off, data);
    return Status::Ok();
  }

  Result<std::size_t> read(BackendHandle h, std::uint64_t off,
                           std::span<std::uint8_t> out) override {
    std::lock_guard<std::mutex> lk(mu_);
    pfs::SparseBuffer* buf = buffer_for(h);
    if (!buf) return Errc::bad_handle;
    if (off >= buf->size()) return static_cast<std::size_t>(0);
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), buf->size() - off));
    buf->read(off, out.subspan(0, len));
    return len;
  }

  Result<std::uint64_t> size(BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    pfs::SparseBuffer* buf = buffer_for(h);
    if (!buf) return Errc::bad_handle;
    return buf->size();
  }

  Status fsync(BackendHandle) override { return Status::Ok(); }

  Status close(BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    return handles_.close(h);
  }

  Result<std::vector<std::string>> readdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.readdir(path);
  }

  Status unlink(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    pfs::Inode gone;
    const Status st = ns_.unlink(path, &gone);
    if (st.ok()) data_.erase(gone.file_id);
    return st;
  }

  Status rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ns_.rename(from, to, 0.0);
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

  Result<std::uint64_t> stat_size(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto node = ns_.lookup(path);
    if (!node.ok()) return node.error();
    if (node->is_dir) return Errc::invalid;
    return data_[node->file_id].size();
  }

 private:
  pfs::SparseBuffer* buffer_for(BackendHandle h) {
    const std::string* p = handles_.path(h);
    if (!p) return nullptr;
    auto node = ns_.lookup(*p);
    if (!node.ok() || node->is_dir) return nullptr;
    return &data_[node->file_id];
  }

  std::mutex mu_;
  pfs::Namespace ns_;
  std::unordered_map<std::uint64_t, pfs::SparseBuffer> data_;  ///< by file id
  HandleTable handles_;
};

}  // namespace

std::unique_ptr<Backend> MakeMemBackend() { return std::make_unique<MemBackend>(); }

}  // namespace pdsi::plfs
