#include "pdsi/bb/bb_backend.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdsi/bb/burst_buffer.h"
#include "pdsi/pfs/namespace.h"  // NormalizePath

namespace pdsi::plfs {
namespace {

using pfs::NormalizePath;

/// Disjoint staged byte segments, start offset -> payload.
using SegMap = std::map<std::uint64_t, std::vector<std::uint8_t>>;

void SegRemove(SegMap& m, std::uint64_t s, std::uint64_t e) {
  if (s >= e) return;
  auto it = m.lower_bound(s);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > s) it = prev;
  }
  while (it != m.end() && it->first < e) {
    const std::uint64_t rs = it->first;
    std::vector<std::uint8_t> buf = std::move(it->second);
    const std::uint64_t re = rs + buf.size();
    it = m.erase(it);
    if (rs < s) {
      m.emplace(rs, std::vector<std::uint8_t>(buf.begin(), buf.begin() + (s - rs)));
    }
    if (e < re) {
      m.emplace(e, std::vector<std::uint8_t>(buf.begin() + (e - rs), buf.end()));
    }
  }
}

/// Burst-buffer staging in front of an inner backend. All public methods
/// take mu_; the buffer's sink/evict hooks run inside those sections (the
/// buffer is only driven from here) and therefore must not re-lock.
class BbBackend final : public Backend {
 public:
  BbBackend(bb::BurstBuffer& bb, std::unique_ptr<Backend> inner)
      : bb_(bb), inner_(std::move(inner)) {
    bb_.set_drain_sink([this](std::uint64_t id, std::uint64_t off, std::uint64_t len) {
      on_drained(id, off, len);
    });
    bb_.set_evict_hook([this](std::uint64_t id, std::uint64_t off, std::uint64_t len) {
      on_evicted(id, off, len);
    });
  }

  Status mkdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return inner_->mkdir(path);
  }

  Result<BackendHandle> create(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto ih = inner_->create(p);
    if (!ih) return ih.error();
    FileState f;
    f.id = next_id_++;
    f.inner_h = *ih;
    path_of_[f.id] = p;
    files_.emplace(p, std::move(f));
    return handles_.open(p);
  }

  Result<BackendHandle> open(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    if (!files_.count(p)) {
      // File that exists on the inner store only (e.g. pre-populated).
      auto ih = inner_->open(p);
      if (!ih) return ih.error();
      FileState f;
      f.id = next_id_++;
      f.inner_h = *ih;
      path_of_[f.id] = p;
      files_.emplace(p, std::move(f));
    }
    return handles_.open(p);
  }

  Status write(BackendHandle h, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lk(mu_);
    FileState* f = file_for(h);
    if (!f) return Errc::bad_handle;
    if (data.empty()) return Status::Ok();
    // Stage the payload, then absorb: the buffer may drain (and hence
    // sink) other data while this write stalls on backpressure.
    SegRemove(f->staged, off, off + data.size());
    f->staged.emplace(off, std::vector<std::uint8_t>(data.begin(), data.end()));
    f->staged_size = std::max(f->staged_size, off + data.size());
    bb_.write(f->id, off, data.size(), bb_.now());
    return Status::Ok();
  }

  Result<std::size_t> read(BackendHandle h, std::uint64_t off,
                           std::span<std::uint8_t> out) override {
    std::lock_guard<std::mutex> lk(mu_);
    FileState* f = file_for(h);
    if (!f) return Errc::bad_handle;
    if (out.empty()) return static_cast<std::size_t>(0);
    bb_.read(f->id, off, out.size(), bb_.now(), nullptr);  // clock/stats only
    // Inner first (fills durable bytes), then overlay staged segments —
    // they always hold the newest version of whatever they cover.
    auto inner_n = inner_->read(f->inner_h, off, out);
    if (!inner_n) return inner_n.error();
    std::size_t n = *inner_n;
    const std::uint64_t e = off + out.size();
    auto it = f->staged.lower_bound(off);
    if (it != f->staged.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size() > off) it = prev;
    }
    for (; it != f->staged.end() && it->first < e; ++it) {
      const std::uint64_t ss = std::max<std::uint64_t>(it->first, off);
      const std::uint64_t se = std::min<std::uint64_t>(it->first + it->second.size(), e);
      if (se <= ss) continue;
      // Zero any gap between the inner EOF and this segment.
      const std::uint64_t gap_from = off + n;
      if (ss > gap_from) {
        std::memset(out.data() + (gap_from - off), 0,
                    static_cast<std::size_t>(ss - gap_from));
      }
      std::memcpy(out.data() + (ss - off), it->second.data() + (ss - it->first),
                  static_cast<std::size_t>(se - ss));
      n = std::max<std::size_t>(n, static_cast<std::size_t>(se - off));
    }
    // Trailing hole before the logical EOF (a staged write past this range
    // extended the file): reads return zeros there, matching size().
    auto inner_sz = inner_->size(f->inner_h);
    const std::uint64_t fsize =
        std::max(inner_sz ? *inner_sz : 0, f->staged_size);
    if (off < fsize) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(out.size(), fsize - off));
      if (want > n) {
        std::memset(out.data() + n, 0, want - n);
        n = want;
      }
    }
    return n;
  }

  Result<std::uint64_t> size(BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    FileState* f = file_for(h);
    if (!f) return Errc::bad_handle;
    auto inner_sz = inner_->size(f->inner_h);
    if (!inner_sz) return inner_sz.error();
    return std::max(*inner_sz, f->staged_size);
  }

  Status fsync(BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    FileState* f = file_for(h);
    if (!f) return Errc::bad_handle;
    // Durability barrier: the staging log drains FIFO, so flushing the
    // whole buffer is the (conservative) per-file barrier.
    bb_.flush(bb_.now());
    return inner_->fsync(f->inner_h);
  }

  Status close(BackendHandle h) override {
    std::lock_guard<std::mutex> lk(mu_);
    // The per-file inner handle stays open: the drain sink may still need
    // it after every user handle is gone.
    return handles_.close(h);
  }

  Result<std::uint64_t> stat_size(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    // Tracked file: the persistent inner handle plus the staged high-water
    // mark answer without the default's open/size/close round trip (which
    // would also allocate a handle just to stat).
    if (auto it = files_.find(p); it != files_.end()) {
      auto inner_sz = inner_->size(it->second.inner_h);
      if (!inner_sz) return inner_sz.error();
      return std::max(*inner_sz, it->second.staged_size);
    }
    return inner_->stat_size(p);
  }

  Result<std::vector<std::string>> readdir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return inner_->readdir(path);
  }

  Status unlink(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string p = NormalizePath(path);
    auto it = files_.find(p);
    if (it != files_.end()) {
      bb_.drop_file(it->second.id);
      inner_->close(it->second.inner_h);
      path_of_.erase(it->second.id);
      files_.erase(it);
    }
    return inner_->unlink(p);
  }

  Status rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string f = NormalizePath(from);
    const std::string t = NormalizePath(to);
    auto it = files_.find(f);
    if (it == files_.end()) return inner_->rename(f, t);
    // The inner backend may key its handles by path, so the persistent
    // per-file handle must be reopened across the rename.
    inner_->close(it->second.inner_h);
    Status s = inner_->rename(f, t);
    auto ih = inner_->open(s.ok() ? t : f);
    if (!ih) return Errc::io_error;
    it->second.inner_h = *ih;
    if (!s.ok()) return s;
    FileState moved = std::move(it->second);
    files_.erase(it);
    path_of_[moved.id] = t;
    files_.emplace(t, std::move(moved));
    // Open user handles keep working: they resolve through the path map.
    handles_.rename(f, t);
    return Status::Ok();
  }

  Result<bool> is_dir(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return inner_->is_dir(path);
  }

  Result<bool> exists(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return inner_->exists(path);
  }

  void compute(double seconds) override {
    std::lock_guard<std::mutex> lk(mu_);
    // Client think time: background drains overlap with it.
    bb_.run_until(bb_.now() + seconds);
    inner_->compute(seconds);
  }

  double now() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return bb_.now();
  }

 private:
  struct FileState {
    std::uint64_t id = 0;
    BackendHandle inner_h = -1;
    SegMap staged;
    std::uint64_t staged_size = 0;  ///< high-water mark of staged offsets
  };

  // Runs at drain completion (inside a public method holding mu_): copy
  // the now-durable range to the inner backend.
  void on_drained(std::uint64_t id, std::uint64_t off, std::uint64_t len) {
    FileState* f = file_by_id(id);
    if (!f) return;
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len), 0);
    const std::uint64_t e = off + len;
    auto it = f->staged.lower_bound(off);
    if (it != f->staged.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size() > off) it = prev;
    }
    for (; it != f->staged.end() && it->first < e; ++it) {
      const std::uint64_t ss = std::max<std::uint64_t>(it->first, off);
      const std::uint64_t se = std::min<std::uint64_t>(it->first + it->second.size(), e);
      if (se > ss) {
        std::memcpy(buf.data() + (ss - off), it->second.data() + (ss - it->first),
                    static_cast<std::size_t>(se - ss));
      }
    }
    inner_->write(f->inner_h, off, buf);
  }

  // Runs at eviction (clean data; the inner copy is authoritative now).
  void on_evicted(std::uint64_t id, std::uint64_t off, std::uint64_t len) {
    FileState* f = file_by_id(id);
    if (f) SegRemove(f->staged, off, off + len);
  }

  FileState* file_by_id(std::uint64_t id) {
    auto pit = path_of_.find(id);
    if (pit == path_of_.end()) return nullptr;
    auto fit = files_.find(pit->second);
    return fit == files_.end() ? nullptr : &fit->second;
  }

  FileState* file_for(BackendHandle h) {
    const std::string* p = handles_.path(h);
    if (!p) return nullptr;
    auto it = files_.find(*p);
    return it == files_.end() ? nullptr : &it->second;
  }

  mutable std::mutex mu_;
  bb::BurstBuffer& bb_;
  std::unique_ptr<Backend> inner_;
  std::unordered_map<std::string, FileState> files_;  ///< tracked files by path
  std::unordered_map<std::uint64_t, std::string> path_of_;
  HandleTable handles_;
  std::uint64_t next_id_ = 1;
};

}  // namespace

std::unique_ptr<Backend> MakeBbBackend(bb::BurstBuffer& bb,
                                       std::unique_ptr<Backend> inner) {
  return std::make_unique<BbBackend>(bb, std::move(inner));
}

}  // namespace pdsi::plfs
