// Real-filesystem backend: the deployment analogue of running PLFS over a
// mounted parallel file system. Uses raw POSIX descriptors with pread /
// pwrite so concurrent rank threads need no shared file-position state.
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

#include "pdsi/plfs/backend.h"
#include "pdsi/pfs/namespace.h"  // NormalizePath

namespace pdsi::plfs {
namespace {

Errc ErrnoToErrc(int e) {
  switch (e) {
    case ENOENT: return Errc::not_found;
    case EEXIST: return Errc::exists;
    case ENOTDIR: return Errc::not_dir;
    case EISDIR: return Errc::is_dir;
    case ENOTEMPTY: return Errc::not_empty;
    case EINVAL: return Errc::invalid;
    case EBADF: return Errc::bad_handle;
    case ENOSPC: return Errc::no_space;
    case EBUSY: return Errc::busy;
    default: return Errc::io_error;
  }
}

class PosixBackend final : public Backend {
 public:
  explicit PosixBackend(std::string root) : root_(std::move(root)) {}

  Status mkdir(const std::string& path) override {
    if (::mkdir(full(path).c_str(), 0755) != 0) return ErrnoToErrc(errno);
    return Status::Ok();
  }

  Result<BackendHandle> create(const std::string& path) override {
    const int fd = ::open(full(path).c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
    if (fd < 0) return ErrnoToErrc(errno);
    return fd;
  }

  Result<BackendHandle> open(const std::string& path) override {
    const int fd = ::open(full(path).c_str(), O_RDWR);
    if (fd < 0) return ErrnoToErrc(errno);
    return fd;
  }

  Status write(BackendHandle h, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::pwrite(h, data.data() + done, data.size() - done,
                                 static_cast<off_t>(off + done));
      if (n < 0) return ErrnoToErrc(errno);
      done += static_cast<std::size_t>(n);
    }
    return Status::Ok();
  }

  Result<std::size_t> read(BackendHandle h, std::uint64_t off,
                           std::span<std::uint8_t> out) override {
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::pread(h, out.data() + done, out.size() - done,
                                static_cast<off_t>(off + done));
      if (n < 0) return ErrnoToErrc(errno);
      if (n == 0) break;  // EOF
      done += static_cast<std::size_t>(n);
    }
    return done;
  }

  Result<std::uint64_t> size(BackendHandle h) override {
    struct stat st {};
    if (::fstat(h, &st) != 0) return ErrnoToErrc(errno);
    return static_cast<std::uint64_t>(st.st_size);
  }

  Status fsync(BackendHandle h) override {
    if (::fsync(h) != 0) return ErrnoToErrc(errno);
    return Status::Ok();
  }

  Status close(BackendHandle h) override {
    if (::close(h) != 0) return ErrnoToErrc(errno);
    return Status::Ok();
  }

  Result<std::vector<std::string>> readdir(const std::string& path) override {
    DIR* dir = ::opendir(full(path).c_str());
    if (!dir) return ErrnoToErrc(errno);
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(dir)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    return names;
  }

  Status unlink(const std::string& path) override {
    const std::string f = full(path);
    struct stat st {};
    if (::stat(f.c_str(), &st) != 0) return ErrnoToErrc(errno);
    const int rc = S_ISDIR(st.st_mode) ? ::rmdir(f.c_str()) : ::unlink(f.c_str());
    if (rc != 0) return ErrnoToErrc(errno);
    return Status::Ok();
  }

  Status rename(const std::string& from, const std::string& to) override {
    // POSIX rename overwrites; match the stricter backend contract.
    struct stat st {};
    if (::stat(full(to).c_str(), &st) == 0) return Errc::exists;
    if (::rename(full(from).c_str(), full(to).c_str()) != 0) {
      return ErrnoToErrc(errno);
    }
    return Status::Ok();
  }

  Result<bool> is_dir(const std::string& path) override {
    struct stat st {};
    if (::stat(full(path).c_str(), &st) != 0) return ErrnoToErrc(errno);
    return S_ISDIR(st.st_mode);
  }

  Result<bool> exists(const std::string& path) override {
    struct stat st {};
    return ::stat(full(path).c_str(), &st) == 0;
  }

 private:
  std::string full(const std::string& path) const {
    return root_ + pfs::NormalizePath(path);
  }

  std::string root_;
};

}  // namespace

std::unique_ptr<Backend> MakePosixBackend(const std::string& root) {
  return std::make_unique<PosixBackend>(root);
}

}  // namespace pdsi::plfs
