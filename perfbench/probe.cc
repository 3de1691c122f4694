#include "probe.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return u;
}

std::size_t SpanLog::begin(const char* name, double virt_now, std::uint64_t bytes) {
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.actor = actor_;
  s.bytes = bytes;
  s.virt_start = virt_now;
  if (open_.empty()) {
    s.op = s.id;
  } else {
    const Span& parent = spans_[open_.back()];
    s.parent = parent.id;
    s.op = parent.op;
  }
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  // Clocks last, so the span's own bookkeeping is outside its interval,
  // and nested so the CPU interval lies inside the wall interval.
  spans_.back().host_start = HostNow();
  spans_.back().cpu_s = ThreadCpuNow();
  return open_.back();
}

void SpanLog::end(std::size_t token, double virt_now) {
  const double cpu = ThreadCpuNow();
  const double host = HostNow();
  Span& s = spans_[token];
  s.host_end = host;
  s.cpu_s = cpu - s.cpu_s;
  s.virt_end = virt_now;
  open_.pop_back();
}

using pdsi::Result;
using pdsi::Status;
using pdsi::plfs::BackendHandle;

Status TimedBackend::mkdir(const std::string& path) {
  return timed("backend.mkdir", 0, [&] { return inner_->mkdir(path); });
}
Result<BackendHandle> TimedBackend::create(const std::string& path) {
  return timed("backend.create", 0, [&] { return inner_->create(path); });
}
Result<BackendHandle> TimedBackend::open(const std::string& path) {
  return timed("backend.open", 0, [&] { return inner_->open(path); });
}
Status TimedBackend::write(BackendHandle h, std::uint64_t off,
                           std::span<const std::uint8_t> data) {
  bytes_written_ += data.size();
  return timed("backend.write", data.size(),
               [&] { return inner_->write(h, off, data); });
}
Result<std::size_t> TimedBackend::read(BackendHandle h, std::uint64_t off,
                                       std::span<std::uint8_t> out) {
  return timed("backend.read", out.size(), [&] { return inner_->read(h, off, out); });
}
Result<std::uint64_t> TimedBackend::size(BackendHandle h) {
  return timed("backend.size", 0, [&] { return inner_->size(h); });
}
Status TimedBackend::fsync(BackendHandle h) {
  return timed("backend.fsync", 0, [&] { return inner_->fsync(h); });
}
Status TimedBackend::close(BackendHandle h) {
  return timed("backend.close", 0, [&] { return inner_->close(h); });
}
Result<std::uint64_t> TimedBackend::stat_size(const std::string& path) {
  return timed("backend.stat_size", 0, [&] { return inner_->stat_size(path); });
}
Result<std::vector<std::string>> TimedBackend::readdir(const std::string& path) {
  return timed("backend.readdir", 0, [&] { return inner_->readdir(path); });
}
Status TimedBackend::unlink(const std::string& path) {
  return timed("backend.unlink", 0, [&] { return inner_->unlink(path); });
}
Status TimedBackend::rename(const std::string& from, const std::string& to) {
  return timed("backend.rename", 0, [&] { return inner_->rename(from, to); });
}
Result<bool> TimedBackend::is_dir(const std::string& path) {
  return timed("backend.is_dir", 0, [&] { return inner_->is_dir(path); });
}
Result<bool> TimedBackend::exists(const std::string& path) {
  return timed("backend.exists", 0, [&] { return inner_->exists(path); });
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

void WriteSpans(std::ostream& os, const std::vector<Span>& spans) {
  char line[512];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"actor\":%u,"
                  "\"name\":\"%s\",\"host_start\":%.9f,\"host_end\":%.9f,"
                  "\"cpu_s\":%.9f,\"virt_start\":%.9f,\"virt_end\":%.9f,"
                  "\"bytes\":%llu}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), s.actor, s.name,
                  s.host_start, s.host_end, s.cpu_s, s.virt_start, s.virt_end,
                  static_cast<unsigned long long>(s.bytes));
    os << line;
  }
}

}  // namespace perfbench
