// Host-side measurement for the benchmark: clocks, process usage, and the
// span recorder that times the benchmark's own calls into each layer's
// public API. Nothing here reaches inside the library: spans are taken
// around calls the workloads make (workload op -> PfsClient call, workload
// op -> plfs Writer/Reader call -> Backend call), and the Backend
// decorator only forwards.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pdsi/plfs/backend.h"

namespace perfbench {

/// Monotonic host wall clock, seconds.
double HostNow();
/// CPU time consumed by the calling thread, seconds.
double ThreadCpuNow();

/// Whole-process resource usage (all threads, live and exited).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
  double max_rss_mib = 0.0;
};
Usage ReadUsage();

/// One timed call at a layer boundary. Host times are seconds on the
/// HostNow() clock; virtual times are the calling actor's clock.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a workload op (root span)
  std::uint64_t op = 0;      ///< id of the root span this call belongs to
  std::uint32_t actor = 0;
  double host_start = 0.0;
  double host_end = 0.0;
  double cpu_s = 0.0;        ///< calling thread's CPU time inside the span
  double virt_start = 0.0;
  double virt_end = 0.0;
  std::uint64_t bytes = 0;

  double host_s() const { return host_end - host_start; }
  double virt_s() const { return virt_end - virt_start; }
};

/// Spans of one actor thread. Each actor records only from its own thread,
/// so no locking is needed; nesting follows the call stack.
class SpanLog {
 public:
  SpanLog(std::uint32_t actor, std::uint64_t id_base)
      : actor_(actor), next_id_(id_base) {}

  std::size_t begin(const char* name, double virt_now, std::uint64_t bytes);
  void end(std::size_t token, double virt_now);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t actor_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the spans being timed
};

/// Runs `fn` as one call named `name`, recorded into `log` when tracing
/// (log != nullptr). `vnow` reads the caller's virtual clock. Virtual
/// latency is always returned through *virt_s so the untraced run reports
/// the same virtual numbers as the traced one.
template <class VNow, class Fn>
auto Call(SpanLog* log, const char* name, std::uint64_t bytes, VNow&& vnow,
          double* virt_s, Fn&& fn) {
  const double v0 = vnow();
  const std::size_t token = log ? log->begin(name, v0, bytes) : 0;
  auto result = fn();
  const double v1 = vnow();
  if (log) log->end(token, v1);
  if (virt_s) *virt_s = v1 - v0;
  return result;
}

/// Forwards every Backend call to `inner`, recording a span for each one
/// into `log` (the owning actor's log; nests under the plfs call that
/// issued it). Overrides every virtual method (stat_size, compute and now
/// included) so the wrapped backend behaves exactly as the bare one.
class TimedBackend final : public pdsi::plfs::Backend {
 public:
  /// `inner` must outlive the decorator.
  TimedBackend(pdsi::plfs::Backend& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  pdsi::Status mkdir(const std::string& path) override;
  pdsi::Result<pdsi::plfs::BackendHandle> create(const std::string& path) override;
  pdsi::Result<pdsi::plfs::BackendHandle> open(const std::string& path) override;
  pdsi::Status write(pdsi::plfs::BackendHandle h, std::uint64_t off,
                     std::span<const std::uint8_t> data) override;
  pdsi::Result<std::size_t> read(pdsi::plfs::BackendHandle h, std::uint64_t off,
                                 std::span<std::uint8_t> out) override;
  pdsi::Result<std::uint64_t> size(pdsi::plfs::BackendHandle h) override;
  pdsi::Status fsync(pdsi::plfs::BackendHandle h) override;
  pdsi::Status close(pdsi::plfs::BackendHandle h) override;
  pdsi::Result<std::uint64_t> stat_size(const std::string& path) override;
  pdsi::Result<std::vector<std::string>> readdir(const std::string& path) override;
  pdsi::Status unlink(const std::string& path) override;
  pdsi::Status rename(const std::string& from, const std::string& to) override;
  pdsi::Result<bool> is_dir(const std::string& path) override;
  pdsi::Result<bool> exists(const std::string& path) override;
  void compute(double seconds) override { inner_->compute(seconds); }
  double now() const override { return inner_->now(); }

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  template <class Fn>
  auto timed(const char* name, std::uint64_t bytes, Fn&& fn) {
    return Call(log_, name, bytes, [this] { return inner_->now(); }, nullptr,
                fn);
  }

  pdsi::plfs::Backend* inner_;
  SpanLog* log_;
  std::uint64_t bytes_written_ = 0;
};

/// Quantile of `v` (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample. Sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Writes spans as JSON lines (one object per span).
void WriteSpans(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
