#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_set>

#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/index_cache.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/sim/virtual_time.h"

namespace perfbench {
namespace {

using namespace pdsi;

// Simulated client ranks. Each is one VirtualScheduler actor on its own OS
// thread, as the scheduler requires; their wake-ups are the host cost the
// sim layer metrics expose.
constexpr std::uint32_t kRanks = 64;

// n1_checkpoint: one N-1 strided stream of small unaligned records.
constexpr std::uint32_t kN1Rows = 24;  // records per rank
constexpr std::uint64_t kN1MinRecord = 16 * KiB;
constexpr std::uint64_t kN1MaxRecord = 64 * KiB;

// create_storm: flat-directory creates on a sharded MDS. The threshold is
// low enough that the directory splits many times during the storm, so
// clients route through stale bitmaps and bounce.
constexpr std::uint32_t kCreatesPerClient = 48;
constexpr std::uint32_t kMdsShards = 8;
constexpr std::uint32_t kSplitThreshold = 64;

// restart_read: G containers written in set-up, then one reader opens them
// in a seeded order through an IndexCache smaller than G, so both cold
// merges and cache hits occur (exactly half of the opens hit).
constexpr std::uint32_t kContainers = 4;
constexpr std::uint32_t kRestartRows = 64;
constexpr std::uint64_t kRestartMinRecord = 512;
constexpr std::uint64_t kRestartMaxRecord = 1 * KiB;
constexpr std::uint32_t kUniformBlockRows = 8;  // rows sharing one size
constexpr std::size_t kCacheEntries = 2;
constexpr std::uint32_t kOpens = 32;
constexpr std::uint32_t kReadsPerOpen = 128;
constexpr std::uint64_t kChunk = 16 * KiB;

// ---------------------------------------------------------------------------
// Inputs

/// Record sizes and offsets of an N-1 strided stream, row-major: entry
/// row * kRanks + rank is record `row` of `rank`, and the records tile the
/// logical file without holes in that order.
struct StridedStream {
  std::vector<std::uint64_t> size;
  std::vector<std::uint64_t> off;
  std::uint64_t total = 0;
  std::uint64_t max_size = 0;

  std::size_t at(std::uint32_t row, std::uint32_t rank) const {
    return static_cast<std::size_t>(row) * kRanks + rank;
  }
};

/// Sizes are drawn per record from [lo, hi], except that every other block
/// of kUniformBlockRows rows (which ones is seeded) shares one size when
/// `half_uniform` is set. Only those blocks collapse under PLFS pattern
/// compression (constant length and constant stride per rank), and every
/// seed gets the same number of them, so index sizes do not vary by seed.
StridedStream MakeStream(Rng& rng, std::uint32_t rows, std::uint64_t lo,
                         std::uint64_t hi, bool half_uniform) {
  StridedStream s;
  s.size.resize(static_cast<std::size_t>(rows) * kRanks);
  const std::uint32_t blocks = (rows + kUniformBlockRows - 1) / kUniformBlockRows;
  std::vector<std::uint8_t> uniform_block(blocks, 0);
  if (half_uniform) {
    for (std::uint32_t b = 0; b < blocks / 2; ++b) uniform_block[b] = 1;
    for (std::uint32_t b = blocks; b > 1; --b) {
      std::swap(uniform_block[b - 1], uniform_block[rng.below(b)]);
    }
  }
  for (std::uint32_t block = 0; block < rows; block += kUniformBlockRows) {
    const bool uniform = uniform_block[block / kUniformBlockRows] != 0;
    const auto shared = static_cast<std::uint64_t>(
        rng.range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    for (std::uint32_t row = block; row < std::min(rows, block + kUniformBlockRows);
         ++row) {
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        s.size[s.at(row, r)] =
            uniform ? shared
                    : static_cast<std::uint64_t>(rng.range(
                          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
      }
    }
  }
  s.off.resize(s.size.size());
  for (std::size_t i = 0; i < s.size.size(); ++i) {
    s.off[i] = s.total;
    s.total += s.size[i];
    s.max_size = std::max(s.max_size, s.size[i]);
  }
  return s;
}

/// Content of logical byte `off` of restart container `g`. Cheap enough
/// that filling and checking stay a small share of a round's host time,
/// and it changes with every low offset bit and with the container.
inline std::uint8_t ContentByte(std::uint32_t g, std::uint64_t off) {
  return static_cast<std::uint8_t>(off ^ (off >> 8) ^ (off >> 16) ^ (off >> 24) ^
                                   (g * 0x5bu));
}

void FillContent(std::uint32_t g, std::uint64_t off, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = ContentByte(g, off + i);
}

bool ContentMatches(std::uint32_t g, std::uint64_t off, std::span<const std::uint8_t> in) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < in.size(); ++i) diff |= in[i] ^ ContentByte(g, off + i);
  return diff == 0;
}

// ---------------------------------------------------------------------------
// Simulated system and rank threads

std::vector<std::size_t> AllActors(std::uint32_t n) {
  std::vector<std::size_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// One simulated cluster. Traced rounds attach a counter registry (and,
/// where a metric needs the library's own spans, an event tracer); the
/// untraced rounds run the bare library.
struct SimSystem {
  SimSystem(const pfs::PfsConfig& cfg, std::uint32_t actors, bool traced,
            bool with_tracer)
      : ctx{traced && with_tracer ? &tracer : nullptr, traced ? &registry : nullptr},
        sched(actors),
        barrier(sched, AllActors(actors)),
        cluster(cfg, sched, nullptr, traced ? &ctx : nullptr) {}

  obs::Context* obs() { return ctx.registry ? &ctx : nullptr; }

  obs::Registry registry;
  obs::Tracer tracer;
  obs::Context ctx;
  sim::VirtualScheduler sched;
  sim::VirtualBarrier barrier;
  pfs::PfsCluster cluster;
};

/// Rank threads parked at a gate until run() releases them, so thread
/// start-up is set-up and the measured phase is only the simulated work.
class Actors {
 public:
  Actors() = default;
  Actors(const Actors&) = delete;
  Actors& operator=(const Actors&) = delete;
  ~Actors() { release(/*go=*/false); }

  /// Starts `n` rank threads and returns once all of them are parked.
  void spawn(std::uint32_t n, const std::function<void(std::uint32_t)>& body) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      expected_ = n;
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      threads_.emplace_back([this, r, body] {
        if (wait()) body(r);
      });
    }
    std::unique_lock<std::mutex> lk(mu_);
    parked_cv_.wait(lk, [this] { return parked_ == expected_; });
  }

  /// Releases the parked ranks and waits until every one has finished.
  void run() { release(/*go=*/true); }

 private:
  bool wait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (++parked_ == expected_) parked_cv_.notify_one();
    cv_.wait(lk, [this] { return released_; });
    return go_;
  }

  void release(bool go) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!released_) {
        released_ = true;
        go_ = go;
      }
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;         ///< ranks wait here for run()
  std::condition_variable parked_cv_;  ///< spawn() waits here for the ranks
  std::uint32_t expected_ = 0;  ///< ranks spawn() starts
  std::uint32_t parked_ = 0;
  bool released_ = false;
  bool go_ = false;
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

std::vector<SpanLog> MakeLogs(std::uint32_t n) {
  std::vector<SpanLog> logs;
  logs.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    logs.emplace_back(r, (static_cast<std::uint64_t>(r) + 1) << 40);
  }
  return logs;
}

/// Per-rank tallies, each written only by its own rank thread.
struct RankTally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> virt_lat;  ///< the workload's primary op, seconds
  rpc::EngineStats rpc;
  double finish = 0.0;

  template <class R>
  void count(const R& r) {
    ++ops;
    if (!r.ok()) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Per-layer metrics from the library's counters and the benchmark's spans

/// Quantile of a fixed-bucket histogram, with obs::Histogram::quantile's
/// conventions (linear within a bucket; overflow reads the top bound).
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (rank <= next || i + 1 == counts.size()) {
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = std::clamp((rank - cum) / static_cast<double>(counts[i]), 0.0, 1.0);
      return lo + (bounds[i] - lo) * frac;
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

/// Cumulative library counters of one system at one instant.
struct LayerSnapshot {
  std::uint64_t oss_ops = 0, oss_written = 0, oss_read = 0;
  double seek_s = 0.0, transfer_s = 0.0, disk_busy_s = 0.0;
  std::vector<std::uint64_t> mds_ops;  ///< per shard
  std::vector<std::uint64_t> mds_lat;  ///< op latency histogram, all shards
  std::vector<double> mds_bounds;
  std::uint64_t splits = 0, lock_conflicts = 0, stale_retries = 0;
  std::uint64_t plfs_reads = 0, plfs_segments = 0;
};

LayerSnapshot Snap(SimSystem& s) {
  LayerSnapshot out;
  if (!s.ctx.registry) return out;
  obs::Registry& reg = s.registry;
  out.oss_ops = reg.counter("oss.ops").value();
  out.oss_written = reg.counter("oss.bytes_written").value();
  out.oss_read = reg.counter("oss.bytes_read").value();
  out.seek_s = reg.gauge("oss.seek_seconds").value();
  out.transfer_s = reg.gauge("oss.transfer_seconds").value();
  out.disk_busy_s = s.cluster.total_disk_busy();
  const std::uint32_t shards = s.cluster.smds().num_shards();
  for (std::uint32_t k = 0; k < shards; ++k) {
    const std::string prefix = shards > 1 ? "mds.s" + std::to_string(k) + "." : "mds.";
    out.mds_ops.push_back(reg.counter(prefix + "ops").value());
    const obs::Histogram& h = reg.histogram(prefix + "op_latency_s", obs::LatencyBuckets());
    const auto counts = h.counts();
    out.mds_bounds = h.bounds();
    out.mds_lat.resize(counts.size(), 0);
    for (std::size_t i = 0; i < counts.size(); ++i) out.mds_lat[i] += counts[i];
  }
  out.splits = s.cluster.smds().splits();
  out.lock_conflicts = reg.counter("pfs.lock_conflicts").value();
  out.stale_retries = reg.counter("pfs.mds_stale_retries").value();
  out.plfs_reads = reg.counter("plfs.reads").value();
  out.plfs_segments = reg.counter("plfs.read_segments").value();
  return out;
}

/// sum[i] += b[i] - a[i]; `a` may be empty (a system's zero state).
void AddDiff(std::vector<std::uint64_t>& sum, const std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b) {
  sum.resize(std::max(sum.size(), b.size()), 0);
  for (std::size_t i = 0; i < b.size(); ++i) sum[i] += b[i] - (i < a.size() ? a[i] : 0);
}

/// Layer counters summed over the measured phase of every system a
/// workload runs.
struct LayerTotals {
  LayerSnapshot d;              ///< after - before, summed
  double server_seconds = 0.0;  ///< measured makespan x OSS count, summed

  void add(const LayerSnapshot& a, const LayerSnapshot& b, double makespan,
           std::uint32_t num_oss) {
    d.oss_ops += b.oss_ops - a.oss_ops;
    d.oss_written += b.oss_written - a.oss_written;
    d.oss_read += b.oss_read - a.oss_read;
    d.seek_s += b.seek_s - a.seek_s;
    d.transfer_s += b.transfer_s - a.transfer_s;
    d.disk_busy_s += b.disk_busy_s - a.disk_busy_s;
    AddDiff(d.mds_ops, a.mds_ops, b.mds_ops);
    AddDiff(d.mds_lat, a.mds_lat, b.mds_lat);
    d.mds_bounds = b.mds_bounds;
    d.splits += b.splits - a.splits;
    d.lock_conflicts += b.lock_conflicts - a.lock_conflicts;
    d.stale_retries += b.stale_retries - a.stale_retries;
    d.plfs_reads += b.plfs_reads - a.plfs_reads;
    d.plfs_segments += b.plfs_segments - a.plfs_segments;
    server_seconds += makespan * num_oss;
  }

  void report(RoundResult& out) const {
    auto& v = out.values;
    v["oss.ops"] = static_cast<double>(d.oss_ops);
    v["oss.bytes_written"] = static_cast<double>(d.oss_written);
    v["oss.bytes_read"] = static_cast<double>(d.oss_read);
    v["oss.seek_s"] = d.seek_s;
    v["oss.transfer_s"] = d.transfer_s;
    v["oss.disk_util"] = server_seconds > 0 ? d.disk_busy_s / server_seconds : 0.0;
    std::uint64_t mds_total = 0, mds_max = 0;
    for (std::uint64_t n : d.mds_ops) {
      mds_total += n;
      mds_max = std::max(mds_max, n);
    }
    v["mds.ops"] = static_cast<double>(mds_total);
    v["mds.splits"] = static_cast<double>(d.splits);
    v["mds.shard_ops_max_over_mean"] =
        mds_total > 0 ? static_cast<double>(mds_max) * static_cast<double>(d.mds_ops.size()) /
                            static_cast<double>(mds_total)
                      : 0.0;
    v["mds.op_latency_s.p99"] = BucketQuantile(d.mds_bounds, d.mds_lat, 0.99);
    v["pfs.lock_conflicts"] = static_cast<double>(d.lock_conflicts);
    if (d.plfs_reads > 0) {
      v["plfs.read_segments_per_read"] =
          static_cast<double>(d.plfs_segments) / static_cast<double>(d.plfs_reads);
    }
  }
};

void ReportRpc(const std::vector<RankTally>& ranks, RoundResult& out) {
  rpc::EngineStats sum;
  for (const RankTally& t : ranks) {
    sum.submitted += t.rpc.submitted;
    sum.messages += t.rpc.messages;
    sum.failures += t.rpc.failures;
  }
  out.values["rpc.submitted"] = static_cast<double>(sum.submitted);
  out.values["rpc.messages"] = static_cast<double>(sum.messages);
  out.values["rpc.failures"] = static_cast<double>(sum.failures);
}

bool StartsWith(const char* s, const char* prefix) {
  return std::string_view(s).starts_with(prefix);
}

/// Per-call samples and plfs self time from the benchmark's spans. Span
/// ids within one log are consecutive, so a parent's index is its id
/// minus the log's first id.
void AnalyzeSpans(const std::vector<SpanLog>& logs, RoundResult& out) {
  static const char* const kPerCall[] = {"pfs.write", "pfs.create", "plfs.write",
                                         "plfs.read"};
  double plfs_self_s = 0.0;
  std::uint64_t plfs_calls = 0, backend_calls = 0;
  std::vector<double> open_host, open_virt;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    if (spans.empty()) continue;
    const std::uint64_t base = spans.front().id;
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_s[s.parent - base] += s.host_s();
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Admission wait: the share of a workload op's host time the rank
      // thread spent off-CPU (blocked in VirtualScheduler::atomically).
      if (s.parent == 0) {
        out.samples["sim.admit_wait_us"].push_back((s.host_s() - s.cpu_s) * 1e6);
      }
      for (const char* name : kPerCall) {
        if (std::string_view(s.name) == name) {
          out.samples[std::string(name) + ".host_us"].push_back(s.host_s() * 1e6);
          out.samples[std::string(name) + ".virt_ms"].push_back(s.virt_s() * 1e3);
        }
      }
      if (std::string_view(s.name) == "plfs.open") {
        open_host.push_back(s.host_s() * 1e3);
        open_virt.push_back(s.virt_s() * 1e3);
      }
      if (StartsWith(s.name, "plfs.")) {
        plfs_self_s += s.host_s() - child_s[i];
        ++plfs_calls;
      }
      if (StartsWith(s.name, "backend.")) ++backend_calls;
    }
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
  }
  if (plfs_calls > 0) {
    const double n = static_cast<double>(plfs_calls);
    out.values["plfs.self_host_us_per_op"] = plfs_self_s / n * 1e6;
    out.values["plfs.backend_calls_per_op"] = static_cast<double>(backend_calls) / n;
  }
  if (!open_host.empty()) {
    out.values["plfs.open.host_ms"] = Median(open_host);
    out.values["plfs.open.virt_ms"] = Median(open_virt);
  }
}

/// Sum of the pfs client's lock_wait spans (virtual seconds).
double LockWaitSum(const obs::Tracer& tracer) {
  double sum = 0.0;
  tracer.for_each_sorted([&](const obs::EventView& e, const std::string&) {
    if (e.dur >= 0 && std::string_view(e.name) == "lock_wait") sum += e.dur;
  });
  return sum;
}

/// Virtual-latency percentiles of the workload's primary op, pooled in
/// rank order so the result is deterministic.
void ReportVirtLatency(const std::vector<RankTally>& ranks, RoundResult& out) {
  std::vector<double> lat;
  for (const RankTally& t : ranks) lat.insert(lat.end(), t.virt_lat.begin(), t.virt_lat.end());
  out.virt_op_samples = lat.size();
  out.virt["virt_op_p50_ms"] = Quantile(lat, 0.50) * 1e3;
  out.virt["virt_op_p99_ms"] = Quantile(lat, 0.99) * 1e3;
}

void SumTallies(const std::vector<RankTally>& ranks, RoundResult& out) {
  for (const RankTally& t : ranks) {
    out.ops += t.ops;
    out.failed += t.failed;
  }
}

void SetFailRatio(RoundResult& out) {
  out.virt["fail_ratio"] =
      out.ops > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.ops) : 0.0;
}

void Check(RoundResult& out, bool ok, const std::string& what) {
  if (!ok) out.errors.push_back(what);
}

// ---------------------------------------------------------------------------
// n1_checkpoint

/// 64 ranks write one seeded N-1 strided stream, first directly through
/// PfsClient, then through PLFS, each on a fresh PanFS-like cluster with
/// store_data=false (as workload::RunDirectCheckpoint does). Write-only.
class N1Checkpoint final : public Workload {
 public:
  N1Checkpoint(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  void setup() override {
    Rng rng(seed_ ^ 0x6e315f636b7074ULL);
    stream_ = MakeStream(rng, kN1Rows, kN1MinRecord, kN1MaxRecord, false);
    payload_.assign(stream_.max_size, 0);
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(8);
    cfg.store_data = false;
    direct_ = std::make_unique<SimSystem>(cfg, kRanks, traced_, /*with_tracer=*/true);
    plfs_ = std::make_unique<SimSystem>(cfg, kRanks, traced_, /*with_tracer=*/false);
    direct_logs_ = MakeLogs(kRanks);
    plfs_logs_ = MakeLogs(kRanks);
    direct_tally_.assign(kRanks, {});
    plfs_tally_.assign(kRanks, {});
    plfs_stored_.assign(kRanks, 0);
    plfs_entries_.assign(kRanks, 0);
    backend_bytes_.assign(kRanks, 0);
    direct_actors_.spawn(kRanks, [this](std::uint32_t r) { direct_rank(r); });
    plfs_actors_.spawn(kRanks, [this](std::uint32_t r) { plfs_rank(r); });
  }

  void run() override {
    direct_actors_.run();
    plfs_actors_.run();
  }

  RoundResult collect() override {
    RoundResult out;
    SumTallies(direct_tally_, out);
    SumTallies(plfs_tally_, out);
    const double total = static_cast<double>(stream_.total);
    Check(out, direct_size_ == stream_.total,
          "direct N-1 file size " + std::to_string(direct_size_) + " != " +
              std::to_string(stream_.total));
    Check(out, plfs_size_ == stream_.total,
          "PLFS StatSize " + std::to_string(plfs_size_) + " != " +
              std::to_string(stream_.total));
    const double direct_s = direct_end_ - direct_begin_;
    const double plfs_s = plfs_end_ - plfs_begin_;
    std::uint64_t stored = 0, entries = 0, backend_bytes = 0;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      stored += plfs_stored_[r];
      entries += plfs_entries_[r];
      backend_bytes += backend_bytes_[r];
    }
    out.virt["virt_direct_bw_mbs"] = total / direct_s / 1e6;
    out.virt["virt_bw_mbs"] = total / plfs_s / 1e6;
    out.virt["virt_ops_per_s"] = static_cast<double>(out.ops) / (direct_s + plfs_s);
    out.virt["stored_bytes_per_user_byte"] = static_cast<double>(stored) / total;
    ReportVirtLatency(plfs_tally_, out);
    SetFailRatio(out);
    if (traced_) {
      LayerTotals layers;
      layers.add({}, Snap(*direct_), direct_s, direct_->cluster.num_oss());
      layers.add({}, Snap(*plfs_), plfs_s, plfs_->cluster.num_oss());
      layers.report(out);
      out.values["pfs.lock_wait_s.sum"] = LockWaitSum(direct_->tracer);
      out.values["plfs.index_entries"] = static_cast<double>(entries);
      out.values["plfs.backend_bytes_per_user_byte"] =
          static_cast<double>(backend_bytes) / total;
      ReportRpc(direct_tally_, out);
      AnalyzeSpans(direct_logs_, out);
      AnalyzeSpans(plfs_logs_, out);
    }
    return out;
  }

 private:
  static constexpr const char* kPath = "/ckpt";

  std::span<const std::uint8_t> payload(std::size_t i) const {
    return std::span<const std::uint8_t>(payload_).first(stream_.size[i]);
  }

  void direct_rank(std::uint32_t r) {
    SimSystem& s = *direct_;
    RankTally& tally = direct_tally_[r];
    SpanLog* log = traced_ ? &direct_logs_[r] : nullptr;
    pfs::PfsClient client(s.cluster, r);
    auto vnow = [&] { return client.now(); };

    const double t0 = s.barrier.arrive(r);
    if (r == 0) direct_begin_ = t0;
    // Rank 0 creates the shared file; the others open it after a barrier.
    if (r != 0) s.barrier.arrive(r);
    auto fh = r == 0 ? Call(log, "pfs.create", 0, vnow, nullptr,
                            [&] { return client.create(kPath); })
                     : Call(log, "pfs.open", 0, vnow, nullptr,
                            [&] { return client.open(kPath); });
    if (r == 0) s.barrier.arrive(r);
    tally.count(fh);
    if (fh.ok()) {
      for (std::uint32_t row = 0; row < kN1Rows; ++row) {
        const std::size_t i = stream_.at(row, r);
        tally.count(Call(log, "pfs.write", stream_.size[i], vnow, nullptr, [&] {
          return client.write(*fh, stream_.off[i], payload(i));
        }));
      }
      tally.count(Call(log, "pfs.close", 0, vnow, nullptr,
                       [&] { return client.close(*fh); }));
    }
    const double t1 = s.barrier.arrive(r);
    if (r == 0) {
      direct_end_ = t1;
      // Output check, after the measured barrier: the MDS's logical size.
      auto check = client.open(kPath);
      if (check.ok()) {
        auto size = client.file_size(*check);
        if (size.ok()) direct_size_ = *size;
        client.close(*check);
      }
    }
    tally.rpc = client.rpc_stats();
    s.sched.finish(r);
  }

  void plfs_rank(std::uint32_t r) {
    SimSystem& s = *plfs_;
    RankTally& tally = plfs_tally_[r];
    SpanLog* log = traced_ ? &plfs_logs_[r] : nullptr;
    auto inner = plfs::MakePfsBackend(s.cluster, r);
    TimedBackend timed(*inner, log);
    plfs::Backend& backend = traced_ ? static_cast<plfs::Backend&>(timed) : *inner;
    auto vnow = [&] { return backend.now(); };
    plfs::Options opts;
    opts.obs = s.obs();

    const double t0 = s.barrier.arrive(r);
    if (r == 0) plfs_begin_ = t0;
    auto writer = Call(log, "plfs.open_write", 0, vnow, nullptr, [&] {
      return plfs::Writer::Open(backend, kPath, r, opts, clock_);
    });
    tally.count(writer);
    if (writer.ok()) {
      plfs::Writer& w = **writer;
      for (std::uint32_t row = 0; row < kN1Rows; ++row) {
        const std::size_t i = stream_.at(row, r);
        double virt = 0.0;
        tally.count(Call(log, "plfs.write", stream_.size[i], vnow, &virt,
                         [&] { return w.write(stream_.off[i], payload(i)); }));
        tally.virt_lat.push_back(virt);
      }
      tally.count(Call(log, "plfs.close", 0, vnow, nullptr, [&] { return w.close(); }));
      plfs_stored_[r] = w.bytes_logged() + w.index_bytes_flushed();
      plfs_entries_[r] = w.index_entries_flushed();
    }
    const double t1 = s.barrier.arrive(r);
    if (r == 0) {
      plfs_end_ = t1;
      auto size = plfs::StatSize(*inner, kPath);
      if (size.ok()) plfs_size_ = *size;
    }
    backend_bytes_[r] = timed.bytes_written();
    s.sched.finish(r);
  }

  std::uint64_t seed_;
  bool traced_;
  StridedStream stream_;
  std::vector<std::uint8_t> payload_;
  std::unique_ptr<SimSystem> direct_;
  std::unique_ptr<SimSystem> plfs_;
  plfs::WriteClock clock_{1};
  std::vector<SpanLog> direct_logs_, plfs_logs_;
  std::vector<RankTally> direct_tally_, plfs_tally_;
  std::vector<std::uint64_t> plfs_stored_, plfs_entries_, backend_bytes_;
  double direct_begin_ = 0.0, direct_end_ = 0.0;
  double plfs_begin_ = 0.0, plfs_end_ = 0.0;
  std::uint64_t direct_size_ = 0, plfs_size_ = 0;
  // Last: joined before the state the rank threads use is destroyed.
  Actors direct_actors_;
  Actors plfs_actors_;
};

// ---------------------------------------------------------------------------
// create_storm

/// 64 clients create seeded names in one flat directory on a sharded MDS.
/// Metadata plane only: no data path, no PLFS.
class CreateStorm final : public Workload {
 public:
  CreateStorm(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  void setup() override {
    Rng rng(seed_ ^ 0x63726561746573ULL);
    std::unordered_set<std::uint64_t> used;
    names_.assign(kRanks, {});
    char buf[32];
    for (auto& list : names_) {
      while (list.size() < kCreatesPerClient) {
        const std::uint64_t id = rng();
        if (!used.insert(id).second) continue;
        std::snprintf(buf, sizeof buf, "/f%016llx", static_cast<unsigned long long>(id));
        list.emplace_back(buf);
      }
    }
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
    cfg.num_mds_shards = kMdsShards;
    cfg.mds_split_threshold = kSplitThreshold;
    cfg.store_data = false;
    sys_ = std::make_unique<SimSystem>(cfg, kRanks, traced_, /*with_tracer=*/false);
    logs_ = MakeLogs(kRanks);
    tally_.assign(kRanks, {});
    actors_.spawn(kRanks, [this](std::uint32_t r) { rank(r); });
  }

  void run() override { actors_.run(); }

  RoundResult collect() override {
    RoundResult out;
    SumTallies(tally_, out);
    const std::uint64_t creates = static_cast<std::uint64_t>(kRanks) * kCreatesPerClient;
    pfs::ShardedMds& smds = sys_->cluster.smds();
    Check(out, smds.total_files() == creates,
          "MDS holds " + std::to_string(smds.total_files()) + " files, " +
              std::to_string(creates) + " created");
    Check(out, smds.check_placement_invariant(), "MDS placement invariant violated");
    double makespan = 0.0;
    for (const RankTally& t : tally_) makespan = std::max(makespan, t.finish);
    out.virt["virt_ops_per_s"] = static_cast<double>(creates) / makespan;
    ReportVirtLatency(tally_, out);
    SetFailRatio(out);
    if (traced_) {
      LayerTotals layers;
      layers.add({}, Snap(*sys_), makespan, sys_->cluster.num_oss());
      layers.report(out);
      out.values["pfs.stale_retries_per_create"] =
          static_cast<double>(layers.d.stale_retries) / static_cast<double>(creates);
      ReportRpc(tally_, out);
      AnalyzeSpans(logs_, out);
    }
    return out;
  }

 private:
  void rank(std::uint32_t r) {
    RankTally& tally = tally_[r];
    SpanLog* log = traced_ ? &logs_[r] : nullptr;
    pfs::PfsClient client(sys_->cluster, r);
    auto vnow = [&] { return client.now(); };
    for (const std::string& name : names_[r]) {
      double virt = 0.0;
      tally.count(Call(log, "pfs.create", 0, vnow, &virt,
                       [&] { return client.create(name); }));
      tally.virt_lat.push_back(virt);
    }
    tally.finish = client.now();
    tally.rpc = client.rpc_stats();
    sys_->sched.finish(r);
  }

  std::uint64_t seed_;
  bool traced_;
  std::vector<std::vector<std::string>> names_;
  std::unique_ptr<SimSystem> sys_;
  std::vector<SpanLog> logs_;
  std::vector<RankTally> tally_;
  Actors actors_;  // last: joined before the state the ranks use is destroyed
};

// ---------------------------------------------------------------------------
// restart_read

/// Set-up writes kContainers PLFS containers from 64 logical writer ranks;
/// the measured phase is one reader actor on VirtualScheduler(1) opening
/// them in a seeded order and reading seeded chunks, verifying every byte.
/// No scheduler contention: a sim-layer change should not move it.
class RestartRead final : public Workload {
 public:
  RestartRead(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  void setup() override {
    Rng rng(seed_ ^ 0x72657374617274ULL);
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(8);  // stores real bytes
    sys_ = std::make_unique<SimSystem>(cfg, 1, traced_, /*with_tracer=*/false);
    inner_ = plfs::MakePfsBackend(sys_->cluster, 0);
    logs_ = MakeLogs(1);
    timed_ = std::make_unique<TimedBackend>(*inner_, &logs_[0]);

    plfs::WriteClock clock{1};
    Bytes buf;
    for (std::uint32_t g = 0; g < kContainers; ++g) {
      streams_.push_back(MakeStream(rng, kRestartRows, kRestartMinRecord,
                                    kRestartMaxRecord, true));
      const StridedStream& st = streams_.back();
      buf.resize(st.max_size);
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        auto w = plfs::Writer::Open(*inner_, path(g), r, plfs::Options{}, clock);
        if (!w.ok()) {
          setup_errors_.push_back("set-up Writer::Open failed on " + path(g));
          continue;
        }
        for (std::uint32_t row = 0; row < kRestartRows; ++row) {
          const std::size_t i = st.at(row, r);
          const auto rec = std::span<std::uint8_t>(buf).first(st.size[i]);
          FillContent(g, st.off[i], rec);
          if (!(*w)->write(st.off[i], rec).ok()) {
            setup_errors_.push_back("set-up write failed on " + path(g));
          }
        }
        if (!(*w)->close().ok()) setup_errors_.push_back("set-up close failed");
      }
    }
    plan_opens(rng);
    before_ = Snap(*sys_);
  }

  void run() override {
    plfs::Backend& backend = traced_ ? static_cast<plfs::Backend&>(*timed_) : *inner_;
    SpanLog* log = traced_ ? &logs_[0] : nullptr;
    auto vnow = [&] { return backend.now(); };
    plfs::Options opts;
    opts.index_cache = &cache_;
    opts.use_flat_index = false;
    opts.obs = sys_->obs();
    Bytes buf(kChunk);

    begin_ = backend.now();
    for (const Open& open : opens_) {
      const std::string p = path(open.container);
      double virt = 0.0;
      auto reader = Call(log, "plfs.open", 0, vnow, &virt,
                         [&] { return plfs::Reader::Open(backend, p, opts); });
      tally_.count(reader);
      if (!reader.ok()) continue;
      open_virt_.push_back(virt);
      index_bytes_ += (*reader)->index_bytes_read();
      entries_ += (*reader)->raw_entries().size();
      const std::uint64_t size = streams_[open.container].total;
      for (const std::uint64_t chunk : open.chunks) {
        const std::uint64_t off = chunk * kChunk;
        const std::size_t len = static_cast<std::size_t>(std::min(kChunk, size - off));
        const auto out = std::span<std::uint8_t>(buf).first(len);
        auto n = Call(log, "plfs.read", len, vnow, &virt,
                      [&] { return (*reader)->read(off, out); });
        tally_.count(n);
        tally_.virt_lat.push_back(virt);
        if (!n.ok()) continue;
        bytes_read_ += *n;
        if (*n != len || !ContentMatches(open.container, off, out)) {
          ++mismatches_;
        }
      }
      // Destroying the reader closes its data droppings: one more call.
      tally_.count(Call(log, "plfs.close_read", 0, vnow, nullptr, [&] {
        reader->reset();
        return Status::Ok();
      }));
    }
    end_ = backend.now();
  }

  RoundResult collect() override {
    RoundResult out;
    out.ops = tally_.ops;
    out.failed = tally_.failed;
    out.errors = setup_errors_;
    Check(out, mismatches_ == 0,
          std::to_string(mismatches_) + " restart reads returned wrong bytes");
    const double phase_s = end_ - begin_;
    out.virt["virt_bw_mbs"] = static_cast<double>(bytes_read_) / phase_s / 1e6;
    out.virt["virt_open_ms"] = Median(open_virt_) * 1e3;
    out.virt["virt_ops_per_s"] = static_cast<double>(out.ops) / phase_s;
    ReportVirtLatency({tally_}, out);
    SetFailRatio(out);
    if (traced_) {
      LayerTotals layers;
      layers.add(before_, Snap(*sys_), phase_s, sys_->cluster.num_oss());
      layers.report(out);
      const double opens = static_cast<double>(open_virt_.size());
      out.values["plfs.index_entries"] = opens > 0 ? static_cast<double>(entries_) / opens : 0.0;
      out.values["plfs.index_bytes_read"] = static_cast<double>(index_bytes_);
      const double lookups = static_cast<double>(cache_.hits() + cache_.misses());
      out.values["plfs.index_cache_hit_ratio"] =
          lookups > 0 ? static_cast<double>(cache_.hits()) / lookups : 0.0;
      AnalyzeSpans(logs_, out);
    }
    return out;
  }

 private:
  struct Open {
    std::uint32_t container = 0;
    std::vector<std::uint64_t> chunks;  ///< chunk indices, in read order
  };

  static std::string path(std::uint32_t g) { return "/restart" + std::to_string(g); }

  /// Seeded open sequence with exactly half cache hits: a "hit" step
  /// reopens a container the kCacheEntries-entry LRU still holds, a "miss"
  /// step opens one it does not (the first open is always a miss). Each
  /// open then reads kReadsPerOpen distinct chunks in seeded order.
  void plan_opens(Rng& rng) {
    // Opens 1..kOpens-1 hold the kOpens/2 hits, shuffled.
    std::vector<std::uint8_t> hit(kOpens, 0);
    for (std::uint32_t q = 1; q <= kOpens / 2; ++q) hit[q] = 1;
    for (std::uint32_t q = kOpens - 1; q > 1; --q) {
      std::swap(hit[q], hit[1 + rng.below(q)]);
    }
    std::vector<std::uint32_t> lru;  // front = most recently used
    for (std::uint32_t q = 0; q < kOpens; ++q) {
      std::vector<std::uint32_t> pool;
      for (std::uint32_t g = 0; g < kContainers; ++g) {
        const bool cached = std::find(lru.begin(), lru.end(), g) != lru.end();
        if (cached == (hit[q] != 0)) pool.push_back(g);
      }
      Open open;
      open.container = pool[rng.below(pool.size())];
      lru.erase(std::remove(lru.begin(), lru.end(), open.container), lru.end());
      lru.insert(lru.begin(), open.container);
      if (lru.size() > kCacheEntries) lru.pop_back();

      const std::uint64_t chunks =
          (streams_[open.container].total + kChunk - 1) / kChunk;
      std::vector<std::uint64_t> order(chunks);
      for (std::uint64_t c = 0; c < chunks; ++c) order[c] = c;
      const std::uint64_t take = std::min<std::uint64_t>(kReadsPerOpen, chunks);
      for (std::uint64_t c = 0; c < take; ++c) {
        std::swap(order[c], order[c + rng.below(chunks - c)]);
      }
      order.resize(take);
      open.chunks = std::move(order);
      opens_.push_back(std::move(open));
    }
  }

  std::uint64_t seed_;
  bool traced_;
  std::unique_ptr<SimSystem> sys_;
  std::unique_ptr<plfs::Backend> inner_;
  std::vector<SpanLog> logs_;
  std::unique_ptr<TimedBackend> timed_;
  std::vector<StridedStream> streams_;
  std::vector<Open> opens_;
  std::vector<std::string> setup_errors_;
  plfs::IndexCache cache_{kCacheEntries};
  LayerSnapshot before_;
  RankTally tally_;
  std::vector<double> open_virt_;
  std::uint64_t index_bytes_ = 0, entries_ = 0, bytes_read_ = 0, mismatches_ = 0;
  double begin_ = 0.0, end_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool traced) {
  if (name == "n1_checkpoint") return std::make_unique<N1Checkpoint>(seed, traced);
  if (name == "restart_read") return std::make_unique<RestartRead>(seed, traced);
  if (name == "create_storm") return std::make_unique<CreateStorm>(seed, traced);
  return nullptr;
}

}  // namespace perfbench
