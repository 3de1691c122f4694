// PfsClient: the POSIX-like per-rank interface to the simulated parallel
// file system. Each rank (virtual-time actor) owns one client; every call
// both performs the real state transition (namespace edit, byte movement)
// and advances the rank's virtual clock by the modelled service time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/giga/giga.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/rpc/engine.h"

namespace pdsi::pfs {

using FileHandle = int;

struct StatResult {
  std::uint64_t size = 0;
  bool is_dir = false;
  double mtime = 0.0;
};

/// Parallel layout of a file, as returned by the POSIX HEC extension the
/// report says was accepted for standardisation ("allows applications to
/// query parallel layout information ... to optimize I/O patterns").
struct LayoutInfo {
  std::uint64_t stripe_unit = 0;
  std::uint64_t lock_unit = 0;
  std::uint32_t num_servers = 0;
  /// Server for each of the first `num_servers` stripes (the pattern for
  /// round-robin layouts; hashed layouts vary per stripe).
  std::vector<std::uint32_t> first_stripes;
};

/// RAII ownership of a granted whole-file lock unit. The lock manager
/// hands the grant out with the completion time still unknown; the
/// holder stamps it via complete(done) once the covered op finishes. If
/// the op bails out early (error path, exception), the destructor
/// releases the unit at the grant instant instead — an abandoned grant
/// can never leave `unit.free` stale and block later acquirers behind a
/// hold that no longer exists.
class WholeFileGrant {
 public:
  WholeFileGrant() = default;
  WholeFileGrant(const WholeFileGrant&) = delete;
  WholeFileGrant& operator=(const WholeFileGrant&) = delete;
  ~WholeFileGrant() { release(); }

  /// Takes ownership of `unit`, granted at time `granted`.
  void arm(PfsCluster::LockUnit* unit, double granted) {
    unit_ = unit;
    granted_ = granted;
  }
  bool held() const { return unit_ != nullptr; }
  /// Normal release: the covered op completed at `done`.
  void complete(double done) {
    if (unit_ != nullptr) {
      unit_->free = done;
      unit_ = nullptr;
    }
  }
  /// Fallback release at the grant instant (no time was modelled as
  /// spent under the lock).
  void release() { complete(granted_); }

 private:
  PfsCluster::LockUnit* unit_ = nullptr;
  double granted_ = 0.0;
};

class PfsClient {
 public:
  /// `actor` is the rank's VirtualScheduler actor id; it doubles as the
  /// client identity for byte-range lock ownership.
  PfsClient(PfsCluster& cluster, std::size_t actor);

  std::size_t actor() const { return actor_; }
  double now() const;

  /// True when PfsConfig::rpc_window/rpc_batch put this client in
  /// pipelined mode: requests ride the pdsi::rpc engine's per-server
  /// queues instead of completing synchronously. Write failures then
  /// surface at fsync/close (async-I/O semantics).
  bool pipelined() const { return engine_.pipelined(); }
  /// The request engine's accounting (messages, window stalls, ...).
  const rpc::EngineStats& rpc_stats() const { return engine_.stats(); }

  // -- Namespace --
  Status mkdir(const std::string& path);
  Result<FileHandle> create(const std::string& path);
  Result<FileHandle> open(const std::string& path);
  Result<StatResult> stat(const std::string& path);
  /// POSIX HEC extension: query the file's parallel layout (one MDS op).
  Result<LayoutInfo> layout(const std::string& path);
  /// POSIX HEC extension: open on behalf of `group_size` ranks with one
  /// metadata operation instead of one per rank (the "group open"
  /// proposal). Returns this caller's handle.
  Result<FileHandle> open_group(const std::string& path, std::uint32_t group_size);
  Result<std::vector<std::string>> readdir(const std::string& path);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to);

  // -- Data --
  Status write(FileHandle fh, std::uint64_t off, std::span<const std::uint8_t> data);
  /// Returns bytes read (short at EOF); holes read as zeros.
  Result<std::size_t> read(FileHandle fh, std::uint64_t off, std::span<std::uint8_t> out);
  Status fsync(FileHandle fh);
  Status close(FileHandle fh);

  /// Size as known to the MDS (clients see each other's extends).
  Result<std::uint64_t> file_size(FileHandle fh);

  /// Advances this rank's virtual clock by `seconds` of client-side
  /// compute (no cluster resources touched).
  void compute(double seconds);

 private:
  struct OpenFile {
    bool in_use = false;
    std::uint64_t file_id = 0;
    std::string path;
    /// The path's entry, resolved on the first data op and looked up
    /// again only after its shard erased or replaced an entry: read's EOF
    /// clamp and write's extend see exactly what a path lookup would.
    ShardedMds::InodeRef inode;
  };

  OpenFile* get(FileHandle fh);
  /// Opens the lowest free slot, as a scan from slot 0 would, but starts
  /// at free_hint_: a client holding N open files does not scan N slots.
  FileHandle put(std::uint64_t file_id, std::string path);

  /// Charge extent/whole-file lock acquisition for [off, off+len); returns
  /// the time the write may proceed. Under the whole_file protocol,
  /// `grant` is armed with the held unit; the caller completes it with
  /// the op's final completion time (or lets RAII release it on an early
  /// exit).
  double acquire_locks(std::uint64_t file_id, std::uint64_t off, std::uint64_t len,
                       double t, WholeFileGrant* grant);

  /// True when this run annotates data ops for the consistency checker
  /// (PfsConfig::record_consist_ops, a tracer, and stored data — without
  /// payload bytes there is nothing to fingerprint).
  bool recording_consist() const;
  /// Emits a consist op span ("write"/"read") on this rank's track.
  void record_consist_op(const char* name, std::uint64_t file_id, double start,
                         double end, std::uint64_t off, std::uint64_t len,
                         std::uint64_t fp);
  /// Emits a consist visibility-edge instant ("open"/"close"/"sync"/"pub").
  void record_consist_edge(const char* name, std::uint64_t file_id, double ts);

  /// The request-engine queue id for MDS shard `shard` (the OSS queues
  /// are 0..num_oss-1, the shard queues follow).
  std::uint32_t mds_queue(std::uint32_t shard) const {
    return cluster_.num_oss() + shard;
  }

  /// Synchronous-mode MDS addressing of the path whose GIGA+ name hash
  /// is `hash` (giga::HashName of the normalised path, computed once per
  /// op): charges one op (scaled by `fraction`) on the shard the cached
  /// bitmap addresses, looping while the addressing is stale — each
  /// bounced attempt pays a full round trip to the wrong shard, whose
  /// reply's fresh bitmap rows merge into the cache. Advances *t past the
  /// final (correctly-addressed) charge and returns that shard. One shard
  /// degenerates to a single charge(t + rpc_latency) on shard 0,
  /// byte-identical to the lone MDS.
  std::uint32_t route_mds(std::uint64_t hash, double* t, std::uint64_t req,
                          double fraction = 1.0);

  /// Pipelined-mode addressing: resolves the shard against the cached
  /// bitmap without charging, submitting one deferred wire charge to
  /// each stale shard bounced off along the way. The caller submits the
  /// real op to the returned shard's queue.
  std::uint32_t route_mds_queued(std::uint64_t hash, double* t,
                                 std::uint64_t req);

  /// Mints the causal request id for one public client op. Ids are
  /// per-client monotonic from 1; together with the rank the pair is
  /// globally unique. Minting is unconditional (pure counter, no
  /// observable effect); only monitored runs ever *emit* the id.
  std::uint64_t mint_req() { return ++next_req_id_; }

  /// One striped write chunk served by its OSS (the engine's serve
  /// callback in both modes). The server registers as touched only when
  /// the chunk actually lands: the engine never calls serve for a request
  /// that exhausted its retries, so a wholesale-failed write cannot leave
  /// phantom entries for fsync/unlink to charge later. `req` is the
  /// causal id threaded to the OSS span.
  double serve_write_chunk(std::uint32_t server, std::uint64_t file_id,
                           std::uint64_t off, std::uint64_t len, double at,
                           bool wire, std::uint64_t req);

  /// Sync-mode striped transfer of [off, off+len): executes every chunk
  /// from `t` through the engine (all retry, timeout and backoff
  /// behaviour is the engine's, the fault injector's single seam; reads
  /// carry the replica-failover scan) and returns the last completion.
  /// Stops at the first chunk that exhausts its retries and clears *ok.
  double execute_chunks(std::uint64_t file_id, std::uint64_t off,
                        std::uint64_t len, bool is_read, double t,
                        std::uint64_t req, bool* ok);

  /// Pipelined-mode helper: enqueues the deferred timing charge of one
  /// metadata wire request on MDS shard `shard` — `charges` sequential
  /// MDS ops (scaled by `fraction`), then a parent-directory lock charge
  /// when `parent` is non-empty. State transitions happen at submit
  /// time; only the clock rides the queue. Returns the client's
  /// post-submission time.
  double submit_mds(double t, std::size_t charges, double fraction,
                    std::string parent, std::uint64_t req,
                    std::uint32_t shard = 0);

  /// Striped read core shared by both modes: chunks fan out in parallel
  /// from `t`. Returns the completion time and fills *result.
  double read_core(OpenFile* f, std::uint64_t off, std::span<std::uint8_t> out,
                   double t, Result<std::size_t>* result, std::uint64_t req);

  /// fsync's admitted section, from `t`: a pipelined client's drain, the
  /// flush fan-out and the commit/mpiio publish. Failures fold into *st;
  /// returns the completion time.
  double sync_core(OpenFile* f, double t, Status* st, std::uint64_t req);

  /// fsync's flush fan-out over the file's touched servers, from `t`;
  /// failures fold into *st (the other servers still flush).
  double flush_touched(std::uint64_t file_id, double t, Status* st,
                       std::uint64_t req);

  /// unlink's namespace + object-teardown core, from `t`.
  double unlink_core(const std::string& path, double t, Status* st,
                     std::uint64_t req);

  PfsCluster& cluster_;
  std::size_t actor_;
  rpc::RequestEngine engine_;
  std::uint64_t next_req_id_ = 0;
  /// Cached GIGA+ split-history bitmap for MDS shard addressing; merged
  /// lazily from bounce replies, never invalidated. Unused (partition 0
  /// only) under the single-shard default.
  giga::Bitmap mds_bitmap_;
  /// Latched when a read-side drain observed an asynchronous write
  /// failure; surfaced (then cleared) by the next fsync/close.
  bool pending_io_error_ = false;
  std::vector<OpenFile> open_files_;
  /// Every slot below this one is in use; close lowers it.
  std::size_t free_hint_ = 0;
  obs::Counter* c_lock_conflicts_ = nullptr;
  obs::Histogram* h_lock_wait_ = nullptr;
  // consist.* instruments exist only when the run opted into a relaxed
  // model or into op recording, so default metric dumps are unchanged.
  obs::Counter* c_lock_skips_ = nullptr;
  obs::Counter* c_consist_ops_ = nullptr;
  /// Stale-bitmap bounces; created only when num_mds_shards > 1 so
  /// default metric dumps are unchanged.
  obs::Counter* c_mds_stale_ = nullptr;
};

}  // namespace pdsi::pfs
