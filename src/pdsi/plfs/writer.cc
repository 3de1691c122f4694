#include "pdsi/plfs/writer.h"

#include "pdsi/plfs/container.h"
#include "pdsi/plfs/index_cache.h"

namespace pdsi::plfs {

Result<std::unique_ptr<Writer>> Writer::Open(Backend& backend,
                                             const std::string& path,
                                             std::uint32_t rank,
                                             const Options& options,
                                             WriteClock& clock) {
  auto hostdir = EnsureContainer(backend, path, rank, options.num_hostdirs);
  if (!hostdir.ok()) return hostdir.error();

  auto data = backend.create(ContainerPaths::data_dropping(path, *hostdir, rank));
  if (!data.ok()) return data.error();
  auto index = backend.create(ContainerPaths::index_dropping(path, *hostdir, rank));
  if (!index.ok()) {
    backend.close(*data);
    return index.error();
  }
  return std::unique_ptr<Writer>(
      new Writer(backend, path, rank, options, clock, *data, *index));
}

Writer::Writer(Backend& backend, std::string path, std::uint32_t rank,
               Options options, WriteClock& clock, BackendHandle data,
               BackendHandle index)
    : backend_(backend),
      path_(std::move(path)),
      rank_(rank),
      options_(options),
      clock_(clock),
      data_h_(data),
      index_h_(index),
      compressor_(options.index_compression) {
  if (options_.write_buffer_bytes > 0) {
    data_buffer_.reserve(options_.write_buffer_bytes);
  }
  if (options_.obs) {
    track_ = obs::kRankTrackBase + rank_;
    if (options_.obs->tracer) {
      options_.obs->tracer->track(track_, "rank" + std::to_string(rank_));
    }
    if (options_.obs->registry) {
      c_records_ = &options_.obs->registry->counter("plfs.records");
      c_bytes_logged_ = &options_.obs->registry->counter("plfs.bytes_logged");
      c_index_flushes_ = &options_.obs->registry->counter("plfs.index_flushes");
    }
  }
}

Writer::~Writer() {
  if (open_) close();
}

Status Writer::write(std::uint64_t off, std::span<const std::uint8_t> data) {
  if (!open_) return Errc::bad_handle;
  if (data.empty()) return Status::Ok();
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double t0 = tracer ? backend_.now() : 0.0;
  const std::uint64_t phys = physical_end_;

  IndexEntry e;
  e.logical = off;
  e.length = data.size();
  e.physical = physical_end_;
  e.rank = rank_;
  e.sequence = clock_.fetch_add(1, std::memory_order_relaxed);

  if (options_.write_buffer_bytes > 0) {
    const std::size_t staged = data_buffer_.size();
    data_buffer_.insert(data_buffer_.end(), data.begin(), data.end());
    physical_end_ += data.size();
    if (data_buffer_.size() >= options_.write_buffer_bytes) {
      if (auto st = flush_data_buffer(); !st.ok()) {
        // Unstage this write: a failed flush must leave the writer as if
        // the write never happened — otherwise physical_end_ points past
        // bytes that were never indexed, and a successful retry would log
        // the payload twice. Earlier buffered writes stay staged; their
        // index entries still match the buffer contents exactly.
        data_buffer_.resize(staged);
        physical_end_ -= data.size();
        return st;
      }
    }
  } else {
    if (auto st = backend_.write(data_h_, physical_end_, data); !st.ok()) return st;
    physical_end_ += data.size();
  }

  if (options_.index_buffering) {
    compressor_.add(e);
  } else {
    // Per-record index write: one small backend I/O per application write
    // (the ablation baseline the SC09 paper's buffered index improves on).
    unbuffered_.push_back(e);
    if (auto st = flush_index(); !st.ok()) return st;
  }
  ++records_;
  max_logical_end_ = std::max(max_logical_end_, off + data.size());
  if (c_records_) c_records_->add(1);
  if (c_bytes_logged_) c_bytes_logged_->add(data.size());
  if (tracer) {
    tracer->complete(track_, "append", "plfs", t0, backend_.now(),
                     {obs::Arg::Int("off", off), obs::Arg::Int("len", data.size()),
                      obs::Arg::Int("phys", phys)});
  }
  return Status::Ok();
}

Status Writer::flush_data_buffer() {
  if (data_buffer_.empty()) return Status::Ok();
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double t0 = tracer ? backend_.now() : 0.0;
  const std::uint64_t bytes = data_buffer_.size();
  auto st = backend_.write(data_h_, buffer_base_, data_buffer_);
  if (!st.ok()) return st;
  buffer_base_ += data_buffer_.size();
  data_buffer_.clear();
  if (tracer) {
    tracer->complete(track_, "data_flush", "plfs", t0, backend_.now(),
                     {obs::Arg::Int("bytes", bytes)});
  }
  return Status::Ok();
}

Status Writer::flush_index() {
  std::vector<IndexEntry> batch;
  if (options_.index_buffering) {
    compressor_.finish();
    batch = compressor_.take();
  } else {
    batch.swap(unbuffered_);
  }
  if (batch.empty()) return Status::Ok();
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double t0 = tracer ? backend_.now() : 0.0;
  const Bytes raw = SerializeEntries(batch);
  if (auto st = backend_.write(index_h_, index_off_, raw); !st.ok()) return st;
  index_off_ += raw.size();
  index_entries_flushed_ += batch.size();
  index_bytes_flushed_ += raw.size();
  if (c_index_flushes_) c_index_flushes_->add(1);
  if (tracer) {
    tracer->complete(track_, "index_flush", "plfs", t0, backend_.now(),
                     {obs::Arg::Int("entries", batch.size()),
                      obs::Arg::Int("bytes", raw.size())});
  }
  return Status::Ok();
}

Status Writer::sync() {
  if (!open_) return Errc::bad_handle;
  if (auto st = flush_data_buffer(); !st.ok()) return st;
  if (auto st = flush_index(); !st.ok()) return st;
  if (auto st = backend_.fsync(data_h_); !st.ok()) return st;
  return backend_.fsync(index_h_);
}

Status Writer::close() {
  if (!open_) return Errc::bad_handle;
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double t0 = tracer ? backend_.now() : 0.0;
  Status st = sync();
  open_ = false;
  backend_.close(data_h_);
  backend_.close(index_h_);
  // This writer changed the container's droppings, so any cached merged
  // index is stale — drop it now rather than waiting for a fingerprint
  // miss to notice. Unconditional: even a failed sync may have appended.
  if (options_.index_cache) options_.index_cache->invalidate(path_);
  if (st.ok()) {
    auto meta = backend_.create(
        ContainerPaths::meta_dropping(path_, max_logical_end_, rank_));
    if (meta.ok()) {
      backend_.close(*meta);
    } else if (meta.error() != Errc::exists) {
      // The data is durable (sync succeeded); only the stat hint is
      // missing. Report the failure, but do not mask a sync error and do
      // not skip the close span below — every close must trace.
      st = meta.error();
    }
  }
  if (tracer) tracer->complete(track_, "close", "plfs", t0, backend_.now());
  return st;
}

}  // namespace pdsi::plfs
