#include "pdsi/plfs/reader.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "pdsi/plfs/container.h"
#include "pdsi/plfs/flat_index.h"

namespace pdsi::plfs {

namespace {
/// Client CPU charged per index record during the restart merge (decode +
/// sort + newest-wins resolve), in seconds. This is why index compression
/// pays off at restart: pattern records shrink the merge.
constexpr double kIndexMergeCostPerEntry = 3e-6;
/// A data dropping this Reader has not opened yet.
constexpr BackendHandle kNotOpen = -1;
}  // namespace

Result<std::unique_ptr<Reader>> Reader::Open(Backend& backend,
                                             const std::string& path,
                                             const Options& options) {
  auto is_c = IsContainer(backend, path);
  if (!is_c.ok()) return is_c.error();
  if (!*is_c) return Errc::invalid;
  std::unique_ptr<Reader> reader(new Reader(backend, options));
  if (auto st = reader->build(path); !st.ok()) return st.error();
  reader->handles_.assign(reader->dropping_count(), kNotOpen);
  return reader;
}

Reader::Reader(Backend& backend, Options options)
    : backend_(backend), options_(options) {
  if (options_.obs) {
    if (options_.obs->tracer) {
      const std::uint32_t n = options_.obs_track >= obs::kReaderTrackBase
                                  ? options_.obs_track - obs::kReaderTrackBase
                                  : options_.obs_track;
      options_.obs->tracer->track(options_.obs_track,
                                  "reader" + std::to_string(n));
    }
    if (options_.obs->registry) {
      c_reads_ = &options_.obs->registry->counter("plfs.reads");
      c_segments_ = &options_.obs->registry->counter("plfs.read_segments");
      c_degraded_ = &options_.obs->registry->counter("plfs.degraded_segments");
    }
  }
}

Reader::~Reader() {
  for (BackendHandle h : handles_) {
    if (h != kNotOpen) backend_.close(h);
  }
}

std::shared_ptr<const IndexSnapshot> Reader::try_load_flat(
    const std::string& path, std::uint64_t fingerprint) {
  auto h = backend_.open(path + "/" + kFlatIndexName);
  if (!h.ok()) return nullptr;
  auto sz = backend_.size(*h);
  if (!sz.ok()) {
    backend_.close(*h);
    return nullptr;
  }
  Bytes raw(*sz);
  auto n = backend_.read(*h, 0, raw);
  backend_.close(*h);
  if (!n.ok()) return nullptr;
  raw.resize(*n);
  auto flat = ParseFlatIndex(raw);
  if (!flat.ok() || flat->fingerprint != fingerprint) return nullptr;

  auto snap = std::make_shared<IndexSnapshot>();
  snap->droppings.reserve(flat->droppings.size());
  for (const auto& rel : flat->droppings) snap->droppings.push_back(path + "/" + rel);
  snap->raw_entries = std::move(flat->entries);
  // Flat entries are overlap-free with sequence == emission index, so
  // adding in stored order rebuilds the exact resolved segment map.
  GlobalIndex::Builder index;
  for (const auto& e : snap->raw_entries) index.add(e, e.rank);
  snap->index = std::move(index).build();
  if (snap->index.size() != flat->logical_size) return nullptr;
  snap->fingerprint = fingerprint;
  snap->index_bytes = raw.size();
  return snap;
}

Status Reader::build(const std::string& path) {
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double v0 = tracer ? backend_.now() : 0.0;

  // Discover index droppings across hostdirs. The same top-level listing
  // reveals whether a flattened index is present, so the plain merge path
  // pays no extra backend calls for the fast-path machinery.
  struct IndexFile {
    std::string index_path;  ///< absolute
    std::string rel_index;   ///< container-relative (fingerprint key)
    std::string data_path;
  };
  std::vector<IndexFile> files;
  bool flat_present = false;
  auto top = backend_.readdir(path);
  if (!top.ok()) return top.error();
  for (const auto& name : *top) {
    if (name == kFlatIndexName) {
      flat_present = true;
      continue;
    }
    if (name.rfind("hostdir.", 0) != 0) continue;
    const std::string hostdir = path + "/" + name;
    auto entries = backend_.readdir(hostdir);
    if (!entries.ok()) return entries.error();
    for (const auto& e : *entries) {
      if (e.rfind("index.", 0) != 0) continue;
      const std::string rank_part = e.substr(6);
      files.push_back(
          {hostdir + "/" + e, name + "/" + e, hostdir + "/data." + rank_part});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const IndexFile& a, const IndexFile& b) {
              return a.index_path < b.index_path;
            });

  // Both fast paths key on a fingerprint of the live droppings, which
  // costs one stat per dropping — cheap next to N full index reads, but
  // not free, so the pass only runs when a fast path could consume it.
  const bool want_fast =
      options_.index_cache != nullptr || (options_.use_flat_index && flat_present);
  bool have_fingerprint = false;
  std::uint64_t fingerprint = 0;
  if (want_fast) {
    std::vector<std::pair<std::string, std::uint64_t>> name_sizes;
    name_sizes.reserve(files.size());
    bool all_stat_ok = true;
    for (const auto& f : files) {
      auto sz = backend_.stat_size(f.index_path);
      if (!sz.ok()) {
        // Unreadable dropping: no trustworthy fingerprint. Fall through to
        // the raw merge, whose degraded-read policy decides what happens.
        all_stat_ok = false;
        break;
      }
      name_sizes.emplace_back(f.rel_index, *sz);
    }
    if (all_stat_ok) {
      fingerprint = FingerprintDroppings(std::move(name_sizes));
      have_fingerprint = true;
    }
  }

  if (options_.index_cache && have_fingerprint) {
    if (auto snap = options_.index_cache->find(path, fingerprint)) {
      snap_ = std::move(snap);
      if (options_.obs && options_.obs->registry) {
        options_.obs->registry->counter("plfs.index_cache_hits").add(1);
      }
      if (tracer) {
        tracer->complete(options_.obs_track, "index_cache_hit", "plfs", v0,
                         backend_.now(),
                         {obs::Arg::Int("droppings", snap_->droppings.size()),
                          obs::Arg::Int("entries", snap_->raw_entries.size())});
      }
      return Status::Ok();
    }
    if (options_.obs && options_.obs->registry) {
      options_.obs->registry->counter("plfs.index_cache_misses").add(1);
    }
  }

  if (options_.use_flat_index && flat_present && have_fingerprint) {
    if (auto snap = try_load_flat(path, fingerprint)) {
      index_bytes_read_ = snap->index_bytes;
      backend_.compute(static_cast<double>(snap->raw_entries.size()) *
                       kIndexMergeCostPerEntry);
      if (tracer) {
        tracer->complete(options_.obs_track, "index_merge", "plfs", v0,
                         backend_.now(),
                         {obs::Arg::Int("droppings", snap->droppings.size()),
                          obs::Arg::Int("entries", snap->raw_entries.size()),
                          obs::Arg::Int("bytes", index_bytes_read_)});
      }
      snap_ = std::move(snap);
      if (options_.index_cache) options_.index_cache->put(path, snap_);
      return Status::Ok();
    }
    // Stale, corrupt, or unreadable flat dropping: fall back to the merge.
  }

  // Read and decode each dropping.
  std::vector<std::vector<IndexEntry>> decoded(files.size());
  std::vector<Status> statuses(files.size());
  std::vector<std::uint64_t> sizes(files.size(), 0);
  std::vector<bool> torn(files.size(), false);
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto h = backend_.open(files[i].index_path);
    if (!h.ok()) {
      statuses[i] = h.error();
      continue;
    }
    auto sz = backend_.size(*h);
    if (!sz.ok()) {
      statuses[i] = sz.error();
      backend_.close(*h);
      continue;
    }
    Bytes raw(*sz);
    auto n = backend_.read(*h, 0, raw);
    backend_.close(*h);
    if (!n.ok()) {
      statuses[i] = n.error();
      continue;
    }
    raw.resize(*n);
    sizes[i] = *n;
    // A crash mid-append can leave a partial record at the tail; the
    // whole records before it are durable, so decode that prefix.
    const std::size_t tail = raw.size() % kRawEntrySize;
    torn[i] = tail != 0;
    decoded[i] = DeserializeEntries(std::span(raw).first(raw.size() - tail));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!statuses[i].ok()) {
      if (!options_.degraded_reads) return statuses[i];
      // Degraded build: an unreadable index dropping (its server is down)
      // means that rank's writes are invisible. Drop it, count the error,
      // and merge what survives — regions it covered read back as holes.
      decoded[i].clear();
      sizes[i] = 0;
    } else if (!torn[i]) {
      continue;
    }
    // A torn tail is counted in either mode, so the build is never
    // cached or flattened as the container's truth.
    ++read_errors_;
    if (c_degraded_) c_degraded_->add(1);
  }

  // Merge: stamp dropping ids, order globally, insert. The merge key is
  // (sequence, dropping id, in-dropping position): sequence alone is not a
  // total order — concurrent unsynchronised writers can share stamps — and
  // std::sort is unstable, so ties must break on something deterministic
  // or two opens of one container could disagree about which write wins.
  auto snap = std::make_shared<IndexSnapshot>();
  auto& raw_entries = snap->raw_entries;
  snap->droppings.reserve(files.size());
  std::size_t total = 0;
  for (const auto& d : decoded) total += d.size();
  raw_entries.reserve(total);
  std::vector<std::uint32_t> owner;
  owner.reserve(total);
  for (std::size_t i = 0; i < files.size(); ++i) {
    snap->droppings.push_back(files[i].data_path);
    index_bytes_read_ += sizes[i];
    for (const auto& e : decoded[i]) {
      raw_entries.push_back(e);
      owner.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // raw_entries is dropping-major with in-dropping order preserved, so
  // comparing global positions as the tiebreak IS (dropping id, position).
  std::vector<std::size_t> order(total);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (raw_entries[a].sequence != raw_entries[b].sequence) {
      return raw_entries[a].sequence < raw_entries[b].sequence;
    }
    return a < b;
  });
  GlobalIndex::Builder index;
  for (std::size_t i : order) index.add(raw_entries[i], owner[i]);
  snap->index = std::move(index).build();
  backend_.compute(static_cast<double>(raw_entries.size()) *
                   kIndexMergeCostPerEntry);

  if (tracer) {
    tracer->complete(options_.obs_track, "index_merge", "plfs", v0, backend_.now(),
                     {obs::Arg::Int("droppings", snap->droppings.size()),
                      obs::Arg::Int("entries", raw_entries.size()),
                      obs::Arg::Int("bytes", index_bytes_read_)});
  }
  if (!have_fingerprint) {
    // The read pass already produced every size, so the fingerprint is
    // free here; it keys the cache insert and reader introspection.
    std::vector<std::pair<std::string, std::uint64_t>> name_sizes;
    name_sizes.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      name_sizes.emplace_back(files[i].rel_index, sizes[i]);
    }
    fingerprint = FingerprintDroppings(std::move(name_sizes));
  }
  snap->fingerprint = fingerprint;
  snap->index_bytes = index_bytes_read_;
  snap_ = std::move(snap);
  // Never cache a degraded build: the snapshot is missing ranks and would
  // poison healthy opens once the failed server comes back.
  if (options_.index_cache && have_fingerprint && read_errors_ == 0) {
    options_.index_cache->put(path, snap_);
  }
  return Status::Ok();
}

Result<BackendHandle> Reader::data_handle(std::uint32_t dropping) {
  BackendHandle& h = handles_[dropping];
  if (h != kNotOpen) return h;
  auto opened = backend_.open(snap_->droppings[dropping]);
  if (!opened.ok()) return opened.error();
  h = *opened;
  return h;
}

Result<std::size_t> Reader::read(std::uint64_t off, std::span<std::uint8_t> out) {
  const GlobalIndex& index = snap_->index;
  if (off >= index.size() || out.empty()) return static_cast<std::size_t>(0);
  const std::uint64_t len = std::min<std::uint64_t>(out.size(), index.size() - off);
  obs::Tracer* tracer = options_.obs ? options_.obs->tracer : nullptr;
  const double v0 = tracer ? backend_.now() : 0.0;

  const std::uint64_t errors_before = read_errors_;
  const auto segs = index.lookup(off, len);
  for (const auto& seg : segs) {
    auto dst = out.subspan(seg.logical - off, seg.length);
    if (seg.dropping == GlobalIndex::kHole) {
      std::memset(dst.data(), 0, dst.size());
      continue;
    }
    auto degrade = [&]() {
      // Degraded read: the dropping's server is unreachable. Hand back a
      // zero-filled hole and count it rather than failing the request.
      ++read_errors_;
      if (c_degraded_) c_degraded_->add(1);
      std::memset(dst.data(), 0, dst.size());
    };
    auto h = data_handle(seg.dropping);
    if (!h.ok()) {
      if (!options_.degraded_reads) return h.error();
      degrade();
      continue;
    }
    auto n = backend_.read(*h, seg.physical, dst);
    if (!n.ok()) {
      if (!options_.degraded_reads) return n.error();
      degrade();
      continue;
    }
    if (*n < dst.size()) {
      // Data dropping shorter than its index claims: corrupt container.
      // The bytes that did arrive are good — only the unread tail is
      // unknown, so zero that and count one error; wiping the whole
      // segment would discard data the degraded restart could still use.
      if (!options_.degraded_reads) return Errc::io_error;
      ++read_errors_;
      if (c_degraded_) c_degraded_->add(1);
      auto tail = dst.subspan(*n);
      std::memset(tail.data(), 0, tail.size());
    }
  }
  if (c_reads_) c_reads_->add(1);
  if (c_segments_) c_segments_->add(segs.size());
  if (tracer) {
    const std::uint64_t errs = read_errors_ - errors_before;
    if (errs > 0) {
      tracer->complete(options_.obs_track, "read", "plfs", v0, backend_.now(),
                       {obs::Arg::Int("off", off), obs::Arg::Int("len", len),
                        obs::Arg::Int("segments", segs.size()),
                        obs::Arg::Int("errors", errs)});
    } else {
      tracer->complete(options_.obs_track, "read", "plfs", v0, backend_.now(),
                       {obs::Arg::Int("off", off), obs::Arg::Int("len", len),
                        obs::Arg::Int("segments", segs.size())});
    }
  }
  return static_cast<std::size_t>(len);
}

}  // namespace pdsi::plfs
