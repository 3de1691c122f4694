#include "pdsi/plfs/plfs.h"

#include <algorithm>
#include <charconv>

#include "pdsi/common/units.h"
#include "pdsi/plfs/flat_index.h"

namespace pdsi::plfs {

Result<std::uint64_t> StatSize(Backend& backend, const std::string& path) {
  auto is_c = IsContainer(backend, path);
  if (!is_c.ok()) return is_c.error();
  if (!*is_c) return Errc::invalid;

  // Fast path: max over meta/<size>.<rank> hints.
  auto hints = backend.readdir(ContainerPaths::meta_dir(path));
  if (hints.ok() && !hints->empty()) {
    std::uint64_t best = 0;
    bool any = false;
    for (const auto& name : *hints) {
      std::uint64_t size = 0;
      const auto dot = name.find('.');
      const char* end = name.data() + (dot == std::string::npos ? name.size() : dot);
      if (std::from_chars(name.data(), end, size).ec == std::errc{}) {
        best = std::max(best, size);
        any = true;
      }
    }
    if (any) return best;
  }

  // Slow path: merge the index.
  auto reader = Reader::Open(backend, path);
  if (!reader.ok()) return reader.error();
  return (*reader)->size();
}

Status Flatten(Backend& backend, const std::string& path, const std::string& dest,
               const Options& options) {
  auto reader = Reader::Open(backend, path, options);
  if (!reader.ok()) return reader.error();

  auto out = backend.create(dest);
  if (!out.ok()) return out.error();

  constexpr std::uint64_t kChunk = 4 * MiB;
  Bytes buf;
  Status st = Status::Ok();
  const std::uint64_t size = (*reader)->size();
  for (std::uint64_t off = 0; off < size && st.ok(); off += kChunk) {
    const std::uint64_t n = std::min(kChunk, size - off);
    buf.resize(n);
    auto r = (*reader)->read(off, buf);
    if (!r.ok()) {
      st = r.error();
      break;
    }
    buf.resize(*r);
    st = backend.write(*out, off, buf);
  }
  if (st.ok()) st = backend.fsync(*out);
  backend.close(*out);
  return st;
}

Status FlattenIndex(Backend& backend, const std::string& path,
                    const Options& options) {
  obs::Tracer* tracer = options.obs ? options.obs->tracer : nullptr;
  if (tracer) tracer->track(obs::kFlattenTrack, "flatten");
  const double v0 = tracer ? backend.now() : 0.0;

  // Merge the raw droppings ourselves: a pre-existing (possibly stale)
  // flat dropping or cached snapshot must never become the new truth.
  Options raw = options;
  raw.use_flat_index = false;
  raw.index_cache = nullptr;
  auto reader = Reader::Open(backend, path, raw);
  if (!reader.ok()) return reader.error();
  if ((*reader)->read_errors() > 0) return Errc::io_error;

  FlatIndex flat;
  flat.fingerprint = (*reader)->index_fingerprint();
  flat.logical_size = (*reader)->size();
  flat.droppings.reserve((*reader)->droppings().size());
  for (const auto& abs : (*reader)->droppings()) {
    flat.droppings.push_back(abs.substr(path.size() + 1));
  }
  const auto& segments = (*reader)->index().all();
  flat.entries = CompressSegments(segments);
  const Bytes raw_bytes = SerializeFlatIndex(flat);

  // Replace any previous flat dropping. Readers racing this window parse
  // a partial file, fail validation, and fall back to the raw merge.
  const std::string flat_path = path + "/" + kFlatIndexName;
  if (auto st = backend.unlink(flat_path);
      !st.ok() && st.error() != Errc::not_found) {
    return st;
  }
  auto out = backend.create(flat_path);
  if (!out.ok()) return out.error();
  Status st = backend.write(*out, 0, raw_bytes);
  if (st.ok()) st = backend.fsync(*out);
  backend.close(*out);
  if (!st.ok()) return st;

  if (tracer) {
    tracer->complete(obs::kFlattenTrack, "index_flatten", "plfs", v0,
                     backend.now(),
                     {obs::Arg::Int("droppings", flat.droppings.size()),
                      obs::Arg::Int("segments", segments.size()),
                      obs::Arg::Int("entries", flat.entries.size()),
                      obs::Arg::Int("bytes", raw_bytes.size())});
  }
  return Status::Ok();
}

Status Unlink(Backend& backend, const std::string& path) {
  auto is_c = IsContainer(backend, path);
  if (!is_c.ok()) return is_c.error();
  if (!*is_c) return Errc::invalid;
  return RemoveContainer(backend, path);
}

}  // namespace pdsi::plfs
