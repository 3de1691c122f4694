#include "pdsi/plfs/smallfile.h"

#include <algorithm>
#include <cstring>

namespace pdsi::plfs {
namespace {

constexpr const char* kMarker = "/.plfs_smallfile";

std::string DataPath(const std::string& c, std::uint32_t writer) {
  return c + "/sfdata." + std::to_string(writer);
}
std::string NamesPath(const std::string& c, std::uint32_t writer) {
  return c + "/sfnames." + std::to_string(writer);
}

void Append32(Bytes& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}
void Append64(Bytes& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

}  // namespace

Bytes SerializeNameRecords(const std::vector<NameRecord>& records) {
  Bytes out;
  for (const auto& r : records) {
    Append32(out, static_cast<std::uint32_t>(r.name.size()));
    const std::size_t at = out.size();
    out.resize(at + r.name.size());
    std::memcpy(out.data() + at, r.name.data(), r.name.size());
    Append64(out, r.offset);
    Append64(out, r.length);
    Append64(out, r.sequence);
  }
  return out;
}

std::vector<NameRecord> DeserializeNameRecords(std::span<const std::uint8_t> data) {
  std::vector<NameRecord> out;
  std::size_t at = 0;
  while (at + 4 <= data.size()) {
    std::uint32_t name_len;
    std::memcpy(&name_len, data.data() + at, 4);
    at += 4;
    if (at + name_len + 24 > data.size()) {
      throw std::invalid_argument("truncated small-file name log");
    }
    NameRecord r;
    r.name.assign(reinterpret_cast<const char*>(data.data() + at), name_len);
    at += name_len;
    std::memcpy(&r.offset, data.data() + at, 8);
    std::memcpy(&r.length, data.data() + at + 8, 8);
    std::memcpy(&r.sequence, data.data() + at + 16, 8);
    at += 24;
    out.push_back(std::move(r));
  }
  if (at != data.size()) throw std::invalid_argument("trailing bytes in name log");
  return out;
}

Result<bool> IsSmallFileContainer(Backend& backend, const std::string& path) {
  auto dir = backend.is_dir(path);
  if (!dir.ok()) return dir.error();
  if (!*dir) return false;
  auto marker = backend.exists(path + kMarker);
  if (!marker.ok()) return marker.error();
  return *marker;
}

Result<std::unique_ptr<SmallFileWriter>> SmallFileWriter::Open(
    Backend& backend, const std::string& path, std::uint32_t writer_id,
    WriteClock& clock) {
  if (auto st = backend.mkdir(path); !st.ok() && st.error() != Errc::exists) {
    return st.error();
  }
  auto marker = backend.create(path + kMarker);
  if (!marker.ok() && marker.error() != Errc::exists) return marker.error();
  if (marker.ok()) backend.close(*marker);

  auto data = backend.create(DataPath(path, writer_id));
  if (!data.ok()) return data.error();
  auto names = backend.create(NamesPath(path, writer_id));
  if (!names.ok()) {
    backend.close(*data);
    return names.error();
  }
  return std::unique_ptr<SmallFileWriter>(
      new SmallFileWriter(backend, writer_id, clock, *data, *names));
}

SmallFileWriter::SmallFileWriter(Backend& backend, std::uint32_t writer_id,
                                 WriteClock& clock, BackendHandle data,
                                 BackendHandle names)
    : backend_(backend),
      writer_id_(writer_id),
      clock_(clock),
      data_h_(data),
      names_h_(names) {}

SmallFileWriter::~SmallFileWriter() {
  if (open_) close();
}

Status SmallFileWriter::put(const std::string& name,
                            std::span<const std::uint8_t> data) {
  if (!open_) return Errc::bad_handle;
  if (name.empty() || name.find('/') != std::string::npos) return Errc::invalid;
  if (auto st = backend_.write(data_h_, data_off_, data); !st.ok()) return st;
  NameRecord r;
  r.name = name;
  r.offset = data_off_;
  r.length = data.size();
  r.sequence = clock_.fetch_add(1, std::memory_order_relaxed);
  pending_.push_back(std::move(r));
  data_off_ += data.size();
  return Status::Ok();
}

Status SmallFileWriter::remove(const std::string& name) {
  if (!open_) return Errc::bad_handle;
  NameRecord r;
  r.name = name;
  r.length = NameRecord::kTombstone;
  r.sequence = clock_.fetch_add(1, std::memory_order_relaxed);
  pending_.push_back(std::move(r));
  return Status::Ok();
}

Status SmallFileWriter::sync() {
  if (!open_) return Errc::bad_handle;
  if (!pending_.empty()) {
    const Bytes raw = SerializeNameRecords(pending_);
    if (auto st = backend_.write(names_h_, names_off_, raw); !st.ok()) return st;
    names_off_ += raw.size();
    pending_.clear();
  }
  if (auto st = backend_.fsync(data_h_); !st.ok()) return st;
  return backend_.fsync(names_h_);
}

Status SmallFileWriter::close() {
  if (!open_) return Errc::bad_handle;
  const Status st = sync();
  open_ = false;
  backend_.close(data_h_);
  backend_.close(names_h_);
  return st;
}

Result<std::unique_ptr<SmallFileReader>> SmallFileReader::Open(
    Backend& backend, const std::string& path) {
  auto is_sf = IsSmallFileContainer(backend, path);
  if (!is_sf.ok()) return is_sf.error();
  if (!*is_sf) return Errc::invalid;
  std::unique_ptr<SmallFileReader> reader(new SmallFileReader(backend));
  if (auto st = reader->build(path); !st.ok()) return st.error();
  return reader;
}

SmallFileReader::~SmallFileReader() {
  for (auto h : handles_) {
    if (h >= 0) backend_.close(h);
  }
}

Status SmallFileReader::build(const std::string& path) {
  auto entries = backend_.readdir(path);
  if (!entries.ok()) return entries.error();
  std::vector<std::string> name_logs;
  for (const auto& e : *entries) {
    if (e.rfind("sfnames.", 0) == 0) name_logs.push_back(e);
  }
  std::sort(name_logs.begin(), name_logs.end());

  std::vector<NameRecord> all;
  std::vector<std::uint32_t> owner;
  for (const auto& log : name_logs) {
    const std::string writer_part = log.substr(8);
    droppings_.push_back(path + "/sfdata." + writer_part);
    handles_.push_back(-1);

    auto h = backend_.open(path + "/" + log);
    if (!h.ok()) return h.error();
    auto sz = backend_.size(*h);
    if (!sz.ok()) {
      backend_.close(*h);
      return sz.error();
    }
    Bytes raw(*sz);
    auto n = backend_.read(*h, 0, raw);
    backend_.close(*h);
    if (!n.ok()) return n.error();
    raw.resize(*n);
    try {
      for (auto& r : DeserializeNameRecords(raw)) {
        all.push_back(std::move(r));
        owner.push_back(static_cast<std::uint32_t>(droppings_.size() - 1));
      }
    } catch (const std::exception&) {
      return Errc::io_error;
    }
  }

  // Newest record per name wins; tombstones delete.
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return all[a].sequence < all[b].sequence;
  });
  for (std::size_t i : order) {
    const NameRecord& r = all[i];
    if (r.length == NameRecord::kTombstone) {
      names_.erase(r.name);
    } else {
      names_[r.name] = {owner[i], r.offset, r.length, r.sequence};
    }
  }
  return Status::Ok();
}

std::vector<std::string> SmallFileReader::list() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [name, loc] : names_) out.push_back(name);
  return out;
}

Result<std::uint64_t> SmallFileReader::size(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return Errc::not_found;
  return it->second.length;
}

Result<Bytes> SmallFileReader::get(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return Errc::not_found;
  const Location& loc = it->second;
  if (handles_[loc.dropping] < 0) {
    auto h = backend_.open(droppings_[loc.dropping]);
    if (!h.ok()) return h.error();
    handles_[loc.dropping] = *h;
  }
  Bytes out(loc.length);
  auto n = backend_.read(handles_[loc.dropping], loc.offset, out);
  if (!n.ok()) return n.error();
  if (*n != loc.length) return Errc::io_error;
  return out;
}

}  // namespace pdsi::plfs
