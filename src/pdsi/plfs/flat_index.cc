#include "pdsi/plfs/flat_index.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace pdsi::plfs {
namespace {

constexpr std::uint64_t kFlatMagic = 0x54414c4653464c50ULL;  // "PLFSFLAT"
constexpr std::uint32_t kFlatVersion = 1;
constexpr std::size_t kFlatHeaderSize = 40;
/// The smallest dropping-table record: a u32 length and a non-empty name.
constexpr std::size_t kMinDroppingSize = sizeof(std::uint32_t) + 1;

void Put64(Bytes& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void Put32(Bytes& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool u64(std::uint64_t* v) { return copy(v, sizeof(*v)); }
  bool u32(std::uint32_t* v) { return copy(v, sizeof(*v)); }

  bool str(std::string* out, std::size_t len) {
    if (data_.size() - at_ < len) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + at_), len);
    at_ += len;
    return true;
  }

  std::span<const std::uint8_t> rest() const { return data_.subspan(at_); }

 private:
  bool copy(void* dst, std::size_t n) {
    if (data_.size() - at_ < n) return false;
    std::memcpy(dst, data_.data() + at_, n);
    at_ += n;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

}  // namespace

std::uint64_t FingerprintDroppings(
    std::vector<std::pair<std::string, std::uint64_t>> name_sizes) {
  std::sort(name_sizes.begin(), name_sizes.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, size] : name_sizes) {
    mix(name.data(), name.size());
    const std::uint8_t sep = 0;
    mix(&sep, 1);
    mix(&size, sizeof(size));
  }
  return h;
}

std::vector<IndexEntry> CompressSegments(
    const std::vector<GlobalIndex::Segment>& segments) {
  // Group by data dropping, preserving logical order within each group:
  // a strided checkpoint interleaves droppings segment-by-segment, so
  // compressing the logical-order stream directly would never find a run.
  std::map<std::uint32_t, std::vector<const GlobalIndex::Segment*>> by_dropping;
  for (const auto& seg : segments) {
    if (seg.dropping == GlobalIndex::kHole) continue;  // holes are absence
    by_dropping[seg.dropping].push_back(&seg);
  }
  std::vector<IndexEntry> out;
  for (const auto& [dropping, segs] : by_dropping) {
    PatternCompressor c(true);
    for (const GlobalIndex::Segment* seg : segs) {
      IndexEntry e;
      e.logical = seg->logical;
      e.length = seg->length;
      e.physical = seg->physical;
      e.rank = dropping;  // rank doubles as the dropping-table index
      c.add(e);
    }
    c.finish();
    for (IndexEntry e : c.take()) {
      e.sequence = out.size();
      out.push_back(e);
    }
  }
  return out;
}

Bytes SerializeFlatIndex(const FlatIndex& flat) {
  Bytes out;
  Put64(out, kFlatMagic);
  Put32(out, kFlatVersion);
  Put32(out, static_cast<std::uint32_t>(flat.droppings.size()));
  Put64(out, flat.fingerprint);
  Put64(out, flat.entries.size());
  Put64(out, flat.logical_size);
  for (const std::string& d : flat.droppings) {
    Put32(out, static_cast<std::uint32_t>(d.size()));
    out.insert(out.end(), d.begin(), d.end());
  }
  const std::size_t base = out.size();
  out.resize(base + flat.entries.size() * kRawEntrySize);
  for (std::size_t i = 0; i < flat.entries.size(); ++i) {
    SerializeEntry(flat.entries[i],
                   std::span(out).subspan(base + i * kRawEntrySize));
  }
  return out;
}

Result<FlatIndex> ParseFlatIndex(std::span<const std::uint8_t> data) {
  if (data.size() < kFlatHeaderSize) return Errc::invalid;
  Cursor c(data);
  std::uint64_t magic = 0, nentries = 0;
  std::uint32_t version = 0, ndroppings = 0;
  FlatIndex flat;
  if (!c.u64(&magic) || !c.u32(&version) || !c.u32(&ndroppings) ||
      !c.u64(&flat.fingerprint) || !c.u64(&nentries) ||
      !c.u64(&flat.logical_size)) {
    return Errc::invalid;
  }
  if (magic != kFlatMagic || version != kFlatVersion) return Errc::invalid;
  // The header's counts are untrusted: check each against the bytes left,
  // by division so no product can wrap, before reserving for it.
  if (ndroppings > c.rest().size() / kMinDroppingSize) return Errc::invalid;
  flat.droppings.reserve(ndroppings);
  for (std::uint32_t i = 0; i < ndroppings; ++i) {
    std::uint32_t len = 0;
    std::string name;
    if (!c.u32(&len) || !c.str(&name, len) || name.empty()) return Errc::invalid;
    flat.droppings.push_back(std::move(name));
  }
  const auto body = c.rest();
  if (body.size() % kRawEntrySize != 0 || body.size() / kRawEntrySize != nentries) {
    return Errc::invalid;
  }
  flat.entries.reserve(nentries);
  for (std::uint64_t i = 0; i < nentries; ++i) {
    IndexEntry e = DeserializeEntry(body.subspan(i * kRawEntrySize));
    if (e.rank >= ndroppings || e.count == 0) return Errc::invalid;
    flat.entries.push_back(e);
  }
  return flat;
}

}  // namespace pdsi::plfs
