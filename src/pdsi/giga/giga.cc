#include "pdsi/giga/giga.h"

#include <algorithm>
#include <cassert>

namespace pdsi::giga {

void Bitmap::set(std::uint32_t p) {
  const std::size_t word = p / 64;
  if (word >= words_.size()) words_.resize(word + 1, 0);
  words_[word] |= 1ULL << (p % 64);
}

bool Bitmap::test(std::uint32_t p) const {
  const std::size_t word = p / 64;
  if (word >= words_.size()) return false;
  return (words_[word] >> (p % 64)) & 1;
}

std::uint32_t Bitmap::highest() const {
  for (std::size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      return static_cast<std::uint32_t>(w * 64 + 63 -
                                        __builtin_clzll(words_[w]));
    }
  }
  return 0;
}

std::uint32_t Bitmap::partition_for(std::uint64_t hash) const {
  // Start from a radix deep enough to cover the highest partition and
  // walk shallower until the candidate exists. Partition 0 always does.
  // Derived via PartitionDepth rather than a growing `1u << d` probe: a
  // highest partition at or above 2^31 would push that shift to 32 bits
  // (undefined for uint32_t). Depth tops out at 32, so the masks below
  // must be 64-bit shifts.
  for (std::uint32_t d = PartitionDepth(highest()); d > 0; --d) {
    const std::uint32_t candidate =
        static_cast<std::uint32_t>(hash & ((1ULL << d) - 1));
    if (test(candidate)) return candidate;
  }
  return 0;
}

void Bitmap::merge(const Bitmap& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
  for (std::size_t w = 0; w < other.words_.size(); ++w) {
    words_[w] |= other.words_[w];
  }
}

bool Bitmap::operator==(const Bitmap& other) const {
  const std::size_t n = std::max(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t a = w < words_.size() ? words_[w] : 0;
    const std::uint64_t b = w < other.words_.size() ? other.words_[w] : 0;
    if (a != b) return false;
  }
  return true;
}

std::uint64_t HashName(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  // Final avalanche so short names spread over low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::uint32_t PartitionDepth(std::uint32_t p) {
  if (p == 0) return 0;
  return 32 - __builtin_clz(p);
}

std::uint32_t SplitChild(std::uint32_t p, std::uint32_t depth) {
  // depth == 31 is the last splittable level: the child p + 2^31 still
  // fits uint32_t because p < 2^31, but a 32-bit `1u << depth` at the
  // next level would be undefined.
  assert(depth < 32 && "partition radix depth exceeds 32-bit id space");
  return p + static_cast<std::uint32_t>(1ULL << depth);
}

}  // namespace pdsi::giga
