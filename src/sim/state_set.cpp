#include "sim/state_set.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace advocat::sim {

namespace {

std::uint32_t hash_bytes(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word * 0x9e3779b97f4a7c15ull;
    h = ((h << 31) | (h >> 33)) * 0xc2b2ae3d27d4eb4full;
  };
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    mix(word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  mix(tail);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

std::size_t StateSet::find(std::span<const std::uint8_t> packed,
                           std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.index == 0) return at;
    if (slot.hash != hash) continue;
    const std::size_t i = slot.index - 1;
    const std::size_t size = offsets_[i + 1] - offsets_[i];
    if (size == packed.size() &&
        std::memcmp(bytes_.data() + offsets_[i], packed.data(), size) == 0) {
      return at;
    }
  }
}

bool StateSet::contains(std::span<const std::uint8_t> packed) const {
  return slots_[find(packed, hash_bytes(packed))].index != 0;
}

bool StateSet::insert(std::span<const std::uint8_t> packed) {
  const std::uint32_t hash = hash_bytes(packed);
  std::size_t at = find(packed, hash);
  if (slots_[at].index != 0) return false;
  if (size() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("sim::StateSet: more than 2^32 - 1 states");
  }
  bytes_.insert(bytes_.end(), packed.begin(), packed.end());
  offsets_.push_back(bytes_.size());
  slots_[at] = {static_cast<std::uint32_t>(size()), hash};
  if (2 * size() > slots_.size()) grow();
  return true;
}

void StateSet::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index == 0) continue;
    std::size_t at = slot.hash & mask;
    while (slots_[at].index != 0) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

}  // namespace advocat::sim
