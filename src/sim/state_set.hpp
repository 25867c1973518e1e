// A visited set of packed simulator states (see sim/simulator.hpp).
//
// States are appended to one byte arena in insertion order and indexed by
// an open-addressing hash table of 32-bit state indices. A breadth-first
// search needs no separate frontier: it inserts in discovery order, so
// expanding indices 0, 1, 2, ... visits states in BFS order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace advocat::sim {

class StateSet {
 public:
  /// Stores `packed` unless an equal state is stored; true when it was new.
  /// Throws std::length_error past 2^32 - 1 states.
  bool insert(std::span<const std::uint8_t> packed);
  [[nodiscard]] bool contains(std::span<const std::uint8_t> packed) const;

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  /// The `i`-th stored state. The pointer is invalidated by insert().
  [[nodiscard]] const std::uint8_t* operator[](std::size_t i) const {
    return bytes_.data() + offsets_[i];
  }

 private:
  struct Slot {
    std::uint32_t index = 0;  ///< state index + 1; 0 marks an empty slot
    std::uint32_t hash = 0;
  };
  /// Slot holding `packed`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find(std::span<const std::uint8_t> packed,
                                 std::uint32_t hash) const;
  void grow();

  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> offsets_{0};  ///< state i is [offsets_[i], offsets_[i+1])
  std::vector<Slot> slots_ = std::vector<Slot>(64);
};

}  // namespace advocat::sim
