// Packet colors.
//
// Following the paper's use of "colors" (in the colored-Petri-net sense), a
// color is the message-type abstraction of a packet: a type name plus
// optional source/destination node ids and a free tag (used e.g. for the
// virtual-channel class). Colors are interned into dense ids so that color
// sets are small sorted vectors and per-channel typing ("T-derivation") is a
// cheap fixpoint.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace advocat::xmas {

using ColorId = std::int32_t;
inline constexpr ColorId kNoColor = -1;

struct ColorData {
  std::string type;
  std::int16_t src = -1;  ///< originating node id, -1 when unused
  std::int16_t dst = -1;  ///< destination node id, -1 when unused
  std::int16_t tag = -1;  ///< free field (e.g. VC class), -1 when unused

  bool operator==(const ColorData&) const = default;
};

/// Interns ColorData values to dense ColorIds. Owned by a Network; ids are
/// only meaningful relative to their table.
class ColorTable {
 public:
  ColorId intern(const ColorData& data);
  /// Convenience: intern {type, src, dst, tag}.
  ColorId intern(const std::string& type, int src = -1, int dst = -1,
                 int tag = -1);

  [[nodiscard]] const ColorData& get(ColorId id) const { return colors_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] std::size_t size() const { return colors_.size(); }

  /// Rendering like "get(0->3)" or "token", built once when interned. The
  /// reference is invalidated by the next intern of a new color.
  [[nodiscard]] const std::string& name(ColorId id) const { return names_.at(static_cast<std::size_t>(id)); }

 private:
  struct Hash {
    std::size_t operator()(const ColorData& c) const;
  };
  std::vector<ColorData> colors_;
  std::vector<std::string> names_;
  std::unordered_map<ColorData, ColorId, Hash> index_;
};

/// Sorted, duplicate-free vector of color ids.
using ColorSet = std::vector<ColorId>;

/// Inserts `id` keeping the set sorted; returns true if it was new.
bool set_insert(ColorSet& set, ColorId id);
[[nodiscard]] bool set_contains(const ColorSet& set, ColorId id);
/// dst := dst ∪ src; returns true if dst grew.
bool set_union(ColorSet& dst, const ColorSet& src);

}  // namespace advocat::xmas
