#include "xmas/color.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace advocat::xmas {

std::size_t ColorTable::Hash::operator()(const ColorData& c) const {
  std::size_t h = std::hash<std::string>{}(c.type);
  h = h * 31 + static_cast<std::size_t>(c.src + 2);
  h = h * 31 + static_cast<std::size_t>(c.dst + 2);
  h = h * 31 + static_cast<std::size_t>(c.tag + 2);
  return h;
}

ColorId ColorTable::intern(const ColorData& data) {
  auto it = index_.find(data);
  if (it != index_.end()) return it->second;
  const ColorId id = static_cast<ColorId>(colors_.size());
  std::string name = data.type;
  if (data.src >= 0 || data.dst >= 0) {
    name += util::cat("(", static_cast<int>(data.src), "->",
                      static_cast<int>(data.dst), ")");
  }
  if (data.tag >= 0) name += util::cat("#", static_cast<int>(data.tag));
  colors_.push_back(data);
  names_.push_back(std::move(name));
  index_.emplace(data, id);
  return id;
}

ColorId ColorTable::intern(const std::string& type, int src, int dst, int tag) {
  return intern(ColorData{type, static_cast<std::int16_t>(src),
                          static_cast<std::int16_t>(dst),
                          static_cast<std::int16_t>(tag)});
}

bool set_insert(ColorSet& set, ColorId id) {
  auto it = std::lower_bound(set.begin(), set.end(), id);
  if (it != set.end() && *it == id) return false;
  set.insert(it, id);
  return true;
}

bool set_contains(const ColorSet& set, ColorId id) {
  return std::binary_search(set.begin(), set.end(), id);
}

bool set_union(ColorSet& dst, const ColorSet& src) {
  bool grew = false;
  for (ColorId id : src) grew |= set_insert(dst, id);
  return grew;
}

}  // namespace advocat::xmas
