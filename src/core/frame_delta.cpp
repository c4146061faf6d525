#include "core/frame_delta.hpp"

#include <algorithm>

namespace dcsn::core {

namespace {

// Exact equality on purpose: "unchanged" must guarantee identical geometry
// down to the last bit, and NaN != NaN conservatively classifies as moved.
inline bool same_spot(const SpotInstance& a, const SpotInstance& b) {
  return a.position.x == b.position.x && a.position.y == b.position.y &&
         a.intensity == b.intensity;
}

}  // namespace

FrameDelta diff_spots(std::span<const SpotInstance> prev,
                      std::span<const SpotInstance> cur) {
  FrameDelta delta;
  const std::size_t shared = std::min(prev.size(), cur.size());
  for (std::size_t k = 0; k < shared; ++k) {
    if (same_spot(prev[k], cur[k])) {
      ++delta.unchanged;
    } else {
      ++delta.moved;
      delta.changed.push_back(static_cast<std::int64_t>(k));
    }
  }
  delta.born = static_cast<std::int64_t>(cur.size()) -
               static_cast<std::int64_t>(shared);
  delta.died = static_cast<std::int64_t>(prev.size()) -
               static_cast<std::int64_t>(shared);
  return delta;
}

std::vector<std::uint8_t> dirty_tiles(const FrameDelta& delta,
                                      std::span<const SpotInstance> prev,
                                      std::span<const SpotInstance> cur,
                                      const render::WorldToImage& mapping,
                                      double extent_px,
                                      std::span<const Tile> tiles) {
  const TileIndex index(tiles);
  std::vector<std::uint8_t> dirty(tiles.size(), 0);
  // The assign_spots_to_tiles predicate verbatim (half-open pixel rects,
  // NaN overlaps everything), so "clean" means "identical assignment list".
  auto mark = [&](const SpotInstance& spot) {
    const auto [px, py] = mapping.map(spot.position);
    index.for_each_overlap(px, py, extent_px, [&](std::size_t t) { dirty[t] = 1; });
  };
  // Moved spots invalidate where they were *and* where they are now.
  for (const std::int64_t k : delta.changed) {
    const auto i = static_cast<std::size_t>(k);
    mark(prev[i]);
    mark(cur[i]);
  }
  const std::size_t shared = std::min(prev.size(), cur.size());
  for (std::size_t k = shared; k < cur.size(); ++k) mark(cur[k]);   // born
  for (std::size_t k = shared; k < prev.size(); ++k) mark(prev[k]);  // died
  return dirty;
}

}  // namespace dcsn::core
