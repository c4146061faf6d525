// Texture decomposition (paper §3, "texture decomposition" tradeoff; §4,
// "we have also implemented texture tiling").
//
// A tile is a pixel rect of the final texture. Spots are assigned to tiles
// by location in a preprocessing step; a spot whose extent may touch several
// tiles is assigned to each of them. The tiled engine renders on one fixed
// grid of kRenderTileEdge-px squares (make_render_grid); the frame server
// cuts its wire deltas on a near-square grid of a given tile count
// (make_tile_grid). Both are row grids, so the assignment and the dirty-tile
// projection (core::dirty_tiles) look up each spot's row and column range
// directly instead of scanning every tile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/spot_source.hpp"
#include "render/overlay.hpp"

namespace dcsn::core {

struct Tile {
  int x0 = 0;      ///< pixel rect inside the final texture
  int y0 = 0;
  int width = 0;
  int height = 0;

  bool operator==(const Tile&) const = default;
};

/// Edge of the tiled engine's render tiles, in pixels.
inline constexpr int kRenderTileEdge = 64;

/// Splits a width x height texture into `count` tiles arranged in a
/// near-square grid. Every pixel belongs to exactly one tile. Throws
/// util::Error when the grid would need more columns or rows than the
/// texture has pixels (which would produce empty tiles).
[[nodiscard]] std::vector<Tile> make_tile_grid(int width, int height, int count);

/// The tiled engine's render grid: kRenderTileEdge-px squares in row-major
/// order, the last column and row taking the remainder. It depends on the
/// texture size alone.
[[nodiscard]] std::vector<Tile> make_render_grid(int width, int height);

/// Looks up the tiles a spot's extent overlaps on a row grid: rows stacked
/// top to bottom, each a left-to-right run of abutting tiles of the row's
/// height spanning the same columns as every other row. Both grid builders
/// above produce exactly that.
class TileIndex {
 public:
  /// Throws util::Error when `tiles` is not a row grid.
  explicit TileIndex(std::span<const Tile> tiles);

  /// Calls fn(t) in ascending t for every tile whose half-open pixel rect
  /// [x0, x0+width) x [y0, y0+height) the closed extent square of half-width
  /// `extent` around (px, py) overlaps: per axis, hi >= x0 && lo < x0+width.
  /// An extent that only touches a tile's right/bottom edge belongs to the
  /// neighbor alone, and a NaN coordinate overlaps every tile on its axis.
  /// Costs O(1 + tiles reported).
  template <class Fn>
  void for_each_overlap(double px, double py, double extent, Fn&& fn) const {
    const auto [r_first, r_last] = overlap_range(py - extent, py + extent, row_edges_);
    for (int r = r_first; r <= r_last; ++r) {
      const Row& row = rows_[static_cast<std::size_t>(r)];
      const auto [c_first, c_last] = overlap_range(px - extent, px + extent, row.col_edges);
      for (int c = c_first; c <= c_last; ++c) fn(row.first + static_cast<std::size_t>(c));
    }
  }

 private:
  struct Row {
    std::size_t first = 0;      ///< index of the row's leftmost tile
    std::vector<int> col_edges;  ///< x0 of each tile, then the right edge
  };

  /// Inclusive range [first, last] of the abutting intervals
  /// [edges[i], edges[i+1]) that [lo, hi] overlaps under
  /// hi >= edges[i] && lo < edges[i+1]; first > last when none does.
  static std::pair<int, int> overlap_range(double lo, double hi,
                                           std::span<const int> edges);

  std::vector<int> row_edges_;  ///< y0 of each row, then the bottom edge
  std::vector<Row> rows_;
};

struct TileAssignment {
  /// spot indices per tile, in ascending order
  std::vector<std::vector<std::int64_t>> per_tile;
  /// sum of list lengths minus the spot count: the duplicated work
  std::int64_t duplicates = 0;
};

/// Assigns each spot to every tile its extent (a square of half-width
/// `extent_px` around the mapped position) overlaps, with
/// TileIndex::for_each_overlap's predicate. Throws util::Error when `tiles`
/// is not a row grid.
[[nodiscard]] TileAssignment assign_spots_to_tiles(
    std::span<const SpotInstance> spots, const render::WorldToImage& mapping,
    double extent_px, std::span<const Tile> tiles);

}  // namespace dcsn::core
