#include "core/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace dcsn::core {

std::vector<Tile> make_tile_grid(int width, int height, int count) {
  DCSN_CHECK(width > 0 && height > 0, "texture dimensions must be positive");
  DCSN_CHECK(count >= 1, "tile count must be >= 1");
  // Near-square grid: cols * rows >= count with cols >= rows, trimmed so
  // every tile is non-empty.
  int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(count))));
  int rows = (count + cols - 1) / cols;
  cols = (count + rows - 1) / rows;  // shrink cols if the last row is empty
  DCSN_CHECK(cols <= width && rows <= height,
             std::to_string(count) + " tiles need a " + std::to_string(cols) +
                 "x" + std::to_string(rows) + " grid, but the texture is only " +
                 std::to_string(width) + "x" + std::to_string(height) +
                 " px; use at most width*height tiles that fit the grid");

  std::vector<Tile> tiles;
  tiles.reserve(static_cast<std::size_t>(count));
  int assigned = 0;
  for (int r = 0; r < rows && assigned < count; ++r) {
    // Tiles in the last row may be wider when count doesn't fill the grid.
    const int in_this_row = std::min(cols, count - assigned);
    const int y0 = r * height / rows;
    const int y1 = (r + 1) * height / rows;
    for (int c = 0; c < in_this_row; ++c) {
      const int x0 = c * width / in_this_row;
      const int x1 = (c + 1) * width / in_this_row;
      tiles.push_back({x0, y0, x1 - x0, y1 - y0});
      ++assigned;
    }
  }
  return tiles;
}

std::vector<Tile> make_render_grid(int width, int height) {
  DCSN_CHECK(width > 0 && height > 0, "texture dimensions must be positive");
  std::vector<Tile> tiles;
  int h = 0;
  for (int y0 = 0; y0 < height; y0 += h) {
    h = std::min(kRenderTileEdge, height - y0);
    int w = 0;
    for (int x0 = 0; x0 < width; x0 += w) {
      w = std::min(kRenderTileEdge, width - x0);
      tiles.push_back({x0, y0, w, h});
    }
  }
  return tiles;
}

TileIndex::TileIndex(std::span<const Tile> tiles) {
  std::size_t t = 0;
  while (t < tiles.size()) {
    // One row: tiles sharing the row's top edge and height, abutting left
    // to right across the same columns as the first row.
    const Tile& head = tiles[t];
    DCSN_CHECK(rows_.empty() || (head.y0 == row_edges_.back() &&
                                 head.x0 == rows_.front().col_edges.front()),
               "tiles do not form a row grid: a row must start at the grid's "
               "left edge, right below the previous row");
    Row row{t, {head.x0}};
    while (t < tiles.size() && tiles[t].y0 == head.y0 &&
           tiles[t].x0 == row.col_edges.back() &&
           (rows_.empty() || row.col_edges.back() != rows_.front().col_edges.back())) {
      DCSN_CHECK(tiles[t].height == head.height && tiles[t].width > 0 && head.height > 0,
                 "tiles do not form a row grid: tiles of a row need the row's "
                 "height and a positive width");
      row.col_edges.push_back(tiles[t].x0 + tiles[t].width);
      ++t;
    }
    DCSN_CHECK(rows_.empty() || row.col_edges.back() == rows_.front().col_edges.back(),
               "tiles do not form a row grid: every row must span the same columns");
    if (rows_.empty()) row_edges_.push_back(head.y0);
    row_edges_.push_back(head.y0 + head.height);
    rows_.push_back(std::move(row));
  }
}

std::pair<int, int> TileIndex::overlap_range(double lo, double hi,
                                             std::span<const int> edges) {
  const int n = static_cast<int>(edges.size()) - 1;
  // A NaN bound fails every comparison below, so it drops its side of the
  // test: a NaN coordinate overlaps every interval.
  if (n <= 0 || lo >= edges.back() || hi < edges.front()) return {1, 0};
  // The interval holding v, for edges[0] <= v < edges[n]: a guess from the
  // first interval's size, corrected by the steps a shorter remainder
  // interval or an uneven split costs.
  auto locate = [&](double v) {
    int i = static_cast<int>((v - edges[0]) / (edges[1] - edges[0]));
    i = std::clamp(i, 0, n - 1);
    while (v < edges[static_cast<std::size_t>(i)]) --i;
    while (v >= edges[static_cast<std::size_t>(i) + 1]) ++i;
    return i;
  };
  return {lo >= edges.front() ? locate(lo) : 0, hi < edges.back() ? locate(hi) : n - 1};
}

TileAssignment assign_spots_to_tiles(std::span<const SpotInstance> spots,
                                     const render::WorldToImage& mapping,
                                     double extent_px, std::span<const Tile> tiles) {
  DCSN_CHECK(extent_px >= 0.0, "spot extent must be non-negative");
  const TileIndex index(tiles);
  TileAssignment out;
  out.per_tile.resize(tiles.size());
  std::int64_t assignments = 0;
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const auto [px, py] = mapping.map(spots[k].position);
    index.for_each_overlap(px, py, extent_px, [&](std::size_t t) {
      out.per_tile[t].push_back(static_cast<std::int64_t>(k));
      ++assignments;
    });
  }
  out.duplicates = assignments - static_cast<std::int64_t>(spots.size());
  return out;
}

}  // namespace dcsn::core
