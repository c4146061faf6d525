// Software scan conversion of textured spot meshes.
//
// This is the graphics pipe's core: each spot mesh arrives as transformed
// vertices (texture-pixel coordinates + profile UVs) and is scan-converted
// quad by quad, each quad split into two triangles rasterized with the
// top-left fill rule so adjacent quads of a bent-spot ribbon never double-
// blend a pixel along their shared edge. Fragments sample the spot profile
// bilinearly and blend into the float target — the software equivalent of
// texture-mapped polygon rendering with additive blending on the
// InfiniteReality.
//
// Two interchangeable triangle fill algorithms (RasterAlgorithm):
//
//   * kSpan (default) — a span-based scanline kernel. Per row the three
//     canonical edge functions are solved for the exact covered interval
//     [x_start, x_end) — only over the rows whose pixel centres the
//     triangle can cover, and, for triangles at most eight columns wide,
//     as one eight-lane compare mask per row; inside it u, v and the
//     bilinear fetch are stepped with per-triangle constants
//     (SpotProfile::RowSampler) and blended through the util::simd
//     kernels, batched across every triangle of a call — a straight-line
//     add/fetch/blend with no per-fragment branches, and no iterations
//     spent on rejected pixels.
//   * kReference — the original bounding-box walk testing all three edge
//     functions per pixel. Kept selectable for equivalence testing and for
//     the bench_raster_kernel ablation.
//
// Both algorithms construct edges from the same canonical endpoint ordering
// and evaluate every edge value with the same expression (direct multiply
// from the canonical row origin), so their pixel coverage is bit-identical
// — the fuzz suite in tests/test_rasterizer.cpp asserts exactly that — and
// shared-edge watertightness (no seam gap, no double blend) is preserved.
//
// Rasterization is *target-independent*: vertices stay in full-texture
// ("global") pixel coordinates, the canonical anchor for edge and UV
// evaluation is derived from the triangle's own bounding box (never from
// the target rect), and the target origin is used purely for addressing.
// A fragment's coverage decision and blended value are therefore pure
// functions of the triangle and the global pixel — identical bits whether
// the pixel is rendered by a full-texture pipe or by any tile that contains
// it. Combined with the contribution lattice (util/simd.hpp), which makes
// additive blending exactly associative, the whole engine produces
// bit-identical textures across pipe counts, contiguous vs tiled mode,
// tile layouts, and work-steal schedules — the determinism suite asserts
// this, and core::SynthesisCache's temporal tile reuse depends on it.
#pragma once

#include <cstdint>
#include <vector>

#include "render/command_buffer.hpp"
#include "render/spot_profile.hpp"
#include "util/span2d.hpp"

namespace dcsn::render {

enum class BlendMode {
  kAdditive,  ///< dst += w * tex — the spot-noise sum
  kMaximum,   ///< dst = max(dst, w * tex) — used by some filtered variants
};

/// Triangle fill strategy. kSpan is the production hot path; kReference is
/// the bbox-walk oracle it is measured and tested against.
enum class RasterAlgorithm {
  kSpan,       ///< scanline span solve + incremental row kernel
  kReference,  ///< per-pixel bounding-box walk
};

/// Where fragments land. `origin_x/y` is the global pixel coordinate of
/// pixels(0, 0), letting a tile rasterize geometry that is expressed in
/// full-texture coordinates (texture decomposition, paper §3). Integral on
/// purpose: tiles sit on pixel boundaries, and an integer origin keeps
/// addressing exact so tiled output matches the full-texture pipes bit for
/// bit.
struct RasterTarget {
  util::Span2D<float> pixels;
  int origin_x = 0;
  int origin_y = 0;
  RasterAlgorithm algorithm = RasterAlgorithm::kSpan;
};

struct RasterStats {
  std::int64_t triangles = 0;
  std::int64_t quads = 0;
  std::int64_t fragments = 0;  ///< pixels actually covered and blended
  /// Inner-loop iterations: bbox area for kReference, span length for kSpan.
  /// fragments / pixels_visited is the fill efficiency the span kernel buys;
  /// bench_raster_kernel reports it as the visited ratio.
  std::int64_t pixels_visited = 0;
  /// Rows the kSpan row solver walked, and how many of them rendered no
  /// fragment; empty_rows / span_rows is the row loop's wasted share.
  std::int64_t span_rows = 0;
  std::int64_t empty_rows = 0;

  RasterStats& operator+=(const RasterStats& o) {
    triangles += o.triangles;
    quads += o.quads;
    fragments += o.fragments;
    pixels_visited += o.pixels_visited;
    span_rows += o.span_rows;
    empty_rows += o.empty_rows;
    return *this;
  }
};

/// Rasterizes one triangle. Vertices carry positions in texture pixels and
/// profile UVs; `weight` scales every fragment (the spot's a_i).
void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, BlendMode mode,
                        RasterStats& stats);

/// Rasterizes a cols-x-rows mesh (row-major vertices) as its component
/// quads. Blend mode and algorithm are dispatched once per mesh, not per
/// triangle.
void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    BlendMode mode, RasterStats& stats);

/// Rasterizes every mesh in a command buffer. The profile/blend/algorithm
/// dispatch is hoisted out of the mesh loop: the triangle kernel is selected
/// once and passed down (all meshes of a buffer share pipe state).
void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, BlendMode mode, RasterStats& stats);

namespace detail {

/// The kSpan row solvers, exposed for the equivalence fuzz suite
/// (tests/test_rasterizer.cpp). kAuto is the production walk (the coverage
/// window's rows; the small-triangle solver when that window is at most
/// eight columns wide, the wide solver otherwise); kWide walks every bbox
/// row with the wide solver.
enum class RowSolver { kAuto, kWide };

/// One walked row: its geometric covered pixels [x_begin, x_end) in global
/// coordinates, not clipped to the target (x_begin == x_end when empty).
struct SolvedRow {
  int y = 0;
  int x_begin = 0;
  int x_end = 0;
};

/// Appends the rows `solver` walks for the triangle. Returns false, and
/// appends nothing, when setup rejects the triangle (degenerate, non-finite
/// or off-target). `small`, when given, is set to whether the
/// small-triangle solver served the triangle.
bool solve_span_rows(const RasterTarget& target, const MeshVertex& a,
                     const MeshVertex& b, const MeshVertex& c, RowSolver solver,
                     std::vector<SolvedRow>& rows, bool* small = nullptr);

}  // namespace detail

}  // namespace dcsn::render
