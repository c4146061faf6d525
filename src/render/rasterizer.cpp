#include "render/rasterizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"

namespace dcsn::render {

namespace {

// Top-left rule for y-down pixel coordinates with positive-area winding:
// top edges run in +x, left edges run in -y. Fragments exactly on a
// top-left edge are inside; on any other edge they belong to the neighbor.
inline bool is_top_left(float dx, float dy) {
  return (dy == 0.0f && dx > 0.0f) || dy < 0.0f;
}

// Edge function in winding order; it vanishes on the edge and is positive
// inside. `origin` is the value at the bbox origin pixel center
// (x_min + 0.5, y_min + 0.5); the value anywhere in the bbox is
//
//   value(kx, ky) = (origin + ky * dx) - kx * dy
//
// with kx = x - x_min, ky = y - y_min, every operation a single float
// multiply/add — *not* an accumulation. Direct evaluation makes the value
// at any pixel a pure function of (kx, ky), which is what lets the span
// algorithm solve a row for its covered interval and still classify every
// pixel bit-identically to the reference walk evaluating the same formula.
struct Edge {
  float dx = 0.0f, dy = 0.0f, origin = 0.0f;
  bool top_left = false;
};

inline float edge_row_value(const Edge& e, int ky) {
  return e.origin + static_cast<float>(ky) * e.dx;
}
inline float edge_value(const Edge& e, float row_value, int kx) {
  return row_value - static_cast<float>(kx) * e.dy;
}
inline bool edge_admits(const Edge& e, float value) {
  return value > 0.0f || (value == 0.0f && e.top_left);
}

// Everything the two fill algorithms share: canonical-winding vertices in
// global pixel coordinates, the target-clamped iteration bbox, the
// triangle-anchored canonical edges, 1/area.
//
// The canonical anchor (ax, ay) is the pixel at the triangle's own bbox
// corner, clamped only against a fixed frame-independent limit — never
// against the target rect. Every edge value and UV is evaluated relative to
// that anchor, so a fragment's coverage and value are pure functions of the
// triangle and the global pixel: any target containing the pixel (the full
// texture, or any tile of any decomposition) computes identical bits.
struct TriSetup {
  MeshVertex a, b, c;
  int x_min = 0, x_max = 0, y_min = 0, y_max = 0;  ///< global, inside target
  int ax = 0, ay = 0;                              ///< canonical anchor pixel
  int gx_begin = 0, gx_end = 0;  ///< bbox's columns [begin, end) in anchor units
  Edge ab, bc, ca;
  float inv_area = 0.0f;
  float min_x = 0.0f, max_x = 0.0f, min_y = 0.0f, max_y = 0.0f;  ///< extents
  /// Lower bound on the exact doubled area (<= 0 where rounding could hide
  /// it); the coverage window's proof divides by it.
  float area_lo = 0.0f;
};

// floor/ceil for floats known to lie well inside int range (clamped first):
// the truncating cast, corrected by one where it rounded the wrong way.
// Same results as std::floor/std::ceil there, without their branches.
inline int floor_to_int(float v) {
  const int t = static_cast<int>(v);
  return t - static_cast<int>(v < static_cast<float>(t));
}
inline int ceil_to_int(float v) {
  const int t = static_cast<int>(v);
  return t + static_cast<int>(v > static_cast<float>(t));
}

// The anchor clamp: 2^22. Keeps float(anchor) + 0.5 exact and every
// in-target (kx, ky) offset below 2^24, where int -> float is exact. Only
// insane off-screen geometry ever hits the clamp, and the clamp itself is
// target-independent.
constexpr float kAnchorLimit = 4194304.0f;

// The clamp on the bbox's own columns (TriSetup::gx_begin/gx_end): 2^30,
// far enough that geometry past the anchor clamp keeps its columns, near
// enough that the anchor-relative column stays inside int range.
constexpr float kColumnLimit = 1073741824.0f;

// How far beyond the target rect the span solver resolves a row's
// *geometric* boundaries. The UV sampler is rebased at the geometric
// in-range span start, which must not depend on where the target happens
// to clip the row — otherwise a tile would sample fragments a last-bit
// differently from the full texture. A triangle whose span overhangs the
// target by more than this (possible only for meshes wider than 4096 px —
// far beyond any real spot) falls back to a clamped, still-deterministic
// solve; the walk stays bounded either way.
constexpr int kGeomSlack = 4096;

// Rejects degenerate / non-finite / off-target triangles; fills `s` else.
bool setup_triangle(const RasterTarget& target, MeshVertex a, MeshVertex b,
                    MeshVertex c, TriSetup& s) {
  // Signed doubled area; positive means screen-clockwise (our canonical
  // winding). Flip b/c to normalize — bent-spot ribbons can fold over.
  const float t1 = (b.x - a.x) * (c.y - a.y);
  const float t2 = (b.y - a.y) * (c.x - a.x);
  float area2 = t1 - t2;
  if (area2 == 0.0f || !std::isfinite(area2)) return false;
  if (area2 < 0.0f) {
    std::swap(b, c);
    area2 = -area2;
  }

  const float min_x = std::min({a.x, b.x, c.x});
  const float max_x = std::max({a.x, b.x, c.x});
  const float min_y = std::min({a.y, b.y, c.y});
  const float max_y = std::max({a.y, b.y, c.y});
  // The target's global pixel rect [tx0, tx1) x [ty0, ty1).
  const auto tx0 = static_cast<float>(target.origin_x);
  const auto ty0 = static_cast<float>(target.origin_y);
  const auto tx1 = static_cast<float>(target.origin_x + target.pixels.width());
  const auto ty1 = static_cast<float>(target.origin_y + target.pixels.height());
  // Reject off-target (or NaN-extent) boxes while still in float space; the
  // negated comparisons make any NaN land in the reject branch.
  if (!(min_x < tx1) || !(min_y < ty1) || !(max_x >= tx0) || !(max_y >= ty0)) {
    return false;
  }
  // Clamp to the target rect *before* the int cast: a far-off-screen vertex
  // (|coordinate| beyond ~2^31) would make the unclamped cast undefined.
  s.x_min = floor_to_int(std::clamp(min_x, tx0, tx1 - 1.0f));
  s.x_max = ceil_to_int(std::clamp(max_x, tx0, tx1 - 1.0f));
  s.y_min = floor_to_int(std::clamp(min_y, ty0, ty1 - 1.0f));
  s.y_max = ceil_to_int(std::clamp(max_y, ty0, ty1 - 1.0f));
  if (s.x_min > s.x_max || s.y_min > s.y_max) return false;

  // Target-independent canonical anchor, and the bbox's own columns in
  // anchor units (the span solver's geometric walk limits; gx_begin is 0
  // unless the anchor is clamped).
  s.ax = floor_to_int(std::clamp(min_x, -kAnchorLimit, kAnchorLimit));
  s.ay = floor_to_int(std::clamp(min_y, -kAnchorLimit, kAnchorLimit));
  s.gx_begin = floor_to_int(std::clamp(min_x, -kColumnLimit, kColumnLimit)) - s.ax;
  s.gx_end = ceil_to_int(std::clamp(max_x, -kColumnLimit, kColumnLimit)) - s.ax + 1;
  s.min_x = min_x;
  s.max_x = max_x;
  s.min_y = min_y;
  s.max_y = max_y;
  // |t_k - exact product| <= 3.02u |t_k| (two subtractions, one multiply),
  // and the subtraction rounds once more: the exact doubled area is at
  // least area2 - 4.1u (|t1| + |t2|); 8u leaves room for this line's own
  // rounding.
  s.area_lo = area2 - 8.0f * 0x1p-24f * (std::abs(t1) + std::abs(t2));

  // Watertightness: adjacent triangles traverse a shared edge in opposite
  // directions. Evaluating both against the *same* canonical endpoint
  // ordering makes their edge values exact negations of each other (every
  // operation in edge construction and evaluation is negation-symmetric in
  // IEEE arithmetic), so a pixel on the seam is inside exactly one triangle
  // (top-left rule breaks the e == 0 tie) and never falls through a
  // rounding gap. (Adjacent triangles share the bbox corner along the seam
  // in the mesh's row/column direction only; the anchor can differ — but
  // the negation symmetry holds per-pixel through the shared kx/ky offsets
  // of whichever triangle is evaluated, and the seam tests pin the
  // behaviour.)
  auto make_edge = [&](const MeshVertex& from, const MeshVertex& to) {
    const bool swapped = (to.x < from.x) || (to.x == from.x && to.y < from.y);
    const MeshVertex& lo = swapped ? to : from;
    const MeshVertex& hi = swapped ? from : to;
    const float cdx = hi.x - lo.x;
    const float cdy = hi.y - lo.y;
    const float px = static_cast<float>(s.ax) + 0.5f;
    const float py = static_cast<float>(s.ay) + 0.5f;
    const float canonical = cdx * (py - lo.y) - cdy * (px - lo.x);
    const float sign = swapped ? -1.0f : 1.0f;
    Edge edge;
    edge.dx = sign * cdx;
    edge.dy = sign * cdy;
    edge.origin = sign * canonical;
    edge.top_left = is_top_left(edge.dx, edge.dy);
    return edge;
  };
  s.ab = make_edge(a, b);  // weight for c
  s.bc = make_edge(b, c);  // weight for a
  s.ca = make_edge(c, a);  // weight for b
  s.a = a;
  s.b = b;
  s.c = c;
  s.inv_area = 1.0f / area2;
  return true;
}

// ---------------------------------------------------------------------------
// kReference: the bounding-box walk. Every bbox pixel evaluates all three
// edge functions; covered fragments take the branchy bounds-checked
// SpotProfile::sample. This is the algorithm the span kernel is proven
// against, kept selectable for equivalence tests and ablation benches.
// ---------------------------------------------------------------------------

class SpanBatch;

// The reference walk blends directly; the unused batch gives both fill
// algorithms one kernel signature.
template <BlendMode Mode>
void raster_tri_reference(const RasterTarget& target, MeshVertex va, MeshVertex vb,
                          MeshVertex vc, float weight, const SpotProfile& profile,
                          SpanBatch& /*batch*/, RasterStats& stats) {
  TriSetup s;
  if (!setup_triangle(target, va, vb, vc, s)) return;

  const auto pixels = target.pixels;
  std::int64_t fragments = 0;
  for (int y = s.y_min; y <= s.y_max; ++y) {
    const int ky = y - s.ay;
    const float r_ab = edge_row_value(s.ab, ky);
    const float r_bc = edge_row_value(s.bc, ky);
    const float r_ca = edge_row_value(s.ca, ky);
    float* row = &pixels(0, y - target.origin_y);
    for (int x = s.x_min; x <= s.x_max; ++x) {
      const int kx = x - s.ax;
      const int lx = x - target.origin_x;
      const float v_ab = edge_value(s.ab, r_ab, kx);
      const float v_bc = edge_value(s.bc, r_bc, kx);
      const float v_ca = edge_value(s.ca, r_ca, kx);
      if (edge_admits(s.ab, v_ab) && edge_admits(s.bc, v_bc) &&
          edge_admits(s.ca, v_ca)) {
        const float wa = v_bc * s.inv_area;
        const float wb = v_ca * s.inv_area;
        const float wc = v_ab * s.inv_area;
        const float u = wa * s.a.u + wb * s.b.u + wc * s.c.u;
        const float v = wa * s.a.v + wb * s.b.v + wc * s.c.v;
        const float texel = profile.sample(u, v);
        const float value = util::simd::quantize_contribution(weight * texel);
        if constexpr (Mode == BlendMode::kAdditive) {
          row[lx] += value;
        } else {
          row[lx] = std::max(row[lx], value);
        }
        ++fragments;
      }
    }
  }
  ++stats.triangles;
  stats.fragments += fragments;
  stats.pixels_visited += static_cast<std::int64_t>(s.x_max - s.x_min + 1) *
                          static_cast<std::int64_t>(s.y_max - s.y_min + 1);
}

// ---------------------------------------------------------------------------
// kSpan: scanline span solve + incremental row kernel.
// ---------------------------------------------------------------------------

// The SoA span batch: rendered spans accumulate as (dst, span, length)
// triples and flush through the dispatched tier's batched kernel, so the
// tier pays its per-call setup once per flush and can pack short spans. One
// batch lives for a whole rasterize_* call — every triangle of every mesh
// feeds it — and the kernel table is resolved once per call. Spans of
// different triangles may overlap (a folded ribbon, overlapping spots);
// the batched kernels accept that (util/simd_dispatch.hpp), and because
// every blend is lattice-exact addition or a comparison max, the batched
// result is the span-by-span result bit for bit.
class SpanBatch {
 public:
  explicit SpanBatch(BlendMode mode)
      : kernels_(util::simd::kernels()),
        rows_(mode == BlendMode::kAdditive ? kernels_.sample_rows_add
                                           : kernels_.sample_rows_max) {}
  SpanBatch(const SpanBatch&) = delete;
  SpanBatch& operator=(const SpanBatch&) = delete;

  [[nodiscard]] const util::simd::KernelTable& kernels() const { return kernels_; }

  void push(float* dst, const util::simd::SampleSpan& span, std::uint32_t len) {
    dst_[count_] = dst;
    span_[count_] = span;
    len_[count_] = len;
    if (++count_ == kCapacity) flush();
  }

  void flush() {
    if (count_ == 0) return;
    rows_(dst_, span_, len_, count_);
    count_ = 0;
  }

 private:
  static constexpr std::size_t kCapacity = 128;
  const util::simd::KernelTable& kernels_;
  void (*rows_)(float* const*, const util::simd::SampleSpan*, const std::uint32_t*,
                std::size_t);
  float* dst_[kCapacity];
  util::simd::SampleSpan span_[kCapacity];
  std::uint32_t len_[kCapacity];
  std::size_t count_ = 0;
};

// One edge's contribution to a row's covered interval, classified once per
// triangle by the sign of dy (fixed across the raster):
//
//   dy > 0 — edge values fall with kx, the admitted set is a prefix: the
//            edge bounds the span on the right;
//   dy < 0 — values rise with kx, admitted set is a suffix: a left bound;
//   dy == 0 — constant across the row: admits the whole row or none of it.
//
// Admission must be bit-identical to edge_admits(e, edge_value(e, r, kx)):
// edge_value = fl(r - m) with m = fl(kx * dy); fl(r - m) > 0 iff r > m and
// fl(r - m) == 0 iff r == m (IEEE subtraction preserves sign and is zero
// only for equal operands), so admission reduces to the exact comparison
// m < r, or m <= r on a top-left edge.
//
// `base + ky * slope` is the x-intercept of the edge's zero line in row ky
// (one reciprocal per edge buys division-free span seeding in every row).
// Its rounding never matters: the fixup loops in the solver decide with the
// exact comparison and only walk farther when the seed is off, which the
// ~1e-4-pixel seed error never causes in practice.
struct RowBound {
  float dy = 0.0f, dx = 0.0f, origin = 0.0f;
  bool top_left = false;
  double base = 0.0, slope = 0.0;
};

// Seed clamped to [lo, hi]; NaN (overflowed intercepts) seeds lo.
inline int seed_from(double est, int lo, int hi) {
  if (est >= static_cast<double>(hi)) return hi;
  if (est > static_cast<double>(lo)) return static_cast<int>(est);
  return lo;
}

// The wide-triangle row solver: seeds each sloped edge's boundary from its
// x-intercept and settles it with the exact admission comparison, walking
// within the geometric window [gfloor, gceil).
class WideRowSolve {
 public:
  WideRowSolve(const TriSetup& s, int gfloor, int gceil) : gfloor_(gfloor), gceil_(gceil) {
    for (const Edge* e : {&s.ab, &s.bc, &s.ca}) {
      RowBound b;
      b.dy = e->dy;
      b.dx = e->dx;
      b.origin = e->origin;
      b.top_left = e->top_left;
      if (e->dy == 0.0f) {
        flat_[n_flat_++] = b;
        continue;
      }
      const double inv_dy = 1.0 / static_cast<double>(e->dy);
      b.base = static_cast<double>(e->origin) * inv_dy;
      b.slope = static_cast<double>(e->dx) * inv_dy;
      if (e->dy > 0.0f) {
        right_[n_right_++] = b;
      } else {
        left_[n_left_++] = b;
      }
    }
  }

  // The geometric covered interval [g_lo, g_hi) of row ky (empty when
  // g_lo >= g_hi). Each bound's row value r is the same float expression
  // the reference walk evaluates (edge_row_value), and each boundary is
  // settled by the exact admission comparison — coverage inside the target
  // is bit-identical to the reference by construction, and the boundaries
  // themselves do not depend on where the target clips the row.
  void solve(int ky, int& g_lo, int& g_hi) const {
    const float kyf = static_cast<float>(ky);
    g_lo = gfloor_;
    g_hi = gceil_;
    for (int i = 0; i < n_flat_; ++i) {
      const float r = flat_[i].origin + kyf * flat_[i].dx;
      if (!(r > 0.0f || (r == 0.0f && flat_[i].top_left))) g_hi = gfloor_;
    }
    for (int i = 0; i < n_right_; ++i) {
      const RowBound& b = right_[i];
      const float r = b.origin + kyf * b.dx;
      const auto admits = [&](int kx) {
        const float m = static_cast<float>(kx) * b.dy;
        return b.top_left ? (m <= r) : (m < r);
      };
      int k = seed_from(b.base + ky * b.slope, gfloor_, gceil_);
      while (k < gceil_ && admits(k)) ++k;
      while (k > gfloor_ && !admits(k - 1)) --k;
      g_hi = std::min(g_hi, k);
    }
    for (int i = 0; i < n_left_; ++i) {
      const RowBound& b = left_[i];
      const float r = b.origin + kyf * b.dx;
      const auto admits = [&](int kx) {
        const float m = static_cast<float>(kx) * b.dy;
        return b.top_left ? (m <= r) : (m < r);
      };
      int k = seed_from(b.base + ky * b.slope, gfloor_, gceil_);
      while (k < gceil_ && !admits(k)) ++k;
      while (k > gfloor_ && admits(k - 1)) --k;
      g_lo = std::max(g_lo, k);
    }
  }

 private:
  RowBound flat_[3], left_[3], right_[3];
  int n_flat_ = 0, n_left_ = 0, n_right_ = 0;
  int gfloor_, gceil_;
};

// The kx frame of a set-up triangle: the rendered window [klo, kend) and
// the *geometric* solve window [gfloor, gceil), both relative to the
// canonical anchor. Boundaries are resolved past the target rect (bounded
// by the bbox and the slack) so the solved span — and the UV rebase
// anchored at its in-range start — is a pure function of the triangle and
// the row, identical for every target that clips it.
struct SpanFrame {
  int klo = 0, kend = 0, gfloor = 0, gceil = 0;
};

SpanFrame span_frame(const TriSetup& s) {
  SpanFrame f;
  f.klo = s.x_min - s.ax;
  f.kend = s.x_max - s.ax + 1;
  f.gfloor = std::max(s.gx_begin, f.klo - kGeomSlack);
  f.gceil = std::min(s.gx_end, f.kend + kGeomSlack);
  return f;
}

// ---------------------------------------------------------------------------
// Coverage window: the rows and columns whose pixel centres can be covered.
//
// The bbox rows floor(min_y)..ceil(max_y) over-cover: the last row's centre
// always lies below the triangle, and the first row's centre lies above it
// whenever frac(min_y) > 0.5. On the served bent meshes (~13 fragments per
// triangle) a third of the bbox rows are empty. The window below walks only
// rows whose centre lies within a slack `d` of the y-extent, and it is
// exact: no row (or column) outside it is admitted by the float edge
// functions.
//
// Proof sketch. Let E_i be the exact edge functions of the float vertices,
// inside-positive, so E_ab + E_bc + E_ca = A (the exact doubled area) at
// every point. For a point P with y_P = max_y + d, write y_P as the
// barycentric combination sum (E_i / A) * y_i: the positive weights pull
// toward y <= max_y, so the negative ones must supply d, and at most two
// are negative, each bounded by the height H: some E_i(P) <= -A*d / (2H).
// The computed admission value (r - m, compared exactly) differs from
// E_i(P) by at most 7u * S_i, u = 2^-24 (five float roundings in the edge
// expression plus one in each canonical edge direction), where
//   S_i = |dx_i| * (|py - v.y| + |ky|) + |dy_i| * (|px - v.x| + |kx|).
// With eps = 16u * max_i S_i (a 2x margin that also absorbs this bound's
// own rounding), every P with d > 2H*eps/A has a computed value < 0 on
// some edge: rejected, top-left edges included. Columns follow by symmetry
// with the width W. A is bounded from below (TriSetup::area_lo); where the
// bound degenerates (near-zero area, a clamped anchor, overflow) the
// window is the bbox, which is always correct.
// ---------------------------------------------------------------------------

struct CoverageWindow {
  int y_lo = 0, y_hi = -1;  ///< global rows to walk, inside [y_min, y_max]
  int k_lo = 0, k_hi = -1;  ///< anchor-relative columns, inclusive, inside
                            ///< the geometric solve window
};

// Starts from the bbox rows and the geometric solve window and trims, from
// each end, the rows/columns whose centre lies more than d = 2*H*eps/A
// outside the extent, compared as gap * A > 2*H*eps (no division). With
// the anchor unclamped at the bbox corner (ax = floor(min_x), so
// 0 <= kx < W + 2 over the solve window, and likewise ky), every term of
// S_i is bounded by the extents W and H: |dx_i| <= W, |dy_i| <= H,
// |py - v.y| + |ky| <= 2H + 2.5, |px - v.x| + |kx| <= 2W + 2.5, so
// S_i <= 4WH + 3(W + H) + 1 =: S for all three edges, and the whole bound
// costs a handful of float operations (their rounding, a few u relative,
// sits inside the 2x margin). A clamped anchor, a degenerate area bound, or
// an overflowing S trims nothing.
CoverageWindow coverage_window(const TriSetup& s, const SpanFrame& f) {
  CoverageWindow w{s.y_min, s.y_max, f.gfloor, f.gceil - 1};
  if (!(s.area_lo > 0.0f) || !(std::abs(s.min_x) < kAnchorLimit) ||
      !(std::abs(s.min_y) < kAnchorLimit)) {
    return w;
  }
  const float width = s.max_x - s.min_x;
  const float height = s.max_y - s.min_y;
  const float spread = 4.0f * width * height + 3.0f * (width + height) + 1.0f;
  const float two_eps = 2.0f * (16.0f * 0x1p-24f) * spread;
  const float slack_y = two_eps * height;  // = d_y * A
  const float slack_x = two_eps * width;   // = d_x * A
  const float area = s.area_lo;
  // Only the first bbox row can have its centre above min_y (the bbox
  // starts at floor(min_y), or inside the extent where the target clips
  // it), and only the last two below max_y (it ends at ceil(max_y));
  // columns likewise. Branch-free: each trim is a 0/1 decision.
  const auto beyond = [area](float gap, float slack) {
    return static_cast<int>(gap * area > slack);
  };
  const auto centre = [](int pixel) { return static_cast<float>(pixel) + 0.5f; };
  w.y_lo += beyond(s.min_y - centre(w.y_lo), slack_y);
  const int cut_y = beyond(centre(w.y_hi) - s.max_y, slack_y);
  w.y_hi -= cut_y + (cut_y & beyond(centre(w.y_hi - 1) - s.max_y, slack_y));
  w.k_lo += beyond(s.min_x - centre(s.ax + w.k_lo), slack_x);
  const int cut_x = beyond(centre(s.ax + w.k_hi) - s.max_x, slack_x);
  w.k_hi -= cut_x + (cut_x & beyond(centre(s.ax + w.k_hi - 1) - s.max_x, slack_x));
  return w;
}

// ---------------------------------------------------------------------------
// The small-triangle row solver. When a triangle's coverage window is at
// most eight columns wide, a row's admissions are the three per-lane
// comparisons m < r (m <= r on a top-left edge) for the eight columns of
// the window at once — the exact comparisons the wide solver settles its
// boundaries with — and the span bounds are read off the lane mask. m =
// fl(kx * dy) does not depend on the row, so the per-lane thresholds are
// built once per triangle; m <= r is folded into the single comparison
// next_below(m) < r (no float lies strictly between the two). Lanes past
// the window hold +inf and never admit. Admission is monotone in kx along
// each edge, so the mask is one contiguous run, as the wide solver's
// interval is.
// ---------------------------------------------------------------------------

constexpr int kSmallLanes = 8;

// Four float lanes and their comparison results, as GNU vector extensions:
// one portable source that GCC and Clang compile to packed compares on
// every target (SSE2 on x86-64, NEON on aarch64), with no per-ISA branch.
using Quad = float __attribute__((vector_size(16)));
using QuadBits = std::int32_t __attribute__((vector_size(16)));

inline Quad splat(float v) { return Quad{v, v, v, v}; }
inline QuadBits splat_bits(std::int32_t v) { return QuadBits{v, v, v, v}; }

// Per lane, the largest float below a finite m: one ulp down in magnitude
// for m > 0, up for m < 0, and -denorm_min for either zero. (Comparison
// results are -1 where true.)
inline Quad next_below(Quad m) {
  const auto bits = std::bit_cast<QuadBits>(m);
  const QuadBits moved = bits + (m > 0.0f) - (m < 0.0f);
  const QuadBits zero = m == 0.0f;
  const QuadBits below_zero = splat_bits(static_cast<std::int32_t>(0x80000001u));
  return std::bit_cast<Quad>((moved & ~zero) | (below_zero & zero));
}

class SmallRowSolve {
 public:
  SmallRowSolve(const TriSetup& s, int k_base, int lanes) {
    const Edge* edges[3] = {&s.ab, &s.bc, &s.ca};
    // kx = k_base + j per lane (exact: the window lies far below 2^24).
    const Quad kx[2] = {splat(static_cast<float>(k_base)) + Quad{0, 1, 2, 3},
                        splat(static_cast<float>(k_base)) + Quad{4, 5, 6, 7}};
    const QuadBits live[2] = {QuadBits{0, 1, 2, 3} < lanes, QuadBits{4, 5, 6, 7} < lanes};
    const auto inf = std::bit_cast<QuadBits>(splat(std::numeric_limits<float>::infinity()));
    for (int i = 0; i < 3; ++i) {
      const Edge& e = *edges[i];
      for (int h = 0; h < 2; ++h) {
        Quad m = kx[h] * e.dy;
        if (e.top_left) m = next_below(m);
        threshold_[i][h] =
            std::bit_cast<Quad>((std::bit_cast<QuadBits>(m) & live[h]) | (inf & ~live[h]));
      }
      origin_[i] = e.origin;
      dx_[i] = e.dx;
    }
  }

  // Bit j set: column k_base + j of row ky is admitted by all three edges.
  [[nodiscard]] unsigned row_mask(int ky) const {
    const float kyf = static_cast<float>(ky);
    const Quad r0 = splat(origin_[0] + kyf * dx_[0]);
    const Quad r1 = splat(origin_[1] + kyf * dx_[1]);
    const Quad r2 = splat(origin_[2] + kyf * dx_[2]);
    const auto admitted = [&](int half) {
      return (threshold_[0][half] < r0) & (threshold_[1][half] < r1) &
             (threshold_[2][half] < r2);
    };
    const QuadBits bits = (admitted(0) & QuadBits{1, 2, 4, 8}) |
                          (admitted(1) & QuadBits{16, 32, 64, 128});
    return static_cast<unsigned>(bits[0] | bits[1] | bits[2] | bits[3]);
  }

 private:
  Quad threshold_[3][2];  ///< [edge][lanes 0-3, 4-7]
  float origin_[3], dx_[3];
};

// Walks a triangle's rows and calls visit(y, ky, g_lo, g_hi) with each
// row's geometric covered interval (empty when g_lo >= g_hi); returns true
// when the small-triangle solver served the triangle. kAuto is the
// production walk: the coverage window's rows, solved by the small-triangle
// solver when the window is at most eight columns wide (a function of the
// triangle alone: for such triangles the solve window is the whole bbox)
// and by the wide solver otherwise. kWide is the walk before the coverage
// window existed — every bbox row, wide solver — kept for the equivalence
// fuzz suite.
template <class Visit>
bool walk_rows(const TriSetup& s, const SpanFrame& f, detail::RowSolver solver,
               Visit&& visit) {
  int y_lo = s.y_min;
  int y_hi = s.y_max;
  if (solver == detail::RowSolver::kAuto) {
    const CoverageWindow window = coverage_window(s, f);
    const int lanes = window.k_hi - window.k_lo + 1;
    if (lanes <= kSmallLanes) {
      if (lanes <= 0) return true;
      const SmallRowSolve solve(s, window.k_lo, lanes);
      for (int y = window.y_lo; y <= window.y_hi; ++y) {
        const unsigned mask = solve.row_mask(y - s.ay);
        // An empty mask yields g_lo > g_hi (the guard bit above the lanes).
        visit(y, y - s.ay, window.k_lo + std::countr_zero(mask | (1u << kSmallLanes)),
              window.k_lo + std::bit_width(mask));
      }
      return true;
    }
    y_lo = window.y_lo;
    y_hi = window.y_hi;
  }
  const WideRowSolve solve(s, f.gfloor, f.gceil);
  for (int y = y_lo; y <= y_hi; ++y) {
    int g_lo = 0;
    int g_hi = 0;
    solve.solve(y - s.ay, g_lo, g_hi);
    visit(y, y - s.ay, g_lo, g_hi);
  }
  return false;
}

template <BlendMode Mode>
void raster_tri_span(const RasterTarget& target, MeshVertex va, MeshVertex vb,
                     MeshVertex vc, float weight, const SpotProfile& profile,
                     SpanBatch& batch, RasterStats& stats) {
  TriSetup s;
  if (!setup_triangle(target, va, vb, vc, s)) return;
  ++stats.triangles;

  const SpanFrame frame = span_frame(s);
  const int klo = frame.klo;
  const int kend = frame.kend;

  // Barycentric weights are affine across the raster, so UV is evaluated as
  // U00 + ky*du_dy + kx*du_dx with per-triangle double constants: within
  // ~1 ulp of the exact affine function anywhere in the bbox, no error
  // accumulation along the row. (On needle triangles this is *more*
  // accurate than the reference's cancellation-noisy float barycentric —
  // the equivalence tolerance there absorbs the reference's own noise.)
  // d(v_bc)/dkx = -bc.dy weights a, d(v_bc)/dky = +bc.dx, and cyclically.
  const double inv_area = static_cast<double>(s.inv_area);
  const double U00 = (static_cast<double>(s.bc.origin) * s.a.u +
                      static_cast<double>(s.ca.origin) * s.b.u +
                      static_cast<double>(s.ab.origin) * s.c.u) *
                     inv_area;
  const double V00 = (static_cast<double>(s.bc.origin) * s.a.v +
                      static_cast<double>(s.ca.origin) * s.b.v +
                      static_cast<double>(s.ab.origin) * s.c.v) *
                     inv_area;
  const double du_dx = -(static_cast<double>(s.bc.dy) * s.a.u +
                         static_cast<double>(s.ca.dy) * s.b.u +
                         static_cast<double>(s.ab.dy) * s.c.u) *
                       inv_area;
  const double dv_dx = -(static_cast<double>(s.bc.dy) * s.a.v +
                         static_cast<double>(s.ca.dy) * s.b.v +
                         static_cast<double>(s.ab.dy) * s.c.v) *
                       inv_area;
  const double du_dy = (static_cast<double>(s.bc.dx) * s.a.u +
                        static_cast<double>(s.ca.dx) * s.b.u +
                        static_cast<double>(s.ab.dx) * s.c.u) *
                       inv_area;
  const double dv_dy = (static_cast<double>(s.bc.dx) * s.a.v +
                        static_cast<double>(s.ca.dx) * s.b.v +
                        static_cast<double>(s.ab.dx) * s.c.v) *
                       inv_area;

  SpotProfile::RowSampler sampler(profile, du_dx, dv_dx);
  const auto pixels = target.pixels;
  std::int64_t fragments = 0;
  std::int64_t rows = 0;
  std::int64_t empty = 0;

  // Renders the geometric span [g_lo, g_hi) of row y, clipped to the target.
  const auto emit = [&](int y, int ky, int g_lo, int g_hi) {
    ++rows;
    // The rendered interval is the geometric span clipped to the target.
    const int lo = std::max(g_lo, klo);
    const int hi = std::min(g_hi, kend);
    if (lo >= hi) {
      ++empty;
      return;
    }
    fragments += hi - lo;

    // Bounds handling, hoisted: fragments whose UV leaves [0,1)^2 (float
    // rounding at mesh seams, or genuinely off-profile geometry) sample
    // zero. u and v are affine in k, so the in-range set is a sub-interval
    // [s0, s1) of the geometric span; scanning inward from its ends with
    // the exact per-k predicate costs one check per *out-of-range*
    // fragment — almost always zero. Everything is evaluated at absolute
    // anchor-relative k (`u_row + k*du_dx`), never rebased on a clipped
    // span start, so the sampler state below is target-independent too.
    const double u_row = U00 + ky * du_dy;
    const double v_row = V00 + ky * dv_dy;
    const auto uv_in = [&](int k) {
      const double u = u_row + k * du_dx;
      const double v = v_row + k * dv_dx;
      return u >= 0.0 && u < 1.0 && v >= 0.0 && v < 1.0;
    };
    int s0 = g_lo;
    while (s0 < g_hi && !uv_in(s0)) ++s0;
    int s1 = g_hi;
    while (s1 > s0 && !uv_in(s1 - 1)) --s1;
    // Rendered portion of the in-range sub-span.
    const int r0 = std::clamp(s0, lo, hi);
    const int r1 = std::clamp(s1, r0, hi);

    float* dst = &pixels(0, y - target.origin_y) + (s.ax + lo - target.origin_x);
    if constexpr (Mode == BlendMode::kMaximum) {
      // The reference blends max(dst, quantize(weight * 0)) on zero-texel
      // fragments; replicate that on the out-of-range flanks.
      const float flank = util::simd::quantize_contribution(weight * 0.0f);
      batch.kernels().max_with(dst, flank, static_cast<std::size_t>(r0 - lo));
      batch.kernels().max_with(dst + (r1 - lo), flank,
                               static_cast<std::size_t>(hi - r1));
    }
    if (r0 < r1) {
      // Rebase the sampler at the geometric in-range start s0 — in [0,1)^2
      // so the fixed-point position fits — then queue the whole rendered
      // sub-span as one SoA unit: the span() call hoists the per-fragment
      // UV stepping state (fixed-point position, step, weight) out of the
      // kernel, which blends straight-line over the contiguous destination
      // floats at flush. Rendered fragments sample at offsets r0-s0 ..
      // r1-1-s0; every tier reproduces the scalar quantize(weight * sample)
      // bits exactly.
      sampler.start_row(u_row + s0 * du_dx, v_row + s0 * dv_dx);
      batch.push(dst + (r0 - lo), sampler.span(r0 - s0, weight),
                 static_cast<std::uint32_t>(r1 - r0));
    }
  };

  walk_rows(s, frame, detail::RowSolver::kAuto, emit);
  stats.fragments += fragments;
  stats.pixels_visited += fragments;
  stats.span_rows += rows;
  stats.empty_rows += empty;
}

// ---------------------------------------------------------------------------
// Dispatch: blend mode and algorithm resolve to one instantiated kernel,
// selected once per call instead of per triangle.
// ---------------------------------------------------------------------------

using TriKernel = void (*)(const RasterTarget&, MeshVertex, MeshVertex, MeshVertex,
                           float, const SpotProfile&, SpanBatch&, RasterStats&);

TriKernel select_kernel(BlendMode mode, RasterAlgorithm algorithm) {
  const bool additive = mode == BlendMode::kAdditive;
  if (algorithm == RasterAlgorithm::kSpan) {
    return additive ? &raster_tri_span<BlendMode::kAdditive>
                    : &raster_tri_span<BlendMode::kMaximum>;
  }
  return additive ? &raster_tri_reference<BlendMode::kAdditive>
                  : &raster_tri_reference<BlendMode::kMaximum>;
}

void mesh_with_kernel(TriKernel kernel, const RasterTarget& target,
                      std::span<const MeshVertex> vertices, int cols, int rows,
                      float weight, const SpotProfile& profile, SpanBatch& batch,
                      RasterStats& stats) {
  auto vertex = [&](int i, int j) -> const MeshVertex& {
    return vertices[static_cast<std::size_t>(j) * static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(i)];
  };
  for (int j = 0; j + 1 < rows; ++j) {
    for (int i = 0; i + 1 < cols; ++i) {
      const MeshVertex& v00 = vertex(i, j);
      const MeshVertex& v10 = vertex(i + 1, j);
      const MeshVertex& v11 = vertex(i + 1, j + 1);
      const MeshVertex& v01 = vertex(i, j + 1);
      kernel(target, v00, v10, v11, weight, profile, batch, stats);
      kernel(target, v00, v11, v01, weight, profile, batch, stats);
      ++stats.quads;
    }
  }
}

}  // namespace

void rasterize_triangle(const RasterTarget& target, const MeshVertex& a,
                        const MeshVertex& b, const MeshVertex& c, float weight,
                        const SpotProfile& profile, BlendMode mode,
                        RasterStats& stats) {
  SpanBatch batch(mode);
  select_kernel(mode, target.algorithm)(target, a, b, c, weight, profile, batch, stats);
  batch.flush();
}

void rasterize_mesh(const RasterTarget& target, std::span<const MeshVertex> vertices,
                    int cols, int rows, float weight, const SpotProfile& profile,
                    BlendMode mode, RasterStats& stats) {
  SpanBatch batch(mode);
  mesh_with_kernel(select_kernel(mode, target.algorithm), target, vertices, cols,
                   rows, weight, profile, batch, stats);
  batch.flush();
}

namespace detail {

bool solve_span_rows(const RasterTarget& target, const MeshVertex& a,
                     const MeshVertex& b, const MeshVertex& c, RowSolver solver,
                     std::vector<SolvedRow>& rows, bool* small) {
  TriSetup s;
  if (!setup_triangle(target, a, b, c, s)) return false;
  const bool served_small =
      walk_rows(s, span_frame(s), solver, [&](int y, int, int g_lo, int g_hi) {
        rows.push_back({y, s.ax + g_lo, s.ax + std::max(g_lo, g_hi)});
      });
  if (small != nullptr) *small = served_small;
  return true;
}

}  // namespace detail

void rasterize_buffer(const RasterTarget& target, const CommandBuffer& buffer,
                      const SpotProfile& profile, BlendMode mode, RasterStats& stats) {
  const TriKernel kernel = select_kernel(mode, target.algorithm);
  SpanBatch batch(mode);
  for (const MeshHeader& h : buffer.meshes()) {
    mesh_with_kernel(kernel, target, buffer.vertices_of(h), h.cols, h.rows,
                     h.intensity, profile, batch, stats);
  }
  batch.flush();
}

}  // namespace dcsn::render
