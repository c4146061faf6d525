// Equivalence fuzzing for the span-based scanline rasterizer.
//
// The contract under test (see render/rasterizer.hpp): RasterAlgorithm::kSpan
// and kReference construct edges from the same canonical endpoint ordering
// and evaluate every edge value with the same expression, so their pixel
// *coverage* is bit-identical for any input — needles, zero-area slivers,
// off-screen and ±1e12 geometry included — while fragment *values* (which
// kSpan computes with the incremental RowSampler) agree to ≤ 1e-5. The
// coverage checks use a constant-texel profile, so every covered pixel
// blends an exact float quantum and framebuffers can be compared bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

namespace {

using dcsn::render::BlendMode;
using dcsn::render::Framebuffer;
using dcsn::render::MeshVertex;
using dcsn::render::RasterAlgorithm;
using dcsn::render::RasterStats;
using dcsn::render::RasterTarget;
using dcsn::render::SpotProfile;
using dcsn::render::SpotShape;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

MeshVertex vtx(float x, float y, float u = 0.5f, float v = 0.5f) {
  return MeshVertex{x, y, u, v};
}

// A 2x2 disc profile: all four texels sit inside the inscribed circle, so
// after normalization the table is the constant 0.25 and any in-range UV
// samples exactly that — the "coverage quantum" for exact mask comparison.
const SpotProfile& coverage_profile() {
  static const SpotProfile profile(SpotShape::kDisc, 2);
  return profile;
}

float coverage_quantum() { return coverage_profile().sample(0.5f, 0.5f); }

struct TriRun {
  Framebuffer fb;
  RasterStats stats;
};

TriRun run_triangle(RasterAlgorithm algo, const MeshVertex& a, const MeshVertex& b,
                    const MeshVertex& c, const SpotProfile& profile,
                    BlendMode mode = BlendMode::kAdditive, float weight = 1.0f,
                    int w = 64, int h = 48, float clear = 0.0f) {
  TriRun run{Framebuffer(w, h), {}};
  run.fb.clear(clear);
  const RasterTarget target{run.fb.pixels(), 0, 0, algo};
  dcsn::render::rasterize_triangle(target, a, b, c, weight, profile, mode, run.stats);
  return run;
}

// Max |difference| over all pixels; framebuffers must be same-sized.
float max_abs_diff(const Framebuffer& lhs, const Framebuffer& rhs) {
  return lhs.max_abs_diff(rhs);
}

// Runs one triangle through both algorithms and asserts the equivalence
// contract: identical coverage (exact framebuffer match with constant UVs),
// identical fragment/triangle counts, span never visits more than reference.
// `value_tolerance` covers the fragment-value comparison: the span kernel
// evaluates UV with a per-triangle affine double form while the reference
// recomputes float barycentrics per pixel, so on degenerate (needle)
// geometry the difference is dominated by the *reference's* float
// cancellation noise — a few 1e-5 — not by span-kernel error.
void expect_equivalent(const MeshVertex& a, const MeshVertex& b, const MeshVertex& c,
                       const char* label, float value_tolerance = 2e-5f) {
  // Coverage: constant UV so every fragment blends the exact quantum.
  MeshVertex ca = a, cb = b, cc = c;
  ca.u = cb.u = cc.u = 0.5f;
  ca.v = cb.v = cc.v = 0.5f;
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, ca, cb, cc,
                                  coverage_profile());
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, ca, cb, cc,
                                   coverage_profile());
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments) << label;
  EXPECT_EQ(ref.stats.triangles, span.stats.triangles) << label;
  EXPECT_LE(span.stats.pixels_visited, ref.stats.pixels_visited) << label;
  EXPECT_TRUE(ref.fb == span.fb) << label << ": coverage masks differ";

  // Values: the original (possibly interpolating) UVs under both blends.
  static const SpotProfile smooth(SpotShape::kCosine, 64);
  for (const BlendMode mode : {BlendMode::kAdditive, BlendMode::kMaximum}) {
    const TriRun vref = run_triangle(RasterAlgorithm::kReference, a, b, c, smooth,
                                     mode, 0.8f, 64, 48, -0.01f);
    const TriRun vspan = run_triangle(RasterAlgorithm::kSpan, a, b, c, smooth, mode,
                                      0.8f, 64, 48, -0.01f);
    EXPECT_EQ(vref.stats.fragments, vspan.stats.fragments) << label;
    EXPECT_LE(max_abs_diff(vref.fb, vspan.fb), value_tolerance) << label;
  }
}

TEST(SpanEquivalenceFuzz, RandomTriangles) {
  dcsn::util::Rng rng(2024);
  for (int iter = 0; iter < 300; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const MeshVertex a = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    const MeshVertex b = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    const MeshVertex c = vtx(coord(-20, 84), coord(-20, 68),
                             rng.uniform_f(), rng.uniform_f());
    expect_equivalent(a, b, c, "random triangle");
  }
}

TEST(SpanEquivalenceFuzz, NeedleTriangles) {
  dcsn::util::Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    // One long axis, sub-pixel thickness: the worst case for bbox walks and
    // for span boundary rounding.
    const float x0 = static_cast<float>(rng.uniform(-10, 74));
    const float y0 = static_cast<float>(rng.uniform(-10, 58));
    const float dx = static_cast<float>(rng.uniform(-60, 60));
    const float dy = static_cast<float>(rng.uniform(-60, 60));
    const float thick = static_cast<float>(rng.uniform(1e-4, 0.3));
    const MeshVertex a = vtx(x0, y0, 0.0f, 0.0f);
    const MeshVertex b = vtx(x0 + dx, y0 + dy, 1.0f, 0.0f);
    const MeshVertex c = vtx(x0 - dy * thick, y0 + dx * thick, 0.5f, 1.0f);
    expect_equivalent(a, b, c, "needle", 2e-4f);
  }
}

TEST(SpanEquivalenceFuzz, DegenerateAndHostileGeometry) {
  // Zero-area: collinear and repeated vertices — both algorithms must draw
  // nothing (and not crash).
  expect_equivalent(vtx(3, 3), vtx(3, 3), vtx(9, 7), "repeated vertex");
  expect_equivalent(vtx(1, 1), vtx(5, 5), vtx(9, 9), "collinear");

  // Fully and partially off-screen.
  expect_equivalent(vtx(-30, -30), vtx(-10, -30), vtx(-20, -5), "fully off");
  expect_equivalent(vtx(-15, 10), vtx(30, -12), vtx(20, 40), "partially off");

  // Far-off-screen vertices: the bbox clamp must keep the int casts defined
  // and both algorithms agreeing.
  expect_equivalent(vtx(-1e12f, -1e12f), vtx(1e12f, 0), vtx(10, 1e12f), "1e12");
  expect_equivalent(vtx(32, -1e12f), vtx(1e12f, 24), vtx(-1e12f, 24), "1e12 mixed");

  // Non-finite coordinates: rejected identically (nothing drawn).
  const TriRun nan_ref = run_triangle(RasterAlgorithm::kReference, vtx(kNaN, 5),
                                      vtx(30, 5), vtx(15, 30), coverage_profile());
  const TriRun nan_span = run_triangle(RasterAlgorithm::kSpan, vtx(kNaN, 5),
                                       vtx(30, 5), vtx(15, 30), coverage_profile());
  EXPECT_EQ(nan_ref.stats.fragments, 0);
  EXPECT_EQ(nan_span.stats.fragments, 0);
  EXPECT_TRUE(nan_ref.fb == nan_span.fb);
  const TriRun inf_span = run_triangle(RasterAlgorithm::kSpan, vtx(kInf, 5),
                                       vtx(30, 5), vtx(15, 30), coverage_profile());
  EXPECT_EQ(inf_span.stats.fragments, 0);
}

TEST(SpanEquivalenceFuzz, OutOfRangeUVFuzz) {
  // UVs pushed beyond [0,1]: the span kernel's hoisted in-range sub-span
  // must agree with the reference's per-fragment bounds check to 1e-5.
  dcsn::util::Rng rng(4242);
  const SpotProfile profile(SpotShape::kGaussian, 64);
  for (int iter = 0; iter < 150; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const auto uv = [&] { return static_cast<float>(rng.uniform(-0.6, 1.6)); };
    const MeshVertex a = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const MeshVertex b = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const MeshVertex c = vtx(coord(0, 64), coord(0, 48), uv(), uv());
    const TriRun ref =
        run_triangle(RasterAlgorithm::kReference, a, b, c, profile);
    const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c, profile);
    EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
    EXPECT_LE(max_abs_diff(ref.fb, span.fb), 1e-5f);
  }
}

// Rasterizes a quad split into the two triangles the mesh rasterizer uses,
// with the constant-texel profile: watertightness means every pixel of the
// result carries exactly 0 or 1 quantum (no seam double-blend), and every
// pixel safely interior to the quad carries exactly 1 (no seam gap).
void expect_watertight_rect(RasterAlgorithm algo, float x0, float y0, float x1,
                            float y1, Framebuffer* out = nullptr) {
  Framebuffer fb(64, 48);
  RasterStats stats;
  const RasterTarget target{fb.pixels(), 0, 0, algo};
  const MeshVertex v00 = vtx(x0, y0);
  const MeshVertex v10 = vtx(x1, y0);
  const MeshVertex v11 = vtx(x1, y1);
  const MeshVertex v01 = vtx(x0, y1);
  dcsn::render::rasterize_triangle(target, v00, v10, v11, 1.0f, coverage_profile(),
                                   BlendMode::kAdditive, stats);
  dcsn::render::rasterize_triangle(target, v00, v11, v01, 1.0f, coverage_profile(),
                                   BlendMode::kAdditive, stats);
  const float q = coverage_quantum();
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      const float value = fb.at(x, y);
      ASSERT_TRUE(value == 0.0f || value == q)
          << "seam double-blend or partial at (" << x << "," << y << "): " << value;
      const float cx = static_cast<float>(x) + 0.5f;
      const float cy = static_cast<float>(y) + 0.5f;
      const bool interior = cx > x0 + 0.01f && cx < x1 - 0.01f &&
                            cy > y0 + 0.01f && cy < y1 - 0.01f;
      if (interior) {
        ASSERT_EQ(value, q) << "seam gap at (" << x << "," << y << ")";
      }
    }
  }
  if (out) *out = fb;
}

TEST(SpanWatertight, DiagonalSeamsOnRandomRects) {
  dcsn::util::Rng rng(909);
  for (int iter = 0; iter < 200; ++iter) {
    const float x0 = static_cast<float>(rng.uniform(-4.0, 40.0));
    const float y0 = static_cast<float>(rng.uniform(-4.0, 30.0));
    const float x1 = x0 + static_cast<float>(rng.uniform(0.3, 25.0));
    const float y1 = y0 + static_cast<float>(rng.uniform(0.3, 20.0));
    Framebuffer ref_fb, span_fb;
    expect_watertight_rect(RasterAlgorithm::kReference, x0, y0, x1, y1, &ref_fb);
    expect_watertight_rect(RasterAlgorithm::kSpan, x0, y0, x1, y1, &span_fb);
    ASSERT_TRUE(ref_fb == span_fb);
  }
}

TEST(SpanWatertight, SharedEdgeTrianglePairsNeverDoubleBlend) {
  // Two triangles traversing a random shared edge in opposite directions:
  // no pixel may receive two quanta, under either algorithm.
  dcsn::util::Rng rng(1337);
  const float q = coverage_quantum();
  for (int iter = 0; iter < 200; ++iter) {
    const auto coord = [&](float lo, float hi) {
      return static_cast<float>(rng.uniform(lo, hi));
    };
    const MeshVertex p = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex r = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex s = vtx(coord(0, 64), coord(0, 48));
    const MeshVertex t = vtx(coord(0, 64), coord(0, 48));
    // Keep only pairs where s and t lie on opposite sides of edge p-r, so
    // the triangles only meet along the seam.
    const auto side = [&](const MeshVertex& v) {
      return (r.x - p.x) * (v.y - p.y) - (r.y - p.y) * (v.x - p.x);
    };
    if (side(s) * side(t) >= 0.0f) continue;
    for (const RasterAlgorithm algo :
         {RasterAlgorithm::kReference, RasterAlgorithm::kSpan}) {
      Framebuffer fb(64, 48);
      RasterStats stats;
      const RasterTarget target{fb.pixels(), 0, 0, algo};
      dcsn::render::rasterize_triangle(target, p, r, s, 1.0f, coverage_profile(),
                                       BlendMode::kAdditive, stats);
      dcsn::render::rasterize_triangle(target, r, p, t, 1.0f, coverage_profile(),
                                       BlendMode::kAdditive, stats);
      for (int y = 0; y < fb.height(); ++y) {
        for (int x = 0; x < fb.width(); ++x) {
          const float value = fb.at(x, y);
          ASSERT_TRUE(value == 0.0f || value == q)
              << "double blend at (" << x << "," << y << "): " << value;
        }
      }
    }
  }
}

TEST(SpanVisitedAccounting, SpanSkipsRejectedPixels) {
  // A half-screen diagonal: the bbox walk visits the whole box, the span
  // kernel only the covered interval of each row.
  const MeshVertex a = vtx(1, 1, 0, 0);
  const MeshVertex b = vtx(60, 2, 1, 0);
  const MeshVertex c = vtx(2, 44, 0, 1);
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, a, b, c,
                                  coverage_profile());
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c,
                                   coverage_profile());
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
  EXPECT_GT(ref.stats.fragments, 0);
  // Reference visits the full bbox; span visits exactly its fragments.
  EXPECT_GT(ref.stats.pixels_visited, ref.stats.fragments);
  EXPECT_EQ(span.stats.pixels_visited, span.stats.fragments);
}

TEST(SpanEquivalence, BentRibbonMesh) {
  // A curved ribbon like the bent-spot generator emits: cols x rows vertices
  // swept along an arc, u along the spine, v across it.
  constexpr int cols = 24;
  constexpr int rows = 5;
  std::vector<MeshVertex> vertices;
  vertices.reserve(cols * rows);
  for (int j = 0; j < rows; ++j) {
    for (int i = 0; i < cols; ++i) {
      const float t = static_cast<float>(i) / (cols - 1);
      const float angle = 0.4f + 2.2f * t;
      const float radius = 18.0f + 2.5f * (static_cast<float>(j) / (rows - 1) - 0.5f) * 2.0f;
      vertices.push_back(vtx(32.0f + radius * std::cos(angle),
                             26.0f + radius * std::sin(angle), t,
                             static_cast<float>(j) / (rows - 1)));
    }
  }
  const SpotProfile profile(SpotShape::kCosine, 64);
  Framebuffer ref_fb(64, 48), span_fb(64, 48);
  RasterStats ref_stats, span_stats;
  dcsn::render::rasterize_mesh({ref_fb.pixels(), 0, 0, RasterAlgorithm::kReference},
                               vertices, cols, rows, 0.7f, profile,
                               BlendMode::kAdditive, ref_stats);
  dcsn::render::rasterize_mesh({span_fb.pixels(), 0, 0, RasterAlgorithm::kSpan},
                               vertices, cols, rows, 0.7f, profile,
                               BlendMode::kAdditive, span_stats);
  EXPECT_EQ(ref_stats.fragments, span_stats.fragments);
  EXPECT_EQ(ref_stats.quads, (cols - 1) * (rows - 1));
  EXPECT_GT(span_stats.fragments, 0);
  EXPECT_LT(span_stats.pixels_visited, ref_stats.pixels_visited);
  EXPECT_LE(max_abs_diff(ref_fb, span_fb), 1e-5f);
}

TEST(SpotProfileBounds, OutOfRangeUVSamplesZero) {
  // Regression for the span setup clamp: UVs at and slightly beyond 0/1 —
  // the float-rounding overshoot that occurs at triangle seams.
  const SpotProfile profile(SpotShape::kGaussian, 64);
  EXPECT_EQ(profile.sample(1.0f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, 1.0f), 0.0f);
  EXPECT_EQ(profile.sample(1.0f + 1e-6f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(-1e-7f, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, -1e-7f), 0.0f);
  EXPECT_EQ(profile.sample(kNaN, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(0.5f, kNaN), 0.0f);
  EXPECT_EQ(profile.sample(kInf, 0.5f), 0.0f);
  EXPECT_EQ(profile.sample(-kInf, 0.5f), 0.0f);
  // At and just inside the valid boundary: finite, no fault.
  EXPECT_GE(profile.sample(0.0f, 0.0f), 0.0f);
  const float just_inside = std::nextafter(1.0f, 0.0f);
  EXPECT_TRUE(std::isfinite(profile.sample(just_inside, just_inside)));
  EXPECT_GT(profile.sample(0.5f, 0.5f), 0.0f);
}

TEST(SpanEquivalence, HighResolutionProfileSteepGradient) {
  // Regression: the RowSampler's gradient cap must scale with the profile
  // resolution. With a 256-texel profile a legitimate UV gradient of
  // ~0.26/pixel exceeds 64 texels/step; a fixed cap silently zeroed the
  // step and every fragment after the first re-sampled the span start.
  const SpotProfile profile(SpotShape::kCosine, 256);
  const MeshVertex a = vtx(4, 4, 0.02f, 0.1f);
  const MeshVertex b = vtx(7.5f, 5, 0.95f, 0.2f);  // ~0.26 du/dx
  const MeshVertex c = vtx(5, 40, 0.1f, 0.9f);
  const TriRun ref = run_triangle(RasterAlgorithm::kReference, a, b, c, profile);
  const TriRun span = run_triangle(RasterAlgorithm::kSpan, a, b, c, profile);
  EXPECT_EQ(ref.stats.fragments, span.stats.fragments);
  EXPECT_GT(span.stats.fragments, 0);
  EXPECT_LE(max_abs_diff(ref.fb, span.fb), 2e-5f);
}

TEST(SpotProfileBounds, RowSamplerMatchesPointSampler) {
  const SpotProfile profile(SpotShape::kCosine, 64);
  const double u0 = 0.037, v0 = 0.91, du = 0.0123, dv = -0.0117;
  SpotProfile::RowSampler sampler(profile, du, dv);
  sampler.start_row(u0, v0);
  for (int k = 0; k < 70; ++k) {
    const double u = u0 + k * du;
    const double v = v0 + k * dv;
    if (!(u >= 0.0 && u < 1.0 && v >= 0.0 && v < 1.0)) continue;
    EXPECT_NEAR(sampler.sample_at(k),
                profile.sample(static_cast<float>(u), static_cast<float>(v)), 2e-6f)
        << "k=" << k;
  }
}

TEST(SpanEquivalence, TileClippedSpansMatchFullTargetBitwise) {
  // Target independence at the fragment-value level: a triangle straddling
  // a tile's left edge renders the tile's pixels with EXACTLY the bits the
  // full-texture target produces there. This pins the geometric span solve
  // + absolute-k UV rebase — a sampler rebased on the *clipped* span start
  // would differ in the last bits and occasionally flip a contribution
  // across a lattice tie.
  const SpotProfile profile(SpotShape::kCosine, 64);
  dcsn::util::Rng rng(2468);
  for (const auto algo : {RasterAlgorithm::kSpan, RasterAlgorithm::kReference}) {
    for (int i = 0; i < 300; ++i) {
      // Random triangles biased to straddle the x = 32 boundary.
      auto coord = [&](double lo, double hi) {
        return static_cast<float>(rng.uniform(lo, hi));
      };
      const MeshVertex a{coord(8, 40), coord(0, 64), coord(0, 1), coord(0, 1)};
      const MeshVertex b{coord(24, 56), coord(0, 64), coord(0, 1), coord(0, 1)};
      const MeshVertex c{coord(8, 56), coord(0, 64), coord(0, 1), coord(0, 1)};
      const auto weight = static_cast<float>(rng.uniform(-1.0, 1.0));

      Framebuffer full(64, 64);
      RasterStats full_stats;
      dcsn::render::rasterize_triangle({full.pixels(), 0, 0, algo}, a, b, c,
                                       weight, profile, BlendMode::kAdditive,
                                       full_stats);
      Framebuffer tile(32, 64);
      RasterStats tile_stats;
      dcsn::render::rasterize_triangle({tile.pixels(), 32, 0, algo}, a, b, c,
                                       weight, profile, BlendMode::kAdditive,
                                       tile_stats);
      for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 32; ++x) {
          ASSERT_EQ(full.at(x + 32, y), tile.at(x, y))
              << "algo " << static_cast<int>(algo) << " triangle " << i
              << " pixel (" << x << ", " << y << ")";
        }
      }
    }
  }
}

// ------------------------------------------------- one batch per call ---

// A ribbon folded back and forth on itself, about one pixel row tall, so
// its triangles emit short spans that overlap triangles queued earlier in
// the same span batch. rasterize_mesh queues every triangle into one batch;
// rasterize_triangle flushes after each. Both must give the same bits, per
// tier and blend mode, and every tier the same bits as scalar.
TEST(SpanBatch, FoldedRibbonMatchesPerTriangleFlushOnEveryTier) {
  namespace simd = dcsn::util::simd;
  const simd::Tier saved = simd::active_tier();
  const SpotProfile profile(SpotShape::kCosine, 64);
  dcsn::util::Rng rng(0xf01d);
  for (int ribbon = 0; ribbon < 20; ++ribbon) {
    constexpr int cols = 80;
    constexpr int rows = 2;
    std::vector<MeshVertex> vertices(cols * rows);
    float x = static_cast<float>(rng.uniform(20.0, 40.0));
    const auto y0 = static_cast<float>(rng.uniform(4.0, 40.0));
    const auto height = static_cast<float>(rng.uniform(0.4, 1.8));
    for (int i = 0; i < cols; ++i) {
      x = std::clamp(x + static_cast<float>(rng.uniform(-3.5, 3.5)), 2.0f, 60.0f);
      const float t = static_cast<float>(i) / (cols - 1);
      const auto jitter = static_cast<float>(rng.uniform(-0.3, 0.3));
      vertices[static_cast<std::size_t>(i)] = vtx(x, y0 + jitter, t, 0.0f);
      vertices[static_cast<std::size_t>(cols + i)] =
          vtx(x + static_cast<float>(rng.uniform(-0.5, 0.5)), y0 + jitter + height, t, 1.0f);
    }
    const auto weight = static_cast<float>(rng.uniform(-0.9, 0.9));
    for (const BlendMode mode : {BlendMode::kAdditive, BlendMode::kMaximum}) {
      std::uint64_t scalar_hash = 0;
      for (const simd::Tier tier : simd::available_tiers()) {
        simd::set_active_tier(tier);
        Framebuffer batched(64, 48);
        Framebuffer flushed(64, 48);
        RasterStats batched_stats;
        RasterStats flushed_stats;
        dcsn::render::rasterize_mesh({batched.pixels(), 0, 0, RasterAlgorithm::kSpan},
                                     vertices, cols, rows, weight, profile, mode,
                                     batched_stats);
        const RasterTarget target{flushed.pixels(), 0, 0, RasterAlgorithm::kSpan};
        for (int i = 0; i + 1 < cols; ++i) {
          const MeshVertex& v00 = vertices[static_cast<std::size_t>(i)];
          const MeshVertex& v10 = vertices[static_cast<std::size_t>(i + 1)];
          const MeshVertex& v11 = vertices[static_cast<std::size_t>(cols + i + 1)];
          const MeshVertex& v01 = vertices[static_cast<std::size_t>(cols + i)];
          dcsn::render::rasterize_triangle(target, v00, v10, v11, weight, profile, mode,
                                           flushed_stats);
          dcsn::render::rasterize_triangle(target, v00, v11, v01, weight, profile, mode,
                                           flushed_stats);
        }
        ASSERT_GT(batched_stats.fragments, 0);
        EXPECT_EQ(batched_stats.fragments, flushed_stats.fragments);
        EXPECT_EQ(batched.content_hash(), flushed.content_hash())
            << "ribbon " << ribbon << " tier " << simd::tier_name(tier);
        if (tier == simd::Tier::kScalar) scalar_hash = batched.content_hash();
        EXPECT_EQ(batched.content_hash(), scalar_hash)
            << "ribbon " << ribbon << " tier " << simd::tier_name(tier);
      }
    }
  }
  simd::set_active_tier(saved);
}

// ------------------------------------------------ small-triangle solver ---

using dcsn::render::detail::RowSolver;
using dcsn::render::detail::SolvedRow;

struct RowTally {
  int triangles = 0;
  int small_served = 0;
};

// Runs one triangle through both row solvers on a (possibly clipped) target
// and checks, row by row: the production walk reports exactly the wide
// solver's geometric interval on every row it walks, and every bbox row it
// skips is empty under the wide solver; and the wide interval, clipped to
// the target, is exactly the reference walk's coverage.
void expect_row_solvers_agree(const MeshVertex& a, const MeshVertex& b,
                              const MeshVertex& c, int ox, int oy, int w, int h,
                              RowTally& tally) {
  MeshVertex ca = a, cb = b, cc = c;
  ca.u = cb.u = cc.u = 0.5f;
  ca.v = cb.v = cc.v = 0.5f;
  Framebuffer fb(w, h);
  const RasterTarget target{fb.pixels(), ox, oy, RasterAlgorithm::kReference};
  std::vector<SolvedRow> wide, walked;
  bool small = false;
  const bool wide_ok =
      dcsn::render::detail::solve_span_rows(target, ca, cb, cc, RowSolver::kWide, wide);
  const bool auto_ok = dcsn::render::detail::solve_span_rows(target, ca, cb, cc,
                                                             RowSolver::kAuto, walked, &small);
  RasterStats stats;
  dcsn::render::rasterize_triangle(target, ca, cb, cc, 1.0f, coverage_profile(),
                                   BlendMode::kAdditive, stats);
  ++tally.triangles;
  ASSERT_EQ(wide_ok, auto_ok);
  if (!wide_ok) {
    EXPECT_EQ(stats.fragments, 0);
    return;
  }
  if (small) ++tally.small_served;

  const auto find = [](const std::vector<SolvedRow>& rows, int y) -> const SolvedRow* {
    for (const SolvedRow& r : rows) {
      if (r.y == y) return &r;
    }
    return nullptr;
  };
  const auto same = [](const SolvedRow& p, const SolvedRow& q) {
    const bool p_empty = p.x_begin >= p.x_end;
    const bool q_empty = q.x_begin >= q.x_end;
    if (p_empty || q_empty) return p_empty == q_empty;
    return p.x_begin == q.x_begin && p.x_end == q.x_end;
  };
  for (const SolvedRow& r : walked) {
    const SolvedRow* ref = find(wide, r.y);
    ASSERT_NE(ref, nullptr) << "row " << r.y << " walked outside the bbox";
    EXPECT_TRUE(same(*ref, r)) << "row " << r.y << ": wide [" << ref->x_begin << ", "
                               << ref->x_end << ") vs [" << r.x_begin << ", " << r.x_end
                               << ")";
  }
  for (const SolvedRow& r : wide) {
    if (find(walked, r.y) == nullptr) {
      EXPECT_GE(r.x_begin, r.x_end) << "skipped row " << r.y << " is covered";
    }
  }

  const float q = coverage_quantum();
  for (int y = oy; y < oy + h; ++y) {
    const SolvedRow* r = find(wide, y);
    const int lo = r ? std::max(r->x_begin, ox) : 0;
    const int hi = r ? std::min(r->x_end, ox + w) : 0;
    for (int x = ox; x < ox + w; ++x) {
      const float expected = (x >= lo && x < hi) ? q : 0.0f;
      ASSERT_EQ(fb.at(x - ox, y - oy), expected) << "pixel (" << x << ", " << y << ")";
    }
  }
}

TEST(SmallTriangleSolver, FuzzMatchesWideSolverAndReference) {
  dcsn::util::Rng rng(0x5a11);
  RowTally tally;
  for (int iter = 0; iter < 3000; ++iter) {
    // Vertices on a quarter-pixel grid half the time: edges through pixel
    // centres, vertices on them — the top-left tie cases.
    const bool snap = iter % 2 == 0;
    const auto coord = [&](double centre, double reach) {
      const double v = centre + rng.uniform(-reach, reach);
      return static_cast<float>(snap ? std::round(v * 4.0) / 4.0 : v);
    };
    const double cx = rng.uniform(-8.0, 72.0);
    const double cy = rng.uniform(-8.0, 56.0);
    const double reach = rng.uniform(0.2, 6.0);
    const MeshVertex a = vtx(coord(cx, reach), coord(cy, reach));
    const MeshVertex b = vtx(coord(cx, reach), coord(cy, reach));
    const MeshVertex c = vtx(coord(cx, reach), coord(cy, reach));
    // The full 64x48 texture, or a clipped tile of it.
    if (iter % 3 == 0) {
      expect_row_solvers_agree(a, b, c, 0, 0, 64, 48, tally);
    } else {
      const int ox = static_cast<int>(rng.uniform(0.0, 40.0));
      const int oy = static_cast<int>(rng.uniform(0.0, 30.0));
      expect_row_solvers_agree(a, b, c, ox, oy, 1 + static_cast<int>(rng.uniform(0.0, 23.0)),
                               1 + static_cast<int>(rng.uniform(0.0, 17.0)), tally);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The fuzz must actually exercise the small-triangle solver.
  EXPECT_GT(tally.small_served, tally.triangles / 5);
}

TEST(SmallTriangleSolver, HostileInputMatchesWideSolverAndReference) {
  RowTally tally;
  // Off-target, non-finite and far off-screen vertices.
  expect_row_solvers_agree(vtx(-30, -30), vtx(-26, -30), vtx(-28, -25), 0, 0, 64, 48, tally);
  expect_row_solvers_agree(vtx(kNaN, 5), vtx(8, 5), vtx(5, 9), 0, 0, 64, 48, tally);
  expect_row_solvers_agree(vtx(5, 5), vtx(8, kInf), vtx(5, 9), 0, 0, 64, 48, tally);
  expect_row_solvers_agree(vtx(-1e12f, 10), vtx(12, 10), vtx(12, 14), 0, 0, 64, 48, tally);
  expect_row_solvers_agree(vtx(3, -1e12f), vtx(5, 20), vtx(1, 20), 0, 0, 64, 48, tally);
  expect_row_solvers_agree(vtx(1e12f, 1e12f), vtx(-1e12f, 1e12f), vtx(10, -1e12f), 0, 0,
                           64, 48, tally);
  // Exact ties: edges through pixel centres and vertices on them, for
  // triangles inside one 8-column window, on and off the target's edges.
  for (float off = -1.0f; off <= 1.0f; off += 0.25f) {
    expect_row_solvers_agree(vtx(2.5f + off, 2.5f), vtx(6.5f + off, 2.5f),
                             vtx(2.5f + off, 6.5f), 0, 0, 64, 48, tally);
    expect_row_solvers_agree(vtx(6.5f, 2.5f + off), vtx(6.5f, 6.5f + off),
                             vtx(2.5f, 4.5f + off), 0, 0, 64, 48, tally);
    expect_row_solvers_agree(vtx(0.5f + off, 0.5f), vtx(4.5f + off, 0.5f),
                             vtx(0.5f, 4.5f + off), 2, 1, 8, 8, tally);
  }
  // Sub-pixel slivers and single-row triangles.
  expect_row_solvers_agree(vtx(3.1f, 3.2f), vtx(3.4f, 3.3f), vtx(3.2f, 3.45f), 0, 0, 64,
                           48, tally);
  expect_row_solvers_agree(vtx(1.0f, 7.45f), vtx(9.0f, 7.45f), vtx(5.0f, 7.55f), 0, 0, 64,
                           48, tally);
  EXPECT_GT(tally.small_served, 0);
}

// Whether the wide solver covers a pixel whose centre lies strictly outside
// the triangle's float extent in x or y: a centre admitted only through
// edge-function rounding, which the coverage window's slack must keep.
bool covers_centre_outside_extent(const MeshVertex& a, const MeshVertex& b,
                                  const MeshVertex& c) {
  Framebuffer fb(64, 48);
  const RasterTarget target{fb.pixels(), 0, 0};
  std::vector<SolvedRow> rows;
  if (!dcsn::render::detail::solve_span_rows(target, a, b, c, RowSolver::kWide, rows)) {
    return false;
  }
  const float min_x = std::min({a.x, b.x, c.x});
  const float max_x = std::max({a.x, b.x, c.x});
  const float min_y = std::min({a.y, b.y, c.y});
  const float max_y = std::max({a.y, b.y, c.y});
  for (const SolvedRow& r : rows) {
    if (r.x_begin >= r.x_end) continue;
    const float y = static_cast<float>(r.y) + 0.5f;
    const float first = static_cast<float>(r.x_begin) + 0.5f;
    const float last = static_cast<float>(r.x_end) - 0.5f;
    if (y < min_y || y > max_y || first < min_x || last > max_x) return true;
  }
  return false;
}

TEST(SmallTriangleSolver, CoverageWindowKeepsRoundingAdmittedCentres) {
  // Needles whose tip lies a few ulps past a pixel centre in both x and y:
  // the float edge functions admit that centre although it lies outside
  // the extent, so a window trimmed without its slack would drop the pixel
  // (in its row or its column). Three are small enough for the
  // small-triangle solver, two take the wide one.
  const MeshVertex cases[][3] = {
      {vtx(10.4999971f, 20.5000019f), vtx(4.62268734f, 24.1896839f),
       vtx(4.6446991f, 24.2245159f)},
      {vtx(10.4999981f, 9.49999619f), vtx(7.7153182f, 3.91726804f),
       vtx(7.7109499f, 3.91944885f)},
      {vtx(13.5000029f, 41.4999962f), vtx(16.774147f, 36.967926f),
       vtx(16.7723522f, 36.966629f)},
      {vtx(24.4999962f, 31.5000019f), vtx(11.1298714f, 38.1918716f),
       vtx(11.1403074f, 38.2126808f)},
      {vtx(9.50000381f, 13.4999981f), vtx(17.7921486f, 8.07796478f),
       vtx(17.7902775f, 8.07510376f)},
  };
  RowTally tally;
  for (const auto& t : cases) {
    EXPECT_TRUE(covers_centre_outside_extent(t[0], t[1], t[2]))
        << "tip (" << t[0].x << ", " << t[0].y << ") no longer reaches the slack";
    expect_row_solvers_agree(t[0], t[1], t[2], 0, 0, 64, 48, tally);
    expect_row_solvers_agree(t[0], t[1], t[2], 8, 6, 8, 8, tally);  // clipped
  }
  EXPECT_GT(tally.small_served, 0);
  EXPECT_LT(tally.small_served, tally.triangles);

  // Tips exactly on a pixel centre and one ulp to either side in x and y,
  // for needles and wide wedges pointing in eight directions.
  for (int dir = 0; dir < 8; ++dir) {
    const double angle = dir * std::numbers::pi / 4.0 + 0.3;
    for (const double spread : {1e-3, 0.5}) {
      for (int ux = -1; ux <= 1; ++ux) {
        for (int uy = -1; uy <= 1; ++uy) {
          const float tx = std::nextafter(20.5f, ux < 0 ? 0.0f : ux > 0 ? 64.0f : 20.5f);
          const float ty = std::nextafter(20.5f, uy < 0 ? 0.0f : uy > 0 ? 48.0f : 20.5f);
          const double ex = 6.0 * std::cos(angle);
          const double ey = 6.0 * std::sin(angle);
          const double px = -spread * std::sin(angle);
          const double py = spread * std::cos(angle);
          expect_row_solvers_agree(
              vtx(tx, ty), vtx(static_cast<float>(tx + ex + px), static_cast<float>(ty + ey + py)),
              vtx(static_cast<float>(tx + ex - px), static_cast<float>(ty + ey - py)), 0, 0, 64,
              48, tally);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(SmallTriangleSolver, SliversNearAnchorLimitMatchWideSolverAndReference) {
  // Long thin slivers whose extent starts just below, at, and just above the
  // 2^22 anchor limit (and its negative), along x and along y: the window
  // applies below the limit and falls back to the bbox at and past it.
  RowTally tally;
  constexpr float kLimit = 4194304.0f;  // 2^22
  for (const float sign : {1.0f, -1.0f}) {
    const float limit = sign * kLimit;
    const int origin = static_cast<int>(limit) - 16;
    for (const float start : {-12.0f, -8.25f, -0.5f, -0.25f, 0.0f, 0.5f, 1.0f}) {
      const float lo = limit + start;
      for (const float thickness : {0.25f, 0.5f, 1.5f}) {
        // Along x: a 12-pixel sliver crossing a few rows.
        SCOPED_TRACE(::testing::Message() << "lo " << lo << " thickness " << thickness);
        expect_row_solvers_agree(vtx(lo, 3.5f), vtx(lo + 12.0f, 3.5f + thickness),
                                 vtx(lo + 6.0f, 3.5f + 2.0f * thickness), origin, 0, 40, 12,
                                 tally);
        // Along y, and a short one that fits the small-triangle solver.
        expect_row_solvers_agree(vtx(5.25f, lo), vtx(5.25f + thickness, lo + 12.0f),
                                 vtx(5.25f + 2.0f * thickness, lo + 5.0f), 0, origin, 12, 40,
                                 tally);
        expect_row_solvers_agree(vtx(lo, lo), vtx(lo + 6.0f, lo + thickness),
                                 vtx(lo + 0.5f, lo + 3.0f * thickness), origin, origin, 40, 40,
                                 tally);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.small_served, 0);
  EXPECT_LT(tally.small_served, tally.triangles);
}

TEST(SpanIntegration, SynthesizerAlgorithmEquivalence) {
  // Whole-engine check: the DnC synthesizer produces the same texture (to
  // row-sampler tolerance) whichever algorithm the pipes rasterize with.
  const auto field = dcsn::field::analytic::rankine_vortex(
      {0.5, 0.5}, 1.0, 0.3, dcsn::field::Rect{0.0, 0.0, 1.0, 1.0});
  dcsn::core::SynthesisConfig synthesis;
  synthesis.texture_width = 96;
  synthesis.texture_height = 96;
  synthesis.spot_count = 150;
  synthesis.kind = dcsn::core::SpotKind::kBent;
  synthesis.bent.mesh_cols = 12;
  synthesis.bent.mesh_rows = 4;
  synthesis.bent.length_px = 20.0;
  synthesis.spot_radius_px = 4.0;
  dcsn::util::Rng rng(7);
  const auto spots =
      dcsn::core::make_random_spots(field->domain(), synthesis.spot_count, rng);

  Framebuffer textures[2];
  const RasterAlgorithm algos[2] = {RasterAlgorithm::kReference,
                                    RasterAlgorithm::kSpan};
  for (int k = 0; k < 2; ++k) {
    dcsn::core::DncConfig dnc;
    dnc.processors = 2;
    dnc.pipes = 1;
    dnc.raster_algorithm = algos[k];
    dcsn::core::DncSynthesizer engine(synthesis, dnc);
    (void)engine.synthesize(*field, spots);
    textures[k] = engine.texture();
  }
  EXPECT_LE(max_abs_diff(textures[0], textures[1]), 1e-4f);
}

}  // namespace
