// Ablation gate for the span-based scanline rasterizer (ISSUE 3).
//
// Workload: bent-spot ribbons traced through a swirl — the thin, curved,
// high-aspect meshes central to the paper — pre-transformed into one big
// CommandBuffer so the measurement isolates the fragment hot path. The
// bench:
//
//   1. proves equivalence: identical pixel coverage (exact framebuffer
//      match on a constant-texel clone of the geometry) and per-pixel
//      values within 1e-5 under both blend modes;
//   2. measures fragment throughput of kSpan vs kReference over repeated
//      rasterization (thread-CPU clock), in interleaved reference/span
//      pairs; the gate reads the median pair ratio;
//   3. ablates the runtime SIMD dispatch tiers (ISSUE 10): the workload's
//      own blend spans are captured and replayed through each tier's fused
//      sample_row kernel, isolating the kernel from triangle setup (which
//      Amdahl-limits any end-to-end tier ratio), in interleaved rounds whose
//      median avx2/scalar ratio is gated;
//   4. runs the served engine once per algorithm and reports the
//      eq. 3.2 modeled frame seconds;
//   5. repeats the equivalence and interleaved throughput pairs on the
//      served bent_full frame's own meshes (~13 fragments per triangle),
//      reporting ns/triangle, fragments/triangle and the share of walked
//      rows that render nothing;
//   6. gates: span must reach >= 2.0x reference throughput (1.5x with
//      --smoke, whose workload is too small to amortize setup) and >= 1.25x
//      on the small-triangle frame (1.1x with --smoke), AND — when the host
//      has AVX2 — the avx2 tier must reach >= 1.5x the scalar (portable
//      reference) tier's span-kernel fragment throughput (1.2x with
//      --smoke), else the process exits nonzero.
//
// usage: bench_raster_kernel [--smoke] [--json <path>]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

struct RibbonWorkload {
  bench::Workload workload;        // for the eq. 3.2 engine runs
  render::CommandBuffer geometry;  // pre-transformed meshes (kernel timing)
  render::CommandBuffer coverage;  // same meshes, constant UV, unit weight
  std::shared_ptr<const render::SpotProfile> profile;
};

RibbonWorkload make_ribbon_workload(bool smoke) {
  RibbonWorkload r;
  bench::Workload& w = r.workload;
  w.name = smoke ? "bent ribbons (smoke)" : "bent ribbons";

  // Solid rotation under a smooth envelope, exactly zero outside the core
  // (same construction as the balance workload) — but every spot is seeded
  // *inside* the core, so each one traces a full-length curved ribbon.
  const field::Vec2 center{0.5, 0.5};
  const double core_radius = 0.34;
  const field::Rect domain{0, 0, 1, 1};
  auto swirl = [center, core_radius](field::Vec2 p) -> field::Vec2 {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    const double r2 = (dx * dx + dy * dy) / (core_radius * core_radius);
    if (r2 >= 1.0) return {0.0, 0.0};
    const double envelope = (1.0 - r2) * (1.0 - r2);
    return {-dy * envelope, dx * envelope};
  };
  const double max_mag = core_radius * 0.2863;  // max of r * (1-(r/R)^2)^2
  w.field = std::make_unique<field::CallableField>(swirl, domain, max_mag);

  // Spot scale sits at the data-browser zoom level (the window feature:
  // a domain sub-rectangle re-synthesized at full texture resolution), where
  // ribbons span tens of pixels and the frame is genT-bound — exactly the
  // regime where rasterizer throughput decides the frame rate. At overview
  // zoom the paper's meshes tessellate below one pixel per quad and
  // per-triangle setup dominates both algorithms equally.
  w.synthesis.texture_width = smoke ? 256 : 512;
  w.synthesis.texture_height = smoke ? 256 : 512;
  w.synthesis.spot_count = smoke ? 250 : 700;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = smoke ? 8 : 10;
  w.synthesis.bent.mesh_rows = 3;
  w.synthesis.bent.length_px = smoke ? 64.0 : 120.0;
  w.synthesis.bent.trace_substeps = 8;
  w.synthesis.spot_radius_px = smoke ? 12.0 : 19.0;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(20260730);
  const double half_box = core_radius * 0.6;
  w.spots.reserve(static_cast<std::size_t>(w.synthesis.spot_count));
  for (std::int64_t k = 0; k < w.synthesis.spot_count; ++k) {
    core::SpotInstance spot;
    spot.position = {rng.uniform(center.x - half_box, center.x + half_box),
                     rng.uniform(center.y - half_box, center.y + half_box)};
    spot.intensity = rng.intensity();
    w.spots.push_back(spot);
  }

  // Pre-transform every spot once; the kernel timing then excludes genP.
  const core::SpotGeometryGenerator generator(w.synthesis, *w.field);
  r.geometry.reserve(w.spots.size(),
                     static_cast<std::size_t>(w.synthesis.vertices_per_spot()));
  for (const core::SpotInstance& spot : w.spots) {
    generator.generate(spot, r.geometry);
  }

  // Constant-UV unit-weight clone: every covered pixel blends the exact
  // same float quantum, so coverage differences cannot cancel or hide.
  r.coverage.reserve(r.geometry.mesh_count(), 4);
  for (const render::MeshHeader& h : r.geometry.meshes()) {
    auto out = r.coverage.add_mesh(1.0f, h.cols, h.rows);
    const auto in = r.geometry.vertices_of(h);
    for (std::size_t k = 0; k < in.size(); ++k) {
      out[k] = in[k];
      out[k].u = 0.5f;
      out[k].v = 0.5f;
    }
  }

  r.profile = render::SpotProfile::make_shared(w.synthesis.profile_shape,
                                               w.synthesis.profile_resolution);
  return r;
}

render::RasterStats rasterize_once(const render::SpotProfile& profile,
                                   render::Framebuffer& fb,
                                   render::RasterAlgorithm algo,
                                   render::BlendMode mode,
                                   const render::CommandBuffer& buffer) {
  render::RasterStats stats;
  fb.clear();
  render::rasterize_buffer({fb.pixels(), 0, 0, algo}, buffer, profile, mode, stats);
  return stats;
}


struct KernelRate {
  double seconds = 0.0;
  double seconds_per_pass = 0.0;
  double frags_per_second = 0.0;
  render::RasterStats stats;
};

// ---------------------------------------------------------------------------
// Kernel-tier ablation: the workload's own spans through each dispatch tier
// ---------------------------------------------------------------------------

// The captured spans re-armed for replay, SoA like the rasterizer's batch
// buffers. `offsets` preserve each span's real framebuffer address so the
// replay touches memory in the rasterizer's own pattern; `groups` splits
// the spans into the production flush unit (128-span batches).
struct SpanWorkload {
  std::vector<util::simd::SampleSpan> spans;
  std::vector<std::uint32_t> lens;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> groups;
  std::int64_t fragments = 0;
  double mean_length = 0.0;
};

// Recovers the workload's real covered-run distribution: each triangle of
// the constant-UV coverage clone is rasterized alone into a scratch target
// and its bounding-box rows scanned for nonzero runs — exactly the
// contiguous intervals raster_tri_span hands to sample_row_add/max. Each
// run is then rebuilt as a SampleSpan over the actual profile table with an
// in-range UV walk at the workload's texels-per-pixel scale (the profile
// spans the spot diameter), so the replay performs the same gathers, lerps
// and lattice snaps as a production span of that length and address.
SpanWorkload capture_spans(const render::CommandBuffer& coverage,
                           const render::SpotProfile& profile, double spot_radius_px,
                           render::Framebuffer& fb) {
  SpanWorkload out;
  fb.clear();
  const render::RasterTarget target{fb.pixels(), 0, 0,
                                    render::RasterAlgorithm::kSpan};
  const int width = fb.width();
  const int height = fb.height();
  render::RasterStats stats;

  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  std::vector<Run> runs;
  auto capture_triangle = [&](const render::MeshVertex& a,
                              const render::MeshVertex& b,
                              const render::MeshVertex& c) {
    render::rasterize_triangle(target, a, b, c, 1.0f, profile,
                               render::BlendMode::kAdditive, stats);
    // Scan only the triangle's bbox rows, zeroing the runs found so the
    // scratch target is clean for the next triangle.
    const int y0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))) - 1);
    const int y1 = std::min(
        height - 1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))) + 1);
    const int x0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))) - 1);
    const int x1 = std::min(
        width - 1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))) + 1);
    for (int y = y0; y <= y1; ++y) {
      const auto row = fb.pixels().row(y);
      int x = x0;
      while (x <= x1) {
        if (row[static_cast<std::size_t>(x)] == 0.0f) {
          ++x;
          continue;
        }
        const int start = x;
        while (x <= x1 && row[static_cast<std::size_t>(x)] != 0.0f) {
          row[static_cast<std::size_t>(x)] = 0.0f;
          ++x;
        }
        runs.push_back({static_cast<std::uint32_t>(y * width + start),
                        static_cast<std::uint32_t>(x - start)});
      }
    }
  };
  for (const render::MeshHeader& h : coverage.meshes()) {
    const auto verts = coverage.vertices_of(h);
    auto vertex = [&](int i, int j) -> const render::MeshVertex& {
      return verts[static_cast<std::size_t>(j) * h.cols +
                   static_cast<std::size_t>(i)];
    };
    // The rasterizer's own quad -> two-triangles traversal.
    for (int j = 0; j + 1 < h.rows; ++j) {
      for (int i = 0; i + 1 < h.cols; ++i) {
        capture_triangle(vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1));
        capture_triangle(vertex(i, j), vertex(i + 1, j + 1), vertex(i, j + 1));
      }
    }
  }

  // Replay batches at the rasterizer's flush granularity: one span batch
  // serves every triangle of a rasterize call and flushes every 128 spans.
  for (std::size_t left = runs.size(); left > 0;) {
    const std::size_t g = std::min<std::size_t>(left, 128);
    out.groups.push_back(static_cast<std::uint32_t>(g));
    left -= g;
  }

  // Re-arm each run with a UV walk that stays in [0,1)^2 (the rasterizer's
  // in-range sub-span guarantee). |du| per fragment ~ 1/(spot diameter in
  // pixels), varied and sign-flipped per span; long spans scale the step
  // down exactly as a long chord through the profile does.
  util::Rng rng(0x5ba9u);
  const double du_base = 1.0 / (2.0 * spot_radius_px);
  out.spans.reserve(runs.size());
  for (const Run& run : runs) {
    const double steps = static_cast<double>(run.length) - 1.0;
    double du = du_base * rng.uniform(0.6, 1.4) *
                (rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0);
    double dv = du_base * rng.uniform(-0.45, 0.45);
    if (std::abs(du) * steps > 0.92) du *= 0.92 / (std::abs(du) * steps);
    if (std::abs(dv) * steps > 0.90) dv *= 0.90 / (std::abs(dv) * steps);
    const double walk_u = std::abs(du) * steps;
    const double walk_v = std::abs(dv) * steps;
    const double u0 = du >= 0.0 ? rng.uniform(0.02, 0.96 - walk_u)
                                : rng.uniform(0.02 + walk_u, 0.96);
    const double v0 = dv >= 0.0 ? rng.uniform(0.02, 0.96 - walk_v)
                                : rng.uniform(0.02 + walk_v, 0.96);
    render::SpotProfile::RowSampler sampler(profile, du, dv);
    sampler.start_row(u0, v0);
    out.spans.push_back(
        sampler.span(0, static_cast<float>(rng.uniform(0.002, 0.02))));
    out.lens.push_back(run.length);
    out.offsets.push_back(run.offset);
    out.fragments += run.length;
  }
  out.mean_length = runs.empty() ? 0.0
                                 : static_cast<double>(out.fragments) /
                                       static_cast<double>(runs.size());
  return out;
}

// One timed bout of a tier. Tier rates are compared as a ratio, so the
// caller runs several bouts per tier *interleaved across tiers* and keeps
// each tier's best: a noisy-neighbour burst on a shared CI core then lands
// on single bouts instead of poisoning one whole side of the ratio.
double measure_tier_bout(const util::simd::KernelTable& kernels,
                         const SpanWorkload& work, std::vector<float>& dst,
                         std::vector<float*>& dst_ptrs, double min_seconds) {
  std::fill(dst.begin(), dst.end(), 0.0f);
  dst_ptrs.resize(work.offsets.size());
  for (std::size_t i = 0; i < work.offsets.size(); ++i) {
    dst_ptrs[i] = dst.data() + work.offsets[i];
  }
  // Replay through the batched kernel at the rasterizer's flush granularity
  // (128-span batches across triangles) so the measurement covers the
  // production call pattern, not an idealized single-span loop.
  auto replay = [&] {
    std::size_t base = 0;
    for (const std::uint32_t g : work.groups) {
      kernels.sample_rows_add(dst_ptrs.data() + base, work.spans.data() + base,
                              work.lens.data() + base, g);
      base += g;
    }
  };
  replay();  // warm-up: faults pages, primes caches and the predictor
  std::int64_t reps = 0;
  double seconds = 0.0;
  const util::ThreadCpuStopwatch watch;
  do {
    replay();
    ++reps;
    seconds = watch.seconds();
  } while (seconds < min_seconds);
  return static_cast<double>(work.fragments) * static_cast<double>(reps) /
         seconds;
}

KernelRate measure_kernel(const render::SpotProfile& profile,
                          const render::CommandBuffer& geometry, render::Framebuffer& fb,
                          render::RasterAlgorithm algo, double min_seconds) {
  // One warm-up pass, then repeat whole-buffer rasterizations until the
  // thread-CPU clock has accumulated a stable measurement.
  (void)rasterize_once(profile, fb, algo, render::BlendMode::kAdditive, geometry);
  KernelRate rate;
  std::int64_t reps = 0;
  const util::ThreadCpuStopwatch watch;
  do {
    rate.stats = rasterize_once(profile, fb, algo, render::BlendMode::kAdditive, geometry);
    ++reps;
    rate.seconds = watch.seconds();
  } while (rate.seconds < min_seconds);
  rate.frags_per_second =
      static_cast<double>(rate.stats.fragments) * static_cast<double>(reps) /
      rate.seconds;
  rate.seconds_per_pass = rate.seconds / static_cast<double>(reps);
  return rate;
}

struct TierRate {
  util::simd::Tier tier;
  double frags_per_second;
};

struct TierAblation {
  std::vector<TierRate> rates;  ///< median bout per available tier
  double scalar_rate = 0.0;
  double avx2_rate = 0.0;       ///< 0 without AVX2
  double avx2_speedup = 0.0;    ///< median per-round avx2/scalar ratio
};

// Interleaved rounds (the tier order rotates each round); a tier's rate is
// its median bout and the AVX2 speedup the median of the per-round
// avx2/scalar ratios.
TierAblation ablate_tiers(const SpanWorkload& work, int pixels, int rounds,
                          double bout_seconds) {
  TierAblation out;
  std::vector<float> replay_dst(static_cast<std::size_t>(pixels));
  std::vector<float*> replay_ptrs;
  for (const util::simd::Tier t : util::simd::available_tiers()) {
    out.rates.push_back({t, 0.0});
  }
  std::vector<std::vector<double>> bouts(out.rates.size());
  std::vector<double> ratios;
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> this_round(out.rates.size());
    for (std::size_t i = 0; i < out.rates.size(); ++i) {
      const std::size_t t = (i + static_cast<std::size_t>(round)) % out.rates.size();
      this_round[t] = measure_tier_bout(util::simd::kernels_for(out.rates[t].tier), work,
                                        replay_dst, replay_ptrs, bout_seconds);
      bouts[t].push_back(this_round[t]);
    }
    double round_scalar = 0.0;
    double round_avx2 = 0.0;
    for (std::size_t t = 0; t < out.rates.size(); ++t) {
      if (out.rates[t].tier == util::simd::Tier::kScalar) round_scalar = this_round[t];
      if (out.rates[t].tier == util::simd::Tier::kAvx2) round_avx2 = this_round[t];
    }
    if (round_scalar > 0.0 && round_avx2 > 0.0) ratios.push_back(round_avx2 / round_scalar);
  }
  for (std::size_t t = 0; t < out.rates.size(); ++t) {
    out.rates[t].frags_per_second = util::percentile(bouts[t], 0.5);
    if (out.rates[t].tier == util::simd::Tier::kScalar) {
      out.scalar_rate = out.rates[t].frags_per_second;
    }
    if (out.rates[t].tier == util::simd::Tier::kAvx2) {
      out.avx2_rate = out.rates[t].frags_per_second;
    }
  }
  if (!ratios.empty()) out.avx2_speedup = util::percentile(ratios, 0.5);
  return out;
}

// ---------------------------------------------------------------------------
// Small-triangle workload: the served bent_full frame's own meshes
// ---------------------------------------------------------------------------

// e2ebench's bent_full frame: 2500 bent 16x3 spots of 48 px on a 512^2
// texture through a Rankine vortex (strength 1.2, core 0.8 on [0,4]^2),
// seeded over the disc inscribed in the domain. Its triangles average ~13
// fragments and its spans ~2.4, so per-triangle setup and per-row solving
// — not the blend kernel — decide the frame time.
struct SmallTriangleWorkload {
  render::CommandBuffer geometry;
  render::CommandBuffer coverage;  // constant UV, unit weight
  std::shared_ptr<const render::SpotProfile> profile;
  int width = 0;
  double spot_radius_px = 0.0;
};

SmallTriangleWorkload make_small_triangle_workload(bool smoke) {
  SmallTriangleWorkload st;
  core::SynthesisConfig sc;
  sc.texture_width = smoke ? 128 : 512;
  sc.texture_height = sc.texture_width;
  sc.spot_count = smoke ? 300 : 2500;
  sc.kind = core::SpotKind::kBent;
  sc.bent.mesh_cols = 16;
  sc.bent.mesh_rows = 3;
  sc.bent.length_px = smoke ? 12.0 : 48.0;
  const auto field = field::analytic::rankine_vortex({2.0, 2.0}, 1.2, 0.8, {0, 0, 4, 4});
  const core::SpotGeometryGenerator generator(sc, *field);
  util::Rng rng(20261019);
  for (std::int64_t k = 0; k < sc.spot_count; ++k) {
    const double radius = 2.0 * std::sqrt(rng.uniform());
    const double angle = 2.0 * std::numbers::pi * rng.uniform();
    const core::SpotInstance spot{
        {2.0 + radius * std::cos(angle), 2.0 + radius * std::sin(angle)},
        (2.0 * rng.uniform() - 1.0) * 0.2};
    generator.generate(spot, st.geometry);
  }
  for (const render::MeshHeader& h : st.geometry.meshes()) {
    auto out = st.coverage.add_mesh(1.0f, h.cols, h.rows);
    const auto in = st.geometry.vertices_of(h);
    for (std::size_t k = 0; k < in.size(); ++k) {
      out[k] = in[k];
      out[k].u = 0.5f;
      out[k].v = 0.5f;
    }
  }
  st.profile = render::SpotProfile::make_shared(sc.profile_shape, sc.profile_resolution);
  st.width = sc.texture_width;
  st.spot_radius_px = sc.spot_radius_px;
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const double gate = smoke ? 1.5 : 2.0;

  std::printf("== span rasterizer ablation (%s workload) ==\n",
              smoke ? "smoke" : "full");
  const RibbonWorkload r = make_ribbon_workload(smoke);
  const std::int64_t triangles = r.geometry.quad_count() * 2;
  std::printf("  %zu ribbons, %lld quads, %dx%d target\n", r.geometry.mesh_count(),
              static_cast<long long>(r.geometry.quad_count()),
              r.workload.synthesis.texture_width,
              r.workload.synthesis.texture_height);

  render::Framebuffer fb(r.workload.synthesis.texture_width,
                         r.workload.synthesis.texture_height);
  render::Framebuffer other(fb.width(), fb.height());

  // --- equivalence: values ---
  const auto ref_stats = rasterize_once(*r.profile, fb, render::RasterAlgorithm::kReference,
                                        render::BlendMode::kAdditive, r.geometry);
  const auto span_stats = rasterize_once(*r.profile, other, render::RasterAlgorithm::kSpan,
                                         render::BlendMode::kAdditive, r.geometry);
  const float additive_dev = fb.max_abs_diff(other);
  (void)rasterize_once(*r.profile, fb, render::RasterAlgorithm::kReference,
                       render::BlendMode::kMaximum, r.geometry);
  (void)rasterize_once(*r.profile, other, render::RasterAlgorithm::kSpan,
                       render::BlendMode::kMaximum, r.geometry);
  const float maximum_dev = fb.max_abs_diff(other);

  // --- equivalence: exact coverage ---
  (void)rasterize_once(*r.profile, fb, render::RasterAlgorithm::kReference,
                       render::BlendMode::kAdditive, r.coverage);
  (void)rasterize_once(*r.profile, other, render::RasterAlgorithm::kSpan,
                       render::BlendMode::kAdditive, r.coverage);
  const bool coverage_identical =
      fb == other && ref_stats.fragments == span_stats.fragments;

  // Value tolerance: the kernels' UV evaluation differs by design (~1e-5,
  // see test_rasterizer.cpp), and each side additionally snaps to the
  // contribution lattice, which can separate the results by up to two
  // quanta (util/simd.hpp).
  const float value_gate = 1e-5f + 2.0f * util::simd::kContributionQuantum;
  const bool equivalent = coverage_identical && additive_dev <= value_gate &&
                          maximum_dev <= value_gate;
  std::printf("  equivalence: coverage %s, max deviation additive %.2e / max %.2e\n",
              coverage_identical ? "identical" : "DIFFERS", additive_dev,
              maximum_dev);

  // --- throughput ---
  // Interleaved repetitions: each pairs a reference bout with a span bout
  // (alternating which runs first) and yields one span/reference ratio. The
  // gate reads the median ratio, so a bout disturbed by other load on the
  // host cannot flip it on its own.
  const int repetitions = smoke ? 5 : 7;
  const double min_seconds = (smoke ? 0.3 : 1.6) / repetitions;
  KernelRate ref;
  KernelRate span;
  std::vector<double> ref_fps, span_fps, speedups;
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool ref_first = rep % 2 == 0;
    if (ref_first) ref = measure_kernel(*r.profile, r.geometry, fb, render::RasterAlgorithm::kReference, min_seconds);
    span = measure_kernel(*r.profile, r.geometry, fb, render::RasterAlgorithm::kSpan, min_seconds);
    if (!ref_first) ref = measure_kernel(*r.profile, r.geometry, fb, render::RasterAlgorithm::kReference, min_seconds);
    ref_fps.push_back(ref.frags_per_second);
    span_fps.push_back(span.frags_per_second);
    speedups.push_back(span.frags_per_second / ref.frags_per_second);
  }
  ref.frags_per_second = util::percentile(ref_fps, 0.5);
  span.frags_per_second = util::percentile(span_fps, 0.5);
  const double speedup = util::percentile(speedups, 0.5);
  const auto ratio = [](const render::RasterStats& s) {
    return s.pixels_visited > 0 ? static_cast<double>(s.fragments) /
                                      static_cast<double>(s.pixels_visited)
                                : 0.0;
  };
  std::printf("  reference: %8.2f Mfrag/s  (visited ratio %.3f)\n",
              ref.frags_per_second / 1e6, ratio(ref.stats));
  std::printf("  span:      %8.2f Mfrag/s  (visited ratio %.3f)\n",
              span.frags_per_second / 1e6, ratio(span.stats));
  std::printf("  speedup: %.2fx, median of %d interleaved pairs [%.2f, %.2f] (gate: >= %.1fx)\n",
              speedup, repetitions, util::percentile(speedups, 0.0),
              util::percentile(speedups, 1.0), gate);

  // --- kernel-tier ablation: the fused span kernel per dispatch tier ---
  // End-to-end tier ratios are Amdahl-limited by triangle setup and edge
  // walking, so the AVX2 gate is on the span kernel's own fragment
  // throughput: the workload's spans replayed through each tier's
  // sample_row_add in isolation.
  const SpanWorkload span_work =
      capture_spans(r.coverage, *r.profile, r.workload.synthesis.spot_radius_px, fb);
  std::printf("  tier ablation: %zu spans, %lld fragments, mean length %.1f\n",
              span_work.spans.size(),
              static_cast<long long>(span_work.fragments),
              span_work.mean_length);
  const double bout_seconds = smoke ? 0.04 : 0.15;
  const int bout_rounds = smoke ? 5 : 7;
  const TierAblation tiers = ablate_tiers(span_work, fb.width() * fb.height(),
                                          bout_rounds, bout_seconds);
  const std::vector<TierRate>& tier_rates = tiers.rates;
  const double scalar_rate = tiers.scalar_rate;
  const double avx2_rate = tiers.avx2_rate;
  for (const TierRate& tr : tier_rates) {
    std::printf("    %-6s %8.2f Mfrag/s  (%.2fx scalar)\n",
                util::simd::tier_name(tr.tier), tr.frags_per_second / 1e6,
                scalar_rate > 0.0 ? tr.frags_per_second / scalar_rate : 0.0);
  }
  const bool have_avx2 = avx2_rate > 0.0;
  const double tier_gate = smoke ? 1.2 : 1.5;
  const double tier_speedup = tiers.avx2_speedup;
  if (have_avx2) {
    std::printf("  avx2 kernel speedup: %.2fx, median of %d interleaved rounds (gate: >= %.1fx)\n",
                tier_speedup, bout_rounds, tier_gate);
  } else {
    std::printf("  avx2 unavailable on this host — tier gate skipped\n");
  }
  const bool tier_pass = !have_avx2 || tier_speedup >= tier_gate;

  // --- eq. 3.2 modeled frame time through the served engine ---
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.raster_algorithm = render::RasterAlgorithm::kReference;
  const auto ref_rates = bench::measure_rates(r.workload, dnc, 1, bench::Engine::kServed);
  dnc.raster_algorithm = render::RasterAlgorithm::kSpan;
  const auto span_rates = bench::measure_rates(r.workload, dnc, 1, bench::Engine::kServed);
  std::printf("  modeled frame (eq. 3.2): reference %.3fs, span %.3fs, genT %0.3fs -> %0.3fs\n",
              ref_rates.stats.modeled_frame_seconds,
              span_rates.stats.modeled_frame_seconds,
              ref_rates.stats.genT_critical_seconds,
              span_rates.stats.genT_critical_seconds);

  // --- small triangles: the served bent_full frame's meshes ---
  // Same interleaved reference/span pairs, on the frame whose ~13-fragment
  // triangles make setup and row solving the cost. Coverage must match the
  // reference exactly; the gate reads the median pair ratio.
  const SmallTriangleWorkload st = make_small_triangle_workload(smoke);
  const std::int64_t small_triangles = st.geometry.quad_count() * 2;
  render::Framebuffer small_ref(st.width, st.width);
  render::Framebuffer small_span(st.width, st.width);
  const auto small_ref_cov = rasterize_once(*st.profile, small_ref,
                                            render::RasterAlgorithm::kReference,
                                            render::BlendMode::kAdditive, st.coverage);
  const auto small_span_cov = rasterize_once(*st.profile, small_span,
                                             render::RasterAlgorithm::kSpan,
                                             render::BlendMode::kAdditive, st.coverage);
  const bool small_identical =
      small_ref == small_span && small_ref_cov.fragments == small_span_cov.fragments;
  std::vector<double> small_ratios, small_ref_ns, small_span_ns;
  KernelRate small_rate;
  const double small_min_seconds = (smoke ? 0.3 : 1.2) / repetitions;
  for (int rep = 0; rep < repetitions; ++rep) {
    KernelRate ref_rate;
    const bool ref_first = rep % 2 == 0;
    if (ref_first) {
      ref_rate = measure_kernel(*st.profile, st.geometry, small_ref,
                                render::RasterAlgorithm::kReference, small_min_seconds);
    }
    small_rate = measure_kernel(*st.profile, st.geometry, small_span,
                                render::RasterAlgorithm::kSpan, small_min_seconds);
    if (!ref_first) {
      ref_rate = measure_kernel(*st.profile, st.geometry, small_ref,
                                render::RasterAlgorithm::kReference, small_min_seconds);
    }
    small_ratios.push_back(small_rate.frags_per_second / ref_rate.frags_per_second);
    small_ref_ns.push_back(ref_rate.seconds_per_pass * 1e9 /
                           static_cast<double>(small_triangles));
    small_span_ns.push_back(small_rate.seconds_per_pass * 1e9 /
                            static_cast<double>(small_triangles));
  }
  const double small_speedup = util::percentile(small_ratios, 0.5);
  // Below the worst median of 10 runs on a shared 4-core host (full 1.35x,
  // smoke 1.23x). The same pairs measured 1.11x with the span path this
  // workload had before its coverage window and small-triangle solver.
  const double small_gate = smoke ? 1.1 : 1.25;
  const render::RasterStats& sst = small_rate.stats;
  const double small_frags_per_tri =
      static_cast<double>(sst.fragments) / static_cast<double>(small_triangles);
  const double small_empty_share =
      sst.span_rows > 0
          ? static_cast<double>(sst.empty_rows) / static_cast<double>(sst.span_rows)
          : 0.0;
  const SpanWorkload small_spans = capture_spans(st.coverage, *st.profile,
                                                 st.spot_radius_px, small_span);
  const TierAblation small_tiers = ablate_tiers(small_spans, st.width * st.width,
                                                bout_rounds, bout_seconds);
  const bool small_pass = small_identical && small_speedup >= small_gate;
  std::printf("== small triangles: bent_full frame (%s) ==\n", smoke ? "smoke" : "full");
  std::printf("  %lld triangles, %.1f fragments/triangle, %.1f%% of walked rows empty, "
              "mean span %.2f\n",
              static_cast<long long>(small_triangles), small_frags_per_tri,
              100.0 * small_empty_share, small_spans.mean_length);
  std::printf("  coverage %s; reference %.1f ns/triangle, span %.1f ns/triangle\n",
              small_identical ? "identical" : "DIFFERS",
              util::percentile(small_ref_ns, 0.5), util::percentile(small_span_ns, 0.5));
  std::printf("  speedup: %.2fx, median of %d interleaved pairs [%.2f, %.2f] (gate: >= %.2fx)\n",
              small_speedup, repetitions, util::percentile(small_ratios, 0.0),
              util::percentile(small_ratios, 1.0), small_gate);
  if (small_tiers.avx2_rate > 0.0) {
    std::printf("  span kernel on these spans: avx2 %.2fx scalar (reported, not gated)\n",
                small_tiers.avx2_speedup);
  }

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("bench", std::string("raster_kernel"));
    report.set("mode", std::string(smoke ? "smoke" : "full"));
    report.set("workload", r.workload.name);
    report.set("texture_width", static_cast<std::int64_t>(fb.width()));
    report.set("spots", r.workload.synthesis.spot_count);
    report.set("triangles", triangles);
    report.set("fragments", span.stats.fragments);
    report.set("frags_per_triangle",
               static_cast<double>(span.stats.fragments) /
                   static_cast<double>(triangles));
    report.set("ref.frags_per_second", ref.frags_per_second);
    report.set("ref.visited_ratio", ratio(ref.stats));
    report.set("ref.modeled_frame_seconds", ref_rates.stats.modeled_frame_seconds);
    report.set("ref.genT_critical_seconds", ref_rates.stats.genT_critical_seconds);
    report.set("span.frags_per_second", span.frags_per_second);
    report.set("span.visited_ratio", ratio(span.stats));
    report.set("span.modeled_frame_seconds",
               span_rates.stats.modeled_frame_seconds);
    report.set("span.genT_critical_seconds",
               span_rates.stats.genT_critical_seconds);
    report.set("speedup", speedup);
    report.set("max_abs_deviation",
               static_cast<double>(std::max(additive_dev, maximum_dev)));
    report.set("coverage_identical", coverage_identical);
    report.set("gate.threshold", gate);
    report.set("gate.pass", equivalent && speedup >= gate);
    report.set("spans.count", static_cast<std::int64_t>(span_work.spans.size()));
    report.set("spans.mean_length", span_work.mean_length);
    for (const TierRate& tr : tier_rates) {
      report.set(std::string("tier.") + util::simd::tier_name(tr.tier) +
                     ".frags_per_second",
                 tr.frags_per_second);
    }
    if (have_avx2) report.set("tier.speedup", tier_speedup);
    report.set("tier.gate.threshold", tier_gate);
    report.set("tier.gate.pass", tier_pass);
    report.set("small.workload", std::string("bent_full frame"));
    report.set("small.triangles", small_triangles);
    report.set("small.fragments", sst.fragments);
    report.set("small.frags_per_triangle", small_frags_per_tri);
    report.set("small.span_rows", sst.span_rows);
    report.set("small.empty_row_share", small_empty_share);
    report.set("small.spans.mean_length", small_spans.mean_length);
    report.set("small.ref.ns_per_triangle", util::percentile(small_ref_ns, 0.5));
    report.set("small.span.ns_per_triangle", util::percentile(small_span_ns, 0.5));
    report.set("small.speedup", small_speedup);
    report.set("small.coverage_identical", small_identical);
    report.set("small.gate.threshold", small_gate);
    report.set("small.gate.pass", small_pass);
    if (small_tiers.avx2_rate > 0.0) report.set("small.tier.speedup", small_tiers.avx2_speedup);
    report.set("simd.tier",
               util::simd::tier_name(util::simd::active_tier()));
    report.set("simd.cpu", util::simd::cpu_flags());
    report.write(json_path);
  }

  if (!equivalent) {
    std::printf("FAIL: span/reference equivalence violated\n");
    return 1;
  }
  if (speedup < gate) {
    std::printf("FAIL: speedup %.2fx below the %.1fx gate\n", speedup, gate);
    return 1;
  }
  if (!small_identical) {
    std::printf("FAIL: small-triangle span/reference coverage differs\n");
    return 1;
  }
  if (small_speedup < small_gate) {
    std::printf("FAIL: small-triangle speedup %.2fx below the %.2fx gate\n",
                small_speedup, small_gate);
    return 1;
  }
  if (!tier_pass) {
    std::printf("FAIL: avx2 kernel speedup %.2fx below the %.1fx tier gate\n",
                tier_speedup, tier_gate);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
