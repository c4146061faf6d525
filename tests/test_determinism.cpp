// Cross-configuration determinism of the synthesis engine.
//
// The engine accumulates spot contributions in whatever order the scheduler
// produces: slave interleaving, work stealing, chunk arrival, pipe count and
// tile layout all vary the additions. Two mechanisms make the result exact
// anyway (see render/rasterizer.hpp and util/simd.hpp):
//
//   * rasterization is target-independent — a fragment's coverage and value
//     are pure functions of the triangle and the global pixel, identical
//     whether rendered by a full-texture pipe or any tile containing it;
//   * every contribution is snapped to the contribution lattice before
//     blending, so additive accumulation is exactly associative and
//     commutative — any order or grouping of the sums gives the same bits.
//
// These tests assert the consequence: the same SynthesisConfig seed and
// spot set produce BIT-IDENTICAL textures across worker counts, tiled vs
// untiled served frames, the paper model's pipe counts and work stealing —
// and across repeated runs of the same configuration, which is what the
// golden-frame suite depends on. No tolerance anywhere:
// Framebuffer::operator== compares every float for equality.
//
// One deliberate exception: the two RasterAlgorithms produce bit-identical
// *coverage* but not bit-identical fragment values (the span kernel's
// affine UV evaluation rounds differently from the reference's barycentric
// floats — see test_rasterizer.cpp). Determinism therefore holds per
// algorithm, and every comparison here pins the algorithm explicitly.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/tile_store.hpp"
#include "field/analytic.hpp"
#include "paper/pipe_synthesizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using core::DncConfig;
using core::DncSynthesizer;
using core::SynthesisConfig;

struct Scene {
  std::unique_ptr<field::VectorField> field;
  std::vector<core::SpotInstance> spots;
  SynthesisConfig synthesis;
};

Scene make_scene(core::SpotKind kind, std::int64_t spots = 300) {
  Scene s;
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  s.field = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  s.synthesis.texture_width = 96;
  s.synthesis.texture_height = 96;
  s.synthesis.spot_count = spots;
  s.synthesis.spot_radius_px = 6.0;
  s.synthesis.kind = kind;
  s.synthesis.bent.mesh_cols = 8;
  s.synthesis.bent.mesh_rows = 3;
  s.synthesis.bent.length_px = 18.0;
  util::Rng rng(1234);
  s.spots = core::make_random_spots(domain, spots, rng);
  for (auto& spot : s.spots) spot.intensity *= 0.2;
  return s;
}

render::Framebuffer run(const Scene& scene, const DncConfig& dnc) {
  DncSynthesizer engine(scene.synthesis, dnc);
  engine.synthesize(*scene.field, scene.spots);
  return engine.texture();
}

/// The same scene through the paper's pipe model.
render::Framebuffer run_paper(const Scene& scene, const DncConfig& dnc) {
  paper::PipeSynthesizer model(scene.synthesis, dnc);
  model.synthesize(*scene.field, scene.spots);
  return model.texture();
}

DncConfig base_config() {
  DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  dnc.chunk_spots = 16;  // small chunks: many scheduling decisions per frame
  dnc.steal = true;
  return dnc;
}

// --------------------------------------------------------------- reruns ---

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  const DncConfig dnc = base_config();
  const render::Framebuffer first = run(scene, dnc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first, run(scene, dnc)) << "rerun " << i;
  }
}

TEST(Determinism, RepeatedTiledRunsAreBitIdentical) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  const render::Framebuffer first = run(scene, dnc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first, run(scene, dnc)) << "rerun " << i;
  }
}

// ----------------------------------------------------------- pipe count ---

TEST(Determinism, PipeCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.pipes = 1;
  dnc.processors = 4;
  const render::Framebuffer one = run_paper(scene, dnc);
  for (const int pipes : {2, 4}) {
    dnc.pipes = pipes;
    EXPECT_EQ(one, run_paper(scene, dnc)) << pipes << " pipes";
  }
  EXPECT_EQ(one, run(scene, dnc)) << "served engine";
}

TEST(Determinism, WorkerCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.pipes = 1;
  dnc.processors = 1;
  const render::Framebuffer serial = run(scene, dnc);
  for (const int processors : {2, 4, 8}) {
    dnc.processors = processors;
    EXPECT_EQ(serial, run(scene, dnc)) << processors << " processors";
  }
}

// ----------------------------------------------------------------- mode ---

TEST(Determinism, ContiguousAndTiledModesMatchBitwise) {
  // The paper model's contiguous gather-blend against the served engine,
  // untiled and tiled.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.pipes = 4;
  const render::Framebuffer contiguous = run_paper(scene, dnc);
  for (const bool tiled : {false, true}) {
    dnc.tiled = tiled;
    for (const int processors : {1, 4}) {
      dnc.processors = processors;
      EXPECT_EQ(contiguous, run(scene, dnc))
          << (tiled ? "tiled, " : "untiled, ") << processors << " processors";
    }
  }
}

// ---------------------------------------------------------------- steal ---

TEST(Determinism, WorkStealingDoesNotChangeBits) {
  // Clustered intensities skew the even split, so stealing really happens
  // (the scheduling suite asserts that); here we assert it cannot show up
  // in the pixels.
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.pipes = 2;
  dnc.processors = 6;
  dnc.steal = false;
  const render::Framebuffer unstolen = run_paper(scene, dnc);
  dnc.steal = true;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(unstolen, run_paper(scene, dnc)) << "steal rerun " << i;
  }
  EXPECT_EQ(unstolen, run(scene, dnc)) << "served, untiled";
  DncConfig tiled = dnc;
  tiled.tiled = true;
  EXPECT_EQ(unstolen, run(scene, tiled)) << "served, tiled";
}

// --------------------------------------------- serial synthesizer oracle ---

TEST(Determinism, SerialSynthesizerMatchesEngineBitwise) {
  // The 1991 serial algorithm and the parallel engine now agree exactly,
  // not just within a summation-order tolerance: same geometry, same
  // target-independent rasterization, same lattice sums.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  core::SerialSynthesizer serial(scene.synthesis);
  serial.synthesize(*scene.field, scene.spots, 1);
  EXPECT_EQ(serial.texture(), run(scene, base_config()));
}

TEST(Determinism, SerialThreadCountDoesNotChangeBits) {
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  core::SerialSynthesizer one(scene.synthesis);
  one.synthesize(*scene.field, scene.spots, 1);
  for (const int threads : {2, 4}) {
    core::SerialSynthesizer many(scene.synthesis);
    many.synthesize(*scene.field, scene.spots, threads);
    EXPECT_EQ(one.texture(), many.texture()) << threads << " threads";
  }
}

// ------------------------------------------------------ reference walk ---

TEST(Determinism, ReferenceAlgorithmIsDeterministicToo) {
  // The invariants are algorithm-independent; pin them for the bbox walk.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.raster_algorithm = render::RasterAlgorithm::kReference;
  dnc.pipes = 1;
  dnc.processors = 1;
  const render::Framebuffer one_pipe = run_paper(scene, dnc);
  dnc.pipes = 4;
  dnc.processors = 8;
  EXPECT_EQ(one_pipe, run_paper(scene, dnc));
  EXPECT_EQ(one_pipe, run(scene, dnc));
  dnc.tiled = true;
  EXPECT_EQ(one_pipe, run(scene, dnc));
}

// ------------------------------------------------ content-addressed cache ---

TEST(Determinism, TileCacheOnOffDoesNotChangeBits) {
  // The content-addressed TileStore (DncConfig::tile_cache) must be
  // bit-invisible: cold frames (publishing), warm frames (every tile served
  // from the store) and uncached frames all produce the same texture —
  // across processor counts. Each configuration gets a private Runtime so
  // its store starts cold.
  const Scene scene = make_scene(core::SpotKind::kBent);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  const render::Framebuffer reference = run(scene, dnc);

  for (const int processors : {1, 4}) {
    core::Runtime runtime({.workers = 4});
    DncConfig cached = dnc;
    cached.processors = processors;
    cached.tile_cache = true;
    DncSynthesizer engine(scene.synthesis, cached, runtime);
    const auto tiles = static_cast<std::int64_t>(engine.tiles().size());
    const core::FrameStats cold = engine.synthesize(*scene.field, scene.spots);
    EXPECT_EQ(reference, engine.texture()) << processors << " processors (cold)";
    EXPECT_EQ(cold.cache_tiles_published, tiles);
    const core::FrameStats warm = engine.synthesize(*scene.field, scene.spots);
    EXPECT_EQ(reference, engine.texture()) << processors << " processors (warm)";
    EXPECT_EQ(warm.cache_tile_hits, tiles);
  }
}

TEST(Determinism, TileCacheThrashingDoesNotChangeBits) {
  // A store too small for even one frame's tiles: every publish evicts a
  // sibling mid-run and most probes miss. Constant eviction churn must be
  // just as bit-invisible as a perfectly warm cache.
  const Scene scene = make_scene(core::SpotKind::kEllipse);
  DncConfig dnc = base_config();
  dnc.tiled = true;
  const render::Framebuffer reference = run(scene, dnc);

  // 96x96 on the 64-px render grid = tiles of 64x64, 32x64, 64x32 and
  // 32x32 (36864 bytes a frame); budget two of the largest across two
  // shards, so every shard fits one and publishes constantly displace each
  // other.
  core::Runtime runtime(
      {.workers = 4, .tile_cache_bytes = 2 * 64 * 64 * sizeof(float),
       .tile_cache_shards = 2});
  dnc.tile_cache = true;
  DncSynthesizer a(scene.synthesis, dnc, runtime);
  DncSynthesizer b(scene.synthesis, dnc, runtime);
  std::int64_t evictions = 0;
  for (int frame = 0; frame < 4; ++frame) {
    const core::FrameStats sa = a.synthesize(*scene.field, scene.spots);
    const core::FrameStats sb = b.synthesize(*scene.field, scene.spots);
    evictions += sa.cache_evictions + sb.cache_evictions;
    EXPECT_EQ(reference, a.texture()) << "engine a, frame " << frame;
    EXPECT_EQ(reference, b.texture()) << "engine b, frame " << frame;
  }
  EXPECT_GT(evictions, 0) << "budget did not actually thrash";
  EXPECT_LE(runtime.tile_store().stats().bytes,
            runtime.tile_store().stats().budget_bytes);
}

// ------------------------------------------------- cross-session sharing ---

TEST(Determinism, CrossSessionWorkSharingDoesNotChangeBits) {
  // The shared-runtime lattice property: two sessions synthesize
  // concurrently on one Runtime, so pool workers migrate between their
  // frames and a chunk of either scene may be generated by a worker that
  // just served the other session. The per-pixel sums must not care. Solo
  // references first, then three rounds of concurrent frames, every one
  // compared bit for bit.
  const Scene scene_a = make_scene(core::SpotKind::kEllipse, 400);
  const Scene scene_b = make_scene(core::SpotKind::kBent, 250);
  DncConfig dnc_a = base_config();  // untiled
  DncConfig dnc_b = base_config();
  dnc_b.tiled = true;  // mixed modes share the same worker pool
  const render::Framebuffer ref_a = run(scene_a, dnc_a);
  const render::Framebuffer ref_b = run(scene_b, dnc_b);

  for (int round = 0; round < 3; ++round) {
    DncSynthesizer engine_a(scene_a.synthesis, dnc_a);
    DncSynthesizer engine_b(scene_b.synthesis, dnc_b);
    {
      std::jthread thread_b([&] {
        for (int frame = 0; frame < 2; ++frame) {
          engine_b.synthesize(*scene_b.field, scene_b.spots);
        }
      });
      for (int frame = 0; frame < 2; ++frame) {
        engine_a.synthesize(*scene_a.field, scene_a.spots);
      }
    }
    EXPECT_EQ(ref_a, engine_a.texture()) << "session A, round " << round;
    EXPECT_EQ(ref_b, engine_b.texture()) << "session B, round " << round;
  }
}

}  // namespace
