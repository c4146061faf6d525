// Temporal-coherence incremental resynthesis: the invariant under test is
// that an incrementally rendered frame is BIT-IDENTICAL to full
// resynthesis, for any sequence of spot births, deaths and moves, with
// cache invalidations forced mid-sequence. Framebuffer::operator== — no
// tolerance.
//
// ctest label: incremental (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/animator.hpp"
#include "core/dnc_synthesizer.hpp"
#include "core/frame_delta.hpp"
#include "core/perf_model.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_cache.hpp"
#include "core/tile_store.hpp"
#include "field/analytic.hpp"
#include "field/fingerprint.hpp"
#include "paper/pipe_synthesizer.hpp"
#include "particles/particle_system.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace dcsn;
using core::DncConfig;
using core::DncSynthesizer;
using core::FrameDelta;
using core::SpotInstance;
using core::SynthesisCache;
using core::SynthesisConfig;
using core::Tile;

constexpr field::Rect kDomain{0.0, 0.0, 4.0, 4.0};

std::unique_ptr<field::VectorField> make_field() {
  // Capped swirl: solid rotation inside a compact core, exactly stagnant
  // outside — the slow-flow regime the incremental path targets.
  return std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        const double dx = p.x - 1.0;
        const double dy = p.y - 1.0;
        if (dx * dx + dy * dy > 0.36) return {0.0, 0.0};
        return {-dy, dx};
      },
      kDomain, 0.6);
}

// 128x128 is a 2x2 render grid of 64px tiles; `side` grows it for the
// many-tile cases.
SynthesisConfig small_synthesis(int side = 128) {
  SynthesisConfig sc;
  sc.texture_width = side;
  sc.texture_height = side;
  sc.spot_count = 200;
  sc.spot_radius_px = 5.0;
  // Point spots: a 6px conservative extent, so a spot deep inside a 64px
  // tile really stays inside it. (An ellipse's extent is radius*max_stretch
  // — at this scale every spot would conservatively touch several tiles and
  // the reuse assertions below would be vacuous.)
  sc.kind = core::SpotKind::kPoint;
  return sc;
}

DncConfig tiled_config(int processors = 4) {
  DncConfig dnc;
  dnc.processors = processors;
  dnc.tiled = true;
  dnc.chunk_spots = 16;
  return dnc;
}

std::vector<SpotInstance> random_spots(util::Rng& rng, std::int64_t count) {
  auto spots = core::make_random_spots(kDomain, count, rng);
  for (auto& s : spots) s.intensity *= 0.2;
  return spots;
}

// --------------------------------------------------------- FrameDelta ---

TEST(FrameDelta, ClassifiesMovesBirthsAndDeaths) {
  util::Rng rng(7);
  std::vector<SpotInstance> prev = random_spots(rng, 10);
  std::vector<SpotInstance> cur = prev;
  cur[3].position.x += 0.25;       // moved
  cur[7].intensity = -cur[7].intensity;  // intensity change counts as moved
  cur.push_back({{1.0, 1.0}, 0.5});      // born
  const FrameDelta delta = core::diff_spots(prev, cur);
  EXPECT_EQ(delta.unchanged, 8);
  EXPECT_EQ(delta.moved, 2);
  EXPECT_EQ(delta.born, 1);
  EXPECT_EQ(delta.died, 0);
  ASSERT_EQ(delta.changed.size(), 2u);
  EXPECT_EQ(delta.changed[0], 3);
  EXPECT_EQ(delta.changed[1], 7);

  const FrameDelta shrunk = core::diff_spots(cur, prev);
  EXPECT_EQ(shrunk.died, 1);
  EXPECT_EQ(shrunk.born, 0);
}

TEST(FrameDelta, NaNPositionIsConservativelyMoved) {
  util::Rng rng(7);
  std::vector<SpotInstance> prev = random_spots(rng, 3);
  std::vector<SpotInstance> cur = prev;
  cur[1].position.x = std::nan("");
  EXPECT_EQ(core::diff_spots(cur, cur).moved, 1);  // NaN != NaN, both frames
  EXPECT_EQ(core::diff_spots(prev, cur).moved, 1);
}

TEST(FrameDelta, DirtyTilesCoverOldAndNewExtent) {
  // Two 32px tiles side by side; a spot moving from the left tile to the
  // right one must dirty both.
  const std::vector<Tile> tiles{{0, 0, 32, 32}, {32, 0, 32, 32}};
  const render::WorldToImage mapping({0.0, 0.0, 64.0, 64.0}, 64, 64);
  std::vector<SpotInstance> prev{{{8.0, 32.0}, 0.5}, {{48.0, 32.0}, 0.5}};
  std::vector<SpotInstance> cur = prev;
  cur[0].position.x = 40.0;  // left -> right
  const FrameDelta delta = core::diff_spots(prev, cur);
  const auto dirty = core::dirty_tiles(delta, prev, cur, mapping, 4.0, tiles);
  EXPECT_EQ(dirty, (std::vector<std::uint8_t>{1, 1}));

  // An unchanged population dirties nothing.
  const FrameDelta none = core::diff_spots(prev, prev);
  const auto clean = core::dirty_tiles(none, prev, prev, mapping, 4.0, tiles);
  EXPECT_EQ(clean, (std::vector<std::uint8_t>{0, 0}));

  // A spot near the boundary dirties both tiles (conservative extent),
  // exactly like assign_spots_to_tiles would assign it to both.
  std::vector<SpotInstance> near = prev;
  near[1].position.x = 30.0;  // extent [26, 34] straddles x = 32
  const FrameDelta moved = core::diff_spots(prev, near);
  const auto both = core::dirty_tiles(moved, prev, near, mapping, 4.0, tiles);
  EXPECT_EQ(both, (std::vector<std::uint8_t>{1, 1}));
}

// ------------------------------------------------- engine-level fuzzing ---

// Drives two identical tiled engines over the same mutating spot sequence:
// one re-renders every frame, the other goes through SynthesisCache. Every
// frame must match bitwise. Returns the number of frames that actually
// reused at least one tile, so callers can assert the test exercised the
// incremental path rather than degenerating to all-dirty frames.
int fuzz_sequence(DncConfig dnc, std::uint64_t seed, int frames,
                  double churn, bool force_invalidations, int side = 128) {
  const SynthesisConfig sc = small_synthesis(side);
  const auto field = make_field();
  DncSynthesizer full(sc, dnc);
  DncSynthesizer incremental(sc, dnc);
  SynthesisCache cache;

  util::Rng rng(seed);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  int reused_frames = 0;
  for (int frame = 0; frame < frames; ++frame) {
    if (force_invalidations && frame % 17 == 11) cache.invalidate();

    const SynthesisCache::Decision d = cache.plan(incremental, *field, spots);
    const core::FrameStats stats =
        incremental.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *field, std::vector<SpotInstance>(spots));
    full.synthesize(*field, spots);

    EXPECT_EQ(full.texture(), incremental.texture())
        << "frame " << frame << " diverged (seed " << seed << ")";
    if (stats.tiles_reused > 0) ++reused_frames;

    // Mutate for the next frame: moves, births, deaths.
    for (auto& s : spots) {
      if (rng.uniform() < churn) {
        if (rng.uniform() < 0.3) {
          // Respawn-style discontinuous jump anywhere in the domain.
          s.position = {rng.uniform(kDomain.x0, kDomain.x1),
                        rng.uniform(kDomain.y0, kDomain.y1)};
          s.intensity = 0.2 * rng.intensity();
        } else {
          // Advection-style small move.
          s.position.x += rng.uniform(-0.05, 0.05);
          s.position.y += rng.uniform(-0.05, 0.05);
        }
      }
    }
    if (rng.uniform() < 0.25 && spots.size() > 50) {
      spots.resize(spots.size() - 1 - static_cast<std::size_t>(rng.uniform() * 4));
    } else if (rng.uniform() < 0.25) {
      const auto born = static_cast<std::int64_t>(1 + rng.uniform() * 4);
      for (std::int64_t k = 0; k < born; ++k) {
        spots.push_back({{rng.uniform(kDomain.x0, kDomain.x1),
                          rng.uniform(kDomain.y0, kDomain.y1)},
                         0.2 * rng.intensity()});
      }
    }
  }
  return reused_frames;
}

TEST(IncrementalFuzz, FiftyFramesLowChurnBitIdentical) {
  const int reused = fuzz_sequence(tiled_config(), 42, 50, 0.05, true);
  // Low churn on a 2x2 grid must actually reuse tiles, or the test proves
  // nothing about the retention path.
  EXPECT_GT(reused, 0);
}

TEST(IncrementalFuzz, HighChurnStaysExact) {
  fuzz_sequence(tiled_config(), 1337, 30, 0.5, true);
}

TEST(IncrementalFuzz, ManyTilesWithStealing) {
  // A 4x4 grid and a budget of 8 participants sharing one chunk counter.
  const int reused = fuzz_sequence(tiled_config(8), 99, 30, 0.03, false, 256);
  EXPECT_GT(reused, 0);
}

TEST(TiledEngine, FullAndPlannedFramesMatchContiguousAndSerialBitwise) {
  // A 3x3 grid (160x160): bent ribbons straddle tile edges, so composing a
  // tile from the participants' partials has to get shared spots exactly
  // right. Each frame, a tiled engine at 1 and at 4 processors renders
  // fully and through SynthesisCache, an untiled engine at 1 and at 4
  // processors renders fully, and all six must match the paper model's
  // contiguous gather-blend and SerialSynthesizer bit for bit — for
  // ellipse and bent spots.
  for (const core::SpotKind kind : {core::SpotKind::kEllipse, core::SpotKind::kBent}) {
    const char* kind_name = kind == core::SpotKind::kBent ? "bent" : "ellipse";
    SynthesisConfig sc = small_synthesis(160);
    sc.kind = kind;
    sc.bent.mesh_cols = 8;
    sc.bent.mesh_rows = 3;
    sc.bent.length_px = 24.0;
    const auto field = make_field();
    util::Rng rng(808);
    std::vector<SpotInstance> spots = random_spots(rng, 300);

    DncConfig contiguous_cfg;
    contiguous_cfg.processors = 4;
    contiguous_cfg.pipes = 2;
    paper::PipeSynthesizer contiguous(sc, contiguous_cfg);
    core::SerialSynthesizer serial(sc);
    struct Tiled {
      std::unique_ptr<DncSynthesizer> full;
      std::unique_ptr<DncSynthesizer> planned;
      SynthesisCache cache;
    };
    std::vector<Tiled> tiled(2);
    std::vector<std::unique_ptr<DncSynthesizer>> untiled;
    for (std::size_t i = 0; i < tiled.size(); ++i) {
      const DncConfig dnc = tiled_config(i == 0 ? 1 : 4);
      tiled[i].full = std::make_unique<DncSynthesizer>(sc, dnc);
      tiled[i].planned = std::make_unique<DncSynthesizer>(sc, dnc);
      DncConfig flat = dnc;
      flat.tiled = false;
      untiled.push_back(std::make_unique<DncSynthesizer>(sc, flat));
    }
    std::int64_t reused = 0;
    for (int frame = 0; frame < 6; ++frame) {
      contiguous.synthesize(*field, spots);
      serial.synthesize(*field, spots, 1);
      ASSERT_EQ(contiguous.texture(), serial.texture()) << kind_name << ", frame " << frame;
      for (std::size_t i = 0; i < tiled.size(); ++i) {
        Tiled& t = tiled[i];
        t.full->synthesize(*field, spots);
        const SynthesisCache::Decision d = t.cache.plan(*t.planned, *field, spots);
        reused += t.planned->synthesize(*field, spots, d.incremental ? &d.plan : nullptr)
                      .tiles_reused;
        t.cache.commit(*t.planned, *field, std::vector<SpotInstance>(spots));
        untiled[i]->synthesize(*field, spots);
        EXPECT_EQ(t.full->texture(), serial.texture())
            << kind_name << ", full, frame " << frame;
        EXPECT_EQ(t.planned->texture(), serial.texture())
            << kind_name << ", planned, frame " << frame;
        EXPECT_EQ(untiled[i]->texture(), serial.texture())
            << kind_name << ", untiled, frame " << frame;
      }
      // Stir the spots inside the swirl core only; the rest of the texture
      // holds still and its tiles are retained.
      for (auto& s : spots) {
        const double dx = s.position.x - 1.0;
        const double dy = s.position.y - 1.0;
        if (dx * dx + dy * dy < 0.36) s.position = {1.0 - 0.9 * dy, 1.0 + 0.9 * dx};
      }
    }
    EXPECT_GT(reused, 0) << kind_name << ": the planned engines never retained a tile";
  }
}

// ------------------------------------- content-addressed cache + planning ---

// Same protocol as fuzz_sequence, but the incremental engine also runs the
// content-addressed TileStore (DncConfig::tile_cache) on a private Runtime
// with the given byte budget, stacking both reuse layers: planned-clean
// tiles are retained, dirty tiles are probed against the store before
// re-rendering. The oracle stays a plain uncached full re-render. Forced
// invalidations matter here: the all-dirty full frame that follows probes
// every tile. The population holds still on the frame before each
// invalidation, so those probes find the tiles the previous frame
// published — deterministic store hits rather than luck.
struct CachedFuzzTotals {
  std::int64_t hits = 0;
  std::int64_t evictions = 0;
};

CachedFuzzTotals cached_fuzz_sequence(DncConfig dnc, std::uint64_t seed,
                                      int frames, double churn,
                                      std::size_t cache_bytes) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  core::Runtime runtime({.workers = 4,
                         .tile_cache_bytes = cache_bytes,
                         .tile_cache_shards = 2});
  DncConfig cached_cfg = dnc;
  cached_cfg.tile_cache = true;
  DncSynthesizer full(sc, dnc);
  DncSynthesizer incremental(sc, cached_cfg, runtime);
  SynthesisCache cache;

  CachedFuzzTotals totals;
  util::Rng rng(seed);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  for (int frame = 0; frame < frames; ++frame) {
    if (frame % 17 == 11) cache.invalidate();

    const SynthesisCache::Decision d = cache.plan(incremental, *field, spots);
    const core::FrameStats stats =
        incremental.synthesize(*field, spots, d.incremental ? &d.plan : nullptr);
    cache.commit(incremental, *field, std::vector<SpotInstance>(spots));
    full.synthesize(*field, spots);

    EXPECT_EQ(full.texture(), incremental.texture())
        << "frame " << frame << " diverged (seed " << seed << ", budget "
        << cache_bytes << ")";
    totals.hits += stats.cache_tile_hits;
    totals.evictions += stats.cache_evictions;
    EXPECT_LE(runtime.tile_store().stats().bytes,
              runtime.tile_store().stats().budget_bytes);

    if (frame % 17 == 10) continue;  // freeze before the forced invalidation
    for (auto& s : spots) {
      if (rng.uniform() < churn) {
        s.position.x += rng.uniform(-0.05, 0.05);
        s.position.y += rng.uniform(-0.05, 0.05);
      }
    }
    if (rng.uniform() < 0.25 && spots.size() > 50) {
      spots.resize(spots.size() - 1 - static_cast<std::size_t>(rng.uniform() * 4));
    } else if (rng.uniform() < 0.25) {
      const auto born = static_cast<std::int64_t>(1 + rng.uniform() * 4);
      for (std::int64_t k = 0; k < born; ++k) {
        spots.push_back({{rng.uniform(kDomain.x0, kDomain.x1),
                          rng.uniform(kDomain.y0, kDomain.y1)},
                         0.2 * rng.intensity()});
      }
    }
  }
  return totals;
}

TEST(CachedIncrementalFuzz, StackedWithPlanningMatchesUncachedOracle) {
  // Roomy budget — 4 MiB holds every 16 KiB tile 40 frames can publish:
  // nothing evicts, and invalidation-forced full frames must actually come
  // back from the store.
  const CachedFuzzTotals totals =
      cached_fuzz_sequence(tiled_config(), 4242, 40, 0.04, 4u << 20);
  EXPECT_GT(totals.hits, 0) << "the store never served a tile";
  EXPECT_EQ(totals.evictions, 0);
}

TEST(CachedIncrementalFuzz, MidRunEvictionsStayBitInvisible) {
  // Two 64x64 tiles' worth of budget for a 4-tile frame: publishes evict
  // mid-sequence every frame, so probes race real churn. Still exact.
  const CachedFuzzTotals totals = cached_fuzz_sequence(
      tiled_config(), 777, 30, 0.04, 2u * 64u * 64u * sizeof(float));
  EXPECT_GT(totals.evictions, 0) << "budget did not actually thrash";
}

// --------------------------------------------------- cache invalidation ---

TEST(SynthesisCache, FullFrameOnFirstUseAndAfterInvalidate) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  EXPECT_TRUE(cache.plan(engine, *field, spots).incremental);

  cache.invalidate();
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
}

TEST(SynthesisCache, UncommittedEngineFrameInvalidates) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  // Someone else drives the engine: the retained final texture no longer
  // matches the cache's snapshot.
  engine.synthesize(*field, spots);
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
}

TEST(SynthesisCache, FieldChangeInvalidates) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  const auto other = make_field();  // different object, same values
  EXPECT_FALSE(cache.plan(engine, *other, spots).incremental);
}

TEST(SynthesisCache, InPlaceFieldMutationInvalidates) {
  // Aliasing regression for the old 8-point probe: the field object is
  // mutated IN PLACE — same address, so the identity check passes — and the
  // change is confined to a 0.05-radius disc placed on a fingerprint grid
  // sample but away from every legacy probe coordinate (nearest was ~0.98
  // domain units). Only the full 16x16 content grid can catch it; under the
  // probe scheme this exact sequence served stale tiles.
  const SynthesisConfig sc = small_synthesis();
  double bump = 0.0;
  constexpr double kCenterX = 1.375;  // grid sample (5, 9) of the 16x16 grid
  constexpr double kCenterY = 2.375;
  field::CallableField field(
      [&bump](field::Vec2 p) -> field::Vec2 {
        const double dx = p.x - kCenterX;
        const double dy = p.y - kCenterY;
        if (dx * dx + dy * dy > 0.0025) return {0.0, 0.0};
        return {bump, 0.0};
      },
      kDomain, 0.6);

  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(field, spots);
  cache.commit(engine, field, std::vector<SpotInstance>(spots));
  ASSERT_TRUE(cache.plan(engine, field, spots).incremental);

  const field::FieldFingerprint before = field::fingerprint_field(field);
  bump = 0.5;  // in-place content change, address unchanged
  const field::FieldFingerprint after = field::fingerprint_field(field);
  EXPECT_NE(before.hash, after.hash);
  EXPECT_FALSE(cache.plan(engine, field, spots).incremental);
}

TEST(SynthesisCache, NonTiledEngineAlwaysFull) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.pipes = 2;
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  EXPECT_FALSE(cache.plan(engine, *field, spots).incremental);
  EXPECT_FALSE(cache.valid());
}

TEST(SynthesisCache, PlanOnNonTiledEngineRejectedByEngine) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.pipes = 2;
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  core::FramePlan plan;
  plan.tile_dirty = {1, 1};
  EXPECT_THROW((void)engine.synthesize(*field, spots, &plan), util::Error);
}

TEST(SynthesisCache, OtherEngineInvalidates) {
  // The snapshot describes one engine's retained texture: planning for a
  // second engine — even one at the same frame serial — must not reuse it.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  DncSynthesizer other(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(5);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(*field, spots);
  other.synthesize(*field, spots);
  ASSERT_EQ(engine.frame_serial(), other.frame_serial());
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  EXPECT_FALSE(cache.plan(other, *field, spots).incremental);
}

TEST(SynthesisCache, PlannedFramesNeverForceAFullFrame) {
  // The render grid is fixed, so a valid snapshot stays plannable for as
  // long as the session runs.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(21);
  const auto spots = random_spots(rng, sc.spot_count);
  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  for (int frame = 0; frame < 70; ++frame) {
    const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
    ASSERT_TRUE(d.incremental) << "frame " << frame;
    EXPECT_EQ(d.plan.dirty_count(), 0);
    const core::FrameStats stats = engine.synthesize(*field, spots, &d.plan);
    EXPECT_EQ(stats.spots_submitted, 0);
    cache.commit(engine, *field, std::vector<SpotInstance>(spots));
  }
}

TEST(IncrementalStats, PeakPixelMagnitudeStaysInsideLatticeBudget) {
  // The exactness guarantee needs per-pixel sums inside the lattice's
  // exact range; FrameStats::peak_pixel_magnitude is the canary. A
  // standard population must sit far below the bound.
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  util::Rng rng(31);
  const auto spots = random_spots(rng, sc.spot_count);
  const core::FrameStats stats = engine.synthesize(*field, spots);
  EXPECT_GT(stats.peak_pixel_magnitude, 0.0);
  EXPECT_LT(stats.peak_pixel_magnitude,
            0.25 * util::simd::kContributionExactBound);
}

// --------------------------------------------------- reuse accounting ---

TEST(IncrementalStats, ReuseIsAccountedAndRetentionSkipsWork) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncSynthesizer engine(sc, tiled_config());
  SynthesisCache cache;
  util::Rng rng(11);
  std::vector<SpotInstance> spots = random_spots(rng, sc.spot_count);
  // Pin spot 0 to the interior of the top-left 64x64 tile — pixel (32, 32),
  // far enough from every boundary that its conservative extent stays
  // inside one tile.
  spots[0].position = {1.0, 3.0};

  engine.synthesize(*field, spots);
  cache.commit(engine, *field, std::vector<SpotInstance>(spots));

  // Change only its intensity: exactly one dirty tile.
  spots[0].intensity = -spots[0].intensity;
  const SynthesisCache::Decision d = cache.plan(engine, *field, spots);
  ASSERT_TRUE(d.incremental);
  EXPECT_EQ(d.plan.dirty_count(), 1);
  const core::FrameStats stats =
      engine.synthesize(*field, spots, &d.plan);
  EXPECT_EQ(stats.tiles_reused, 3);
  EXPECT_GT(stats.spots_skipped, 0);
  // Only the dirty tile was composed.
  EXPECT_EQ(stats.readback_bytes, 64u * 64u * sizeof(float));
  // And the result still matches a from-scratch engine exactly.
  DncSynthesizer oracle(sc, tiled_config());
  oracle.synthesize(*field, spots);
  EXPECT_EQ(oracle.texture(), engine.texture());
}

// ----------------------------------------------------- animator level ---

TEST(IncrementalAnimator, MatchesFullAnimatorBitwise) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();

  auto run = [&](bool incremental) {
    DncSynthesizer engine(sc, tiled_config());
    particles::ParticleSystemConfig pc;
    pc.count = sc.spot_count;
    pc.mean_lifetime = 100.0;  // few respawns across the run
    pc.fade_fraction = 0.0;    // plateau everywhere: intensities bit-stable
    particles::ParticleSystem particles(pc, kDomain, util::Rng(2024));
    core::AnimatorConfig ac;
    ac.normalize = false;  // compare raw synthesis output
    ac.incremental = incremental;
    core::Animator animator(ac, engine, particles,
                            [&](std::int64_t) -> const field::VectorField& {
                              return *field;
                            });
    std::vector<std::uint64_t> hashes;
    std::int64_t reused = 0;
    for (int frame = 0; frame < 12; ++frame) {
      const core::AnimationFrame out = animator.step();
      hashes.push_back(out.texture->content_hash());
      reused += out.synthesis.tiles_reused;
    }
    return std::pair{hashes, reused};
  };

  const auto [full_hashes, full_reused] = run(false);
  const auto [incr_hashes, incr_reused] = run(true);
  EXPECT_EQ(full_hashes, incr_hashes);
  EXPECT_EQ(full_reused, 0);
  EXPECT_GT(incr_reused, 0) << "slow-flow animation never reused a tile";
}

TEST(IncrementalAnimator, RequiresTiledEngine) {
  const SynthesisConfig sc = small_synthesis();
  const auto field = make_field();
  DncConfig dnc = tiled_config(2);
  dnc.pipes = 2;
  dnc.tiled = false;
  DncSynthesizer engine(sc, dnc);
  particles::ParticleSystemConfig pc;
  pc.count = 50;
  particles::ParticleSystem particles(pc, kDomain, util::Rng(1));
  core::AnimatorConfig ac;
  ac.incremental = true;
  EXPECT_THROW(core::Animator(ac, engine, particles,
                              [&](std::int64_t) -> const field::VectorField& {
                                return *field;
                              }),
               util::Error);
}

// ------------------------------------------------------- performance model ---

TEST(PerfModelIncremental, ReuseShrinksThePrediction) {
  core::PerfModelParams params;
  params.genP_per_spot = 4e-6;
  params.genT_per_spot = 1e-6;
  params.gather_per_pipe = 1e-4;
  params.fixed_overhead = 5e-5;
  const core::PerfModel model(params);
  const std::int64_t spots = 10000;
  const double full = model.predict(spots, 4, 4);
  // A quarter of the spots re-render, three of four tiles reused.
  const double incremental = model.predict_incremental(spots / 4, 4, 4, 3);
  EXPECT_LT(incremental, full);
  EXPECT_GT(full / incremental, 2.0);
  // No reuse degenerates to the full prediction.
  EXPECT_DOUBLE_EQ(model.predict_incremental(spots, 4, 4, 0),
                   model.predict(spots, 4, 4));
  // Everything reused: only fixed overhead remains.
  EXPECT_DOUBLE_EQ(model.predict_incremental(0, 4, 4, 4), params.fixed_overhead);
}

}  // namespace
