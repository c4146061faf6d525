// Tests for the load-balanced scheduler: StealableWorkCounter semantics,
// cross-group work-stealing equivalence against the serial baseline,
// cost-balanced (kd-cut) tiling, worker-exception propagation, the
// Runtime::parallel data-parallel primitive, and the raster/tiling bound
// fixes that rode along with the scheduler PR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/tiling.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace {

using namespace dcsn;
using field::Rect;

core::SynthesisConfig small_config() {
  core::SynthesisConfig config;
  config.texture_width = 128;
  config.texture_height = 128;
  config.spot_count = 400;
  config.spot_radius_px = 6.0;
  config.kind = core::SpotKind::kEllipse;
  return config;
}

// Half the spots crowded into one corner of the domain, the rest scattered:
// the distribution that starves a static partition (and the one the balance
// bench measures).
std::vector<core::SpotInstance> clustered_spots(const core::SynthesisConfig& config,
                                                Rect domain) {
  util::Rng rng(config.seed);
  std::vector<core::SpotInstance> spots;
  spots.reserve(static_cast<std::size_t>(config.spot_count));
  const double cx = domain.x0 + 0.2 * domain.width();
  const double cy = domain.y0 + 0.2 * domain.height();
  const double spread = 0.08 * domain.width();
  for (std::int64_t k = 0; k < config.spot_count; ++k) {
    core::SpotInstance spot;
    if (k < config.spot_count / 2) {
      spot.position = {rng.uniform(cx - spread, cx + spread),
                       rng.uniform(cy - spread, cy + spread)};
    } else {
      spot.position = {rng.uniform(domain.x0, domain.x1),
                       rng.uniform(domain.y0, domain.y1)};
    }
    spot.intensity = rng.intensity();
    spots.push_back(spot);
  }
  return spots;
}

double max_abs_difference(const render::Framebuffer& a, const render::Framebuffer& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  double worst = 0.0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      worst = std::max(worst, std::abs(double(a.at(x, y)) - double(b.at(x, y))));
  return worst;
}

// ---------------------------------------------------- StealableWorkCounter ---

TEST(StealableWorkCounter, ClaimTakesFromFrontStealFromBack) {
  util::StealableWorkCounter counter(100, 10);
  const auto front = counter.claim();
  EXPECT_EQ(front.begin, 0);
  EXPECT_EQ(front.end, 10);
  const auto back = counter.steal(25);
  EXPECT_EQ(back.begin, 75);
  EXPECT_EQ(back.end, 100);
  EXPECT_EQ(counter.remaining(), 65);
}

TEST(StealableWorkCounter, DrainsExactlyOnceFromBothEnds) {
  util::StealableWorkCounter counter(47, 5);
  std::vector<bool> seen(47, false);
  bool from_front = true;
  while (true) {
    const auto range = from_front ? counter.claim() : counter.steal(3);
    from_front = !from_front;
    if (range.empty()) {
      if ((from_front ? counter.claim() : counter.steal(3)).empty()) break;
      continue;
    }
    for (std::int64_t k = range.begin; k < range.end; ++k) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(k)]) << "item " << k << " handed out twice";
      seen[static_cast<std::size_t>(k)] = true;
    }
  }
  EXPECT_TRUE(counter.drained());
  for (std::size_t k = 0; k < seen.size(); ++k)
    EXPECT_TRUE(seen[k]) << "item " << k << " never handed out";
}

TEST(StealableWorkCounter, ConcurrentClaimAndStealCoverEveryItemOnce) {
  constexpr std::int64_t kTotal = 20000;
  util::StealableWorkCounter counter(kTotal, 7);
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);

  auto owner = [&] {
    for (auto range = counter.claim(); !range.empty(); range = counter.claim())
      for (std::int64_t k = range.begin; k < range.end; ++k)
        hits[static_cast<std::size_t>(k)].fetch_add(1, std::memory_order_relaxed);
  };
  auto thief = [&] {
    for (auto range = counter.steal(5); !range.empty(); range = counter.steal(5))
      for (std::int64_t k = range.begin; k < range.end; ++k)
        hits[static_cast<std::size_t>(k)].fetch_add(1, std::memory_order_relaxed);
  };

  {
    std::vector<std::jthread> threads;
    threads.emplace_back(owner);
    for (int t = 0; t < 3; ++t) threads.emplace_back(thief);
  }
  EXPECT_TRUE(counter.drained());
  for (std::int64_t k = 0; k < kTotal; ++k)
    ASSERT_EQ(hits[static_cast<std::size_t>(k)].load(), 1) << "item " << k;
}

TEST(StealableWorkCounter, ResetRearmsForTheNextFrame) {
  util::StealableWorkCounter counter(10, 4);
  while (!counter.claim().empty()) {
  }
  EXPECT_TRUE(counter.drained());
  counter.reset(6);
  EXPECT_EQ(counter.remaining(), 6);
  const auto range = counter.claim();
  EXPECT_EQ(range.begin, 0);
  EXPECT_EQ(range.end, 4);
}

TEST(StealableWorkCounter, RejectsTotalsBeyondThePackedWidth) {
  util::StealableWorkCounter counter(0, 1);
  EXPECT_THROW(counter.reset(std::int64_t{1} << 32), util::Error);
  EXPECT_THROW(counter.reset(-1), util::Error);
}

// -------------------------------------------- stealing equivalence vs serial ---

// Work stealing re-routes which pipe renders which spot, but the blend is a
// sum (contiguous) or a disjoint copy (tiled), so the result must match the
// serial baseline up to float summation order — for every mode, pipe count,
// and spot distribution.
TEST(Scheduling, StealingMatchesSerialAcrossModesAndPipeCounts) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  core::SerialSynthesizer serial(config);

  for (const bool clustered : {false, true}) {
    const auto spots = clustered ? clustered_spots(config, domain)
                                 : [&] {
                                     util::Rng rng(config.seed);
                                     return core::make_random_spots(
                                         domain, config.spot_count, rng);
                                   }();
    serial.synthesize(*f, spots);
    const double sigma = render::texture_stddev(serial.texture());
    for (const bool tiled : {false, true}) {
      for (const int pipes : {1, 2, 4}) {
        core::DncConfig dnc;
        dnc.processors = 4;
        dnc.pipes = pipes;
        dnc.tiled = tiled;
        dnc.steal = true;
        dnc.tile_strategy = core::TileStrategy::kCostBalanced;
        core::DncSynthesizer engine(config, dnc);
        engine.synthesize(*f, spots);
        EXPECT_LT(max_abs_difference(serial.texture(), engine.texture()),
                  1e-4 * sigma + 1e-6)
            << (clustered ? "clustered" : "uniform") << " spots, "
            << (tiled ? "tiled" : "contiguous") << " mode, " << pipes << " pipes";
      }
    }
  }
}

TEST(Scheduling, ThievesDrainTheLoadedGroup) {
  // Grid tiling + clustered spots: one region holds nearly all the work, so
  // the other groups' masters drain instantly and must steal.
  auto config = small_config();
  config.spot_count = 2000;
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = clustered_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  dnc.tiled = true;
  dnc.tile_strategy = core::TileStrategy::kGrid;
  core::DncSynthesizer engine(config, dnc);
  std::int64_t stolen = 0;
  double imbalance = 0.0;
  for (int frame = 0; frame < 3; ++frame) {
    const auto stats = engine.synthesize(*f, spots);
    stolen += stats.stolen_chunks;
    imbalance = std::max(imbalance, stats.imbalance);
    EXPECT_GE(stats.stolen_spots, stats.stolen_chunks);
    EXPECT_GE(stats.steal_seconds, 0.0);
  }
  EXPECT_GT(imbalance, 1.5) << "the workload no longer stresses the partition";
  EXPECT_GT(stolen, 0) << "idle groups never stole from the loaded one";
}

TEST(Scheduling, ContiguousStealingConservesGeometry) {
  // Contiguous mode has no duplicates, so however chunks migrate between
  // pipes, the total vertex count must equal spots * vertices-per-spot.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = clustered_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 4;
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);
  std::int64_t vertices = 0;
  for (int g = 0; g < dnc.pipes; ++g) vertices += engine.pipe_stats(g).vertices;
  EXPECT_EQ(vertices, config.spot_count * config.vertices_per_spot());
  EXPECT_EQ(stats.duplicated_spots, 0);
}

TEST(Scheduling, ModeledCriticalPathIsConsistent) {
  // The eq. 3.2 model: critical paths are maxima of per-component CPU
  // times, and the modeled frame is assign + max(genP, genT) + gather.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = clustered_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  core::DncSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);
  EXPECT_GT(stats.genP_critical_seconds, 0.0);
  EXPECT_GT(stats.genT_critical_seconds, 0.0);
  EXPECT_LE(stats.genP_critical_seconds, stats.genP_seconds + 1e-12);
  EXPECT_LE(stats.genT_critical_seconds, stats.genT_seconds + 1e-12);
  EXPECT_NEAR(stats.modeled_frame_seconds,
              stats.assign_seconds +
                  std::max(stats.genP_critical_seconds, stats.genT_critical_seconds) +
                  stats.gather_seconds,
              1e-12);
  EXPECT_GT(stats.modeled_textures_per_second(), 0.0);
}

// ------------------------------------------------- worker exception protocol ---

// A field whose sample() throws inside the workers' generate calls — the
// stand-in for any DCSN_CHECK tripping mid-frame.
std::unique_ptr<field::VectorField> faulty_field(Rect domain) {
  return std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        if (p.x > 1.0) throw util::Error("injected worker failure");
        return {0.1, 0.2};
      },
      domain, 1.0);
}

TEST(Scheduling, WorkerExceptionRethrownOnCallerAndEngineStaysUsable) {
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto good = field::analytic::taylor_green(1.0, domain);
  const auto bad = faulty_field(domain);
  util::Rng rng(config.seed);
  const auto spots = core::make_random_spots(domain, config.spot_count, rng);

  for (const bool tiled : {false, true}) {
    core::DncConfig dnc;
    dnc.processors = 4;
    dnc.pipes = 2;  // masters and slaves both in play
    dnc.tiled = tiled;
    core::DncSynthesizer engine(config, dnc);
    // Without the exception protocol this call never returns: the throwing
    // worker skips the end barrier and synthesize() waits forever.
    EXPECT_THROW(engine.synthesize(*bad, spots), util::Error)
        << (tiled ? "tiled" : "contiguous");
    // The frame was abandoned cleanly: the same engine must still produce
    // correct frames afterwards.
    core::SerialSynthesizer serial(config);
    serial.synthesize(*good, spots);
    engine.synthesize(*good, spots);
    const double sigma = render::texture_stddev(serial.texture());
    EXPECT_LT(max_abs_difference(serial.texture(), engine.texture()),
              1e-4 * sigma + 1e-6)
        << (tiled ? "tiled" : "contiguous");
  }
}

// ------------------------------------------------ Runtime::parallel primitive ---

TEST(RuntimeParallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kGrain = 64;
  core::Runtime runtime;
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, kGrain - 1, kGrain,
                               std::int64_t{100000}}) {
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    runtime.parallel_for(n, kGrain, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        visits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << "n=" << n << " i=" << i;
    }
  }
  EXPECT_EQ(runtime.active_job_count(), 0);
}

TEST(RuntimeParallel, ChunkBoundariesDoNotDependOnTheParticipantCap) {
  // The partition is a function of (n, grain) alone: chunk k is
  // [k*grain, min((k+1)*grain, n)) whoever claims it.
  constexpr std::int64_t kN = 10007;
  constexpr std::int64_t kGrain = 37;
  constexpr std::int64_t kChunks = (kN + kGrain - 1) / kGrain;
  core::Runtime runtime;
  auto chunk_ends = [&](int cap) {
    std::vector<std::atomic<std::int64_t>> ends(kChunks);
    std::atomic<int> misaligned{0};
    runtime.parallel_for(
        kN, kGrain,
        [&](std::int64_t begin, std::int64_t end) {
          if (begin % kGrain != 0) misaligned.fetch_add(1);
          ends[static_cast<std::size_t>(begin / kGrain)].store(end);
        },
        cap);
    EXPECT_EQ(misaligned.load(), 0) << "cap " << cap;
    std::vector<std::int64_t> out;
    for (const auto& e : ends) out.push_back(e.load());
    return out;
  };
  const std::vector<std::int64_t> one = chunk_ends(1);
  const std::vector<std::int64_t> four = chunk_ends(4);
  ASSERT_EQ(one.size(), static_cast<std::size_t>(kChunks));
  for (std::int64_t k = 0; k < kChunks; ++k) {
    EXPECT_EQ(one[static_cast<std::size_t>(k)], std::min((k + 1) * kGrain, kN));
  }
  EXPECT_EQ(one, four);
}

TEST(RuntimeParallel, ThrowRethrowsOnCallerAfterEveryParticipantLeft) {
  core::Runtime runtime;
  std::atomic<int> inside{0};
  std::atomic<int> participants{0};
  struct Seat {
    std::atomic<int>& inside;
    ~Seat() { inside.fetch_sub(1); }
  };
  bool caught = false;
  try {
    runtime.parallel(256, 1, 4, [&](util::WorkCounter& work) {
      inside.fetch_add(1);
      participants.fetch_add(1);
      const Seat seat{inside};
      for (auto r = work.claim(); !r.empty(); r = work.claim()) {
        if (r.begin == 16) throw std::runtime_error("injected body failure");
        // Slow chunks keep the other participants mid-claim when the
        // failure lands.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "injected body failure");
    EXPECT_EQ(inside.load(), 0) << "rethrown while a participant was still inside";
  }
  EXPECT_TRUE(caught);
  EXPECT_GE(participants.load(), 1);
  EXPECT_EQ(runtime.active_job_count(), 0) << "a failed loop leaked its job";
  // The runtime stays usable.
  std::atomic<std::int64_t> sum{0};
  runtime.parallel_for(std::int64_t{1000}, 10, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(RuntimeParallel, NestedCallFromAPoolTaskCompletesOnAOneWorkerRuntime) {
  // The only worker runs the task; the loop inside it has nobody to wait
  // for because its caller participates. A cap of two needs one pool
  // worker, which the runtime already has, so the pool does not grow.
  core::Runtime runtime(core::RuntimeConfig{.workers = 1});
  auto result = runtime.async([&runtime] {
    std::atomic<std::int64_t> sum{0};
    runtime.parallel_for(
        std::int64_t{5000}, 50,
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
        },
        2);
    return sum.load();
  });
  EXPECT_EQ(result.get(), std::int64_t{4999} * 5000 / 2);
  EXPECT_EQ(runtime.worker_count(), 1);
  EXPECT_EQ(runtime.active_job_count(), 0);
}

// ------------------------------------------------------- rasterizer clamping ---

TEST(Rasterizer, FarOffscreenVerticesAreClampedNotUndefined) {
  render::Framebuffer fb(32, 32);
  const render::RasterTarget target{fb.pixels(), 0, 0};
  const render::SpotProfile profile(render::SpotShape::kCosine, 16);
  render::RasterStats stats;
  // A triangle whose vertices sit ~1e12 px away but whose interior covers
  // the whole target: the unclamped float->int cast was UB here.
  const render::MeshVertex a{-1e12f, -1e12f, 0.5f, 0.5f};
  const render::MeshVertex b{1e12f, -1e12f, 0.5f, 0.5f};
  const render::MeshVertex c{0.0f, 1e12f, 0.5f, 0.5f};
  rasterize_triangle(target, a, b, c, 1.0f, profile,
                     render::BlendMode::kAdditive, stats);
  EXPECT_LE(stats.fragments, 32 * 32);
  for (int y = 0; y < fb.height(); ++y)
    for (int x = 0; x < fb.width(); ++x)
      ASSERT_TRUE(std::isfinite(fb.at(x, y))) << x << "," << y;
}

TEST(Rasterizer, EntirelyOffscreenTriangleIsRejectedInFloatSpace) {
  render::Framebuffer fb(32, 32);
  const render::RasterTarget target{fb.pixels(), 0, 0};
  const render::SpotProfile profile(render::SpotShape::kCosine, 16);
  render::RasterStats stats;
  const render::MeshVertex a{1e12f, 5.0f, 0.0f, 0.0f};
  const render::MeshVertex b{2e12f, 5.0f, 1.0f, 0.0f};
  const render::MeshVertex c{1.5e12f, 2e12f, 0.5f, 1.0f};
  rasterize_triangle(target, a, b, c, 1.0f, profile,
                     render::BlendMode::kAdditive, stats);
  EXPECT_EQ(stats.fragments, 0);
}

TEST(Rasterizer, NanVerticesAreRejected) {
  render::Framebuffer fb(16, 16);
  const render::RasterTarget target{fb.pixels(), 0, 0};
  const render::SpotProfile profile(render::SpotShape::kCosine, 16);
  render::RasterStats stats;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const render::MeshVertex a{nan, 4.0f, 0.0f, 0.0f};
  const render::MeshVertex b{8.0f, nan, 1.0f, 0.0f};
  const render::MeshVertex c{4.0f, 8.0f, 0.5f, 1.0f};
  rasterize_triangle(target, a, b, c, 1.0f, profile,
                     render::BlendMode::kAdditive, stats);
  EXPECT_EQ(stats.fragments, 0);
  for (int y = 0; y < fb.height(); ++y)
    for (int x = 0; x < fb.width(); ++x) ASSERT_EQ(fb.at(x, y), 0.0f);
}

// ----------------------------------------------------------- tiling bounds ---

TEST(TileAssignment, SpotTouchingExclusiveEdgeIsNotDuplicated) {
  // Two side-by-side tiles; a tile covers the half-open rect [x0, x0+w).
  const std::vector<core::Tile> tiles{{0, 0, 64, 128}, {64, 0, 64, 128}};
  // Identity-ish world->pixel map (y flipped; irrelevant here, y is centered).
  const render::WorldToImage mapping({0, 0, 128, 128}, 128, 128);

  // lo_x lands exactly on the boundary: the spot's extent only touches the
  // left tile's exclusive edge, so it belongs to the right tile alone. The
  // old inclusive bound duplicated it into the left tile too.
  std::vector<core::SpotInstance> boundary(1);
  boundary[0].position = {68.0, 64.0};  // extent [64, 72]
  const auto touching = assign_spots_to_tiles(boundary, mapping, 4.0, tiles);
  EXPECT_TRUE(touching.per_tile[0].empty());
  ASSERT_EQ(touching.per_tile[1].size(), 1u);
  EXPECT_EQ(touching.duplicates, 0);

  // hi_x on the boundary genuinely reaches the right tile's first column:
  // that one is a real duplicate.
  std::vector<core::SpotInstance> straddling(1);
  straddling[0].position = {60.0, 64.0};  // extent [56, 64]
  const auto crossing = assign_spots_to_tiles(straddling, mapping, 4.0, tiles);
  EXPECT_EQ(crossing.per_tile[0].size(), 1u);
  EXPECT_EQ(crossing.per_tile[1].size(), 1u);
  EXPECT_EQ(crossing.duplicates, 1);
}

TEST(TileAssignment, EverySpotLandsInAtLeastOneTile) {
  const auto tiles = core::make_tile_grid(128, 128, 4);
  const render::WorldToImage mapping({0, 0, 128, 128}, 128, 128);
  util::Rng rng(7);
  std::vector<core::SpotInstance> spots(500);
  for (auto& spot : spots)
    spot.position = {rng.uniform(0.0, 128.0), rng.uniform(0.0, 128.0)};
  const auto assignment = assign_spots_to_tiles(spots, mapping, 6.0, tiles);
  std::vector<bool> seen(spots.size(), false);
  for (const auto& tile : assignment.per_tile)
    for (const std::int64_t k : tile) seen[static_cast<std::size_t>(k)] = true;
  for (std::size_t k = 0; k < seen.size(); ++k)
    EXPECT_TRUE(seen[k]) << "spot " << k << " assigned to no tile";
  EXPECT_GE(assignment.duplicates, 0);
}

TEST(TileGrid, RejectsMoreTilesThanTheTextureCanHost) {
  // 8 tiles want a 3x3 grid; a 4-px-wide texture only hosts 4 columns of
  // whole-pixel tiles in a 2-row layout — previously this silently produced
  // zero-width tiles and threw from deep inside Framebuffer.
  EXPECT_THROW(core::make_tile_grid(4, 2, 8), util::Error);
  EXPECT_THROW(core::make_tile_grid(2, 100, 9), util::Error);
  try {
    (void)core::make_tile_grid(4, 2, 8);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("4x2"), std::string::npos)
        << "error should name the texture limit: " << e.what();
  }
}

TEST(TileGrid, DncSynthesizerSurfacesTheTileLimitUpFront) {
  auto config = small_config();
  config.texture_width = 4;
  config.texture_height = 2;
  core::DncConfig dnc;
  dnc.processors = 8;
  dnc.pipes = 8;
  dnc.tiled = true;
  EXPECT_THROW(core::DncSynthesizer(config, dnc), util::Error);
}

// ------------------------------------------------------- cost-balanced tiles ---

TEST(BalancedTiles, PartitionTheTextureExactly) {
  const render::WorldToImage mapping({0, 0, 1, 1}, 96, 64);
  util::Rng rng(11);
  std::vector<core::SpotInstance> spots(300);
  for (auto& spot : spots)
    spot.position = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
  for (const int count : {1, 2, 3, 4, 7}) {
    const auto tiles = core::make_balanced_tiles(96, 64, count, spots, mapping);
    ASSERT_EQ(tiles.size(), static_cast<std::size_t>(count));
    std::vector<int> cover(96 * 64, 0);
    for (const auto& tile : tiles) {
      EXPECT_GT(tile.width, 0);
      EXPECT_GT(tile.height, 0);
      for (int y = tile.y0; y < tile.y0 + tile.height; ++y)
        for (int x = tile.x0; x < tile.x0 + tile.width; ++x) ++cover[y * 96 + x];
    }
    for (std::size_t p = 0; p < cover.size(); ++p)
      ASSERT_EQ(cover[p], 1) << "pixel " << p << " covered " << cover[p]
                             << " times with " << count << " tiles";
  }
}

TEST(BalancedTiles, KdCutBalancesAClusteredDistribution) {
  const int width = 128, height = 128;
  const render::WorldToImage mapping({0, 0, 2, 2}, width, height);
  auto config = small_config();
  config.spot_count = 2000;
  const auto spots = clustered_spots(config, {0, 0, 2, 2});

  auto count_per_tile = [&](const std::vector<core::Tile>& tiles) {
    std::vector<std::int64_t> counts(tiles.size(), 0);
    for (const auto& spot : spots) {
      const auto [px, py] = mapping.map(spot.position);
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        const auto& tile = tiles[t];
        if (px >= tile.x0 && px < tile.x0 + tile.width && py >= tile.y0 &&
            py < tile.y0 + tile.height) {
          ++counts[t];
          break;
        }
      }
    }
    return counts;
  };
  auto imbalance = [](const std::vector<std::int64_t>& counts) {
    std::int64_t total = 0, worst = 0;
    for (const std::int64_t c : counts) {
      total += c;
      worst = std::max(worst, c);
    }
    return static_cast<double>(worst) * static_cast<double>(counts.size()) /
           static_cast<double>(total);
  };

  const auto grid = count_per_tile(core::make_tile_grid(width, height, 4));
  const auto kd =
      count_per_tile(core::make_balanced_tiles(width, height, 4, spots, mapping));
  EXPECT_GT(imbalance(grid), 1.8) << "the cluster no longer stresses the grid";
  EXPECT_LT(imbalance(kd), 1.4);
  EXPECT_LT(imbalance(kd), imbalance(grid));
}

TEST(BalancedTiles, HonorsPerSpotCostWeights) {
  // Two spot camps with equal counts, but the left camp is 9x as expensive:
  // the uniform-cost cut lands near the middle, the weighted cut shifts left
  // so each side carries similar cost.
  const int width = 100, height = 10;
  const render::WorldToImage mapping({0, 0, 100, 10}, width, height);
  std::vector<core::SpotInstance> spots(200);
  std::vector<double> costs(200);
  util::Rng rng(3);
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const bool left = k < 100;
    spots[k].position = {left ? rng.uniform(10.0, 30.0) : rng.uniform(70.0, 90.0),
                         rng.uniform(0.0, 10.0)};
    costs[k] = left ? 9.0 : 1.0;
  }
  const auto even = core::make_balanced_tiles(width, height, 2, spots, mapping);
  const auto weighted =
      core::make_balanced_tiles(width, height, 2, spots, mapping, costs);
  ASSERT_EQ(even.size(), 2u);
  ASSERT_EQ(weighted.size(), 2u);
  EXPECT_LT(weighted[0].width, even[0].width)
      << "the weighted cut should move toward the expensive camp";
}

}  // namespace
