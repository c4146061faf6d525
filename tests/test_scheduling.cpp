// Tests for the load-balanced scheduler: StealableWorkCounter semantics,
// the paper model's cross-group work-stealing equivalence against the
// serial baseline, worker-exception propagation in both engines, the Runtime::parallel data-parallel
// primitive, the raster/tiling bound fixes that rode along with the
// scheduler PR, and the row-grid tile index checked against a brute-force
// scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/frame_delta.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/tiling.hpp"
#include "field/analytic.hpp"
#include "paper/pipe_synthesizer.hpp"
#include "render/framebuffer.hpp"
#include "render/pipe.hpp"
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
// sum, so the paper model must match the serial baseline up to float
// summation order — for every pipe count and spot distribution, as must
// the served engine in both modes.
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
    const auto check = [&](const render::Framebuffer& texture, const std::string& what) {
      EXPECT_LT(max_abs_difference(serial.texture(), texture), 1e-4 * sigma + 1e-6)
          << (clustered ? "clustered" : "uniform") << " spots, " << what;
    };
    for (const int pipes : {1, 2, 4}) {
      core::DncConfig dnc;
      dnc.processors = 4;
      dnc.pipes = pipes;
      dnc.steal = true;
      paper::PipeSynthesizer model(config, dnc);
      model.synthesize(*f, spots);
      check(model.texture(), "paper model, " + std::to_string(pipes) + " pipes");
    }
    for (const bool tiled : {false, true}) {
      core::DncConfig dnc;
      dnc.processors = 4;
      dnc.tiled = tiled;
      core::DncSynthesizer engine(config, dnc);
      engine.synthesize(*f, spots);
      check(engine.texture(), tiled ? "served, tiled" : "served, untiled");
    }
  }
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
  paper::PipeSynthesizer engine(config, dnc);
  const auto stats = engine.synthesize(*f, spots);
  std::int64_t vertices = 0;
  for (int g = 0; g < dnc.pipes; ++g) vertices += engine.pipe_stats(g).vertices;
  EXPECT_EQ(vertices, config.spot_count * config.vertices_per_spot());
  EXPECT_EQ(stats.duplicated_spots, 0);
}

TEST(Scheduling, ModeledCriticalPathIsConsistent) {
  // The eq. 3.2 model: critical paths are maxima of per-component CPU
  // times. In the paper model generation overlaps the pipes, so the modeled
  // frame is assign + max(genP, genT) + gather; a served participant
  // rasterizes what it generated, so its critical path is at least the
  // larger of the two and at most their sum.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto spots = clustered_spots(config, domain);
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  paper::PipeSynthesizer model(config, dnc);
  const auto stats = model.synthesize(*f, spots);
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

  core::DncSynthesizer engine(config, dnc);
  const auto served = engine.synthesize(*f, spots);
  const double overhead = served.assign_seconds + served.gather_seconds;
  EXPECT_GE(served.modeled_frame_seconds - overhead + 1e-12,
            std::max(served.genP_critical_seconds, served.genT_critical_seconds));
  EXPECT_LE(served.modeled_frame_seconds - overhead,
            served.genP_critical_seconds + served.genT_critical_seconds + 1e-12);
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
  core::SerialSynthesizer serial(config);
  serial.synthesize(*good, spots);
  const double sigma = render::texture_stddev(serial.texture());

  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;  // the paper model: masters and producers both in play
  // Without the exception protocol these calls never return: the throwing
  // worker leaves the frame and synthesize() waits forever. The frame is
  // abandoned cleanly: the same engine must still produce correct frames
  // afterwards.
  {
    paper::PipeSynthesizer model(config, dnc);
    EXPECT_THROW(model.synthesize(*bad, spots), util::Error) << "paper model";
    model.synthesize(*good, spots);
    EXPECT_LT(max_abs_difference(serial.texture(), model.texture()),
              1e-4 * sigma + 1e-6)
        << "paper model";
  }
  for (const bool tiled : {false, true}) {
    dnc.tiled = tiled;
    core::DncSynthesizer engine(config, dnc);
    EXPECT_THROW(engine.synthesize(*bad, spots), util::Error)
        << (tiled ? "tiled" : "untiled");
    engine.synthesize(*good, spots);
    EXPECT_EQ(serial.texture(), engine.texture()) << (tiled ? "tiled" : "untiled");
  }
}

TEST(TiledEngine, ThrowingFieldReturnsEveryPartialAndTheNextFrameRenders) {
  // Participants rasterize into pooled full-texture partials; a
  // participant whose field throws mid-chunk must hand its partial back,
  // and so must every participant that finished before the failure
  // surfaced — tiled or untiled, ellipse or bent spots. Processors 1 runs
  // the frame inline on the caller, 4 spreads it over the pool.
  const Rect domain{0, 0, 2, 2};
  const auto good = field::analytic::taylor_green(1.0, domain);
  const auto bad = faulty_field(domain);
  for (const core::SpotKind kind : {core::SpotKind::kEllipse, core::SpotKind::kBent}) {
    auto config = small_config();
    config.kind = kind;
    config.bent.mesh_cols = 8;
    config.bent.mesh_rows = 3;
    config.bent.length_px = 24.0;
    util::Rng rng(config.seed);
    const auto spots = core::make_random_spots(domain, config.spot_count, rng);
    core::SerialSynthesizer serial(config);
    serial.synthesize(*good, spots);

    for (const bool tiled : {true, false}) {
      for (const int processors : {1, 4}) {
        const std::string what = std::string(kind == core::SpotKind::kBent ? "bent" : "ellipse") +
                                 (tiled ? ", tiled, " : ", untiled, ") +
                                 std::to_string(processors) + " processors";
        core::Runtime runtime({.workers = 3});
        core::DncConfig dnc;
        dnc.processors = processors;
        dnc.chunk_spots = 16;
        dnc.tiled = tiled;
        core::DncSynthesizer engine(config, dnc, runtime);
        const std::int64_t outstanding = runtime.framebuffers().outstanding_count();
        for (int attempt = 0; attempt < 3; ++attempt) {
          EXPECT_THROW(engine.synthesize(*bad, spots), util::Error) << what;
          EXPECT_EQ(runtime.framebuffers().outstanding_count(), outstanding)
              << what << ": a partial leaked";
        }
        engine.synthesize(*good, spots);
        EXPECT_EQ(engine.texture(), serial.texture()) << what;
        EXPECT_EQ(runtime.framebuffers().outstanding_count(), outstanding) << what;
      }
    }
  }
}

TEST(TiledEngine, AcquiresNoPipe) {
  // The served engine renders on the runtime pool, tiled or not: `pipes`
  // does not start a single pipe server thread, whatever it says.
  const auto config = small_config();
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  util::Rng rng(config.seed);
  const auto spots = core::make_random_spots(domain, config.spot_count, rng);
  core::Runtime runtime({.workers = 2});
  const std::int64_t created = render::GraphicsPipe::created_count();
  for (const bool tiled : {true, false}) {
    core::DncConfig dnc;
    dnc.processors = 4;
    dnc.pipes = 4;
    dnc.tiled = tiled;
    core::DncSynthesizer engine(config, dnc, runtime);
    EXPECT_EQ(engine.rasterizers(), dnc.processors);
    for (int frame = 0; frame < 3; ++frame) (void)engine.synthesize(*f, spots);
  }
  EXPECT_EQ(render::GraphicsPipe::created_count(), created);
  // The counter does count: the paper model starts one pipe per group.
  {
    core::DncConfig dnc;
    dnc.processors = 4;
    dnc.pipes = 2;
    paper::PipeSynthesizer model(config, dnc, runtime);
  }
  EXPECT_EQ(render::GraphicsPipe::created_count(), created + 2);
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

TEST(TileGrid, RenderGridIsFixedSquaresCoveringTheTexture) {
  for (const auto& [w, h] : {std::pair{512, 512}, std::pair{96, 80}, std::pair{64, 64},
                             std::pair{1, 1}, std::pair{200, 130}}) {
    const auto tiles = core::make_render_grid(w, h);
    const int cols = (w + core::kRenderTileEdge - 1) / core::kRenderTileEdge;
    const int rows = (h + core::kRenderTileEdge - 1) / core::kRenderTileEdge;
    ASSERT_EQ(std::ssize(tiles), static_cast<std::ptrdiff_t>(cols) * rows)
        << w << "x" << h;
    std::vector<int> cover(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const core::Tile& tile = tiles[t];
      // Row-major squares of the fixed edge; only the last column and row
      // take the remainder.
      EXPECT_EQ(tile.x0, static_cast<int>(t) % cols * core::kRenderTileEdge);
      EXPECT_EQ(tile.y0, static_cast<int>(t) / cols * core::kRenderTileEdge);
      EXPECT_EQ(tile.width, std::min(core::kRenderTileEdge, w - tile.x0));
      EXPECT_EQ(tile.height, std::min(core::kRenderTileEdge, h - tile.y0));
      for (int y = tile.y0; y < tile.y0 + tile.height; ++y)
        for (int x = tile.x0; x < tile.x0 + tile.width; ++x)
          ++cover[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(x)];
    }
    for (const int c : cover) ASSERT_EQ(c, 1) << w << "x" << h;
  }
  EXPECT_THROW((void)core::make_render_grid(0, 64), util::Error);
}

// ---------------------------------------------------------- tile index ---

// The predicate the index must reproduce, written out the slow way: every
// tile, both axes, half-open rects.
bool overlaps(double px, double py, double extent, const core::Tile& tile) {
  const double lo_x = px - extent;
  const double hi_x = px + extent;
  const double lo_y = py - extent;
  const double hi_y = py + extent;
  return !(hi_x < tile.x0 || lo_x >= tile.x0 + tile.width) &&
         !(hi_y < tile.y0 || lo_y >= tile.y0 + tile.height);
}

// Pixel-space spot centers that stress the index: uniform, on tile edges
// (the extent exactly touching or reaching an edge), far outside the
// texture, and NaN or infinite in either coordinate.
std::vector<std::pair<double, double>> stress_pixels(const std::vector<core::Tile>& tiles,
                                                     int w, int h, double extent,
                                                     util::Rng& rng) {
  std::vector<int> xs{0, w};
  std::vector<int> ys{0, h};
  for (const core::Tile& t : tiles) {
    xs.push_back(t.x0);
    ys.push_back(t.y0);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> out;
  for (int k = 0; k < 400; ++k) {
    const double u = std::floor(rng.uniform(-2.0 * extent - 8, w + 2.0 * extent + 8));
    const double v = std::floor(rng.uniform(-2.0 * extent - 8, h + 2.0 * extent + 8));
    out.emplace_back(u, v);
    out.emplace_back(u + 0.5, v + 0.5);
    const int ex = xs[static_cast<std::size_t>(rng.uniform() * static_cast<double>(xs.size()))];
    const int ey = ys[static_cast<std::size_t>(rng.uniform() * static_cast<double>(ys.size()))];
    for (const double dx : {-extent, 0.0, extent}) {
      for (const double dy : {-extent, 0.0, extent}) out.emplace_back(ex + dx, ey + dy);
    }
  }
  for (const double bad : {nan, inf, -inf, 1e300, -1e300}) {
    out.emplace_back(bad, h / 2.0);
    out.emplace_back(w / 2.0, bad);
    out.emplace_back(bad, bad);
  }
  return out;
}

TEST(TileIndex, IndexedLookupsMatchABruteForceScan) {
  struct Grid {
    int w;
    int h;
    std::vector<core::Tile> tiles;
  };
  const std::vector<Grid> grids{
      {128, 128, core::make_tile_grid(128, 128, 1)},
      {512, 512, core::make_tile_grid(512, 512, 96)},  // the wire grid
      {512, 512, core::make_render_grid(512, 512)},
      {200, 130, core::make_render_grid(200, 130)},
      {97, 101, core::make_tile_grid(97, 101, 5)},
      // A hand-cut row grid whose first row and column are the widest, so
      // the index's first guess undershoots and must step forward.
      {96, 96, {{0, 0, 40, 30}, {40, 0, 8, 30}, {48, 0, 8, 30}, {56, 0, 24, 30},
                {80, 0, 16, 30}, {0, 30, 90, 5}, {90, 30, 6, 5}, {0, 35, 8, 45},
                {8, 35, 8, 45}, {16, 35, 80, 45}, {0, 80, 96, 16}}},
  };
  util::Rng rng(1234);
  for (const Grid& grid : grids) {
    // An image-space identity (y flipped): world (x, h - y) maps to pixel
    // (x, y) exactly for the integer and half-integer centers used here.
    const render::WorldToImage mapping({0, 0, static_cast<double>(grid.w),
                                        static_cast<double>(grid.h)},
                                       grid.w, grid.h);
    for (const double extent : {0.0, 4.0, 16.5, 70.0}) {
      const auto pixels = stress_pixels(grid.tiles, grid.w, grid.h, extent, rng);
      std::vector<core::SpotInstance> spots;
      for (const auto& [px, py] : pixels) {
        spots.push_back({{px, grid.h - py}, 0.5});
      }
      SCOPED_TRACE(std::to_string(grid.tiles.size()) + " tiles on " +
                   std::to_string(grid.w) + "x" + std::to_string(grid.h) +
                   ", extent " + std::to_string(extent));

      const auto assignment =
          core::assign_spots_to_tiles(spots, mapping, extent, grid.tiles);
      std::int64_t entries = 0;
      for (std::size_t t = 0; t < grid.tiles.size(); ++t) {
        std::vector<std::int64_t> expected;
        for (std::size_t k = 0; k < spots.size(); ++k) {
          const auto [px, py] = mapping.map(spots[k].position);
          if (overlaps(px, py, extent, grid.tiles[t])) {
            expected.push_back(static_cast<std::int64_t>(k));
          }
        }
        entries += std::ssize(expected);
        ASSERT_EQ(assignment.per_tile[t], expected) << "tile " << t;
      }
      EXPECT_EQ(assignment.duplicates, entries - std::ssize(spots));

      // dirty_tiles: the first half moves to the second half's positions,
      // and the populations differ in length (births and deaths).
      const std::size_t half = spots.size() / 2;
      const std::vector<core::SpotInstance> prev(spots.begin(), spots.begin() + half);
      std::vector<core::SpotInstance> cur(spots.begin() + half, spots.end());
      for (std::size_t k = 0; k < cur.size(); k += 3) cur[k] = prev[k % prev.size()];
      const core::FrameDelta delta = core::diff_spots(prev, cur);
      const auto dirty =
          core::dirty_tiles(delta, prev, cur, mapping, extent, grid.tiles);
      std::vector<std::uint8_t> expected(grid.tiles.size(), 0);
      auto mark = [&](const core::SpotInstance& spot) {
        const auto [px, py] = mapping.map(spot.position);
        for (std::size_t t = 0; t < grid.tiles.size(); ++t) {
          if (overlaps(px, py, extent, grid.tiles[t])) expected[t] = 1;
        }
      };
      for (const std::int64_t k : delta.changed) {
        mark(prev[static_cast<std::size_t>(k)]);
        mark(cur[static_cast<std::size_t>(k)]);
      }
      for (std::size_t k = std::min(prev.size(), cur.size()); k < cur.size(); ++k) {
        mark(cur[k]);
      }
      for (std::size_t k = std::min(prev.size(), cur.size()); k < prev.size(); ++k) {
        mark(prev[k]);
      }
      EXPECT_EQ(dirty, expected);
    }
  }
}

TEST(TileIndex, RejectsASpanThatIsNotARowGrid) {
  const render::WorldToImage mapping({0, 0, 128, 128}, 128, 128);
  const std::vector<core::SpotInstance> spots{{{64.0, 64.0}, 0.5}};
  const std::vector<std::vector<core::Tile>> bad{
      {{64, 0, 64, 128}, {0, 0, 64, 128}},                    // unsorted row
      {{0, 0, 64, 64}, {64, 0, 64, 32}},                      // uneven row height
      {{0, 0, 64, 64}, {70, 0, 58, 64}},                      // gap in a row
      {{0, 0, 128, 64}, {0, 64, 64, 64}},                     // ragged right edge
      {{0, 0, 128, 64}, {0, 70, 128, 58}},                    // gap between rows
      {{0, 0, 64, 64}, {64, 0, 64, 64}, {0, 64, 128, 64}, {0, 0, 128, 128}},
      {{0, 0, 0, 64}},                                        // empty tile
  };
  for (const auto& tiles : bad) {
    EXPECT_THROW((void)core::assign_spots_to_tiles(spots, mapping, 2.0, tiles),
                 util::Error);
    const core::FrameDelta delta = core::diff_spots(spots, spots);
    EXPECT_THROW((void)core::dirty_tiles(delta, spots, spots, mapping, 2.0, tiles),
                 util::Error);
  }
  // Row grids whose origin is not the texture's are still row grids.
  const std::vector<core::Tile> offset{{10, 20, 30, 40}, {40, 20, 5, 40}};
  EXPECT_NO_THROW((void)core::assign_spots_to_tiles(spots, mapping, 2.0, offset));
}

}  // namespace
