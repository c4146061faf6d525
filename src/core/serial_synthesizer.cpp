#include "core/serial_synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

namespace {

constexpr std::int64_t kChunk = 64;

}  // namespace

SerialSynthesizer::SerialSynthesizer(SynthesisConfig config)
    : SerialSynthesizer(config, Runtime::global()) {}

SerialSynthesizer::SerialSynthesizer(SynthesisConfig config, Runtime& runtime)
    : config_(config),
      runtime_(&runtime),
      texture_(config.texture_width, config.texture_height),
      profile_(render::SpotProfile::make_shared(config.profile_shape,
                                                config.profile_resolution)) {}

double SerialSynthesizer::natural_intensity(const SynthesisConfig& config) {
  const double texture_area =
      static_cast<double>(config.texture_width) * config.texture_height;
  const double spot_area =
      config.spot_radius_px * config.spot_radius_px * 3.141592653589793;
  const double overlap =
      std::max(1.0, static_cast<double>(config.spot_count) * spot_area / texture_area);
  return 1.0 / std::sqrt(overlap);
}

SerialStats SerialSynthesizer::synthesize(const field::VectorField& f,
                                          std::span<const SpotInstance> spots,
                                          int threads) {
  DCSN_CHECK(threads >= 1, "thread count must be >= 1");
  const util::Stopwatch total;
  SerialStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());

  const SpotGeometryGenerator generator(config_, f);
  texture_.clear();

  // Each participant rasterizes its chunks into a private pooled
  // framebuffer and folds it into the texture on leaving. Lattice-exact
  // accumulation commutes, so neither the fold order nor the number of
  // participants can show in the pixels.
  struct Fold {
    util::Mutex mutex;
    SerialStats stats DCSN_GUARDED_BY(mutex);
  } fold;
  runtime_->parallel(stats.spots, kChunk, threads, [&](util::WorkCounter& work) {
    auto range = work.claim();
    if (range.empty()) return;  // joined after the last chunk was handed out
    render::Framebuffer partial =
        runtime_->framebuffers().acquire(texture_.width(), texture_.height());
    const render::RasterTarget target{partial.pixels(), 0, 0};
    render::CommandBuffer buffer;
    buffer.reserve(kChunk, static_cast<std::size_t>(config_.vertices_per_spot()));
    SerialStats mine;
    try {
      for (; !range.empty(); range = work.claim()) {
        buffer.clear();
        util::ThreadCpuStopwatch watch;
        for (std::int64_t k = range.begin; k < range.end; ++k) {
          generator.generate(spots[static_cast<std::size_t>(k)], buffer);
        }
        mine.genP_seconds += watch.seconds();
        watch.restart();
        render::rasterize_buffer(target, buffer, *profile_, render::BlendMode::kAdditive,
                                 mine.raster);
        mine.genT_seconds += watch.seconds();
        mine.vertices += static_cast<std::int64_t>(buffer.vertex_count());
      }
    } catch (...) {
      // A throwing field still hands its partial back, so the pool's
      // outstanding census stays balanced for the runtime's other users.
      runtime_->framebuffers().release(std::move(partial));
      throw;
    }
    {
      util::MutexLock lock(fold.mutex);
      texture_.accumulate(partial);
      fold.stats.genP_seconds += mine.genP_seconds;
      fold.stats.genT_seconds += mine.genT_seconds;
      fold.stats.vertices += mine.vertices;
      fold.stats.raster += mine.raster;
    }
    runtime_->framebuffers().release(std::move(partial));
  });
  {
    util::MutexLock lock(fold.mutex);  // uncontended: every participant left
    stats.genP_seconds = fold.stats.genP_seconds;
    stats.genT_seconds = fold.stats.genT_seconds;
    stats.vertices = fold.stats.vertices;
    stats.raster = fold.stats.raster;
  }

  stats.total_seconds = total.seconds();
  return stats;
}

}  // namespace dcsn::core
