#include "core/dnc_synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "core/tile_store.hpp"
#include "field/fingerprint.hpp"
#include "util/hash.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::core {

namespace {

std::uint64_t fold_pod(const auto& value, std::uint64_t h) {
  return util::fnv1a(&value, sizeof(value), h);
}

/// The config component of a TileStore key: every parameter that changes
/// rendered pixels. Deliberately excluded: spot_count and seed (spots are an
/// explicit key input), scheduling knobs (processors, pipes, chunking,
/// stealing, bus/pipe timing models — the lattice makes pixels independent
/// of all of them), and the tile layout (the key carries the rect itself).
std::uint64_t hash_pixel_config(const SynthesisConfig& sc,
                                render::RasterAlgorithm algorithm) {
  std::uint64_t h = util::kFnv1aOffset;
  h = fold_pod(sc.texture_width, h);
  h = fold_pod(sc.texture_height, h);
  h = fold_pod(sc.spot_radius_px, h);
  h = fold_pod(static_cast<int>(sc.kind), h);
  h = fold_pod(sc.ellipse.max_stretch, h);
  h = fold_pod(sc.bent.mesh_cols, h);
  h = fold_pod(sc.bent.mesh_rows, h);
  h = fold_pod(sc.bent.length_px, h);
  h = fold_pod(sc.bent.trace_substeps, h);
  h = fold_pod(static_cast<int>(sc.profile_shape), h);
  h = fold_pod(sc.profile_resolution, h);
  h = fold_pod(sc.intensity_scale, h);
  const bool windowed = sc.window.has_value();
  h = fold_pod(windowed, h);
  if (windowed) {
    h = fold_pod(sc.window->x0, h);
    h = fold_pod(sc.window->y0, h);
    h = fold_pod(sc.window->x1, h);
    h = fold_pod(sc.window->y1, h);
  }
  // The two raster algorithms are coverage-identical but not bit-identical
  // (see test_rasterizer.cpp), so they must never share tiles.
  h = fold_pod(static_cast<int>(algorithm), h);
  return h;
}

}  // namespace

// The participants' partial textures, one pooled full-texture framebuffer
// each. Every partial goes back to the pool when the frame ends, failed
// frames included.
struct DncSynthesizer::Partials {
  explicit Partials(render::FramebufferPool& p) : pool(p) {}
  Partials(const Partials&) = delete;
  Partials& operator=(const Partials&) = delete;
  ~Partials() {
    util::MutexLock lock(mutex);
    for (render::Framebuffer& partial : buffers) pool.release(std::move(partial));
  }
  render::FramebufferPool& pool;
  util::Mutex mutex;
  std::vector<render::Framebuffer> buffers DCSN_GUARDED_BY(mutex);
};

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc)
    : DncSynthesizer(synthesis, dnc, Runtime::global()) {}

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc,
                               Runtime& runtime)
    : synthesis_(synthesis),
      dnc_(dnc),
      runtime_(&runtime),
      hooks_(runtime.faults()),
      final_(synthesis.texture_width, synthesis.texture_height) {
  DCSN_CHECK(dnc_.processors >= 1, "need at least one processor");
  DCSN_CHECK(dnc_.chunk_spots >= 1, "chunk size must be positive");

  tile_key_config_hash_ = hash_pixel_config(synthesis_, dnc_.raster_algorithm);
  profile_ = render::SpotProfile::make_shared(synthesis_.profile_shape,
                                              synthesis_.profile_resolution);
  // One fixed grid, a function of the texture size alone.
  if (dnc_.tiled) {
    tiles_ = make_render_grid(synthesis_.texture_width, synthesis_.texture_height);
  }
  // The shared pool must be able to field this session's processor budget
  // even if this is the largest session the process has seen.
  runtime_->ensure_workers(dnc_.processors);
}

FrameStats DncSynthesizer::synthesize(const field::VectorField& f,
                                      std::span<const SpotInstance> spots,
                                      const FramePlan* plan) {
  const util::Stopwatch frame_watch;
  ++frame_serial_;
  FrameStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());
  DCSN_CHECK(plan == nullptr || dnc_.tiled,
             "an incremental plan requires tiled mode (per-tile retention)");
  DCSN_CHECK(plan == nullptr || plan->tile_dirty.size() == tiles_.size(),
             "incremental plan must flag exactly one entry per tile");
  hooks_.check_canceled();  // a pre-start cancel abandons the frame before any work
  const SpotGeometryGenerator generator(synthesis_, f);
  const std::size_t tile_count = tiles_.size();

  // --- preprocessing: choose what to render ---
  // Probe/fingerprint costs are charged to assign_seconds on purpose: they
  // are real per-frame preprocessing, and modeled_frame_seconds must not
  // get them for free.
  const util::Stopwatch assign_watch;
  // Content-addressed sharing (DncConfig::tile_cache): each tile's key is
  // derived from the inputs its pixels are a pure function of. A
  // NaN-poisoned field is uncacheable content — render this frame without
  // the store rather than share tiles keyed on unstable identity.
  TileStore* store = nullptr;
  std::uint64_t field_fp = 0;
  if (dnc_.tiled && dnc_.tile_cache) {
    const field::FieldFingerprint fp = field::fingerprint_field(f);
    if (fp.finite) {
      store = &runtime_->tile_store();
      field_fp = fp.hash;
    }
  }
  // A frame with no plan and no store renders every tile, so it skips the
  // per-tile assignment: every spot renders once and the partials are
  // summed over the whole texture.
  const bool reuse = plan != nullptr || store != nullptr;
  std::vector<TileKey> keys(store != nullptr ? tile_count : 0);
  std::vector<TileStore::Checkout> checkouts(reuse ? tile_count : 0);  // pins released on any exit
  std::vector<std::uint8_t> rendered(reuse ? tile_count : 0, 0);
  std::vector<std::int64_t> order;  // reuse frames: the spots to render
  if (reuse) {
    const TileAssignment assignment = assign_spots_to_tiles(
        spots, generator.mapping(), generator.max_extent_px(), tiles_);
    stats.duplicated_spots = assignment.duplicates;
    std::vector<std::uint8_t> wanted(spots.size(), 0);  // touches a rendered tile
    for (std::size_t t = 0; t < tile_count; ++t) {
      const std::vector<std::int64_t>& list = assignment.per_tile[t];
      const auto n = static_cast<std::int64_t>(list.size());
      const bool dirty = plan == nullptr || plan->tile_dirty[t] != 0;
      if (store != nullptr) {
        const Tile& tile = tiles_[t];
        keys[t] = TileKey{hash_spot_subset(spots, list), field_fp, tile_key_config_hash_,
                          tile.x0, tile.y0, tile.width, tile.height};
        if (dirty) {
          // Fault site kStoreProbe is contained: a throw-hit is a failed
          // lookup, and a failed lookup is a miss — render the tile.
          if (hooks_.fault_point_contained(FaultSite::kStoreProbe,
                                           0x70726f6265ULL ^ static_cast<std::uint64_t>(t))) {
            checkouts[t] = store->probe(keys[t]);
          }
          if (checkouts[t]) {
            // Identical content already rendered, possibly by another session.
            stats.cache_tile_hits += 1;
            stats.cache_spots_skipped += n;
            continue;
          }
          stats.cache_tile_misses += 1;
        }
      }
      if (!dirty) {
        // Clean tile: the same spot set as last frame, so its region of
        // final_ already holds the pixels a re-render would produce.
        stats.tiles_reused += 1;
        stats.spots_skipped += n;
        continue;
      }
      rendered[t] = 1;
      for (const std::int64_t k : list) wanted[static_cast<std::size_t>(k)] = 1;
    }
    // The spots to generate, each once however many rendered tiles it
    // touches, in ascending index order.
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      if (wanted[k] != 0) order.push_back(static_cast<std::int64_t>(k));
    }
  }
  const auto count = reuse ? static_cast<std::int64_t>(order.size()) : stats.spots;
  stats.spots_submitted = count;
  stats.assign_seconds = assign_watch.seconds();

  // --- parallel phase: generate and rasterize on the runtime pool ---
  render::FramebufferPool& buffers = runtime_->framebuffers();
  Partials partials(buffers);
  const double critical_seconds = rasterize(generator, spots, count,
                                            reuse ? &order : nullptr, partials, stats);

  // --- sequential compose: the overhead term c of eq. 3.2 ---
  const util::Stopwatch gather_watch;
  // Fault site kFramebufferCheckout, mandatory path: every decision is
  // taken before the first write, so a throw-hit fails the frame with
  // final_ still holding the previous completed frame — stale but intact,
  // which is what a degraded serve hands out. A full frame draws once, a
  // reuse frame once per rendered tile.
  if (!reuse) hooks_.fault_point(FaultSite::kFramebufferCheckout, 0x6662636fULL);
  for (std::size_t t = 0; t < rendered.size(); ++t) {
    if (rendered[t] != 0) {
      hooks_.fault_point(FaultSite::kFramebufferCheckout,
                         0x6662636fULL ^ static_cast<std::uint64_t>(t));
    }
  }
  {
    util::MutexLock lock(partials.mutex);  // uncontended: every participant left
    if (!reuse) {
      final_.sum_rect_from(partials.buffers, 0, 0, final_.width(), final_.height());
      stats.readback_bytes = final_.byte_size();
    }
    for (std::size_t t = 0; t < rendered.size(); ++t) {
      if (rendered[t] == 0) continue;
      const Tile& tile = tiles_[t];
      final_.sum_rect_from(partials.buffers, tile.x0, tile.y0, tile.width, tile.height);
      stats.readback_bytes += static_cast<std::uint64_t>(tile.width) *
                              static_cast<std::uint64_t>(tile.height) * sizeof(float);
    }
  }
  // Store hits compose the pinned pixels; rendered misses and retained
  // clean tiles publish theirs. Publishes happen here and only here —
  // after every participant succeeded — and each insert is atomic under
  // its shard lock, so a failed or canceled frame contributes nothing to
  // the store: other sessions can never observe a partial tile.
  if (store != nullptr) {
    for (std::size_t t = 0; t < tile_count; ++t) {
      const Tile& tile = tiles_[t];
      if (checkouts[t]) {
        final_.copy_rect_from(checkouts[t].pixels(), tile.x0, tile.y0);
        stats.cache_hit_bytes += checkouts[t].pixels().byte_size();
        checkouts[t].reset();  // unpin as soon as the pixels are composed
        continue;
      }
      // A publish is best-effort: an injected fault at the publish — or,
      // for a clean tile (whose pixels no checkout covered yet), at the
      // checkout for its staging copy — skips it; the frame's own pixels
      // are already complete. A long-lived incremental session thereby
      // still seeds the store with its retained tiles.
      const auto subkey = static_cast<std::uint64_t>(t);
      if (rendered[t] == 0 && store->contains(keys[t])) continue;
      if (!hooks_.fault_point_contained(FaultSite::kStorePublish, 0x7075626cULL ^ subkey)) {
        continue;
      }
      if (rendered[t] == 0 &&
          !hooks_.fault_point_contained(FaultSite::kFramebufferCheckout,
                                        0x6662636fULL ^ subkey)) {
        continue;
      }
      render::Framebuffer copy = buffers.acquire(tile.width, tile.height);
      final_.extract_rect_into(copy, tile.x0, tile.y0);
      const TileStore::PublishOutcome outcome = store->publish(keys[t], std::move(copy));
      if (outcome.inserted) stats.cache_tiles_published += 1;
      stats.cache_evictions += outcome.evicted;
    }
  }
  stats.gather_seconds = gather_watch.seconds();
  stats.modeled_frame_seconds =
      stats.assign_seconds + critical_seconds + stats.gather_seconds;

  // Authoritative deadline verdict. Every injected delay of this frame has
  // been charged by now and this thread is the only one still running, so
  // this check is a pure function of the workload and the fault seed: a
  // frame whose total virtual penalty blew the budget times out on every
  // replay, whether or not any mid-frame check happened to notice first
  // (mid-frame observations depend on thread interleaving; the total does
  // not). A throw here leaves final_ fully composed — the texture a
  // degraded serve hands out is still a complete frame.
  hooks_.check_canceled();

  // Lattice-budget canary (see FrameStats::peak_pixel_magnitude): one pass
  // over the final texture, outside the modeled critical path.
  const auto [px_lo, px_hi] = final_.min_max();
  stats.peak_pixel_magnitude =
      std::max(std::abs(static_cast<double>(px_lo)),
               std::abs(static_cast<double>(px_hi)));
  stats.frame_seconds = frame_watch.seconds();
  return stats;
}

double DncSynthesizer::rasterize(const SpotGeometryGenerator& generator,
                                 std::span<const SpotInstance> spots,
                                 std::int64_t count,
                                 const std::vector<std::int64_t>* order,
                                 Partials& partials, FrameStats& stats) {
  // Each participant rasterizes its chunks into one pooled full-texture
  // partial; the rasterizer is target-independent and accumulation
  // lattice-exact, so any rect of the texture is the sum of the partials
  // over it, whichever participant drew which spot. Leaving participants
  // add their counters to `stats` under the partials' mutex; a throwing
  // participant hands its partial back before Runtime::parallel rethrows.
  render::FramebufferPool& buffers = partials.pool;
  double critical_seconds = 0.0;
  const std::thread::id caller = std::this_thread::get_id();
  runtime_->parallel(
      count, dnc_.chunk_spots, dnc_.processors, [&](util::WorkCounter& work) {
        auto range = work.claim();
        if (range.empty()) return;  // joined after the last chunk was handed out
        render::Framebuffer partial = buffers.acquire(final_.width(), final_.height());
        const render::RasterTarget target{partial.pixels(), 0, 0, dnc_.raster_algorithm};
        render::CommandBuffer buffer;
        buffer.reserve(static_cast<std::size_t>(dnc_.chunk_spots),
                       static_cast<std::size_t>(synthesis_.vertices_per_spot()));
        const bool pool_worker = std::this_thread::get_id() != caller;
        FrameStats mine;
        try {
          for (; !range.empty(); range = work.claim()) {
            hooks_.check_canceled();
            buffer.clear();
            FaultInjector::Batch submit_faults;
            util::ThreadCpuStopwatch watch;
            for (std::int64_t i = range.begin; i < range.end; ++i) {
              const std::int64_t k =
                  order != nullptr ? (*order)[static_cast<std::size_t>(i)] : i;
              hooks_.spot_faults(k, &submit_faults);
              generator.generate(spots[static_cast<std::size_t>(k)], buffer);
            }
            mine.genP_seconds += watch.seconds();
            if (pool_worker && runtime_->active_job_count() > 1) {
              // Generated by a pool worker while another session's job was
              // registered: capacity multiplexed across sessions.
              mine.cross_session_chunks += 1;
              mine.cross_session_spots += range.size();
            }
            // The chunk's kPipeSubmit decisions strike where its geometry
            // is consumed, right before rasterization.
            hooks_.apply_submit(submit_faults);
            watch.restart();
            render::rasterize_buffer(target, buffer, *profile_,
                                     render::BlendMode::kAdditive, mine.raster);
            mine.genT_seconds += watch.seconds();
            mine.vertices += static_cast<std::int64_t>(buffer.vertex_count());
            mine.geometry_bytes += buffer.byte_size();
            hooks_.beat();
          }
        } catch (...) {
          buffers.release(std::move(partial));
          throw;
        }
        util::MutexLock lock(partials.mutex);
        partials.buffers.push_back(std::move(partial));
        stats.genP_seconds += mine.genP_seconds;
        stats.genT_seconds += mine.genT_seconds;
        stats.genP_critical_seconds = std::max(stats.genP_critical_seconds, mine.genP_seconds);
        stats.genT_critical_seconds = std::max(stats.genT_critical_seconds, mine.genT_seconds);
        critical_seconds = std::max(critical_seconds, mine.genP_seconds + mine.genT_seconds);
        stats.vertices += mine.vertices;
        stats.geometry_bytes += mine.geometry_bytes;
        stats.raster += mine.raster;
        stats.cross_session_chunks += mine.cross_session_chunks;
        stats.cross_session_spots += mine.cross_session_spots;
      });
  return critical_seconds;
}

}  // namespace dcsn::core
