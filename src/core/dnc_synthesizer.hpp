// The served spot noise engine: the paper's divide and conquer without its
// graphics pipes (on a CPU a pipe is one thread, capping raster parallelism
// at nG; the pipes live on in the paper model, paper::PipeSynthesizer).
//
// Every participant of a frame — the calling thread plus core::Runtime pool
// workers, up to DncConfig::processors — claims chunks of the spots to
// render (Runtime::parallel), generates their geometry and rasterizes it
// into its own pooled full-texture partial; the conquer step sums the
// partials. A frame with nothing to reuse renders every spot and sums over
// the whole texture. A tiled frame with a core::FramePlan or the tile cache
// works on the fixed render grid (core::make_render_grid): only spots
// touching a dirty tile or a TileStore miss render, a rendered tile is the
// sum of the partials over its rect, clean tiles keep their pixels and
// store hits are copied in.
//
// The contribution lattice (util/simd.hpp) makes the texture bitwise
// identical whichever worker, of whichever session, drew a chunk — and
// identical to SerialSynthesizer and the paper model. The engine borrows
// workers and buffers from a Runtime and owns no thread; synthesize() is
// called once per animation frame.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/frame_control.hpp"
#include "core/frame_delta.hpp"
#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_params.hpp"
#include "core/tiling.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dcsn::core {

struct DncConfig {
  /// Worker budget for one frame: at most this many participants (the
  /// calling thread plus runtime pool workers) generate and rasterize — the
  /// nP of eq. 3.2. The session's runtime grows its shared pool to at least
  /// this size.
  int processors = 4;
  /// Graphics pipes / process groups, the nG of eq. 3.2. Read by the paper
  /// model (paper::PipeSynthesizer) only; the served engine has no pipes.
  int pipes = 1;
  /// Spots per chunk a participant claims (the paper model: per command
  /// buffer streamed to a pipe). Small enough to balance the participants,
  /// large enough to amortize the claim.
  std::int64_t chunk_spots = 32;
  // The pipe model's knobs (bus, state changes, raster slowdown, queue
  // depth, stealing) are read by paper::PipeSynthesizer only.
  /// Shared host<->graphics bus bandwidth; 0 disables the bus model. The
  /// paper's Onyx2 bus moves 800 MB/s.
  double bus_bytes_per_second = 0.0;
  /// Pipe state-change sync latency (see render::PipeConfig).
  double state_change_seconds = 20e-6;
  /// >1 slows rasterization to model a weaker pipe (ablations only).
  double raster_cost_multiplier = 1.0;
  /// Triangle fill algorithm. kSpan is the fast span-based scanline kernel;
  /// kReference is the bbox-walk oracle (equivalence tests,
  /// bench_raster_kernel ablation).
  render::RasterAlgorithm raster_algorithm = render::RasterAlgorithm::kSpan;
  std::size_t pipe_queue_capacity = 64;
  /// Keep the fixed render grid, so frames can reuse tiles: a FramePlan
  /// retains clean tiles and `tile_cache` serves tiles from the store.
  bool tiled = false;
  /// The paper model's cross-group work stealing: idle participants pull
  /// chunk ranges from the most loaded group once their own group's counter
  /// drains. Off reproduces the static partition (the
  /// bench_ablation_balance baseline). Served participants always share
  /// one chunk counter.
  bool steal = true;
  /// Tiled mode only: memoize rendered tiles in the runtime's process-wide
  /// core::TileStore, keyed by content (spot subset, field fingerprint,
  /// raster config, tile rect). A dirty tile probes the store before
  /// regenerating; freshly rendered and retained-clean tiles are published
  /// back. Because the store is shared across every session of the runtime,
  /// N sessions browsing the same dataset rasterize each tile once —
  /// bit-identically to the uncached path (the lattice guarantees a tile's
  /// pixels are a pure function of the key).
  bool tile_cache = false;
};

/// Everything measured about one synthesized frame. The benches derive the
/// paper's numbers from these.
struct FrameStats {
  double frame_seconds = 0.0;    ///< wall clock for the whole frame
  double genP_seconds = 0.0;     ///< CPU spot-shape time, summed over workers
  double genT_seconds = 0.0;     ///< raster CPU time, summed over rasterizers
  double gather_seconds = 0.0;   ///< sequential compose of the partials (term c)
  double assign_seconds = 0.0;   ///< preprocessing: spot-to-tile assignment, store probes
  std::int64_t spots = 0;            ///< input spot count
  /// Spots generated and rasterized, each once however many tiles it
  /// touches (reuse frames skip spots touching no tile to render).
  std::int64_t spots_submitted = 0;
  /// Reuse frames: tile-list entries beyond one per spot (boundary spots).
  std::int64_t duplicated_spots = 0;
  std::int64_t vertices = 0;
  std::uint64_t geometry_bytes = 0;  ///< vertex traffic to the rasterizers
  /// Bytes of composed texture: the whole texture, or the rendered tiles.
  std::uint64_t readback_bytes = 0;
  render::RasterStats raster;

  // Temporal-coherence accounting (incremental frames only; see
  // core::SynthesisCache). A reused tile skipped its clear, generation,
  // rasterization and readback entirely; its region of the final texture
  // retains the previous frame's bit-exact pixels.
  std::int64_t tiles_reused = 0;   ///< clean tiles served from retention
  std::int64_t spots_skipped = 0;  ///< assignments not generated/rendered

  // Content-addressed tile cache accounting (DncConfig::tile_cache engines;
  // see core::TileStore). A cache hit skips clear, generation,
  // rasterization and readback like a retained tile, but the pixels come
  // from the shared store — possibly rendered by another session.
  std::int64_t cache_tile_hits = 0;    ///< dirty tiles served from the store
  std::int64_t cache_tile_misses = 0;  ///< probed tiles that had to render
  std::int64_t cache_tiles_published = 0;  ///< tiles this frame inserted
  std::int64_t cache_evictions = 0;  ///< entries this frame's publishes evicted
  std::int64_t cache_spots_skipped = 0;  ///< assignments served by hits
  std::uint64_t cache_hit_bytes = 0;  ///< pixel bytes composed from the store

  /// The frame was served degraded: the service answered with retained
  /// stale pixels instead of synthesizing, because the deadline could not
  /// be met (see SubmitOptions::DeadlinePolicy::kDegrade). The engine never
  /// sets this — a synthesized frame is never degraded; the texture is the
  /// previous completed frame's, bit-exact.
  bool degraded = false;

  /// Largest |pixel| of the frame — the canary for the contribution
  /// lattice's exact-summation budget (util::simd::kContributionExactBound,
  /// 128): bit-determinism and incremental retention rest on per-pixel
  /// partial sums staying inside that range, and this is the cheap
  /// necessary-condition monitor. Workloads that push it toward the bound
  /// (it sits around 1 for natural-intensity populations) are leaving the
  /// design envelope; the determinism suite and bench_incremental assert
  /// generous headroom.
  double peak_pixel_magnitude = 0.0;

  // Multi-session runtime accounting.
  /// Seconds the job waited in a SynthesisService queue before a driver
  /// picked it up (0 for frames synthesized directly). Not part of
  /// modeled_frame_seconds: queue wait is contention, not work.
  double queue_wait_seconds = 0.0;
  /// Chunks of this frame generated by runtime pool workers while at least
  /// one other session's frame was registered with the runtime — shared
  /// capacity applied under cross-session contention. Zero whenever a
  /// session runs alone.
  std::int64_t cross_session_chunks = 0;
  std::int64_t cross_session_spots = 0;  ///< spots inside those chunks

  // Eq. 3.2 critical path, from per-thread CPU clocks. genP/genT attribution
  // uses CPU time (ThreadCpuStopwatch), so these stay meaningful when the
  // host has fewer cores than participants.
  double genP_critical_seconds = 0.0;  ///< max over workers of generation CPU
  /// Max over rasterizers of raster CPU (the paper model: over pipes).
  double genT_critical_seconds = 0.0;
  /// The frame time a host with one core per participant would see:
  /// assign + max over participants of (genP + genT) + gather, since each
  /// participant rasterizes what it generated. (The paper model, where
  /// generation overlaps the pipes: assign + max(genP critical, genT
  /// critical) + gather.)
  double modeled_frame_seconds = 0.0;

  /// Textures per second as the paper's tables report it.
  [[nodiscard]] double textures_per_second() const {
    return frame_seconds > 0.0 ? 1.0 / frame_seconds : 0.0;
  }

  /// Textures per second on the modeled fully-parallel host.
  [[nodiscard]] double modeled_textures_per_second() const {
    return modeled_frame_seconds > 0.0 ? 1.0 / modeled_frame_seconds : 0.0;
  }
};

class DncSynthesizer {
 public:
  /// Borrows workers and buffers from the process-global Runtime.
  DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc);
  /// Borrows from an explicit Runtime (which must outlive the synthesizer).
  DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc, Runtime& runtime);

  DncSynthesizer(const DncSynthesizer&) = delete;
  DncSynthesizer& operator=(const DncSynthesizer&) = delete;

  /// Synthesizes one texture. `f` and `spots` must stay valid for the call.
  /// If a participant throws (e.g. a DCSN_CHECK inside spot generation),
  /// the frame is abandoned, every partial goes back to the pool and the
  /// first exception is rethrown here; the engine stays usable for
  /// subsequent frames. Not re-entrant: one frame per session at a time
  /// (SynthesisService serializes per session).
  ///
  /// `plan` (tiled mode only, normally produced by core::SynthesisCache)
  /// enables temporal reuse: tiles whose flag is clear are not generated,
  /// rasterized or composed — their region of the final texture retains
  /// the previous frame's pixels, which is bit-identical to re-rendering
  /// them because their spot set did not change.
  FrameStats synthesize(const field::VectorField& f,
                        std::span<const SpotInstance> spots,
                        const FramePlan* plan = nullptr);

  [[nodiscard]] const render::Framebuffer& texture() const { return final_; }
  [[nodiscard]] const SynthesisConfig& config() const { return synthesis_; }
  [[nodiscard]] const DncConfig& dnc_config() const { return dnc_; }
  /// The render grid (make_render_grid) in tiled mode; empty otherwise.
  [[nodiscard]] const std::vector<Tile>& tiles() const { return tiles_; }
  /// Threads that rasterize a frame — every participant: the nG the
  /// performance model divides raster work by.
  [[nodiscard]] int rasterizers() const { return dnc_.processors; }
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }

  /// Bumped at the start of every synthesize() call (failed frames
  /// included). SynthesisCache uses it to detect frames it did not commit.
  [[nodiscard]] std::int64_t frame_serial() const { return frame_serial_; }

  /// Binds a per-job control block checked at chunk granularity during the
  /// frame: a cancel flag aborts with JobCanceled, a timed_out flag or an
  /// exhausted delay-penalty budget aborts with JobTimedOut, a yield flag
  /// with JobYielded — leaving the engine armed for the next job. The block
  /// also carries the job's fault key and receives injected-delay penalties
  /// and chunk progress. Pass nullptr to unbind. Call between frames only
  /// (the service binds one per dispatch attempt).
  void bind_frame_control(FrameControl* control) { hooks_.bind(control); }

 private:
  struct Partials;  // the participants' pooled partial textures (see the .cpp)

  /// The parallel phase: generates and rasterizes `count` spots — spot
  /// `(*order)[i]`, or spot i when `order` is null — on the runtime pool,
  /// one pooled partial per participant. Returns the critical path, the
  /// max over participants of genP + genT.
  double rasterize(const SpotGeometryGenerator& generator,
                   std::span<const SpotInstance> spots, std::int64_t count,
                   const std::vector<std::int64_t>* order, Partials& partials,
                   FrameStats& stats);

  SynthesisConfig synthesis_;
  DncConfig dnc_;
  Runtime* runtime_;
  FrameHooks hooks_;
  /// Hash of every pixel-affecting synthesis/raster parameter — the
  /// config component of this engine's TileStore keys (computed once;
  /// excludes inputs like the spot seed that enter through the spot list).
  std::uint64_t tile_key_config_hash_ = 0;
  std::shared_ptr<const render::SpotProfile> profile_;
  /// The render grid in tiled mode.
  std::vector<Tile> tiles_;
  render::Framebuffer final_;
  std::int64_t frame_serial_ = 0;
};

}  // namespace dcsn::core
