#include "core/dnc_synthesizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "core/tile_store.hpp"
#include "field/fingerprint.hpp"
#include "util/hash.hpp"

namespace dcsn::core {

using namespace std::chrono_literals;

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

// Adapter handed to the Runtime registry. Pool workers may hold a snapshot
// of the registry from before a frame ended (or before the synthesizer was
// destroyed), so serve() takes a shared lock that detach() — called from
// the synthesizer's destructor — upgrades against. A post-frame serve()
// finds the frame closed and returns immediately; a post-destruction one
// finds the owner detached.
struct DncSynthesizer::FrameHandle : Runtime::SharedJob {
  explicit FrameHandle(DncSynthesizer* o) : owner(o) {}

  bool serve() override {
    util::ReaderLock lock(mutex);
    return owner != nullptr && owner->serve_frame(/*is_caller=*/false);
  }

  void detach() {
    util::WriterLock lock(mutex);
    owner = nullptr;
  }

  util::SharedMutex mutex;
  DncSynthesizer* owner DCSN_GUARDED_BY(mutex);
};

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc)
    : DncSynthesizer(synthesis, dnc, Runtime::global()) {}

DncSynthesizer::DncSynthesizer(SynthesisConfig synthesis, DncConfig dnc,
                               Runtime& runtime)
    : synthesis_(synthesis),
      dnc_(dnc),
      runtime_(&runtime),
      final_(synthesis.texture_width, synthesis.texture_height),
      faults_(runtime.faults()) {
  DCSN_CHECK(dnc_.processors >= 1, "need at least one processor");
  DCSN_CHECK(dnc_.chunk_spots >= 1, "chunk size must be positive");

  tile_key_config_hash_ = hash_pixel_config(synthesis_, dnc_.raster_algorithm);
  profile_ = render::SpotProfile::make_shared(synthesis_.profile_shape,
                                              synthesis_.profile_resolution);

  if (dnc_.tiled) {
    // One fixed grid, a function of the texture size alone. Tiled frames
    // rasterize on the runtime pool, so the engine needs no pipe.
    tiles_ = make_render_grid(synthesis_.texture_width, synthesis_.texture_height);
  } else {
    // Each pipe renders the full texture and the partials are blended.
    DCSN_CHECK(dnc_.pipes >= 1, "need at least one graphics pipe");
    DCSN_CHECK(dnc_.processors >= dnc_.pipes,
               "each pipe needs at least one processor (its master)");
    bus_ = std::make_shared<render::Bus>(dnc_.bus_bytes_per_second);
    groups_.reserve(static_cast<std::size_t>(dnc_.pipes));
    for (int g = 0; g < dnc_.pipes; ++g) {
      auto group = std::make_unique<Group>();
      render::PipeConfig pc;
      pc.width = synthesis_.texture_width;
      pc.height = synthesis_.texture_height;
      pc.state_change_seconds = dnc_.state_change_seconds;
      pc.raster_cost_multiplier = dnc_.raster_cost_multiplier;
      pc.queue_capacity = dnc_.pipe_queue_capacity;
      pc.raster_algorithm = dnc_.raster_algorithm;
      // Borrowed, not owned: an idle pipe with a matching behavioral config
      // is reshaped (resize_target) instead of constructing a fresh server
      // thread; the lease hands it back when this session ends.
      group->pipe = runtime_->acquire_pipe(pc, bus_, g);
      group->work = std::make_unique<util::StealableWorkCounter>(0, dnc_.chunk_spots);
      // Initial pipe state: the spot profile texture and additive blending.
      // Set once; per-spot state changes are exactly what the design avoids.
      group->pipe->bind_profile(profile_);
      group->pipe->set_blend_mode(render::BlendMode::kAdditive);
      // Drain setup commands now so their state-change cost never bleeds
      // into the first frame's measurements.
      group->pipe->finish();
      groups_.push_back(std::move(group));
    }
  }

  // The shared pool must be able to field this session's processor budget
  // even if this is the largest session the process has seen.
  runtime_->ensure_workers(dnc_.processors);
  frame_handle_ = std::make_shared<FrameHandle>(this);
}

DncSynthesizer::~DncSynthesizer() {
  // After detach, no pool worker can re-enter this object even if it still
  // holds the handle from an old registry snapshot; the unique lock inside
  // waits out any serve() in flight. Pipes return to the runtime pool via
  // their leases.
  frame_handle_->detach();
}

render::PipeStats DncSynthesizer::pipe_stats(int pipe) const {
  DCSN_CHECK(pipe >= 0 && pipe < static_cast<int>(groups_.size()),
             "pipe index out of range (a tiled engine has no pipes)");
  return groups_[static_cast<std::size_t>(pipe)]->pipe->stats();
}

void DncSynthesizer::spot_faults(std::int64_t spot,
                                 FaultInjector::Batch* batch) const {
  // Both outcome sites key on the spot's *global* index, not the chunk:
  // every spot is generated exactly once per attempt however the work was
  // split, so the union of draws — and with it the attempt's verdict — is a
  // pure function of workload and seed.
  fault_point(FaultSite::kFieldSample,
              0x6669656c64ULL ^ static_cast<std::uint64_t>(spot));
  fault_predraw(FaultSite::kPipeSubmit,
                0x7069706573ULL ^ static_cast<std::uint64_t>(spot), batch);
}

void DncSynthesizer::submit_to_pipe(Group& group, render::CommandBuffer&& buffer,
                                    const FaultInjector::Batch& submit_faults) const {
  // The batch holds one pre-drawn decision per spot in the buffer, keyed by
  // the spot's global index (see generate_chunk): whichever participant
  // submits the buffer, on whichever pipe, after whatever stealing split
  // the range, the decisions are the same — so a frame attempt fails under
  // a given seed iff one of *its* spots is a throw-hit, independent of
  // scheduling (the replay-determinism invariant).
  if (faults_ != nullptr) {
    faults_->apply(FaultSite::kPipeSubmit, submit_faults,
                   control_ != nullptr ? &control_->delay_penalty_ns : nullptr);
  }
  group.pipe->submit(std::move(buffer));
  if (control_ != nullptr) {
    control_->progress.fetch_add(1, std::memory_order_relaxed);
  }
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
  check_canceled();  // a pre-start cancel abandons the frame before any work

  job_field_ = &f;
  job_spots_ = spots;
  job_generator_ = std::make_unique<SpotGeometryGenerator>(synthesis_, f);
  if (dnc_.tiled) {
    render_tiled(plan, stats);
  } else {
    render_contiguous(stats);
  }

  // Authoritative deadline verdict. Every injected delay of this frame has
  // been charged by now and this thread is the only one still running, so
  // this check is a pure function of the workload and the fault seed: a
  // frame whose total virtual penalty blew the budget times out on every
  // replay, whether or not any mid-frame check happened to notice first
  // (mid-frame observations depend on thread interleaving; the total does
  // not). A throw here leaves final_ fully composed — the texture a
  // degraded serve hands out is still a complete frame.
  check_canceled();

  // Lattice-budget canary (see FrameStats::peak_pixel_magnitude): one pass
  // over the final texture, outside the modeled critical path.
  const auto [px_lo, px_hi] = final_.min_max();
  stats.peak_pixel_magnitude =
      std::max(std::abs(static_cast<double>(px_lo)),
               std::abs(static_cast<double>(px_hi)));
  stats.frame_seconds = frame_watch.seconds();
  job_generator_.reset();
  return stats;
}

void DncSynthesizer::render_tiled(const FramePlan* plan, FrameStats& stats) {
  const std::span<const SpotInstance> spots = job_spots_;
  const std::size_t tile_count = tiles_.size();

  // --- preprocessing: assign spots to tiles, choose the tiles to render ---
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
  if (dnc_.tile_cache) {
    const field::FieldFingerprint fp = field::fingerprint_field(*job_field_);
    if (fp.finite) {
      store = &runtime_->tile_store();
      field_fp = fp.hash;
    }
  }
  const TileAssignment assignment = assign_spots_to_tiles(
      spots, job_generator_->mapping(), job_generator_->max_extent_px(), tiles_);
  stats.duplicated_spots = assignment.duplicates;
  std::vector<TileKey> keys(store != nullptr ? tile_count : 0);
  std::vector<TileStore::Checkout> checkouts(tile_count);  // pins released on any exit
  std::vector<std::uint8_t> rendered(tile_count, 0);
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
        if (fault_point_contained(FaultSite::kStoreProbe,
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
  std::vector<std::int64_t> order;
  for (std::size_t k = 0; k < wanted.size(); ++k) {
    if (wanted[k] != 0) order.push_back(static_cast<std::int64_t>(k));
  }
  stats.spots_submitted = static_cast<std::int64_t>(order.size());
  stats.assign_seconds = assign_watch.seconds();

  // --- parallel phase: generate and rasterize on the runtime pool ---
  // Each participant rasterizes its chunks into one pooled full-texture
  // partial; the rasterizer is target-independent and accumulation
  // lattice-exact, so a rendered tile is the sum of the partials over its
  // rect, whichever participant drew which spot. The fold hands every
  // partial back to the pool on every exit, failed frames included.
  // Leaving participants add their counters to `stats` under its mutex.
  render::FramebufferPool& buffers = runtime_->framebuffers();
  struct Fold {
    explicit Fold(render::FramebufferPool& p) : pool(p) {}
    Fold(const Fold&) = delete;
    Fold& operator=(const Fold&) = delete;
    ~Fold() {
      util::MutexLock lock(partials_mutex);
      for (render::Framebuffer& partial : partials) pool.release(std::move(partial));
    }
    render::FramebufferPool& pool;
    util::Mutex partials_mutex;
    std::vector<render::Framebuffer> partials DCSN_GUARDED_BY(partials_mutex);
  } fold(buffers);
  double critical_seconds = 0.0;  ///< max over participants of genP + genT
  const std::thread::id caller = std::this_thread::get_id();
  runtime_->parallel(
      static_cast<std::int64_t>(order.size()), dnc_.chunk_spots, dnc_.processors,
      [&](util::WorkCounter& work) {
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
            check_canceled();
            buffer.clear();
            FaultInjector::Batch submit_faults;
            util::ThreadCpuStopwatch watch;
            for (std::int64_t i = range.begin; i < range.end; ++i) {
              const std::int64_t k = order[static_cast<std::size_t>(i)];
              spot_faults(k, &submit_faults);
              job_generator_->generate(spots[static_cast<std::size_t>(k)], buffer);
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
            if (faults_ != nullptr) {
              faults_->apply(FaultSite::kPipeSubmit, submit_faults,
                             control_ != nullptr ? &control_->delay_penalty_ns : nullptr);
            }
            watch.restart();
            render::rasterize_buffer(target, buffer, *profile_,
                                     render::BlendMode::kAdditive, mine.raster);
            mine.genT_seconds += watch.seconds();
            mine.vertices += static_cast<std::int64_t>(buffer.vertex_count());
            mine.geometry_bytes += buffer.byte_size();
            // Chunk heartbeat for the no-progress watchdog.
            if (control_ != nullptr) {
              control_->progress.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } catch (...) {
          buffers.release(std::move(partial));
          throw;
        }
        util::MutexLock lock(fold.partials_mutex);
        fold.partials.push_back(std::move(partial));
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

  // --- sequential compose: the overhead term c of eq. 3.2 ---
  const util::Stopwatch gather_watch;
  // Fault site kFramebufferCheckout, mandatory path: every rendered tile's
  // decision is taken before the first write, so a throw-hit fails the
  // frame with final_ still holding the previous completed frame — stale
  // but intact, which is what a degraded serve hands out.
  for (std::size_t t = 0; t < tile_count; ++t) {
    if (rendered[t] != 0) {
      fault_point(FaultSite::kFramebufferCheckout,
                  0x6662636fULL ^ static_cast<std::uint64_t>(t));
    }
  }
  {
    util::MutexLock lock(fold.partials_mutex);  // uncontended: every participant left
    for (std::size_t t = 0; t < tile_count; ++t) {
      if (rendered[t] == 0) continue;
      const Tile& tile = tiles_[t];
      final_.sum_rect_from(fold.partials, tile.x0, tile.y0, tile.width, tile.height);
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
      if (!fault_point_contained(FaultSite::kStorePublish, 0x7075626cULL ^ subkey)) {
        continue;
      }
      if (rendered[t] == 0 &&
          !fault_point_contained(FaultSite::kFramebufferCheckout,
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
}

void DncSynthesizer::render_contiguous(FrameStats& stats) {
  // --- preprocessing: partition the spot collection ---
  const util::Stopwatch assign_watch;
  const auto n = static_cast<std::int64_t>(job_spots_.size());
  std::int64_t begin = 0;
  std::int64_t assigned_max = 0;
  for (int g = 0; g < dnc_.pipes; ++g) {
    Group& group = *groups_[static_cast<std::size_t>(g)];
    const std::int64_t share = n / dnc_.pipes + (g < n % dnc_.pipes ? 1 : 0);
    group.begin = begin;
    begin += share;
    group.work->reset(share);
    assigned_max = std::max(assigned_max, share);
  }
  stats.spots_submitted = n;
  stats.assign_seconds = assign_watch.seconds();
  stats.imbalance = n > 0 ? static_cast<double>(assigned_max) * dnc_.pipes /
                                static_cast<double>(n)
                          : 1.0;

  for (auto& group : groups_) {
    group->pipe->reset_stats();
    group->master_running.store(false, std::memory_order_relaxed);
    group->master_exited.store(false, std::memory_order_relaxed);
    group->inflight.store(0, std::memory_order_relaxed);
  }
  bus_->reset_stats();
  next_master_.store(0, std::memory_order_relaxed);
  masters_done_.store(0, std::memory_order_relaxed);
  {
    util::MutexLock lock(job_mutex_);
    slots_.assign(static_cast<std::size_t>(dnc_.processors), Slot{});
    slot_taken_.assign(static_cast<std::size_t>(dnc_.processors), 0);
    slot_taken_[0] = 1;        // the caller's reserved seat
    active_participants_ = 1;
    frame_open_ = true;
    // Start gate (the elastic replacement for the old start barrier): when
    // the frame has enough work to share, early participants line up until
    // a quorum joins or the deadline passes. Without it, on a loaded host a
    // small frame is over before a newly woken pool worker gets its first
    // timeslice — whichever participant runs first silently serializes the
    // whole frame, so masters never coexist and stealing never happens. The
    // deadline keeps the old barrier's failure mode out: a pool absorbed by
    // other sessions costs at most the gate window, never a stall.
    gate_expected_ = n >= dnc_.chunk_spots
                         ? std::min(dnc_.processors, 1 + runtime_->worker_count())
                         : 1;
    gate_open_ = gate_expected_ <= 1;
    // determinism: scheduling gate only — join order never affects pixels.
    gate_deadline_ = std::chrono::steady_clock::now() + 1500us;
  }

  // --- parallel phase: register the frame with the runtime and serve it.
  // The caller always participates; pool workers join up to the processor
  // budget (and serve other sessions' frames when this one is saturated).
  runtime_->register_job(frame_handle_);
  serve_frame(/*is_caller=*/true);
  runtime_->deregister_job(frame_handle_.get());

  if (frame_failed_.load(std::memory_order_acquire)) {
    // Abandon the frame: discard whatever buffers were in flight, rearm the
    // inboxes for the next frame and hand the first failure to the caller.
    // No participant is active anymore (the caller waited them out), so
    // this cleanup runs single-threaded.
    for (auto& group : groups_) {
      while (group->inbox.try_pop()) {
      }
      group->inbox.reopen();
      group->inflight.store(0, std::memory_order_relaxed);
    }
    std::exception_ptr error;
    {
      util::MutexLock lock(error_mutex_);
      error = std::exchange(frame_error_, nullptr);
    }
    frame_failed_.store(false, std::memory_order_release);
    job_generator_.reset();
    std::rethrow_exception(error);
  }

  // --- sequential gather: the overhead term c of eq. 3.2 ---
  // The readback texture comes from the runtime's framebuffer pool: zeroed
  // on checkout, fully overwritten by read_back_into, returned right after —
  // allocation-free in steady state. The checkout fault precedes the clear
  // on purpose: a throw-hit must leave final_ holding the previous completed
  // frame (stale but intact), which is what a degraded serve hands out.
  const util::Stopwatch gather_watch;
  render::FramebufferPool& buffers = runtime_->framebuffers();
  fault_point(FaultSite::kFramebufferCheckout, 0x6662636fULL);
  final_.clear();
  render::Framebuffer part = buffers.acquire(final_.width(), final_.height());
  for (auto& group : groups_) {
    group->pipe->read_back_into(part);
    final_.accumulate(part);
    stats.readback_bytes += part.byte_size();
  }
  buffers.release(std::move(part));
  stats.gather_seconds = gather_watch.seconds();

  // --- bookkeeping ---
  // slots_ is quiescent: the caller observed itself as the last active
  // participant before closing the frame.
  for (const Slot& slot : slots_) {
    stats.genP_seconds += slot.genP_seconds;
    stats.genP_critical_seconds =
        std::max(stats.genP_critical_seconds, slot.genP_seconds);
    stats.steal_seconds += slot.steal_seconds;
    stats.stolen_chunks += slot.stolen_chunks;
    stats.stolen_spots += slot.stolen_spots;
    stats.cross_session_chunks += slot.cross_session_chunks;
    stats.cross_session_spots += slot.cross_session_spots;
  }
  for (auto& group : groups_) {
    const render::PipeStats ps = group->pipe->stats();
    stats.genT_seconds += ps.busy_seconds;
    stats.genT_critical_seconds =
        std::max(stats.genT_critical_seconds, ps.busy_seconds);
    stats.vertices += ps.vertices;
    stats.geometry_bytes += ps.bytes_received;
    stats.pipe_stall_seconds += ps.stall_seconds;
    stats.pipe_state_seconds += ps.state_seconds;
    stats.raster += ps.raster;
  }
  stats.modeled_frame_seconds =
      stats.assign_seconds +
      std::max(stats.genP_critical_seconds, stats.genT_critical_seconds) +
      stats.gather_seconds;
}

bool DncSynthesizer::serve_frame(bool is_caller) {
  Slot* slot = nullptr;
  int ordinal = 0;
  {
    util::MutexLock lock(job_mutex_);
    if (!frame_open_) return false;
    if (is_caller) {
      ordinal = 0;  // reserved at frame open
    } else {
      ordinal = -1;
      for (int k = 1; k < dnc_.processors; ++k) {
        if (!slot_taken_[static_cast<std::size_t>(k)]) {
          ordinal = k;
          break;
        }
      }
      if (ordinal < 0) return false;  // the processor budget is occupied
      slot_taken_[static_cast<std::size_t>(ordinal)] = 1;
      ++active_participants_;
    }
    slot = &slots_[static_cast<std::size_t>(ordinal)];
  }
  {
    // Line up at the start gate: quorum or deadline opens it for everyone.
    util::MutexLock lock(job_mutex_);
    if (!gate_open_) {
      if (active_participants_ >= gate_expected_) {
        gate_open_ = true;
        job_cv_.notify_all();
      } else {
        job_cv_.wait_until(lock, gate_deadline_,
                           [&]() DCSN_REQUIRES(job_mutex_) { return gate_open_; });
        if (!gate_open_) {
          gate_open_ = true;  // deadline: open for every later participant
          job_cv_.notify_all();
        }
      }
    }
  }
  const bool worked = participant_loop(*slot, ordinal, is_caller);
  if (is_caller) {
    // participant_loop only returns to the caller at completion, where it
    // already closed the frame under job_mutex_.
    return worked;
  }
  {
    util::MutexLock lock(job_mutex_);
    slot_taken_[static_cast<std::size_t>(ordinal)] = 0;
    --active_participants_;
  }
  job_cv_.notify_all();
  return worked;
}

bool DncSynthesizer::participant_loop(Slot& slot, int ordinal, bool is_caller) {
  const int pipe_count = dnc_.pipes;
  bool worked = false;
  for (;;) {
    // Unclaimed master roles come first: a group's counter only becomes
    // claimable once its master runs, so starting masters is what unlocks
    // parallelism for everyone else.
    int m = next_master_.load(std::memory_order_relaxed);
    bool claimed = false;
    while (m < pipe_count && !claimed) {
      claimed = next_master_.compare_exchange_weak(m, m + 1,
                                                   std::memory_order_acq_rel);
    }
    if (claimed) {
      worked = true;
      try {
        run_master(*groups_[static_cast<std::size_t>(m)], slot, is_caller);
      } catch (...) {
        // A master must never leave the frame protocol by exception: record
        // it, unblock everyone, and still retire the role so the caller's
        // completion count reaches pipe_count.
        fail_frame(std::current_exception());
      }
      masters_done_.fetch_add(1, std::memory_order_acq_rel);
      job_cv_.notify_all();
      continue;
    }
    bool produced = false;
    try {
      produced = producer_once(slot, ordinal, is_caller);
    } catch (...) {
      fail_frame(std::current_exception());
    }
    if (produced) {
      worked = true;
      continue;
    }
    if (!is_caller) return worked;  // pool worker: hand capacity elsewhere
    // The caller stays to the end: masters may still be running on pool
    // workers, late masters may still need claiming after a failure, and a
    // straggler participant may still be mid-chunk. The timed wait bounds
    // the recheck latency; completion transitions signal job_cv_.
    util::MutexLock lock(job_mutex_);
    if (masters_done_.load(std::memory_order_acquire) == pipe_count &&
        active_participants_ == 1) {
      // Close under the same lock that observed quiescence so no straggler
      // can join (and touch slots_) after the caller walks away.
      frame_open_ = false;
      return worked;
    }
    job_cv_.wait_for(lock, 1ms);
  }
}

void DncSynthesizer::run_master(Group& group, Slot& slot, bool is_caller) {
  group.master_running.store(true, std::memory_order_release);
  runtime_->notify_workers();  // this group's counter just became claimable
  group.pipe->clear();

  auto submit = [&](Message& msg) {
    // A throw-hit inside submit_to_pipe leaves the in-flight registration
    // standing; that is fine — the frame fails, and the failed-frame
    // cleanup in synthesize() resets every group's inflight to zero.
    submit_to_pipe(group, std::move(msg.buffer), msg.submit_faults);
    group.inflight.fetch_sub(1, std::memory_order_seq_cst);
  };

  for (;;) {
    if (frame_failed_.load(std::memory_order_relaxed)) return;
    check_canceled();
    // Forwarding buffers has priority: a starved pipe is worse than a
    // delayed chunk of master-side generation.
    if (auto msg = group.inbox.try_pop()) {
      submit(*msg);
      continue;
    }
    if (const auto range = group.work->claim(); !range.empty()) {
      FaultInjector::Batch submit_faults;
      render::CommandBuffer buffer =
          generate_chunk(group, range, slot, is_caller, &submit_faults);
      submit_to_pipe(group, std::move(buffer), submit_faults);
      continue;
    }
    if (dnc_.steal && master_steal_once(group, slot, is_caller)) continue;
    // Exit condition, item-counted: own counter drained and no registered
    // delivery is still on its way to this pipe. Two guarantees close the
    // races. (1) Same-counter claims: the seq_cst fence pairs with the
    // producers' increment-fence-claim sequence — if a producer's
    // successful claim is visible here (the counter reads drained), its
    // inflight increment is visible too. (2) Cross-counter deliveries
    // (contiguous mode routes stolen chunks to the thief's affinity pipe):
    // the exited flag is stored *before* re-reading inflight, while the
    // producer increments inflight *before* reading the flag — one side
    // must see the other, so the master either stays for the registrant or
    // the registrant reroutes. A phantom (an increment whose claim comes
    // back empty) only delays exit by one timed wait, never loses work.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (group.work->drained() &&
        group.inflight.load(std::memory_order_seq_cst) == 0) {
      group.master_exited.store(true, std::memory_order_seq_cst);
      if (group.inflight.load(std::memory_order_seq_cst) == 0) break;
      group.master_exited.store(false, std::memory_order_seq_cst);
      continue;  // a delivery registered in the window; stay for it
    }
    // Fault site kQueuePop (scheduling class): a drop models a spurious
    // timeout — skip the wait and rescan, which is exactly the path a real
    // spurious CV wakeup takes; the exit handshake must terminate through
    // it. A delay models preemption before the wait.
    if (faults_ != nullptr &&
        faults_->check_scheduling(FaultSite::kQueuePop) ==
            FaultInjector::Action::kDrop) {
      std::this_thread::yield();
      continue;
    }
    if (auto msg = group.inbox.pop_for(500us)) submit(*msg);
    // On timeout (or closed inbox) just rescan: the loop head re-checks
    // failure, new work and the exit condition.
  }
  group.pipe->finish();
}

DncSynthesizer::Group* DncSynthesizer::pick_victim(const Group* self,
                                                   bool for_master) {
  Group* best = nullptr;
  std::int64_t best_remaining = 0;
  for (auto& candidate : groups_) {
    if (candidate.get() == self) continue;
    // Producers deliver with a blocking push, so they need a live
    // consumer. Masters may raid a group whose master has not started: the
    // loot renders on the thief's own pipe.
    if (!for_master && !candidate->master_running.load(std::memory_order_acquire)) {
      continue;
    }
    const std::int64_t r = candidate->work->remaining();
    if (r > best_remaining) {
      best_remaining = r;
      best = candidate.get();
    }
  }
  return best;
}

bool DncSynthesizer::master_steal_once(Group& me, Slot& slot, bool is_caller) {
  Group* victim = pick_victim(&me, /*for_master=*/true);
  if (victim == nullptr) return false;
  // Register against the victim before the claim (the same-counter Dekker
  // pattern the exit condition relies on); if the loot ends up on this
  // master's own pipe the registration is retired right after the submit.
  victim->inflight.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto range = victim->work->steal(dnc_.chunk_spots);
  if (range.empty()) {
    victim->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;  // raced with the owner; rescan
  }
  const util::ThreadCpuStopwatch watch;
  Message msg;
  msg.buffer = generate_chunk(*victim, range, slot, is_caller,
                              &msg.submit_faults);
  slot.steal_seconds += watch.seconds();
  slot.stolen_chunks += 1;
  slot.stolen_spots += range.size();
  if (!victim->master_running.load(std::memory_order_acquire) ||
      me.pipe->stats().bytes_received <= victim->pipe->stats().bytes_received) {
    // Every pipe renders the full texture and the gather blends by
    // addition, so the loot may go through the thief's own pipe — but only
    // when that pipe is the less loaded of the two (submitted geometry
    // bytes count queued work): unconditional re-routing would *create*
    // raster imbalance on the tail of an already balanced frame. A
    // not-yet-running victim always renders on the thief (nobody drains
    // its inbox yet).
    submit_to_pipe(me, std::move(msg.buffer), msg.submit_faults);
    victim->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }
  // A running victim whose pipe is the lighter one: the buffer is routed
  // back through the owner's inbox. A master must never block on a foreign
  // inbox — two masters blocked on each other's full inbox would deadlock
  // — so alternate try_push with draining its own. Termination: a running
  // victim drains its inbox until its in-flight count (which includes this
  // message) is zero.
  while (!victim->inbox.try_push_or_keep(msg)) {
    if (frame_failed_.load(std::memory_order_relaxed)) return true;
    if (auto own = me.inbox.try_pop()) {
      submit_to_pipe(me, std::move(own->buffer), own->submit_faults);
      me.inflight.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      std::this_thread::yield();
    }
  }
  return true;
}

bool DncSynthesizer::producer_once(Slot& slot, int ordinal, bool is_caller) {
  if (frame_failed_.load(std::memory_order_relaxed)) return false;
  check_canceled();
  // Affinity first (the front of the counter, like the old in-group
  // slaves); with stealing enabled, the most loaded running group after.
  Group& own = *groups_[static_cast<std::size_t>(ordinal % dnc_.pipes)];
  if (own.master_running.load(std::memory_order_acquire)) {
    own.inflight.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const auto range = own.work->claim();
    if (!range.empty()) {
      Message msg;
      msg.buffer = generate_chunk(own, range, slot, is_caller,
                                  &msg.submit_faults);
      (void)own.inbox.push(std::move(msg));  // false = closed = frame failed
      return true;
    }
    own.inflight.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (!dnc_.steal) return false;
  Group* victim = pick_victim(&own, /*for_master=*/false);
  if (victim == nullptr) return false;
  // Delivery target: the loot goes to the thief's *affinity* pipe when
  // that pipe carries less submitted geometry
  // (addition commutes across pipes, so sending work to the lighter pipe
  // balances rasterization the way stealing balances generation — while
  // the load comparison keeps tail-end steals from unbalancing an already
  // even frame). Cross-counter routing needs the two-phase handshake
  // against the destination master's exit (see run_master); when the
  // destination is unavailable the owner's inbox is always valid.
  Group* dest = victim;
  if (&own != victim &&
      own.master_running.load(std::memory_order_acquire) &&
      own.pipe->stats().bytes_received <
          victim->pipe->stats().bytes_received) {
    own.inflight.fetch_add(1, std::memory_order_seq_cst);
    if (own.master_exited.load(std::memory_order_seq_cst)) {
      own.inflight.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      dest = &own;
    }
  }
  if (dest == victim) {
    victim->inflight.fetch_add(1, std::memory_order_seq_cst);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto range = victim->work->steal(dnc_.chunk_spots);
  if (range.empty()) {
    dest->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return true;  // raced; rescan
  }
  const util::ThreadCpuStopwatch watch;
  Message msg;
  msg.buffer = generate_chunk(*victim, range, slot, is_caller,
                              &msg.submit_faults);
  slot.steal_seconds += watch.seconds();
  slot.stolen_chunks += 1;
  slot.stolen_spots += range.size();
  // Producers may block here: the destination's master is running, has the
  // delivery registered in its in-flight count, and drains its inbox until
  // that count reaches zero. close() wakes us on frame failure.
  (void)dest->inbox.push(std::move(msg));
  return true;
}

void DncSynthesizer::fail_frame(std::exception_ptr error) {
  {
    util::MutexLock lock(error_mutex_);
    if (!frame_error_) frame_error_ = error;
  }
  frame_failed_.store(true, std::memory_order_release);
  // Closing wakes blocked pops (masters) and makes blocked pushes
  // (producers, thieves) fail instead of waiting on a consumer that
  // already bailed.
  for (auto& group : groups_) group->inbox.close();
  job_cv_.notify_all();
}

render::CommandBuffer DncSynthesizer::generate_chunk(
    const Group& group, util::StealableWorkCounter::Range range, Slot& slot,
    bool is_caller, FaultInjector::Batch* submit_faults) {
  check_canceled();
  const util::ThreadCpuStopwatch watch;
  render::CommandBuffer buffer;
  buffer.reserve(static_cast<std::size_t>(range.size()),
                 static_cast<std::size_t>(synthesis_.vertices_per_spot()));
  for (std::int64_t k = group.begin + range.begin; k < group.begin + range.end; ++k) {
    // kFieldSample strikes here (a poisoned field callback, or virtual
    // delay charged against the deadline); the spot's kPipeSubmit decision
    // is pre-drawn into the buffer's batch and strikes at submit time.
    spot_faults(k, submit_faults);
    job_generator_->generate(job_spots_[static_cast<std::size_t>(k)], buffer);
  }
  slot.genP_seconds += watch.seconds();
  if (!is_caller && runtime_->active_job_count() > 1) {
    // A pool worker generated this chunk while another session's frame was
    // registered: capacity multiplexed across sessions.
    slot.cross_session_chunks += 1;
    slot.cross_session_spots += range.size();
  }
  // Chunk heartbeat for the no-progress watchdog.
  if (control_ != nullptr) {
    control_->progress.fetch_add(1, std::memory_order_relaxed);
  }
  return buffer;
}

}  // namespace dcsn::core
