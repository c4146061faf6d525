#include "paper/pipe_synthesizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

namespace dcsn::paper {

using namespace std::chrono_literals;
using core::FaultInjector;
using core::FaultSite;

// Adapter handed to the Runtime registry. Pool workers may hold a snapshot
// of the registry from before a frame ended (or before the synthesizer was
// destroyed), so serve() takes a shared lock that detach() — called from
// the synthesizer's destructor — upgrades against. A post-frame serve()
// finds the frame closed and returns immediately; a post-destruction one
// finds the owner detached.
struct PipeSynthesizer::FrameHandle : core::Runtime::SharedJob {
  explicit FrameHandle(PipeSynthesizer* o) : owner(o) {}

  bool serve() override {
    util::ReaderLock lock(mutex);
    return owner != nullptr && owner->serve_frame(/*is_caller=*/false);
  }

  void detach() {
    util::WriterLock lock(mutex);
    owner = nullptr;
  }

  util::SharedMutex mutex;
  PipeSynthesizer* owner DCSN_GUARDED_BY(mutex);
};

PipeSynthesizer::PipeSynthesizer(core::SynthesisConfig synthesis, core::DncConfig dnc)
    : PipeSynthesizer(synthesis, dnc, core::Runtime::global()) {}

PipeSynthesizer::PipeSynthesizer(core::SynthesisConfig synthesis, core::DncConfig dnc,
                                 core::Runtime& runtime)
    : synthesis_(synthesis),
      dnc_(dnc),
      runtime_(&runtime),
      hooks_(runtime.faults()),
      final_(synthesis.texture_width, synthesis.texture_height) {
  DCSN_CHECK(dnc_.processors >= 1, "need at least one processor");
  DCSN_CHECK(dnc_.chunk_spots >= 1, "chunk size must be positive");
  DCSN_CHECK(!dnc_.tiled, "the pipe model is contiguous gather-blend only");
  DCSN_CHECK(dnc_.pipes >= 1, "need at least one graphics pipe");
  DCSN_CHECK(dnc_.processors >= dnc_.pipes,
             "each pipe needs at least one processor (its master)");

  profile_ = render::SpotProfile::make_shared(synthesis_.profile_shape,
                                              synthesis_.profile_resolution);
  // Each pipe renders the full texture and the partials are blended.
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
    group->pipe = std::make_unique<render::GraphicsPipe>(pc, bus_, g);
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

  // The shared pool must be able to field this engine's processor budget.
  runtime_->ensure_workers(dnc_.processors);
  frame_handle_ = std::make_shared<FrameHandle>(this);
}

PipeSynthesizer::~PipeSynthesizer() {
  // After detach, no pool worker can re-enter this object even if it still
  // holds the handle from an old registry snapshot; the unique lock inside
  // waits out any serve() in flight.
  frame_handle_->detach();
}

render::PipeStats PipeSynthesizer::pipe_stats(int pipe) const {
  DCSN_CHECK(pipe >= 0 && pipe < static_cast<int>(groups_.size()),
             "pipe index out of range");
  return groups_[static_cast<std::size_t>(pipe)]->pipe->stats();
}

void PipeSynthesizer::submit_to_pipe(Group& group, render::CommandBuffer&& buffer,
                                     const FaultInjector::Batch& submit_faults) const {
  // The batch holds one pre-drawn decision per spot in the buffer, keyed by
  // the spot's global index (see generate_chunk): whichever participant
  // submits the buffer, on whichever pipe, after whatever stealing split
  // the range, the decisions are the same — so a frame attempt fails under
  // a given seed iff one of *its* spots is a throw-hit, independent of
  // scheduling (the replay-determinism invariant).
  hooks_.apply_submit(submit_faults);
  group.pipe->submit(std::move(buffer));
  hooks_.beat();
}

PipeFrameStats PipeSynthesizer::synthesize(const field::VectorField& f,
                                           std::span<const core::SpotInstance> spots) {
  const util::Stopwatch frame_watch;
  PipeFrameStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());
  hooks_.check_canceled();  // a pre-start cancel abandons the frame before any work
  job_spots_ = spots;
  job_generator_ = std::make_unique<core::SpotGeometryGenerator>(synthesis_, f);

  // --- preprocessing: partition the spot collection ---
  const util::Stopwatch assign_watch;
  const auto n = static_cast<std::int64_t>(spots.size());
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
    // Start gate: when the frame has enough work to share, early
    // participants line up until a quorum joins or the deadline passes.
    // Without it, on a loaded host a small frame is over before a newly
    // woken pool worker gets its first timeslice — whichever participant
    // runs first silently serializes the whole frame, so masters never
    // coexist and stealing never happens. The deadline bounds the cost of
    // a pool absorbed by other work to the gate window, never a stall.
    gate_expected_ = n >= dnc_.chunk_spots
                         ? std::min(dnc_.processors, 1 + runtime_->worker_count())
                         : 1;
    gate_open_ = gate_expected_ <= 1;
    // determinism: scheduling gate only — join order never affects pixels.
    gate_deadline_ = std::chrono::steady_clock::now() + 1500us;
  }

  // --- parallel phase: register the frame with the runtime and serve it.
  // The caller always participates; pool workers join up to the processor
  // budget.
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
  // The readback texture comes from the runtime's framebuffer pool. The
  // checkout fault precedes the clear on purpose: a throw-hit must leave
  // final_ holding the previous completed frame (stale but intact).
  const util::Stopwatch gather_watch;
  render::FramebufferPool& buffers = runtime_->framebuffers();
  hooks_.fault_point(FaultSite::kFramebufferCheckout, 0x6662636fULL);
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

  // Deadline verdict over the completed attempt (see DncSynthesizer).
  hooks_.check_canceled();
  const auto [px_lo, px_hi] = final_.min_max();
  stats.peak_pixel_magnitude = std::max(std::abs(static_cast<double>(px_lo)),
                                        std::abs(static_cast<double>(px_hi)));
  stats.frame_seconds = frame_watch.seconds();
  job_generator_.reset();
  return stats;
}

bool PipeSynthesizer::serve_frame(bool is_caller) {
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

bool PipeSynthesizer::participant_loop(Slot& slot, int ordinal, bool is_caller) {
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

void PipeSynthesizer::run_master(Group& group, Slot& slot, bool is_caller) {
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
    hooks_.check_canceled();
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
    // (stolen chunks routed to the thief's affinity pipe): the exited flag
    // is stored *before* re-reading inflight, while the producer increments
    // inflight *before* reading the flag — one side must see the other, so
    // the master either stays for the registrant or the registrant
    // reroutes. A phantom (an increment whose claim comes back empty) only
    // delays exit by one timed wait, never loses work.
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
    if (hooks_.faults() != nullptr &&
        hooks_.faults()->check_scheduling(FaultSite::kQueuePop) ==
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

PipeSynthesizer::Group* PipeSynthesizer::pick_victim(const Group* self,
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

bool PipeSynthesizer::master_steal_once(Group& me, Slot& slot, bool is_caller) {
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

bool PipeSynthesizer::producer_once(Slot& slot, int ordinal, bool is_caller) {
  if (frame_failed_.load(std::memory_order_relaxed)) return false;
  hooks_.check_canceled();
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

void PipeSynthesizer::fail_frame(std::exception_ptr error) {
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

render::CommandBuffer PipeSynthesizer::generate_chunk(
    const Group& group, util::StealableWorkCounter::Range range, Slot& slot,
    bool is_caller, FaultInjector::Batch* submit_faults) {
  hooks_.check_canceled();
  const util::ThreadCpuStopwatch watch;
  render::CommandBuffer buffer;
  buffer.reserve(static_cast<std::size_t>(range.size()),
                 static_cast<std::size_t>(synthesis_.vertices_per_spot()));
  for (std::int64_t k = group.begin + range.begin; k < group.begin + range.end; ++k) {
    // kFieldSample strikes here (a poisoned field callback, or virtual
    // delay charged against the deadline); the spot's kPipeSubmit decision
    // is pre-drawn into the buffer's batch and strikes at submit time.
    hooks_.spot_faults(k, submit_faults);
    job_generator_->generate(job_spots_[static_cast<std::size_t>(k)], buffer);
  }
  slot.genP_seconds += watch.seconds();
  if (!is_caller && runtime_->active_job_count() > 1) {
    // A pool worker generated this chunk while another frame was
    // registered: capacity multiplexed across jobs.
    slot.cross_session_chunks += 1;
    slot.cross_session_spots += range.size();
  }
  hooks_.beat();
  return buffer;
}

}  // namespace dcsn::paper
