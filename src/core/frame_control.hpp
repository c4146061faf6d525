// Per-job frame control shared by the served engine (core::DncSynthesizer)
// and the paper model (paper::PipeSynthesizer): the FrameControl block the
// service writes, and FrameHooks, the engine's side that polls it and runs
// the outcome-site fault checks keyed by the bound job's fault key.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "core/fault_injector.hpp"
#include "util/error.hpp"

namespace dcsn::core {

/// Thrown out of synthesize() when the frame was abandoned because the
/// job's cancellation token fired (see bind_frame_control and
/// core::SynthesisService). The engine stays usable afterwards, exactly as
/// with any other frame failure.
class JobCanceled : public util::Error {
 public:
  JobCanceled() : util::Error("synthesis job canceled") {}
};

/// Thrown out of synthesize() when the frame exceeded its deadline budget:
/// either the accumulated injected-delay penalty crossed
/// FrameControl::deadline_penalty_ns (virtual time, deterministic) or an
/// external watchdog flagged FrameControl::timed_out (wall time). Checked at
/// the same chunk-granularity points as cancellation, so a timed-out frame
/// abandons within one chunk and the engine rearms for the next job.
/// Deliberately NOT a TransientError: retrying a frame that blew its
/// deadline wastes the next deadline too — the service degrades or fails it.
class JobTimedOut : public util::Error {
 public:
  JobTimedOut() : util::Error("synthesis job exceeded its deadline") {}
};

/// Thrown out of synthesize() when the frame was abandoned because the
/// scheduler asked it to yield its driver (FrameControl::yield): a
/// higher-urgency job's deadline is at risk and every driver is busy. Like
/// a cancel the frame fails and the engine rearms for the next job, but
/// the *service* treats it differently: the job goes back to the front of
/// its session queue with its attempt counter rolled back, so the
/// re-dispatch redraws the identical fault schedule and consumes no retry
/// budget. Client futures never observe this exception.
class JobYielded : public util::Error {
 public:
  JobYielded() : util::Error("synthesis job yielded to a more urgent job") {}
};

/// Per-job control block bound to the engine for the duration of one
/// synthesize() call (SynthesisService binds one per dispatch attempt).
/// The service and watchdog write the flags; the engine polls them at chunk
/// granularity and charges injected delays / chunk progress back.
struct FrameControl {
  /// Caller-requested cancel: the frame aborts with JobCanceled.
  std::atomic<bool> cancel{false};
  /// External deadline/watchdog verdict: the frame aborts with JobTimedOut.
  std::atomic<bool> timed_out{false};
  /// Scheduler preemption request: the frame aborts with JobYielded at the
  /// next chunk checkpoint, freeing its driver for a deadline-at-risk job.
  std::atomic<bool> yield{false};
  /// Virtual nanoseconds of injected delay charged to this frame by the
  /// FaultInjector. Pure function of (fault seed, fault_key, workload) over
  /// a completed attempt — the deterministic half of deadline enforcement.
  std::atomic<std::int64_t> delay_penalty_ns{0};
  /// Chunks generated or submitted so far: the heartbeat a no-progress
  /// watchdog compares between polls.
  std::atomic<std::int64_t> progress{0};
  /// Abort with JobTimedOut once delay_penalty_ns exceeds this budget.
  std::int64_t deadline_penalty_ns = std::numeric_limits<std::int64_t>::max();
  /// Stable per-attempt identity mixed into every outcome-site fault key,
  /// so a retry of the same job draws a fresh (but still deterministic)
  /// fault schedule.
  std::uint64_t fault_key = 0;
};

/// An engine's hooks into its bound FrameControl and the runtime's fault
/// injector: callable from any participant; bind() only between frames.
class FrameHooks {
 public:
  /// `faults` may be null: every fault site is then a no-op.
  explicit FrameHooks(FaultInjector* faults) : faults_(faults) {}

  /// Binds the job's control block (nullptr unbinds).
  void bind(FrameControl* control) { control_ = control; }

  /// Throws JobCanceled, JobTimedOut or JobYielded when the bound job asks.
  void check_canceled() const {
    if (control_ == nullptr) return;
    if (control_->cancel.load(std::memory_order_relaxed)) throw JobCanceled();
    if (control_->timed_out.load(std::memory_order_relaxed) ||
        control_->delay_penalty_ns.load(std::memory_order_relaxed) >
            control_->deadline_penalty_ns) {
      throw JobTimedOut();
    }
    if (control_->yield.load(std::memory_order_relaxed)) throw JobYielded();
  }

  /// Outcome-site fault check: keys the bound job's fault_key with a stable
  /// per-spot/per-tile subkey and charges delay penalties to the job.
  void fault_point(FaultSite site, std::uint64_t subkey) const {
    if (faults_ == nullptr) return;
    faults_->check(site, key(subkey), penalty());
  }

  /// Contained variant for sites where an injected throw degrades the
  /// operation instead of failing the frame (a faulted probe is a miss, a
  /// faulted publish is skipped): returns false on a throw-hit.
  [[nodiscard]] bool fault_point_contained(FaultSite site,
                                           std::uint64_t subkey) const {
    try {
      fault_point(site, subkey);
      return true;
    } catch (const FaultInjected&) {
      return false;
    }
  }

  /// Per-spot outcome-site faults of one generated spot: kFieldSample
  /// strikes now, the spot's kPipeSubmit decision is pre-drawn into `batch`
  /// and strikes where the geometry is consumed (apply_submit). Both key on
  /// the spot's *global* index, never the chunk: every spot is generated
  /// exactly once per attempt however the work was split, so the union of
  /// draws — and with it the attempt's verdict — is a pure function of
  /// workload and seed.
  void spot_faults(std::int64_t spot, FaultInjector::Batch* batch) const {
    if (faults_ == nullptr) return;
    fault_point(FaultSite::kFieldSample,
                0x6669656c64ULL ^ static_cast<std::uint64_t>(spot));
    faults_->predraw(FaultSite::kPipeSubmit,
                     key(0x7069706573ULL ^ static_cast<std::uint64_t>(spot)),
                     batch);
  }

  /// Applies a chunk's pre-drawn kPipeSubmit batch at its effect site.
  void apply_submit(const FaultInjector::Batch& batch) const {
    if (faults_ == nullptr) return;
    faults_->apply(FaultSite::kPipeSubmit, batch, penalty());
  }

  /// Chunk heartbeat for the no-progress watchdog.
  void beat() const {
    if (control_ != nullptr) control_->progress.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] FaultInjector* faults() const { return faults_; }

 private:
  /// Decorrelates the job's per-attempt fault key from the low-entropy
  /// spot/tile subkeys before they are XORed together. Raw attempt keys are
  /// often small consecutive integers, and `attempt ^ spot` collides across
  /// attempts (1^0 == 0^1 == 1): retry N+1 would redraw almost exactly the
  /// set of decisions that just failed retry N, so a doomed attempt stays
  /// doomed forever. The splitmix64 finalizer pushes attempt identity into
  /// the high bits first; mix(0) == 0, so an unbound control degenerates to
  /// the bare subkey.
  [[nodiscard]] static std::uint64_t mix_fault_key(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  [[nodiscard]] std::uint64_t key(std::uint64_t subkey) const {
    return mix_fault_key(control_ != nullptr ? control_->fault_key : 0) ^ subkey;
  }
  [[nodiscard]] std::atomic<std::int64_t>* penalty() const {
    return control_ != nullptr ? &control_->delay_penalty_ns : nullptr;
  }

  FaultInjector* faults_;
  FrameControl* control_ = nullptr;
};

}  // namespace dcsn::core
