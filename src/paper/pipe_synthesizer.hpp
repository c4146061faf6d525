// The paper's processor→pipe machine model: divide-and-conquer spot noise
// as van de Leeuw & van Liere ran it on a multi-pipe Onyx2.
//
// The spot collection is partitioned into disjoint sets, one per process
// group. A process group drives exactly one graphics pipe (paper §4):
//
//   * the group's master owns the pipe's context: it is the only thread
//     that submits commands, and it performs spot-shape calculation itself
//     whenever it would otherwise idle;
//   * producers claim chunks of a group's spot set, transform them into
//     command buffers and hand the buffers to that group's master;
//   * each pipe renders its group's spots into a partial texture; after all
//     groups complete, partial textures are gathered across the bus and
//     blended sequentially — the overhead term c of eq. 3.2.
//
// A model, not the served engine: on a CPU a pipe is one server thread, so
// nG pipes cap raster parallelism at nG. core::DncSynthesizer serves
// sessions with the same bits; the paper's tables, figures and ablations
// and the tests of pipes and stealing run this class.
//
// Each frame registers a Runtime::SharedJob; the caller and pool workers
// (up to `processors`) claim the group-master roles first and produce
// after, stealing across groups when DncConfig::steal is set. A master
// exits when its group's counter is drained and no claimed chunk is still
// in flight to its pipe (see run_master). Process groups persist across
// frames.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/frame_control.hpp"
#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "render/bus.hpp"
#include "render/pipe.hpp"
#include "util/queue.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace dcsn::paper {

/// FrameStats plus what only the pipe model measures.
struct PipeFrameStats : core::FrameStats {
  double pipe_stall_seconds = 0.0;  ///< pipes waiting on the bus
  double pipe_state_seconds = 0.0;  ///< pipes executing state changes

  // Load-balance accounting.
  std::int64_t stolen_chunks = 0;  ///< chunk ranges taken across groups
  std::int64_t stolen_spots = 0;   ///< spots inside those ranges
  double steal_seconds = 0.0;      ///< CPU time generating stolen chunks (subset of genP)
  /// Static-partition imbalance: max over groups of assigned spots divided
  /// by the per-group mean (1.0 = perfectly even). Measured before stealing.
  double imbalance = 1.0;
};

/// Contiguous gather-blend over `DncConfig::pipes` emulated graphics pipes.
/// Reads every DncConfig field except `tiled` and `tile_cache` (rejected and
/// ignored respectively): the pipe model has no render grid. FrameStats
/// follow the eq. 3.2 reading — genT is pipe busy time, genT_critical the
/// busiest pipe, modeled_frame_seconds = assign + max(genP, genT critical)
/// + gather.
class PipeSynthesizer {
 public:
  /// Borrows workers and buffers from the process-global Runtime.
  PipeSynthesizer(core::SynthesisConfig synthesis, core::DncConfig dnc);
  /// Borrows from an explicit Runtime (which must outlive the synthesizer).
  PipeSynthesizer(core::SynthesisConfig synthesis, core::DncConfig dnc,
                  core::Runtime& runtime);
  ~PipeSynthesizer();

  PipeSynthesizer(const PipeSynthesizer&) = delete;
  PipeSynthesizer& operator=(const PipeSynthesizer&) = delete;

  /// Synthesizes one texture. `f` and `spots` must stay valid for the call.
  /// If a participant throws, the frame is abandoned and the first
  /// exception is rethrown here; the engine stays usable for subsequent
  /// frames.
  PipeFrameStats synthesize(const field::VectorField& f,
                            std::span<const core::SpotInstance> spots);

  [[nodiscard]] const render::Framebuffer& texture() const { return final_; }
  [[nodiscard]] const core::SynthesisConfig& config() const { return synthesis_; }
  [[nodiscard]] const core::DncConfig& dnc_config() const { return dnc_; }
  [[nodiscard]] render::PipeStats pipe_stats(int pipe) const;

  /// See core::DncSynthesizer::bind_frame_control.
  void bind_frame_control(core::FrameControl* control) { hooks_.bind(control); }

 private:
  struct Message {
    render::CommandBuffer buffer;
    /// Pre-drawn kPipeSubmit decisions for every spot `buffer` carries,
    /// drawn at generation time (where the owning group's global-index
    /// mapping is in scope) and applied by whichever master submits the
    /// buffer — so the fault outcome is keyed by *which spots* are
    /// submitted, never by who submits them, when, or where the
    /// work-stealing crossover happened to split the range.
    core::FaultInjector::Batch submit_faults;
  };

  struct Group {
    std::unique_ptr<render::GraphicsPipe> pipe;
    util::BoundedQueue<Message> inbox{256};
    std::unique_ptr<util::StealableWorkCounter> work;  ///< over the group's local indices
    std::int64_t begin = 0;  ///< first global spot index of the group's range
    /// The master role for this group has started; only then may producers
    /// claim from its counter (a blocked inbox push needs a live consumer).
    std::atomic<bool> master_running{false};
    /// The master role finished its frame. Second half of the two-phase
    /// exit handshake: a producer that wants to route a *foreign* group's
    /// chunk to this pipe registers in `inflight` first and checks this
    /// flag after; the exiting master stores the flag first and rechecks
    /// `inflight` after — so either the master sees the registration and
    /// stays, or the producer sees the flag and reroutes. Without it a
    /// cross-counter delivery could race into an inbox nobody will ever
    /// drain and its spots would silently vanish from the frame.
    std::atomic<bool> master_exited{false};
    /// Messages destined for this group's pipe, registered and not yet
    /// submitted by this group's master — the item-counted half of the
    /// master's exit condition. Incremented *before* the claim attempt
    /// (conservative phantom counts are resolved by the master's timed
    /// inbox wait), decremented on an empty claim or at master submit.
    std::atomic<std::int64_t> inflight{0};
  };

  /// Per-participant accounting and identity for one frame. Slots are a
  /// fixed pool of `processors` entries: a participant occupies the lowest
  /// free slot and its index is its producer affinity (index mod pipes) —
  /// stable across leave/rejoin churn, which matters twice over: with
  /// steal=false a worker that drains its group and rejoins lands back on
  /// the *same* starved partition (the static-baseline semantics the
  /// balance ablation measures), and per-slot stats keep genP attribution
  /// per virtual processor, not per join.
  struct Slot {
    double genP_seconds = 0.0;
    double steal_seconds = 0.0;
    std::int64_t stolen_chunks = 0;
    std::int64_t stolen_spots = 0;
    std::int64_t cross_session_chunks = 0;
    std::int64_t cross_session_spots = 0;
  };

  struct FrameHandle;  // Runtime::SharedJob adapter (defined in the .cpp)

  /// One participant serving the current frame: joins (subject to the
  /// processor budget; the caller always fits), claims master roles and
  /// produces until no work remains. The caller additionally waits for
  /// frame completion before leaving. Returns whether any work was done.
  bool serve_frame(bool is_caller);
  bool participant_loop(Slot& slot, int ordinal, bool is_caller);
  void run_master(Group& group, Slot& slot, bool is_caller);
  /// One unit of producer work: claim from the affinity group, else steal
  /// from the most loaded running group. Returns false when nothing is
  /// claimable right now.
  bool producer_once(Slot& slot, int ordinal, bool is_caller);
  /// One steal attempt on behalf of a master; returns true if the scan
  /// should restart (work was done or raced away).
  bool master_steal_once(Group& me, Slot& slot, bool is_caller);
  /// Generates one chunk of spot geometry. Per spot it checks the
  /// kFieldSample fault site and pre-draws the spot's kPipeSubmit decision
  /// into `submit_faults` (applied later by submit_to_pipe): per-*spot*
  /// keys, not per-chunk, because chunk boundaries are not replay-stable —
  /// StealableWorkCounter claims from the front and steals from the back,
  /// so where the crossover chunk splits depends on the interleaving, and a
  /// `range.begin` key would draw a different fault set every run.
  render::CommandBuffer generate_chunk(const Group& group,
                                       util::StealableWorkCounter::Range range,
                                       Slot& slot, bool is_caller,
                                       core::FaultInjector::Batch* submit_faults);
  /// Largest-remaining victim, excluding `self`. Producers only see groups
  /// whose master runs (their delivery blocks on the inbox); masters may
  /// additionally raid not-yet-started groups (see the implementation for
  /// the non-blocking delivery guarantees).
  [[nodiscard]] Group* pick_victim(const Group* self, bool for_master);
  /// Records the first failure, closes every inbox so no participant stays
  /// blocked, and marks the frame failed.
  void fail_frame(std::exception_ptr error);
  /// All pipe submissions funnel here: applies the buffer's pre-drawn
  /// per-spot kPipeSubmit batch, then submits and beats the chunk-progress
  /// heartbeat.
  void submit_to_pipe(Group& group, render::CommandBuffer&& buffer,
                      const core::FaultInjector::Batch& submit_faults) const;

  core::SynthesisConfig synthesis_;  // lock-lint: unguarded(immutable after construction)
  core::DncConfig dnc_;              // lock-lint: unguarded(immutable after construction)
  core::Runtime* runtime_;           // lock-lint: unguarded(immutable after construction)
  core::FrameHooks hooks_;  // lock-lint: unguarded(bound between frames; pointee internally synchronized)

  std::shared_ptr<render::Bus> bus_;  // lock-lint: unguarded(immutable after construction)
  std::shared_ptr<const render::SpotProfile> profile_;  // lock-lint: unguarded(immutable after construction)
  // Group is immovable (owns a queue).
  std::vector<std::unique_ptr<Group>> groups_;  // lock-lint: unguarded(sized at construction)
  render::Framebuffer final_;       // lock-lint: unguarded(caller thread, between frames)

  // Per-frame job state, written by synthesize() before the job opens and
  // read-only while participants run — publication happens-before via the
  // frame_open_ transition under job_mutex_.
  std::span<const core::SpotInstance> job_spots_;        // lock-lint: unguarded(frame-setup, see above)
  std::unique_ptr<core::SpotGeometryGenerator> job_generator_;  // lock-lint: unguarded(frame-setup, see above)

  // Participation state for the frame in flight.
  std::shared_ptr<FrameHandle> frame_handle_;  // lock-lint: unguarded(caller thread, between frames)
  std::atomic<int> next_master_{0};   ///< master roles handed out
  std::atomic<int> masters_done_{0};  ///< master roles completed (or bailed)
  /// Guards the participation fields below + slots_ growth.
  util::Mutex job_mutex_;
  util::CondVar job_cv_;  ///< master/participant transitions
  /// Accepting participants.
  bool frame_open_ DCSN_GUARDED_BY(job_mutex_) = false;
  /// Includes the caller's reserved seat.
  int active_participants_ DCSN_GUARDED_BY(job_mutex_) = 0;
  // Start gate: early participants line up until `gate_expected_` have
  // joined or the deadline passes (see synthesize for why).
  bool gate_open_ DCSN_GUARDED_BY(job_mutex_) = true;
  int gate_expected_ DCSN_GUARDED_BY(job_mutex_) = 1;
  // determinism: the gate deadline bounds how long participants line up —
  // scheduling only, never pixels (the lattice makes join order invisible).
  std::chrono::steady_clock::time_point gate_deadline_ DCSN_GUARDED_BY(job_mutex_){};
  /// Fixed: one per processor. Grown under job_mutex_; each occupied slot is
  /// then written by its one participant only.
  std::vector<Slot> slots_ DCSN_GUARDED_BY(job_mutex_);
  /// Slot 0 is the caller's.
  std::vector<std::uint8_t> slot_taken_ DCSN_GUARDED_BY(job_mutex_);

  // Frame failure protocol: the first participant to throw stores its
  // exception, flips the flag, and closes every inbox; everyone else drains
  // out and synthesize() rethrows on the caller thread.
  std::atomic<bool> frame_failed_{false};
  util::Mutex error_mutex_;
  std::exception_ptr frame_error_ DCSN_GUARDED_BY(error_mutex_);
};

}  // namespace dcsn::paper
