// The shared engine runtime: one worker pool and one framebuffer pool for
// every synthesizer, animator and service session in the process.
//
// The paper's machine model assumes a single synthesis job owning the whole
// Onyx2 — processors, pipes and the bus. That assumption breaks the moment
// two animations (or a service full of client sessions) run concurrently:
// private worker threads per session meant N oversubscribed thread pools
// fighting for the same cores. The Runtime inverts the ownership: the
// *engine* owns the workers and buffers, and sessions borrow.
//
//   Runtime
//    ├─ worker pool        N pool threads serving registered SharedJobs
//    │                     in FIFO order + one-shot tasks
//    ├─ FramebufferPool    recycled partial / readback / scratch textures
//    └─ TileStore          the content-addressed tile cache
//
// Scheduling model. A job registers itself and *participants* join it:
// always the calling thread, plus pool workers up to the job's cap. Data-
// parallel loops (parallel / parallel_for) are such jobs: every served
// frame (core::DncSynthesizer), the serial synthesizer's partial
// reduction, the DNS and smog solvers, the texture filters, LIC and the
// particle advection each register a short-lived job that the calling
// thread and pool workers drain together. Because pool workers serve
// whichever registered job has work, an idle session's capacity flows to a
// loaded one; the contribution lattice guarantees the pixels cannot depend
// on which session's worker rasterized what. The calling thread always
// participates, so every job makes progress even when the pool is empty or
// absorbed by other sessions. The paper model (paper::PipeSynthesizer)
// registers its own SharedJob to run its process groups on the same pool.
//
// One-shot tasks (post/async) ride the same pool: the pipelined animator's
// prepare step is a task, not a private thread. The process has one pool;
// there is no second runtime (such as OpenMP's) competing for the cores.
//
// A process-global Runtime (Runtime::global()) backs every constructor that
// does not name one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_injector.hpp"
#include "core/tile_store.hpp"
#include "render/framebuffer_pool.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

struct RuntimeConfig {
  /// Initial worker-pool size. The pool also grows on demand: sessions call
  /// ensure_workers() with their processor budget, so the default Runtime
  /// starts empty and sizes itself to the largest request seen.
  int workers = 0;
  /// Released framebuffers retained by the shared pool.
  std::size_t max_idle_framebuffers = 64;
  /// Byte budget of the shared content-addressed tile cache (see
  /// core::TileStore). Sessions opt in per engine via DncConfig::tile_cache;
  /// the store itself is process-wide so sessions share rendered tiles.
  std::size_t tile_cache_bytes = 256u << 20;
  /// Lock shards of the tile cache.
  std::size_t tile_cache_shards = 8;
  /// Deterministic fault injection (tests/torture only; see
  /// core/fault_injector.hpp). Null — the default — disables every site at
  /// the cost of one pointer check. Shared so torture harnesses can hold the
  /// injector and read its counters after the runtime is gone.
  std::shared_ptr<FaultInjector> fault_injector = nullptr;
};

class Runtime {
 public:
  /// A cooperative multi-worker computation (a parallel loop, a frame). Pool
  /// workers offer capacity by calling serve(); the implementation joins the
  /// job if it wants the help, works until nothing is immediately
  /// available, and returns whether any work was done. serve() must be safe
  /// to call at any time, including after the job's frame completed — a
  /// worker may hold a snapshot of the registry from before deregistration.
  class SharedJob {
   public:
    virtual ~SharedJob() = default;
    virtual bool serve() = 0;
  };

  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The process-global runtime every session borrows from by default.
  /// Constructed on first use with an empty pool (sessions grow it).
  [[nodiscard]] static Runtime& global();

  // --- worker pool ---

  /// Grows the pool to at least `count` workers (never shrinks). Sessions
  /// call this with their processor budget so the shared pool can serve the
  /// largest session even when it arrives late.
  void ensure_workers(int count);

  [[nodiscard]] int worker_count() const;

  /// Registers a job for pool service. Jobs are served in registration
  /// (FIFO) order: the oldest frame in flight drains first, which is what
  /// bounds per-job latency under cross-session load.
  void register_job(std::shared_ptr<SharedJob> job);
  void deregister_job(const SharedJob* job);

  /// Wakes sleeping workers after new work appeared inside a registered job
  /// (e.g. a paper-model group master started and its counter became
  /// claimable).
  void notify_workers();

  /// Registered frame jobs right now (a lock-free snapshot). Sessions use
  /// this to classify work as cross-session: a chunk generated by a pool
  /// worker while >= 2 jobs are registered was capacity another session
  /// could have claimed. Read once per generated chunk, so it must not
  /// touch the pool mutex.
  [[nodiscard]] int active_job_count() const {
    return job_count_.load(std::memory_order_relaxed);
  }

  // --- one-shot tasks ---

  /// Enqueues `fn` for execution on a pool worker. Tasks have priority over
  /// job service so short pipeline steps (e.g. the pipelined animator's
  /// prepare) are not starved behind a long frame.
  void post(std::function<void()> fn);

  /// post() wrapped in a future.
  template <class F>
  [[nodiscard]] auto async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    post([task] { (*task)(); });
    return result;
  }

  // --- data-parallel loops ---

  /// Runs a data-parallel loop over [0, n) on this pool. The range is cut
  /// into chunks of `grain` items, a partition fixed by n and grain alone:
  /// whatever a body computes per chunk cannot depend on how many threads
  /// joined. `body` runs once per participant and claims chunks from the
  /// shared counter until a claim comes back empty, so per-participant
  /// state (the serial synthesizer's partial framebuffer) lives in the
  /// body's own frame. The calling thread always participates, and pool
  /// workers join up to `max_participants` in total (0 = one per hardware
  /// thread, never more). The call therefore completes even from a pool
  /// task with no idle worker. Work of at most one grain, or a cap of one,
  /// runs inline on the caller and never touches the pool. An exception from
  /// any participant stops further claims and is rethrown here, after every
  /// participant has left and the job is deregistered.
  void parallel(std::int64_t n, std::int64_t grain, int max_participants,
                const std::function<void(util::WorkCounter&)>& body);

  /// parallel() for bodies without per-participant state: fn(begin, end)
  /// runs once per claimed chunk, in the index type of `n`.
  template <class Index, class Fn>
  void parallel_for(Index n, std::int64_t grain, Fn&& fn, int max_participants = 0) {
    parallel(static_cast<std::int64_t>(n), grain, max_participants,
             [&fn](util::WorkCounter& work) {
               for (auto r = work.claim(); !r.empty(); r = work.claim()) {
                 fn(static_cast<Index>(r.begin), static_cast<Index>(r.end));
               }
             });
  }

  // --- shared buffers ---

  [[nodiscard]] render::FramebufferPool& framebuffers() { return framebuffers_; }

  /// The process-wide content-addressed tile cache. Engines with
  /// DncConfig::tile_cache probe it before rendering a dirty tile and
  /// publish freshly rendered tiles back; because every session of this
  /// runtime shares the one store, a tile rendered by any session serves
  /// them all (bit-identically — see core/tile_store.hpp).
  [[nodiscard]] TileStore& tile_store() { return tile_store_; }

  /// The runtime's fault injector, or null when none was configured.
  /// Engines cache this pointer and consult it at their injection sites.
  [[nodiscard]] FaultInjector* faults() const {
    return config_.fault_injector.get();
  }

 private:
  void worker_loop(int worker_id);

  RuntimeConfig config_;  // lock-lint: unguarded(immutable after construction)

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::uint64_t epoch_ DCSN_GUARDED_BY(mutex_) = 0;  ///< bumped per wake event
  bool stop_ DCSN_GUARDED_BY(mutex_) = false;
  /// FIFO service order.
  std::vector<std::shared_ptr<SharedJob>> jobs_ DCSN_GUARDED_BY(mutex_);
  std::atomic<int> job_count_{0};  ///< jobs_.size(), readable without mutex_
  std::vector<std::function<void()>> tasks_ DCSN_GUARDED_BY(mutex_);

  render::FramebufferPool framebuffers_;  // lock-lint: unguarded(internally synchronized)
  // Recycles into framebuffers_: declared after it.
  TileStore tile_store_;  // lock-lint: unguarded(internally synchronized)

  /// Grown under mutex_ (ensure_workers) but deliberately unannotated: the
  /// destructor joins the pool via workers_.clear() *without* mutex_ held —
  /// a worker being joined may itself need mutex_ to observe stop_, so
  /// holding it there would deadlock. Safe because by then no other thread
  /// can call ensure_workers (destruction implies exclusive access).
  std::vector<std::jthread> workers_;  // lock-lint: unguarded(joined unlocked in dtor)
};

}  // namespace dcsn::core
