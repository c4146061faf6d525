#include "core/runtime.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "util/error.hpp"

namespace dcsn::core {

namespace {

// One parallel() call in flight. Heap-owned via shared_ptr because pool
// workers may call serve() from a stale registry snapshot after the call
// returned: a closed job refuses the join before touching `body`, which
// lives in the caller's frame.
struct ParallelJob final : Runtime::SharedJob {
  ParallelJob(std::int64_t n, std::int64_t grain, int max_participants,
              const std::function<void(util::WorkCounter&)>& body)
      : work(n, grain), max_participants(max_participants), body(body) {}

  bool serve() override {
    {
      util::MutexLock lock(mutex);
      if (closed || work.drained() || active >= max_participants) return false;
      ++active;
    }
    participate();
    leave();
    return true;
  }

  void participate() {
    try {
      body(work);
    } catch (...) {
      work.cancel();  // the other participants stop at their next claim
      util::MutexLock lock(mutex);
      if (!error) error = std::current_exception();
    }
  }

  void leave() {
    {
      util::MutexLock lock(mutex);
      --active;
    }
    cv.notify_all();
  }

  util::WorkCounter work;  // lock-lint: unguarded(internally synchronized)
  const int max_participants;
  const std::function<void(util::WorkCounter&)>& body;
  util::Mutex mutex;
  util::CondVar cv;
  int active DCSN_GUARDED_BY(mutex) = 1;  ///< the caller's seat, taken up front
  bool closed DCSN_GUARDED_BY(mutex) = false;
  std::exception_ptr error DCSN_GUARDED_BY(mutex);
};

}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(config),
      framebuffers_(config.max_idle_framebuffers),
      tile_store_(TileStore::Config{.max_bytes = config.tile_cache_bytes,
                                    .shards = config.tile_cache_shards,
                                    .recycle = &framebuffers_}) {
  if (config_.workers > 0) ensure_workers(config_.workers);
}

Runtime::~Runtime() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  workers_.clear();  // joins the pool (jthread)
}

Runtime& Runtime::global() {
  static Runtime runtime;
  return runtime;
}

void Runtime::ensure_workers(int count) {
  util::MutexLock lock(mutex_);
  while (static_cast<int>(workers_.size()) < count) {
    const int id = static_cast<int>(workers_.size());
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

int Runtime::worker_count() const {
  util::MutexLock lock(mutex_);
  return static_cast<int>(workers_.size());
}

void Runtime::register_job(std::shared_ptr<SharedJob> job) {
  {
    util::MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
    job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
    ++epoch_;
  }
  cv_.notify_all();
}

void Runtime::deregister_job(const SharedJob* job) {
  util::MutexLock lock(mutex_);
  std::erase_if(jobs_, [job](const auto& j) { return j.get() == job; });
  job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
}

void Runtime::notify_workers() {
  {
    util::MutexLock lock(mutex_);
    ++epoch_;
  }
  cv_.notify_all();
}

void Runtime::post(std::function<void()> fn) {
  {
    util::MutexLock lock(mutex_);
    tasks_.push_back(std::move(fn));
    ++epoch_;
  }
  cv_.notify_all();
}

void Runtime::parallel(std::int64_t n, std::int64_t grain, int max_participants,
                       const std::function<void(util::WorkCounter&)>& body) {
  DCSN_CHECK(grain >= 1, "parallel grain must be >= 1");
  static const int hardware = util::hardware_threads();
  const int cap = std::min(max_participants > 0 ? max_participants : hardware, hardware);
  if (n <= grain || cap <= 1) {
    util::WorkCounter work(n, grain);
    body(work);
    return;
  }
  ensure_workers(cap - 1);  // the caller is the cap-th participant
  auto job = std::make_shared<ParallelJob>(n, grain, cap, body);
  register_job(job);
  job->participate();
  std::exception_ptr error;
  {
    util::MutexLock lock(job->mutex);
    --job->active;
    job->cv.wait(lock, [&]() DCSN_REQUIRES(job->mutex) { return job->active == 0; });
    job->closed = true;
    error = job->error;
  }
  // Deregister before rethrowing, so a failed loop never leaks a job.
  deregister_job(job.get());
  if (error) std::rethrow_exception(error);
}

void Runtime::worker_loop(int worker_id) {
  util::set_current_thread_name("dcsn-rt" + std::to_string(worker_id));
  for (;;) {
    std::function<void()> task;
    std::vector<std::shared_ptr<SharedJob>> jobs;
    std::uint64_t epoch;
    {
      util::MutexLock lock(mutex_);
      epoch = epoch_;
      if (stop_) return;
      if (!tasks_.empty()) {
        // FIFO; tasks beat job service so short pipeline steps (prepare,
        // partial reductions) are not starved behind a frame in flight.
        task = std::move(tasks_.front());
        tasks_.erase(tasks_.begin());
      } else {
        jobs = jobs_;  // snapshot: serve outside the lock
      }
    }
    if (task) {
      task();
      continue;
    }
    // Fault site kWorkerPickup (scheduling class): a drop models a worker
    // offering no capacity this round — it falls through to the epoch wait
    // below, so the frame's calling thread (which always participates) keeps
    // the frame live and nothing can hang; a delay models preemption before
    // pickup. Never a throw: an exception here would kill the pool thread.
    if (FaultInjector* faults = config_.fault_injector.get()) {
      if (faults->check_scheduling(FaultSite::kWorkerPickup) ==
          FaultInjector::Action::kDrop) {
        jobs.clear();
      }
    }
    bool worked = false;
    for (const auto& job : jobs) worked = job->serve() || worked;
    if (worked) continue;
    util::MutexLock lock(mutex_);
    cv_.wait(lock, [&]() DCSN_REQUIRES(mutex_) {
      return stop_ || epoch_ != epoch || !tasks_.empty();
    });
  }
}

}  // namespace dcsn::core
