#include "core/synthesis_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

SynthesisService::SynthesisService(ServiceConfig config, Runtime& runtime)
    : runtime_(&runtime), config_(config) {
  DCSN_CHECK(config_.drivers >= 1, "the service needs at least one driver");
  DCSN_CHECK(config_.breaker_failure_threshold >= 1,
             "the breaker needs a positive failure threshold");
  drivers_.reserve(static_cast<std::size_t>(config_.drivers));
  for (int d = 0; d < config_.drivers; ++d) {
    drivers_.emplace_back([this] { driver_loop(); });
  }
  if (config_.watchdog_interval_seconds > 0.0) {
    watchdog_ = std::jthread([this] { watchdog_loop(); });
  }
}

SynthesisService::~SynthesisService() { shutdown(/*drain=*/true); }

SynthesisService::SessionId SynthesisService::open_session(
    const SynthesisConfig& synthesis, const DncConfig& dnc, int priority) {
  // Engine construction outside the lock: it touches the runtime (pool
  // growth) and may take a moment.
  auto session = std::make_unique<Session>();
  session->priority = priority;
  session->engine = std::make_unique<DncSynthesizer>(synthesis, dnc, *runtime_);
  util::MutexLock lock(mutex_);
  DCSN_CHECK(accepting_, "the service is shutting down");
  session->id = next_session_id_++;
  const SessionId id = session->id;
  sessions_.emplace(id, std::move(session));
  return id;
}

void SynthesisService::close_session(SessionId id) {
  std::unique_ptr<Session> dead;
  {
    util::MutexLock lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    Session& session = *it->second;
    session.closed = true;
    cancel_pending(session);
    if (!session.running) {
      dead = std::move(it->second);
      sessions_.erase(it);
    }
    // else: the driver finishing the running job reaps the session.
  }
  cv_.notify_all();
  // `dead` (and its engine) tears down outside the lock.
}

SynthesisService::JobTicket SynthesisService::submit(SessionId id,
                                                     SynthesisRequest request,
                                                     SubmitOptions options) {
  DCSN_CHECK(request.field != nullptr, "a synthesis request needs a field");
  DCSN_CHECK(options.max_retries >= 0, "max_retries must be non-negative");
  DCSN_CHECK(options.deadline_seconds > 0.0, "the deadline must be positive");
  JobTicket ticket;
  {
    util::MutexLock lock(mutex_);
    DCSN_CHECK(accepting_, "the service is shutting down");
    auto it = sessions_.find(id);
    DCSN_CHECK(it != sessions_.end() && !it->second->closed,
               "unknown or closed session");
    Session& session = *it->second;
    const double now = clock_now();
    if (session.breaker == BreakerState::kOpen) {
      if (now < session.breaker_open_until) {
        ++totals_.quarantined;
        throw SessionQuarantined();
      }
      // Cooldown elapsed: admit work again, the next dispatch is the probe.
      session.breaker = BreakerState::kHalfOpen;
    }
    if (options.policy == SubmitOptions::DeadlinePolicy::kReject &&
        std::isfinite(options.deadline_seconds) && config_.admission_control &&
        session.model_valid) {
      // Admission control: with `depth` frames ahead of it on this engine,
      // the new job finishes after ~(depth + 1) predicted frame times. If
      // that already blows the deadline, failing fast at the door is
      // strictly better than a guaranteed timeout after a dispatch.
      const DncSynthesizer& engine = *session.engine;
      const double predicted = session.model.predict(
          static_cast<std::int64_t>(request.spots.size()),
          engine.dnc_config().processors, engine.rasterizers());
      const double depth = static_cast<double>(session.queue.size()) +
                           (session.running ? 1.0 : 0.0);
      if ((depth + 1.0) * predicted > options.deadline_seconds) {
        ++totals_.rejected;
        throw JobRejected();
      }
    }
    auto job = std::make_shared<Job>();
    job->id = next_job_id_++;
    job->session = id;
    job->session_ordinal = session.submitted++;
    job->request = std::move(request);
    job->options = options;
    job->enqueued_at_serve = serve_clock_;
    if (std::isfinite(options.deadline_seconds)) {
      job->deadline_at = now + options.deadline_seconds;
    }
    ticket.id = job->id;
    ticket.session = id;
    ticket.result = job->promise.get_future();
    jobs_.emplace(job->id, job);
    session.queue.push_back(std::move(job));
    // A tight-deadline submit into a saturated service may need a running
    // frame out of the way before the queue position helps it.
    maybe_preempt(now);
  }
  cv_.notify_all();
  return ticket;
}

bool SynthesisService::cancel(JobId id) {
  util::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;  // unknown or already completed
  Job& job = *it->second;
  job.control.cancel.store(true, std::memory_order_relaxed);
  if (job.state == JobState::kPending) {
    auto session_it = sessions_.find(job.session);
    if (session_it != sessions_.end()) {
      std::erase_if(session_it->second->queue,
                    [id](const auto& j) { return j->id == id; });
      ++session_it->second->canceled;
    }
    ++totals_.canceled;
    job.promise.set_exception(std::make_exception_ptr(JobCanceled()));
    job.state = JobState::kDone;
    jobs_.erase(it);
  }
  // kRunning: the engine's frame control aborts the frame at the next chunk
  // boundary; the driver resolves the future with JobCanceled.
  return true;
}

void SynthesisService::shutdown(bool drain) {
  {
    util::MutexLock lock(mutex_);
    accepting_ = false;
    if (shutdown_) return;  // idempotent: a second call changes nothing
    shutdown_ = true;
    drain_ = drain;
    if (!drain) {
      for (auto& [id, session] : sessions_) cancel_pending(*session);
      // Frames in flight are canceled cooperatively; their drivers resolve
      // the tickets.
      for (auto& [jid, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->control.cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  cv_.notify_all();
  drivers_.clear();  // joins
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

int SynthesisService::pending_jobs() const {
  util::MutexLock lock(mutex_);
  int n = 0;
  for (const auto& [id, session] : sessions_) {
    n += static_cast<int>(session->queue.size());
  }
  return n;
}

ServiceHealth SynthesisService::health() const {
  util::MutexLock lock(mutex_);
  ServiceHealth health = totals_;
  health.clock_now = clock_now();
  health.sessions.clear();
  for (const auto& [id, session] : sessions_) {
    const Session& s = *session;
    SessionHealth row;
    row.id = s.id;
    row.priority = s.priority;
    row.breaker = s.breaker;
    row.consecutive_failures = s.consecutive_failures;
    row.breaker_trips = s.breaker_trips;
    row.completed = s.completed;
    row.degraded = s.degraded;
    row.failed = s.failed;
    row.retries = s.retries;
    row.timeouts = s.timeouts;
    row.canceled = s.canceled;
    row.yielded = s.yielded;
    row.pending = static_cast<int>(s.queue.size());
    row.running = s.running;
    health.sessions.push_back(row);
  }
  return health;
}

void SynthesisService::cancel_pending(Session& session) {
  for (auto& job : session.queue) {
    job->promise.set_exception(std::make_exception_ptr(JobCanceled()));
    job->state = JobState::kDone;
    jobs_.erase(job->id);
    ++session.canceled;
    ++totals_.canceled;
  }
  session.queue.clear();
}

bool SynthesisService::any_running() const {
  return std::any_of(sessions_.begin(), sessions_.end(),
                     [](const auto& s) { return s.second->running; });
}

int SynthesisService::effective_priority(const Session& session) const {
  if (session.queue.empty()) return session.priority;
  if (config_.priority_aging_dispatches <= 0) return session.priority;
  // Age on the dispatch clock, not wall time: every job the service
  // dispatched while this head waited is one tick of starvation evidence,
  // and the count replays identically in wall and virtual-clock modes.
  const std::int64_t waited =
      serve_clock_ - session.queue.front()->enqueued_at_serve;
  return session.priority +
         static_cast<int>(waited / config_.priority_aging_dispatches);
}

SynthesisService::Session* SynthesisService::pick_session(double now,
                                                          double* wake_at) {
  Session* best = nullptr;
  int best_effective = 0;
  for (auto& [id, entry] : sessions_) {
    Session& session = *entry;
    if (session.running || session.queue.empty()) continue;
    if (session.breaker == BreakerState::kOpen) {
      if (now < session.breaker_open_until) {
        *wake_at = std::min(*wake_at, session.breaker_open_until);
        continue;
      }
      // Cooldown elapsed: let exactly one probe through (the session runs
      // at most one job at a time, so the next dispatch *is* the probe).
      session.breaker = BreakerState::kHalfOpen;
    }
    const Job& head = *session.queue.front();
    if (head.not_before > now) {
      *wake_at = std::min(*wake_at, head.not_before);  // backoff wait
      continue;
    }
    const int effective = effective_priority(session);
    if (best == nullptr || effective > best_effective ||
        (effective == best_effective &&
         session.last_served < best->last_served)) {
      best = &session;
      best_effective = effective;
    }
  }
  return best;
}

void SynthesisService::maybe_preempt(double now) {
  if (config_.yield_risk_factor <= 0.0) return;
  // Risk is judged by the session PerfModel — measured calibration, which
  // is exactly what replay harnesses switch off via admission_control.
  if (!config_.admission_control) return;
  int running = 0;
  for (const auto& [id, session] : sessions_) running += session->running;
  if (running < config_.drivers) return;  // a free driver dispatches normally
  // The most urgent pending head whose deadline is at risk.
  const Session* urgent = nullptr;
  double urgent_slack = std::numeric_limits<double>::infinity();
  for (const auto& [id, entry] : sessions_) {
    const Session& session = *entry;
    if (session.running || session.closed || session.queue.empty()) continue;
    if (session.breaker == BreakerState::kOpen &&
        now < session.breaker_open_until) {
      continue;
    }
    const Job& head = *session.queue.front();
    if (head.not_before > now || !std::isfinite(head.deadline_at)) continue;
    if (!session.model_valid) continue;
    const DncSynthesizer& engine = *session.engine;
    const double predicted = session.model.predict(
        static_cast<std::int64_t>(head.request.spots.size()),
        engine.dnc_config().processors, engine.rasterizers());
    const double slack = head.deadline_at - now;
    if (slack > predicted * config_.yield_risk_factor) continue;  // on track
    if (urgent == nullptr || slack < urgent_slack) {
      urgent = &session;
      urgent_slack = slack;
    }
  }
  if (urgent == nullptr) return;
  // Victim: the running job with the most deadline slack. Never a session
  // of higher configured priority, never a job with less slack than the
  // job we would rescue (that only trades one miss for another), and never
  // a job already past its yield allowance.
  Job* victim = nullptr;
  double victim_slack = -std::numeric_limits<double>::infinity();
  for (const auto& [jid, job] : jobs_) {
    if (job->state != JobState::kRunning) continue;
    if (job->yields >= config_.max_job_yields) continue;
    if (job->control.yield.load(std::memory_order_relaxed)) continue;
    const auto session_it = sessions_.find(job->session);
    if (session_it == sessions_.end()) continue;
    if (session_it->second->priority > urgent->priority) continue;
    const double slack = std::isfinite(job->deadline_at)
                             ? job->deadline_at - now
                             : std::numeric_limits<double>::infinity();
    if (slack <= urgent_slack) continue;
    if (victim == nullptr || slack > victim_slack) {
      victim = job.get();
      victim_slack = slack;
    }
  }
  if (victim == nullptr) return;
  victim->yields += 1;
  victim->control.yield.store(true, std::memory_order_relaxed);
}

SynthesisService::DispatchMode SynthesisService::triage(const Session& session,
                                                        const Job& job,
                                                        double now) const {
  const SubmitOptions& opt = job.options;
  if (!std::isfinite(opt.deadline_seconds)) return DispatchMode::kRun;
  const bool degradable =
      opt.policy == SubmitOptions::DeadlinePolicy::kDegrade &&
      session.completed > 0;
  if (now >= job.deadline_at) {
    // Already expired in the queue: synthesizing would only waste the
    // engine on a result nobody can use in time.
    return degradable ? DispatchMode::kDegrade : DispatchMode::kTimeout;
  }
  if (degradable && config_.admission_control && session.model_valid) {
    const DncSynthesizer& engine = *session.engine;
    const double predicted = session.model.predict(
        static_cast<std::int64_t>(job.request.spots.size()),
        engine.dnc_config().processors, engine.rasterizers());
    if (now + predicted > job.deadline_at) return DispatchMode::kDegrade;
  }
  return DispatchMode::kRun;
}

void SynthesisService::driver_loop() {
  util::set_current_thread_name("dcsn-svc");
  util::MutexLock lock(mutex_);
  for (;;) {
    const double now = clock_now();
    double wake_at = std::numeric_limits<double>::infinity();
    Session* session = pick_session(now, &wake_at);
    if (session == nullptr) {
      const bool backlog =
          std::any_of(sessions_.begin(), sessions_.end(),
                      [](const auto& s) { return !s.second->queue.empty(); });
      if (shutdown_ && (!drain_ || !backlog)) return;
      if (backlog && std::isfinite(wake_at)) {
        // Every runnable head is parked until a future instant (retry
        // backoff or breaker cooldown). A drain shutdown still owes those
        // jobs a dispatch, so waiting here — not just on shutdown_ — is
        // what makes drain-with-backoff terminate.
        if (config_.virtual_clock != nullptr) {
          if (any_running()) {
            // A running frame may finish first and change the picture;
            // its driver's notify wakes us. Never advance a virtual clock
            // under live work: replay depends on advances happening only
            // at quiescence.
            cv_.wait(lock);
          } else {
            config_.virtual_clock->advance_to(wake_at);  // discrete-event hop
          }
        } else {
          cv_.wait_for(lock, std::chrono::duration<double>(
                                 std::max(wake_at - now, 1e-4)));
        }
        continue;
      }
      cv_.wait(lock);
      continue;
    }
    std::shared_ptr<Job> job = session->queue.front();
    session->queue.pop_front();
    session->running = true;
    session->last_served = ++serve_clock_;
    const std::int64_t seq = serve_clock_;
    job->state = JobState::kRunning;
    job->attempt += 1;
    const DispatchMode mode = triage(*session, *job, now);
    lock.unlock();
    RunResult result = run_job(*session, *job, seq, mode);
    lock.lock();
    const bool requeued = settle_job(*session, job, result);
    if (!requeued) jobs_.erase(job->id);
    session->running = false;
    std::unique_ptr<Session> dead;
    if (session->closed) {
      cancel_pending(*session);  // anything submitted before close raced in
      auto it = sessions_.find(session->id);
      if (it != sessions_.end()) {
        dead = std::move(it->second);
        sessions_.erase(it);
      }
    }
    if (dead) {
      lock.unlock();
      dead.reset();  // engine teardown outside the lock
      lock.lock();
    }
    cv_.notify_all();  // this session may have runnable work again
  }
}

SynthesisResult SynthesisService::degraded_result(Session& session, Job& job,
                                                  std::int64_t seq) const {
  // This driver owns the session (running == true) and the engine is idle,
  // so its texture is the last *completed* frame of this session: stale,
  // but a complete bit-exact frame — exactly what kDegrade promises.
  SynthesisResult result;
  result.stats.degraded = true;
  result.stats.queue_wait_seconds = job.queued.seconds();
  result.content_hash = session.engine->texture().content_hash();
  result.service_seq = seq;
  result.attempts = job.attempt;
  if (job.request.capture_texture) result.texture = session.engine->texture();
  return result;
}

SynthesisService::RunResult SynthesisService::run_job(Session& session,
                                                      Job& job,
                                                      std::int64_t seq,
                                                      DispatchMode mode) {
  RunResult out;
  if (mode == DispatchMode::kDegrade) {
    out.value = degraded_result(session, job, seq);
    out.outcome = Outcome::kDegraded;
    return out;
  }
  if (mode == DispatchMode::kTimeout) {
    out.error = std::make_exception_ptr(JobTimedOut());
    out.outcome = Outcome::kTimedOut;
    return out;
  }
  const double queue_wait = job.queued.seconds();
  DncSynthesizer& engine = *session.engine;
  const SubmitOptions& opt = job.options;
  // Arm the control block for this attempt. The fault key derives from
  // (session, per-session submit ordinal, attempt): stable identity, so a
  // replay with the same submission program hits the same injected faults
  // regardless of how drivers interleave across sessions.
  job.control.timed_out.store(false, std::memory_order_relaxed);
  job.control.yield.store(false, std::memory_order_relaxed);
  job.control.delay_penalty_ns.store(0, std::memory_order_relaxed);
  job.control.progress.store(0, std::memory_order_relaxed);
  job.control.deadline_penalty_ns =
      std::isfinite(opt.deadline_seconds)
          ? static_cast<std::int64_t>(opt.deadline_seconds * 1e9)
          : std::numeric_limits<std::int64_t>::max();
  std::uint64_t key = util::fnv1a(&job.session, sizeof(job.session));
  key = util::fnv1a(&job.session_ordinal, sizeof(job.session_ordinal), key);
  key = util::fnv1a(&job.attempt, sizeof(job.attempt), key);
  job.control.fault_key = key;
  engine.bind_frame_control(&job.control);
  try {
    const SynthesisRequest& req = job.request;
    FrameStats stats;
    if (req.incremental && engine.dnc_config().tiled) {
      const SynthesisCache::Decision d =
          session.cache.plan(engine, *req.field, req.spots);
      stats = engine.synthesize(*req.field, req.spots,
                                d.incremental ? &d.plan : nullptr);
      session.cache.commit(engine, *req.field, std::move(job.request.spots));
    } else {
      stats = engine.synthesize(*req.field, req.spots);
    }
    engine.bind_frame_control(nullptr);
    stats.queue_wait_seconds = queue_wait;
    SynthesisResult result;
    result.stats = stats;
    result.content_hash = engine.texture().content_hash();
    result.service_seq = seq;
    result.attempts = job.attempt;
    if (req.capture_texture) result.texture = engine.texture();
    // Every participant rasterizes, so the model's nG is the engine's
    // rasterizer count.
    out.model = PerfModel::calibrate(stats, engine.rasterizers());
    out.value = std::move(result);
    out.outcome = Outcome::kCompleted;
  } catch (const JobCanceled&) {
    engine.bind_frame_control(nullptr);
    out.error = std::current_exception();
    out.outcome = Outcome::kCanceled;
  } catch (const JobTimedOut&) {
    engine.bind_frame_control(nullptr);
    // session.completed is stable here: only the settling driver writes it,
    // and this driver is the one running the session.
    if (opt.policy == SubmitOptions::DeadlinePolicy::kDegrade &&
        session.completed > 0) {
      out.value = degraded_result(session, job, seq);
      out.outcome = Outcome::kDegraded;
    } else {
      out.error = std::current_exception();
      out.outcome = Outcome::kTimedOut;
    }
  } catch (const JobYielded&) {
    // Preempted for a deadline-at-risk job, not failed: the frame goes back
    // to the front of its session queue and reruns with the same attempt
    // number (settle_job rolls it back), so the fault key — and therefore
    // the injected fault schedule — is identical on the redo.
    engine.bind_frame_control(nullptr);
    out.outcome = Outcome::kYielded;
  } catch (...) {
    // Frame failures are session-local: the engine's failure protocol
    // already rearmed it, the cache's serial guard refuses the uncommitted
    // frame, and only this ticket observes the exception. Transient or not,
    // a retry budget lets the job try again (the breaker stops persistent
    // toxicity); the promise stays open until settle_job confirms the
    // retry or we exhaust the budget here.
    engine.bind_frame_control(nullptr);
    if (job.attempt <= opt.max_retries) {
      out.outcome = Outcome::kRetry;
    } else {
      out.error = std::current_exception();
      out.outcome = Outcome::kFailed;
    }
  }
  return out;
}

bool SynthesisService::settle_job(Session& session,
                                  const std::shared_ptr<Job>& job,
                                  RunResult& result) {
  switch (result.outcome) {
    case Outcome::kCompleted:
      ++session.completed;
      ++totals_.completed;
      session.consecutive_failures = 0;
      if (session.breaker == BreakerState::kHalfOpen) {
        session.breaker = BreakerState::kClosed;  // probe passed
      }
      if (result.model.has_value()) {
        session.model = *result.model;
        session.model_valid = true;
      }
      break;
    case Outcome::kDegraded:
      ++session.degraded;
      ++totals_.degraded;
      // A degraded serve neither proves nor indicts the engine: the
      // breaker and the failure streak are left untouched.
      break;
    case Outcome::kCanceled:
      ++session.canceled;
      ++totals_.canceled;
      break;
    case Outcome::kTimedOut:
      ++session.timeouts;
      ++totals_.timeouts;
      note_failure(session);
      break;
    case Outcome::kFailed:
      ++session.failed;
      ++totals_.failed;
      note_failure(session);
      break;
    case Outcome::kRetry: {
      if (!session.closed && !(shutdown_ && !drain_) &&
          !job->control.cancel.load(std::memory_order_relaxed)) {
        ++session.retries;
        ++totals_.retries;
        const SubmitOptions& opt = job->options;
        double backoff = opt.backoff_seconds;
        for (int a = 1; a < job->attempt; ++a) {
          backoff *= opt.backoff_multiplier;
        }
        backoff = std::min(backoff, opt.backoff_max_seconds);
        job->not_before = clock_now() + backoff;
        job->state = JobState::kPending;
        // Front of the queue: retries must not let a later frame of the
        // same session overtake (FIFO-within-session is the animation
        // contract).
        session.queue.push_front(job);
        return true;
      }
      // The retry lost its reason to exist while the attempt ran.
      result.value.reset();
      result.error = std::make_exception_ptr(JobCanceled());
      ++session.canceled;
      ++totals_.canceled;
      break;
    }
    case Outcome::kYielded: {
      if (!session.closed && !(shutdown_ && !drain_) &&
          !job->control.cancel.load(std::memory_order_relaxed)) {
        ++session.yielded;
        ++totals_.yielded;
        // Roll the attempt back: a yield must not spend retry budget or
        // perturb the (session, ordinal, attempt) fault key, or preemption
        // would change which faults a replayed program observes.
        job->attempt -= 1;
        job->not_before = 0.0;
        job->state = JobState::kPending;
        session.queue.push_front(job);  // FIFO-within-session is preserved
        return true;
      }
      result.value.reset();
      result.error = std::make_exception_ptr(JobCanceled());
      ++session.canceled;
      ++totals_.canceled;
      break;
    }
  }
  // The books are settled; only now may the client's future resolve. A
  // waiter that wakes from this set_value and immediately calls health()
  // blocks on mutex_ until this driver releases it — with the outcome
  // already counted.
  job->state = JobState::kDone;
  if (result.value.has_value()) {
    job->promise.set_value(std::move(*result.value));
  } else if (result.error != nullptr) {
    job->promise.set_exception(result.error);
  }
  return false;
}

void SynthesisService::note_failure(Session& session) {
  session.consecutive_failures += 1;
  const bool trip =
      session.breaker == BreakerState::kHalfOpen ||
      (session.breaker == BreakerState::kClosed &&
       session.consecutive_failures >= config_.breaker_failure_threshold);
  if (trip) {
    session.breaker = BreakerState::kOpen;
    session.breaker_open_until =
        clock_now() + config_.breaker_cooldown_seconds;
    ++session.breaker_trips;
    ++totals_.breaker_trips;
  }
}

void SynthesisService::watchdog_loop() {
  util::set_current_thread_name("dcsn-dog");
  util::MutexLock lock(mutex_);
  while (!shutdown_) {
    // Paced by its own condvar so driver notify_all bursts don't distort
    // the stall accounting below (ticks ≈ interval apart).
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration<double>(config_.watchdog_interval_seconds));
    if (shutdown_) break;
    const double now = clock_now();
    for (auto& [jid, job] : jobs_) {
      if (job->state != JobState::kRunning) continue;
      if (config_.virtual_clock == nullptr && now >= job->deadline_at) {
        // Wall-mode deadline enforcement. (Virtual mode charges injected
        // delays against the budget at the fault sites instead — the
        // watchdog never reads a virtual deadline, keeping replay exact.)
        job->control.timed_out.store(true, std::memory_order_relaxed);
        continue;
      }
      const std::int64_t progress =
          job->control.progress.load(std::memory_order_relaxed);
      if (progress != job->watch_progress) {
        job->watch_progress = progress;
        job->watch_stalls = 0;
      } else if (config_.watchdog_no_progress_seconds > 0.0 &&
                 static_cast<double>(++job->watch_stalls) *
                         config_.watchdog_interval_seconds >=
                     config_.watchdog_no_progress_seconds) {
        // No chunk progressed for the whole budget: the frame is wedged
        // (a stuck field callback). Time it out so the
        // session recovers instead of holding a driver forever.
        job->control.timed_out.store(true, std::memory_order_relaxed);
      }
    }
    // Deadlines drift toward risk while frames run; the watchdog tick is
    // the periodic re-check that submit()-time preemption can't provide.
    maybe_preempt(now);
  }
}

}  // namespace dcsn::core
