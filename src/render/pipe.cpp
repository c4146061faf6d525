#include "render/pipe.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "util/error.hpp"
#include "util/threading.hpp"

namespace dcsn::render {

namespace {
std::atomic<std::int64_t> pipes_created{0};
}  // namespace

GraphicsPipe::GraphicsPipe(PipeConfig config, std::shared_ptr<Bus> bus, int pipe_id)
    : config_(config),
      bus_(std::move(bus)),
      pipe_id_(pipe_id),
      target_(config.width, config.height),
      queue_(config.queue_capacity),
      server_([this](std::stop_token stop) { server_loop(stop); }) {
  DCSN_CHECK(config.raster_cost_multiplier >= 1.0,
             "raster cost multiplier models a slower pipe, must be >= 1");
  pipes_created.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t GraphicsPipe::created_count() {
  return pipes_created.load(std::memory_order_relaxed);
}

GraphicsPipe::~GraphicsPipe() { queue_.close(); }

void GraphicsPipe::bind_profile(std::shared_ptr<const SpotProfile> profile) {
  queue_.push(CmdBindProfile{std::move(profile)});
}

void GraphicsPipe::set_blend_mode(BlendMode mode) { queue_.push(CmdBlendMode{mode}); }

void GraphicsPipe::set_viewport_origin(int x, int y) {
  queue_.push(CmdViewport{x, y});
}

void GraphicsPipe::clear(float value) { queue_.push(CmdClear{value}); }

void GraphicsPipe::submit(CommandBuffer buffer) {
  submit_with_state_changes(std::move(buffer), 0);
}

void GraphicsPipe::submit_with_state_changes(CommandBuffer buffer, int count) {
  if (buffer.empty() && count == 0) return;
  // determinism: timing model only — stall accounting, not pixels.
  const auto queued_at = Bus::Clock::now();
  const std::size_t bytes = buffer.byte_size();
  const auto available_at =
      bus_ ? bus_->schedule(bytes)
           // determinism: timing model only — completion stamp, not pixels.
           : Bus::Clock::time_point{Bus::Clock::now()};
  {
    util::MutexLock lock(stats_mutex_);
    stats_.bytes_received += bytes;
  }
  queue_.push(CmdDraw{std::move(buffer), queued_at, available_at, count});
}

void GraphicsPipe::finish() {
  CmdFence fence;
  std::future<void> done = fence.done.get_future();
  queue_.push(std::move(fence));
  done.wait();
}

Framebuffer GraphicsPipe::read_back() {
  finish();
  if (bus_) bus_->transfer(target_.byte_size());
  return target_;  // copy: the "texture" crossing back to host memory
}

void GraphicsPipe::read_back_into(Framebuffer& out) {
  finish();
  if (bus_) bus_->transfer(target_.byte_size());
  out = target_;  // copy assignment reuses `out`'s allocation when it fits
}

PipeStats GraphicsPipe::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

void GraphicsPipe::reset_stats() {
  util::MutexLock lock(stats_mutex_);
  stats_ = PipeStats{};
}

void GraphicsPipe::server_loop(std::stop_token /*stop*/) {
  util::set_current_thread_name("gpipe-" + std::to_string(pipe_id_));
  while (auto cmd = queue_.pop()) {
    execute(*cmd);
    // A fence stamps itself before it wakes the caller (see CmdFence).
    // determinism: timing model only — stall accounting, not pixels.
    if (!std::holds_alternative<CmdFence>(*cmd)) idle_since_ = Bus::Clock::now();
  }
}

void GraphicsPipe::pay_state_change() {
  // Busy-wait: the sync latency occupies the pipe, it is not idle time.
  const util::Stopwatch watch;
  while (watch.seconds() < config_.state_change_seconds) {
    // spin
  }
}

void GraphicsPipe::execute(Command& cmd) {
  struct Visitor {
    GraphicsPipe& pipe;

    void operator()(CmdBindProfile& c) {
      const util::Stopwatch watch;
      pipe.pay_state_change();
      pipe.bound_profile_ = std::move(c.profile);
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.state_changes += 1;
      pipe.stats_.state_seconds += watch.seconds();
      pipe.stats_.busy_seconds += watch.seconds();
    }

    void operator()(CmdBlendMode& c) {
      const util::Stopwatch watch;
      pipe.pay_state_change();
      pipe.blend_mode_ = c.mode;
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.state_changes += 1;
      pipe.stats_.state_seconds += watch.seconds();
      pipe.stats_.busy_seconds += watch.seconds();
    }

    void operator()(CmdViewport& c) {
      pipe.viewport_x_ = c.x;
      pipe.viewport_y_ = c.y;
    }

    void operator()(CmdClear& c) {
      // Raster-side work is attributed with the thread CPU clock so genT
      // stays meaningful when pipes and workers outnumber the host's cores.
      const util::ThreadCpuStopwatch watch;
      pipe.target_.clear(c.value);
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.busy_seconds += watch.seconds();
      pipe.stats_.raster_seconds += watch.seconds();
    }

    void operator()(CmdDraw& c) {
      // Wait for the bus to deliver the vertex data (DMA completion). The
      // stall is counted from when the pipe could have started the draw —
      // it was queued and the previous command had finished — not from
      // when this thread got to dequeue it, so host scheduling latency
      // cannot hide a transfer that was still in flight.
      // determinism: timing model only — stall accounting, not pixels.
      const auto now = Bus::Clock::now();
      const auto ready = std::max(c.queued_at, pipe.idle_since_);
      if (c.available_at > ready) {
        const double stall = std::chrono::duration<double>(c.available_at - ready).count();
        if (c.available_at > now) std::this_thread::sleep_until(c.available_at);
        util::MutexLock lock(pipe.stats_mutex_);
        pipe.stats_.stall_seconds += stall;
      }
      double state_time = 0.0;
      for (int k = 0; k < c.extra_state_changes; ++k) {
        const util::Stopwatch watch;
        pipe.pay_state_change();
        state_time += watch.seconds();
      }

      const util::ThreadCpuStopwatch watch;
      RasterStats raster;
      if (pipe.bound_profile_) {
        const RasterTarget target{pipe.target_.pixels(), pipe.viewport_x_,
                                  pipe.viewport_y_, pipe.config_.raster_algorithm};
        const int passes = static_cast<int>(pipe.config_.raster_cost_multiplier);
        const double frac = pipe.config_.raster_cost_multiplier - passes;
        for (int pass = 0; pass < passes; ++pass) {
          // Extra passes model a slower pipe; only the first pass may blend
          // additively, so repeat passes draw with weight 0 (cost, no image
          // change).
          RasterStats pass_stats;
          if (pass == 0) {
            rasterize_buffer(target, c.buffer, *pipe.bound_profile_,
                             pipe.blend_mode_, pass_stats);
            raster = pass_stats;
          } else {
            zero_weight_pass(target, c.buffer, *pipe.bound_profile_, pass_stats);
          }
        }
        if (frac > 0.0) {
          // Fractional slowdown: spin for the corresponding share of the
          // first pass's time.
          const double base = watch.seconds() / std::max(1.0, static_cast<double>(passes));
          const double extra = base * frac;
          const util::Stopwatch spin;
          while (spin.seconds() < extra) {
          }
        }
      }
      const double busy = watch.seconds();
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.buffers += 1;
      pipe.stats_.vertices += static_cast<std::int64_t>(c.buffer.vertex_count());
      pipe.stats_.raster += raster;
      pipe.stats_.raster_seconds += busy;
      pipe.stats_.state_seconds += state_time;
      pipe.stats_.state_changes += c.extra_state_changes;
      pipe.stats_.busy_seconds += busy + state_time;
    }

    void operator()(CmdFence& c) {
      // The pipe is idle from here: stamp it before the caller wakes and
      // queues more work.
      // determinism: timing model only — stall accounting, not pixels.
      pipe.idle_since_ = Bus::Clock::now();
      c.done.set_value();
    }

    static void zero_weight_pass(const RasterTarget& target, const CommandBuffer& buf,
                                 const SpotProfile& profile, RasterStats& stats) {
      for (const MeshHeader& h : buf.meshes()) {
        rasterize_mesh(target, buf.vertices_of(h), h.cols, h.rows, 0.0f, profile,
                       BlendMode::kAdditive, stats);
      }
    }
  };
  std::visit(Visitor{*this}, cmd);
}

}  // namespace dcsn::render
