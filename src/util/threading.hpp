// Thread utilities for the process-group runtime.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace dcsn::util {

/// Number of hardware threads, at least 1.
[[nodiscard]] int hardware_threads() noexcept;

/// Best-effort thread naming (visible in debuggers/profilers). No-op on
/// failure.
void set_current_thread_name(const std::string& name) noexcept;

/// Chunked dynamic work distribution over [0, total): each claim() returns a
/// half-open range of at most `chunk` items, or an empty range when done.
/// This is the load balancer inside a process group — spots are independent
/// and uniform (the paper's observation), so chunked self-scheduling keeps
/// all workers busy without a central scheduler.
class WorkCounter {
 public:
  struct Range {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    [[nodiscard]] bool empty() const noexcept { return begin >= end; }
    [[nodiscard]] std::int64_t size() const noexcept { return end - begin; }
  };

  WorkCounter(std::int64_t total, std::int64_t chunk) noexcept
      : total_(total), chunk_(chunk > 0 ? chunk : 1) {}

  [[nodiscard]] Range claim() noexcept {
    const std::int64_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= total_) return {};
    return {begin, begin + chunk_ < total_ ? begin + chunk_ : total_};
  }

  void reset() noexcept { next_.store(0, std::memory_order_relaxed); }

  /// Hands out nothing more: every later claim comes back empty.
  void cancel() noexcept { next_.store(total_, std::memory_order_relaxed); }

  [[nodiscard]] std::int64_t total() const noexcept { return total_; }

  /// Every item has been handed out (a racy snapshot, monotone once true).
  [[nodiscard]] bool drained() const noexcept {
    return next_.load(std::memory_order_acquire) >= total_;
  }

 private:
  std::int64_t total_;
  std::int64_t chunk_;
  std::atomic<std::int64_t> next_{0};
};

/// WorkCounter extended with stealing: the owner side claims chunks from the
/// front, idle workers of *other* process groups steal chunks from the back.
/// Both ends live in one 64-bit word updated by compare-and-swap, so a claim
/// and a steal can never hand out overlapping ranges and neither side ever
/// takes a lock (lock-free in the obstruction-free-progress sense: some CAS
/// always succeeds).
///
/// This is the cross-group load balancer: within a group the counter behaves
/// exactly like WorkCounter; across groups it lets a drained group's workers
/// pull work from the most loaded group instead of idling at the end barrier
/// (the eq. 3.2 collapse when the static partition is unbalanced).
class StealableWorkCounter {
 public:
  using Range = WorkCounter::Range;

  StealableWorkCounter(std::int64_t total, std::int64_t chunk)
      : chunk_(chunk > 0 ? chunk : 1) {
    reset(total);
  }

  /// Rearms the counter over [0, total) for a new frame. Not thread-safe:
  /// call only while no worker is claiming or stealing.
  void reset(std::int64_t total) {
    DCSN_CHECK(total >= 0 && total <= kMaxItems,
               "StealableWorkCounter supports up to 2^32-1 items");
    state_.store(pack(0, total), std::memory_order_release);
  }

  /// Owner side: takes up to `chunk` items from the front.
  [[nodiscard]] Range claim() noexcept {
    std::uint64_t s = state_.load(std::memory_order_acquire);
    for (;;) {
      const std::int64_t next = unpack_next(s);
      const std::int64_t end = unpack_end(s);
      if (next >= end) return {};
      const std::int64_t take = std::min(chunk_, end - next);
      if (state_.compare_exchange_weak(s, pack(next + take, end),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return {next, next + take};
      }
    }
  }

  /// Thief side: takes up to `max_items` items from the back. Safe to call
  /// concurrently with claim() and other steal()s.
  [[nodiscard]] Range steal(std::int64_t max_items) noexcept {
    if (max_items <= 0) return {};
    std::uint64_t s = state_.load(std::memory_order_acquire);
    for (;;) {
      const std::int64_t next = unpack_next(s);
      const std::int64_t end = unpack_end(s);
      if (next >= end) return {};
      const std::int64_t take = std::min(max_items, end - next);
      if (state_.compare_exchange_weak(s, pack(next, end - take),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return {end - take, end};
      }
    }
  }

  /// Items not yet claimed or stolen (a racy snapshot).
  [[nodiscard]] std::int64_t remaining() const noexcept {
    const std::uint64_t s = state_.load(std::memory_order_acquire);
    const std::int64_t left = unpack_end(s) - unpack_next(s);
    return left > 0 ? left : 0;
  }

  [[nodiscard]] bool drained() const noexcept { return remaining() == 0; }

  [[nodiscard]] std::int64_t chunk() const noexcept { return chunk_; }

 private:
  static constexpr std::int64_t kMaxItems = 0xffffffffLL;

  static constexpr std::uint64_t pack(std::int64_t next, std::int64_t end) noexcept {
    return (static_cast<std::uint64_t>(next) << 32) |
           (static_cast<std::uint64_t>(end) & 0xffffffffULL);
  }
  static constexpr std::int64_t unpack_next(std::uint64_t s) noexcept {
    return static_cast<std::int64_t>(s >> 32);
  }
  static constexpr std::int64_t unpack_end(std::uint64_t s) noexcept {
    return static_cast<std::int64_t>(s & 0xffffffffULL);
  }

  std::int64_t chunk_;
  std::atomic<std::uint64_t> state_{0};
};

}  // namespace dcsn::util
