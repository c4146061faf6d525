// Single-channel float accumulation target.
//
// Spot noise sums signed spot contributions (f(x) = sum a_i h(x - x_i)), so
// the natural render target is a float texture centered on zero, not an
// 8-bit canvas. Each simulated graphics pipe owns one Framebuffer; partial
// results are gathered and blended by addition — blending order cannot
// change the result, which is what makes the divide and conquer correct.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/span2d.hpp"

namespace dcsn::render {

class Framebuffer {
 public:
  Framebuffer() = default;
  Framebuffer(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  [[nodiscard]] std::size_t byte_size() const { return pixel_count() * sizeof(float); }

  void clear(float value = 0.0f);

  /// Reshapes to `width` x `height` and zero-fills every pixel, reusing the
  /// existing allocation when it is large enough. This is the checkout path
  /// of render::FramebufferPool: a recycled buffer must never leak a
  /// previous frame's pixels, so reset() both re-validates the dimensions
  /// and clears unconditionally.
  void reset(int width, int height);

  [[nodiscard]] util::Span2D<float> pixels() {
    return {data_.data(), width_, height_};
  }
  [[nodiscard]] util::Span2D<const float> pixels() const {
    return {data_.data(), width_, height_};
  }

  [[nodiscard]] float& at(int x, int y) { return pixels()(x, y); }
  [[nodiscard]] float at(int x, int y) const { return pixels()(x, y); }

  /// dst += src, elementwise. Sizes must match.
  void accumulate(const Framebuffer& src);

  /// Copies `src` into this buffer at offset (x0, y0) (tile composition).
  void copy_rect_from(const Framebuffer& src, int x0, int y0);

  /// Overwrites the width x height rect at (x0, y0) with the elementwise
  /// sum of the same rect of every buffer in `parts`, each sized like this
  /// one (no parts: zeros). How the tiled engine composes a tile from its
  /// participants' partials: contributions sit on the exact accumulation
  /// lattice, so neither the order of `parts` nor how the spots were split
  /// among them can show in the result.
  void sum_rect_from(std::span<const Framebuffer> parts, int x0, int y0, int width,
                     int height);

  /// The inverse of copy_rect_from: copies the rect at (x0, y0) with `dst`'s
  /// dimensions out of this buffer into `dst` (tile extraction — how the
  /// incremental engine publishes a retained clean tile to the tile store
  /// without re-reading the pipe).
  void extract_rect_into(Framebuffer& dst, int x0, int y0) const;

  /// FNV-1a fingerprint of dimensions + raw pixel bits. The engine renders
  /// bit-deterministically, so this is the stable frame identity the golden
  /// suite checks in (tests/golden/).
  [[nodiscard]] std::uint64_t content_hash() const;

  [[nodiscard]] std::pair<float, float> min_max() const;

  /// Largest absolute per-pixel difference to `other` (sizes must match) —
  /// the metric the rasterizer equivalence tests and benches gate on.
  [[nodiscard]] float max_abs_diff(const Framebuffer& other) const;

  /// Mean of all pixels — for a zero-mean spot population this should hover
  /// near zero, a property the tests assert.
  [[nodiscard]] double mean() const;

  bool operator==(const Framebuffer& other) const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<float> data_;
};

}  // namespace dcsn::render
