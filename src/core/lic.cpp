#include "core/lic.hpp"

#include <algorithm>
#include <cmath>

#include "core/runtime.hpp"
#include "render/overlay.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dcsn::core {

render::Framebuffer make_lic_noise(int width, int height, std::uint64_t seed) {
  render::Framebuffer noise(width, height);
  util::Rng rng(seed);
  auto px = noise.pixels();
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      px(x, y) = static_cast<float>(rng.intensity());
  return noise;
}

render::Framebuffer lic(const field::VectorField& f,
                        const render::Framebuffer& noise, const LicConfig& config) {
  DCSN_CHECK(noise.width() == config.width && noise.height() == config.height,
             "noise texture must match the LIC output size");
  DCSN_CHECK(config.kernel_half_length_px > 0.0, "kernel length must be positive");
  DCSN_CHECK(config.step_px > 0.0, "step must be positive");

  render::Framebuffer out(config.width, config.height);
  const render::WorldToImage mapping(f.domain(), config.width, config.height);
  const int steps =
      std::max(1, static_cast<int>(config.kernel_half_length_px / config.step_px));

  const auto noise_px = noise.pixels();
  auto out_px = out.pixels();
  auto sample_noise = [&](double px, double py) -> float {
    const int x = std::clamp(static_cast<int>(px), 0, config.width - 1);
    const int y = std::clamp(static_cast<int>(py), 0, config.height - 1);
    return noise_px(x, y);
  };

  // Rows per chunk: streamline length varies across the image, so small
  // chunks keep the participants balanced (2 rows measured fastest of
  // 2/4/8/16/32 at 4 participants).
  constexpr std::int64_t kRowGrain = 2;
  const auto convolve_rows = [&](int y0, int y1) {
    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < config.width; ++x) {
        double sum = sample_noise(x + 0.5, y + 0.5);
        int taps = 1;
        // March both directions along the flow in image space; unit-speed so
        // the kernel length is measured in pixels regardless of |v|.
        for (const double direction : {+1.0, -1.0}) {
          double px = x + 0.5;
          double py = y + 0.5;
          for (int k = 0; k < steps; ++k) {
            const field::Vec2 world = mapping.unmap(px, py);
            const field::Vec2 v = f.sample(world);
            // World velocity to image direction: x scales, y flips.
            const double ix = v.x;
            const double iy = -v.y;
            const double len = std::hypot(ix, iy);
            if (len < 1e-12) break;  // stagnation: kernel truncates
            px += direction * config.step_px * ix / len;
            py += direction * config.step_px * iy / len;
            if (px < 0.0 || px >= config.width || py < 0.0 || py >= config.height)
              break;
            sum += sample_noise(px, py);
            ++taps;
          }
        }
        out_px(x, y) = static_cast<float>(sum / taps);
      }
    }
  };
  Runtime::global().parallel_for(config.height, kRowGrain, convolve_rows, config.threads);
  return out;
}

}  // namespace dcsn::core
