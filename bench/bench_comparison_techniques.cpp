// Technique comparison: spot noise (this paper) vs. LIC (the image-order
// dense technique that eventually displaced it) vs. the discrete baselines
// (arrow plot) the paper's applications replaced.
//
// Reports synthesis time and flow-direction anisotropy (the signal a dense
// flow texture exists to carry) on the same field, plus how each dense
// technique scales with worker threads.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/lic.hpp"
#include "field/analytic.hpp"
#include "render/glyphs.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/threading.hpp"

namespace {

using namespace dcsn;

// Directional autocorrelation contrast: along-flow correlation over
// across-flow correlation at a 4-pixel lag, for a horizontal flow.
double anisotropy(const render::Framebuffer& tex) {
  double along = 0.0, across = 0.0;
  const int lag = 4;
  for (int y = lag; y < tex.height() - lag; ++y)
    for (int x = lag; x < tex.width() - lag; ++x) {
      along += double(tex.at(x, y)) * tex.at(x + lag, y);
      across += double(tex.at(x, y)) * tex.at(x, y + lag);
    }
  return across != 0.0 ? along / std::abs(across) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const field::Rect domain{0, 0, 1, 1};
  const auto f = field::analytic::shear(2.0, domain);  // strongly directional

  std::printf("technique comparison on a shear field, 512x512 output\n\n");
  std::printf("%24s %12s %12s\n", "technique", "time (ms)", "anisotropy");

  // Spot noise via the divide-and-conquer engine (the paper's technique).
  core::SynthesisConfig sc;
  sc.spot_count = args.get_int("spots", 8000);
  sc.kind = core::SpotKind::kEllipse;
  sc.ellipse.max_stretch = 4.0;
  sc.spot_radius_px = 6.0;
  sc.intensity_scale = core::SerialSynthesizer::natural_intensity(sc);
  core::DncConfig dnc;
  dnc.processors = 4;
  render::Framebuffer spot_texture;
  {
    core::DncSynthesizer synth(sc, dnc);
    util::Rng rng(sc.seed);
    const auto spots = core::make_random_spots(domain, sc.spot_count, rng);
    (void)synth.synthesize(*f, spots);  // warm-up
    const auto stats = synth.synthesize(*f, spots);
    spot_texture = synth.texture();
    std::printf("%24s %12.1f %12.2f\n", "spot noise (4p/2g)",
                stats.frame_seconds * 1e3, anisotropy(spot_texture));
  }

  // LIC at matched output size and comparable worker count.
  core::LicConfig lc;
  lc.kernel_half_length_px = 12.0;
  const auto noise = core::make_lic_noise(lc.width, lc.height, lc.noise_seed);
  for (const int threads : {1, 4, 8}) {
    lc.threads = threads;
    (void)core::lic(*f, noise, lc);  // warm-up
    const util::Stopwatch watch;
    const auto lic_texture = core::lic(*f, noise, lc);
    const double ms = watch.millis();
    std::printf("%21s/%dt %12.1f %12.2f", "LIC", threads, ms, anisotropy(lic_texture));
    // LicConfig::threads is a participant cap, clamped to the hardware.
    if (threads > util::hardware_threads())
      std::printf("  (capped at %d hardware threads)", util::hardware_threads());
    std::printf("\n");
  }

  // Arrow plot: near-free but discrete (no anisotropy measure applies; its
  // information lives at 24x24 sample positions only).
  {
    render::Image img(512, 512, {255, 255, 255});
    const render::WorldToImage mapping(domain, 512, 512);
    const util::Stopwatch watch;
    render::draw_arrow_plot(img, mapping, *f, {});
    std::printf("%24s %12.1f %12s\n", "arrow plot (24x24)", watch.millis(),
                "discrete");
  }

  std::printf(
      "\nreading: both dense techniques show strong along-flow anisotropy; "
      "spot noise is object-order (cost ~ spots x spot area -> the paper's "
      "divide-and-conquer over spots), LIC is image-order (cost ~ pixels x "
      "kernel -> parallel over pixels).\n");
  return 0;
}
