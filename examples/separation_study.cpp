// The figure-2 scenario: find where flow separates.
//
// The paper shows skin friction on a block face: with default spot noise
// (top image) the separation line is hard to see; after adjusting spot
// position and life-cycle parameters — advecting the spot population so
// spots accumulate along the flow's convergence structures — the
// separation line stands out (bottom image). This example reproduces both
// renderings on an analytic field with the same critical-point topology and
// reports how strongly the line is highlighted.
//
//   ./separation_study [--spots=6000] [--advect-steps=120] [--outdir=.]
#include <cmath>
#include <iostream>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/analytic.hpp"
#include "io/ppm.hpp"
#include "particles/particle_system.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const std::string outdir = args.get_string("outdir", ".");

  const field::Rect domain{0.0, 0.0, 2.0, 1.0};
  const double sep_x = 1.2;  // the separation line to discover
  const auto f = field::analytic::separation(sep_x, 1.0, domain);

  core::SynthesisConfig config;
  config.texture_width = 512;
  config.texture_height = 256;
  config.spot_count = args.get_int("spots", 6000);
  config.spot_radius_px = 5.0;
  config.kind = core::SpotKind::kEllipse;
  config.ellipse.max_stretch = 4.0;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);

  core::DncConfig dnc;
  dnc.processors = args.get_int("processors", 4);
  core::DncSynthesizer synthesizer(config, dnc);

  // --- Default spot noise: uniform random spot positions (fig. 2 top) ----
  util::Rng rng(config.seed);
  const auto uniform_spots =
      core::make_random_spots(domain, config.spot_count, rng);
  synthesizer.synthesize(*f, uniform_spots);
  render::Framebuffer default_texture = synthesizer.texture();
  core::normalize_contrast(default_texture);
  io::write_ppm(outdir + "/separation_default.ppm",
                render::texture_to_image(default_texture));

  // --- Adjusted parameters: advected spot positions (fig. 2 bottom) ------
  // Long-lived particles advected through the field accumulate along the
  // separation line before the texture is synthesized.
  particles::ParticleSystemConfig pc;
  pc.count = config.spot_count;
  pc.mean_lifetime = 1e9;
  pc.respawn_out_of_domain = false;
  particles::ParticleSystem particles(pc, domain, util::Rng(config.seed));
  const int advect_steps = args.get_int("advect-steps", 120);
  for (int step = 0; step < advect_steps; ++step) particles.advance(*f, 0.02);

  const auto advected_spots = core::spots_from_particles(particles);
  synthesizer.synthesize(*f, advected_spots);
  render::Framebuffer advected_texture = synthesizer.texture();
  core::normalize_contrast(advected_texture);
  io::write_ppm(outdir + "/separation_advected.ppm",
                render::texture_to_image(advected_texture));

  // --- Quantify the highlight -------------------------------------------
  // Texture energy (variance) in the band around the separation line vs.
  // elsewhere: the advected rendering concentrates energy on the line.
  auto band_energy_ratio = [&](const render::Framebuffer& tex) {
    const int band_lo = static_cast<int>((sep_x - 0.08) / 2.0 * tex.width());
    const int band_hi = static_cast<int>((sep_x + 0.08) / 2.0 * tex.width());
    double in_band = 0.0, outside = 0.0;
    std::int64_t n_in = 0, n_out = 0;
    for (int y = 0; y < tex.height(); ++y)
      for (int x = 0; x < tex.width(); ++x) {
        const double e = double(tex.at(x, y)) * tex.at(x, y);
        if (x >= band_lo && x <= band_hi) {
          in_band += e;
          ++n_in;
        } else {
          outside += e;
          ++n_out;
        }
      }
    return (in_band / n_in) / (outside / n_out);
  };

  const double ratio_default = band_energy_ratio(default_texture);
  const double ratio_advected = band_energy_ratio(advected_texture);
  std::cout << "wrote " << outdir << "/separation_default.ppm and "
            << outdir << "/separation_advected.ppm\n"
            << "band/background energy ratio, default spot noise:  "
            << ratio_default << "\n"
            << "band/background energy ratio, advected positions:  "
            << ratio_advected << "\n"
            << "the separation line is highlighted "
            << ratio_advected / ratio_default << "x more strongly\n";
  return 0;
}
