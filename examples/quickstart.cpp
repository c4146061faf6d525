// Quickstart: synthesize one spot-noise texture of a vortex and write it to
// a PPM image — the smallest end-to-end use of the public API.
//
//   ./quickstart [--out=quickstart.ppm]
#include <iostream>

#include "core/dnc_synthesizer.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/analytic.hpp"
#include "io/ppm.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);

  // 1. A vector field. Any VectorField works: analytic, grid-sampled, or a
  //    live simulation. Here: a Rankine vortex.
  const auto f = field::analytic::rankine_vortex(
      /*center=*/{0.5, 0.5}, /*strength=*/2.0, /*core_radius=*/0.15,
      /*domain=*/{0.0, 0.0, 1.0, 1.0});

  // 2. What the texture should look like: 512x512, ellipse spots stretched
  //    along the local flow.
  core::SynthesisConfig config;
  config.spot_count = 4000;
  config.spot_radius_px = 8.0;
  config.kind = core::SpotKind::kEllipse;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);

  // 3. How to generate it: a divide-and-conquer engine whose 4 processors
  //    each generate and rasterize a share of the spots.
  core::DncConfig dnc;
  dnc.processors = 4;
  core::DncSynthesizer synthesizer(config, dnc);

  // 4. Spots at random positions (animate by advecting a ParticleSystem
  //    instead — see the smog_steering example).
  util::Rng rng(config.seed);
  const auto spots = core::make_random_spots(f->domain(), config.spot_count, rng);

  const core::FrameStats stats = synthesizer.synthesize(*f, spots);

  // 5. Tone-map the float texture and save it.
  const std::string out = args.get_string("out", "quickstart.ppm");
  io::write_ppm(out, render::texture_to_image(synthesizer.texture()));

  std::cout << "wrote " << out << "\n"
            << "  spots:        " << stats.spots << "\n"
            << "  frame time:   " << stats.frame_seconds * 1e3 << " ms ("
            << stats.textures_per_second() << " textures/s)\n"
            << "  genP (CPU):   " << stats.genP_seconds * 1e3 << " ms\n"
            << "  genT (raster):" << stats.genT_seconds * 1e3 << " ms\n"
            << "  gather:       " << stats.gather_seconds * 1e3 << " ms\n";
  return 0;
}
