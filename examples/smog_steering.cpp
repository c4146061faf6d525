// The paper's §5.1 scenario: computational steering of a smog prediction
// model with the wind field shown as animated spot noise and the pollutant
// superimposed in color (figure 6).
//
// The run simulates a steering session: the model advances in half-hour
// steps while the "user" doubles one city's emissions mid-run and turns the
// wind; every frame is synthesized with the divide-and-conquer engine from
// the live wind field. A few key frames are written as PPM images.
//
//   ./smog_steering [--frames=24] [--processors=4] [--outdir=.]
#include <iostream>

#include "core/animator.hpp"
#include "core/dnc_synthesizer.hpp"
#include "core/serial_synthesizer.hpp"
#include "io/ppm.hpp"
#include "render/overlay.hpp"
#include "sim/smog_model.hpp"
#include "util/cli.hpp"

namespace {

using namespace dcsn;

// Fig. 6 composited frame: spot-noise wind texture, rainbow pollutant
// overlay, coastline-like polyline (see DESIGN.md: procedural substitution
// for the Europe map).
render::Image compose_frame(const render::Framebuffer& texture,
                            const sim::SmogModel& model) {
  render::Image img = render::texture_to_image(texture);
  const render::WorldToImage mapping(model.wind().domain(), img.width(), img.height());

  const auto& ozone = model.concentration(sim::Species::kOzone);
  const auto [lo, hi] = ozone.min_max();
  if (hi > lo) {
    render::overlay_scalar(
        img, mapping, [&](field::Vec2 p) { return ozone.sample(p); }, lo, hi,
        render::ColormapKind::kRainbow,
        [](double t) { return 0.55 * t; });  // faint where concentration is low
  }

  // Procedural "coastline": a fixed-seed meandering polyline.
  std::vector<field::Vec2> coast;
  const field::Rect d = model.wind().domain();
  util::Rng rng(4242);
  double y = d.y0 + 0.25 * d.height();
  for (double x = d.x0; x <= d.x1; x += d.width() / 64.0) {
    y += rng.uniform(-1.0, 1.0) * 0.03 * d.height();
    y = std::clamp(y, d.y0 + 0.1 * d.height(), d.y0 + 0.45 * d.height());
    coast.push_back({x, y});
  }
  render::draw_polyline(img, mapping, coast, {30, 30, 30}, 0.8, 2);
  return img;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int frames = args.get_int("frames", 24);
  const std::string outdir = args.get_string("outdir", ".");

  // The atmospheric model on the paper's 53x55 grid.
  sim::SmogModel model(sim::SmogParams{});

  // The paper's synthesis parameters: 2500 bent spots, 32x17 meshes, 512^2.
  core::SynthesisConfig config;
  config.spot_count = 2500;
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 32;
  config.bent.mesh_rows = 17;
  config.bent.length_px = 40.0;
  config.spot_radius_px = 5.0;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);

  core::DncConfig dnc;
  dnc.processors = args.get_int("processors", 4);
  core::DncSynthesizer synthesizer(config, dnc);

  particles::ParticleSystemConfig pc;
  pc.count = config.spot_count;
  pc.mean_lifetime = 3.0;
  particles::ParticleSystem particles(pc, model.wind().domain(),
                                      util::Rng(config.seed));

  // Pipeline step 1 is the steering loop: each frame advances the model by
  // 30 simulated minutes, with user interventions at fixed frames.
  core::AnimatorConfig ac;
  ac.high_pass_radius = 6;
  core::Animator animator(ac, synthesizer, particles,
                          [&](std::int64_t frame) -> const field::VectorField& {
                            if (frame == frames / 3) {
                              std::cout << "[steer] doubling city-1 emissions\n";
                              model.set_source_rate(1, 24.0);
                            }
                            if (frame == 2 * frames / 3) {
                              std::cout << "[steer] backing the wind to the north\n";
                              model.set_base_wind({18.0, -22.0});
                            }
                            model.step(0.5);
                            return model.wind();
                          });

  double total_time = 0.0;
  for (int frame = 0; frame < frames; ++frame) {
    const core::AnimationFrame result = animator.step();
    total_time += result.total_seconds;
    if (frame == 0 || frame == frames / 2 || frame == frames - 1) {
      const std::string path =
          outdir + "/smog_frame_" + std::to_string(frame) + ".ppm";
      io::write_ppm(path, compose_frame(*result.texture, model));
      std::cout << "wrote " << path << "\n";
    }
  }
  std::cout << "steered " << frames << " frames at " << frames / total_time
            << " frames/s (" << dnc.processors << " processors)\n";
  return 0;
}
