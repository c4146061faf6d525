// Regenerates Figure 6: pollutant O3 superimposed on the wind-field spot
// noise texture, with a map overlay — one frame of the steering loop, with
// the full pipeline timing breakdown (read / advect / synthesize / filter).
//
// Output: fig6_smog.ppm
#include <cstdio>

#include "core/animator.hpp"
#include "core/dnc_synthesizer.hpp"
#include "core/serial_synthesizer.hpp"
#include "io/ppm.hpp"
#include "render/overlay.hpp"
#include "sim/smog_model.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);

  sim::SmogModel model(sim::SmogParams{});
  // Develop the episode so an ozone plume exists to display.
  for (int step = 0; step < 16; ++step) model.step(0.5);

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
  core::DncSynthesizer synth(config, dnc);

  particles::ParticleSystemConfig pc;
  pc.count = config.spot_count;
  particles::ParticleSystem particles(pc, model.wind().domain(),
                                      util::Rng(config.seed));

  core::AnimatorConfig ac;
  ac.high_pass_radius = 6;
  core::Animator animator(ac, synth, particles,
                          [&](std::int64_t) -> const field::VectorField& {
                            model.step(0.5);
                            return model.wind();
                          });

  // A few frames so the particle population reaches its steady texture.
  core::AnimationFrame frame;
  for (int k = 0; k < args.get_int("frames", 6); ++k) frame = animator.step();

  render::Image img = render::texture_to_image(*frame.texture);
  const render::WorldToImage mapping(model.wind().domain(), img.width(),
                                     img.height());
  const auto& ozone = model.concentration(sim::Species::kOzone);
  const auto [lo, hi] = ozone.min_max();
  render::overlay_scalar(
      img, mapping, [&](field::Vec2 p) { return ozone.sample(p); }, lo, hi,
      render::ColormapKind::kRainbow, [](double t) { return 0.55 * t; });

  // Map overlay: procedural coastline (DESIGN.md substitution for Europe).
  std::vector<field::Vec2> coast;
  util::Rng rng(4242);
  const field::Rect d = model.wind().domain();
  double y = d.y0 + 0.25 * d.height();
  for (double x = d.x0; x <= d.x1; x += d.width() / 64.0) {
    y += rng.uniform(-1.0, 1.0) * 0.03 * d.height();
    y = std::clamp(y, d.y0 + 0.1 * d.height(), d.y0 + 0.45 * d.height());
    coast.push_back({x, y});
  }
  render::draw_polyline(img, mapping, coast, {30, 30, 30}, 0.8, 2);
  io::write_ppm("fig6_smog.ppm", img);

  std::printf("fig6 -> fig6_smog.ppm\n");
  std::printf("pipeline timing for the last frame (fig. 3 steps):\n");
  std::printf("  1 read data      %7.2f ms (model step: 53x55 ADR + weather)\n",
              frame.read_seconds * 1e3);
  std::printf("  2 advect         %7.2f ms (%lld particles)\n",
              frame.advect_seconds * 1e3,
              static_cast<long long>(config.spot_count));
  std::printf("  3 synthesize     %7.2f ms (%.2f textures/s at %d procs)\n",
              frame.synthesis.frame_seconds * 1e3,
              frame.synthesis.textures_per_second(), dnc.processors);
  std::printf("    spot filtering %7.2f ms (high-pass r=%d + normalize)\n",
              frame.filter_seconds * 1e3, ac.high_pass_radius);
  std::printf("  total            %7.2f ms -> %.1f frames/s animation\n",
              frame.total_seconds * 1e3, 1.0 / frame.total_seconds);
  return 0;
}
