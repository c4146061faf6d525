// Renders the same wind field with every visualization technique in the
// library — the paper's motivating comparison (§1: dense texture vs.
// discrete arrows/streamlines) on one page.
//
// Outputs: gallery_arrows.ppm, gallery_streamlines.ppm,
//          gallery_spot_noise.ppm, gallery_spot_noise_zoom.ppm,
//          gallery_lic.ppm
//
//   ./technique_gallery [--outdir=.]
#include <iostream>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/lic.hpp"
#include "core/serial_synthesizer.hpp"
#include "io/ppm.hpp"
#include "render/glyphs.hpp"
#include "render/scene.hpp"
#include "sim/smog_model.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const std::string outdir = args.get_string("outdir", ".");

  // One developed wind field from the smog model drives every rendering.
  sim::SmogModel model(sim::SmogParams{});
  for (int step = 0; step < 10; ++step) model.step(0.5);
  const field::GridVectorField& wind = model.wind();
  const field::Rect domain = wind.domain();
  const render::WorldToImage mapping(domain, 512, 512);

  // 1. Arrow plot — what the smog application used before spot noise.
  {
    render::Image img(512, 512, {255, 255, 255});
    render::draw_arrow_plot(img, mapping, wind, {});
    io::write_ppm(outdir + "/gallery_arrows.ppm", img);
  }

  // 2. Streamlines — the other discrete classic.
  {
    render::Image img(512, 512, {255, 255, 255});
    render::StreamlinePlotConfig config;
    config.seeds_x = 10;
    config.seeds_y = 10;
    render::draw_streamline_plot(img, mapping, wind, config);
    io::write_ppm(outdir + "/gallery_streamlines.ppm", img);
  }

  // 3. Spot noise — the paper's dense texture, plus a zoomed window
  //    rendered from the same texture (pipeline step 4, no re-synthesis).
  {
    core::SynthesisConfig config;
    config.spot_count = 2500;
    config.kind = core::SpotKind::kBent;
    config.bent.mesh_cols = 32;
    config.bent.mesh_rows = 17;
    config.bent.length_px = 40.0;
    config.spot_radius_px = 5.0;
    config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);
    core::DncConfig dnc;
    dnc.processors = 4;
    core::DncSynthesizer synth(config, dnc);
    util::Rng rng(config.seed);
    const auto spots = core::make_random_spots(domain, config.spot_count, rng);
    synth.synthesize(wind, spots);
    render::Framebuffer texture = core::high_pass(synth.texture(), 6);
    core::normalize_contrast(texture);
    io::write_ppm(outdir + "/gallery_spot_noise.ppm",
                  render::texture_to_image(texture));

    render::SceneView view;
    view.texture_world = domain;
    view.window = field::Rect{domain.at(0.55, 0.55).x, domain.at(0.55, 0.55).y,
                              domain.at(0.85, 0.85).x, domain.at(0.85, 0.85).y};
    view.out_width = 512;
    view.out_height = 512;
    io::write_ppm(outdir + "/gallery_spot_noise_zoom.ppm",
                  render::render_scene(texture, view));
  }

  // 4. LIC — the image-order dense technique, for comparison.
  {
    core::LicConfig config;
    config.kernel_half_length_px = 14.0;
    const auto noise = core::make_lic_noise(config.width, config.height,
                                            config.noise_seed);
    render::Framebuffer texture = core::lic(wind, noise, config);
    core::normalize_contrast(texture);
    io::write_ppm(outdir + "/gallery_lic.ppm", render::texture_to_image(texture));
  }

  std::cout << "wrote gallery_{arrows,streamlines,spot_noise,spot_noise_zoom,"
               "lic}.ppm to "
            << outdir << "\n";
  return 0;
}
