// Slicing a 3D data set — "the data used is a slice from the three
// dimensional data set" (both paper applications).
//
// Builds a 3D ABC flow volume, extracts a stack of z-slices, synthesizes a
// spot-noise texture for each (the browsing pattern: pick a plane, look at
// it, move on), and writes the stack as PPM images plus one zoomed window
// re-synthesized at full resolution.
//
//   ./volume_slices [--slices=4] [--outdir=.]
#include <iostream>
#include <numbers>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/volume.hpp"
#include "io/ppm.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const int slices = args.get_int("slices", 4);
  const std::string outdir = args.get_string("outdir", ".");

  // The standard analytic 3D flow with chaotic streamlines.
  const auto volume = field::analytic3d::abc_flow(1.0, std::sqrt(2.0 / 3.0),
                                                  std::sqrt(1.0 / 3.0), 64);

  core::SynthesisConfig config;
  config.spot_count = 4000;
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 16;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 28.0;
  config.spot_radius_px = 4.0;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);
  core::DncConfig dnc;
  dnc.processors = args.get_int("processors", 4);
  core::DncSynthesizer synth(config, dnc);

  const double two_pi = 2.0 * std::numbers::pi;
  for (int s = 0; s < slices; ++s) {
    const double z = two_pi * (s + 0.5) / slices;
    const auto slice = field::extract_slice(volume, field::SliceAxis::kZ, z, 64, 64);
    util::Rng rng(config.seed + static_cast<std::uint64_t>(s));
    const auto spots = core::make_random_spots(slice.domain(), config.spot_count, rng);
    const auto stats = synth.synthesize(slice, spots);
    render::Framebuffer texture = synth.texture();
    core::normalize_contrast(texture);
    const std::string path = outdir + "/abc_slice_" + std::to_string(s) + ".ppm";
    io::write_ppm(path, render::texture_to_image(texture));
    std::cout << "wrote " << path << " (z = " << z << ", "
              << stats.frame_seconds * 1e3 << " ms)\n";
  }

  // Zoom: re-synthesize the central quarter of the mid-slice at the full
  // 512x512 — magnification with fresh detail, not pixel stretching.
  {
    const auto slice =
        field::extract_slice(volume, field::SliceAxis::kZ, std::numbers::pi, 64, 64);
    auto zoom_config = config;
    zoom_config.window =
        field::Rect{two_pi * 0.375, two_pi * 0.375, two_pi * 0.625, two_pi * 0.625};
    core::DncSynthesizer zoom_synth(zoom_config, dnc);
    util::Rng rng(config.seed);
    // Seed spots inside the window only: off-window spots would clip away.
    const auto spots =
        core::make_random_spots(*zoom_config.window, config.spot_count, rng);
    zoom_synth.synthesize(slice, spots);
    render::Framebuffer texture = zoom_synth.texture();
    core::normalize_contrast(texture);
    io::write_ppm(outdir + "/abc_slice_zoom.ppm", render::texture_to_image(texture));
    std::cout << "wrote " << outdir << "/abc_slice_zoom.ppm (4x window)\n";
  }
  return 0;
}
