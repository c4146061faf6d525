// The paper's §5.2 scenario: browse a DNS database of turbulent flow behind
// a block (figure 7).
//
// Phase 1 runs the 2D incompressible Navier-Stokes solver on the paper's
// 278x208 grid until the Kármán street develops, writing snapshots to a
// dataset file — the (laptop-scale) counterpart of the paper's terabyte
// database. Phase 2 opens the database with the browser and plays through
// it, synthesizing a spot-noise texture per frame, scrubbing backwards, and
// reporting cache behaviour. One wake image is written as PPM.
//
//   ./dns_browser [--snapshots=12] [--spinup=150] [--stride=25]
//                 [--spots=40000] [--outdir=.]
#include <filesystem>
#include <iostream>

#include "core/dnc_synthesizer.hpp"
#include "core/filters.hpp"
#include "core/serial_synthesizer.hpp"
#include "io/ppm.hpp"
#include "render/overlay.hpp"
#include "sim/dataset.hpp"
#include "sim/dns_solver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const int snapshots = args.get_int("snapshots", 12);
  const int spinup = args.get_int("spinup", 150);
  const int stride = args.get_int("stride", 25);
  const std::string outdir = args.get_string("outdir", ".");
  const std::string db_path = outdir + "/dns_wake.dcsd";

  // ---- Phase 1: produce the scientific database ------------------------
  sim::DnsParams params;  // defaults are the paper's 278x208 slice
  sim::DnsSolver solver(params);
  std::cout << "spinning up DNS (" << params.nx << "x" << params.ny
            << ", Re ~ " << params.inflow_speed * 2.0 / params.viscosity << ")\n";
  for (int step = 0; step < spinup; ++step) solver.step();
  {
    const auto first = solver.snapshot();
    sim::DatasetWriter writer(db_path, first.grid());
    writer.append(first, solver.time());
    for (int s = 1; s < snapshots; ++s) {
      for (int step = 0; step < stride; ++step) solver.step();
      writer.append(solver.snapshot(), solver.time());
    }
    std::cout << "wrote " << writer.frames_written() << " snapshots to "
              << db_path << " ("
              << std::filesystem::file_size(db_path) / (1024.0 * 1024.0)
              << " MB)\n";
  }

  // ---- Phase 2: browse it ----------------------------------------------
  sim::DatasetReader reader(db_path);
  sim::DataBrowser browser(reader, /*cache_frames=*/4);

  // The paper's synthesis parameters for this data set: 40000 bent spots
  // with 16x3 meshes.
  core::SynthesisConfig config;
  config.spot_count = args.get_int("spots", 40000);
  config.kind = core::SpotKind::kBent;
  config.bent.mesh_cols = 16;
  config.bent.mesh_rows = 3;
  config.bent.length_px = 24.0;
  config.spot_radius_px = 2.5;
  config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);

  core::DncConfig dnc;
  dnc.processors = args.get_int("processors", 4);
  core::DncSynthesizer synthesizer(config, dnc);

  util::Rng rng(config.seed);
  double synth_time = 0.0;
  int synth_frames = 0;

  auto view_frame = [&]() {
    const auto& f = browser.current();
    const auto spots = core::make_random_spots(f.domain(), config.spot_count, rng);
    const auto stats = synthesizer.synthesize(f, spots);
    synth_time += stats.frame_seconds;
    ++synth_frames;
  };

  // Play forward through the database...
  for (std::int64_t k = 0; k < reader.frame_count(); ++k) {
    view_frame();
    browser.step();
  }
  // ...then scrub the last few frames back and forth (cache exercise).
  browser.set_direction(sim::DataBrowser::Direction::kBackward);
  for (int k = 0; k < 4; ++k) {
    browser.step();
    view_frame();
  }
  std::cout << "browsed " << synth_frames << " views at "
            << synth_frames / synth_time << " textures/s; cache hits "
            << browser.cache_hits() << ", misses " << browser.cache_misses()
            << "\n";

  // ---- Figure-7 style image of the final frame -------------------------
  const auto& wake = browser.current();
  render::Framebuffer texture = synthesizer.texture();
  core::normalize_contrast(texture);
  render::Image img = render::texture_to_image(texture);
  const render::WorldToImage mapping(wake.domain(), img.width(), img.height());
  render::fill_rect(img, mapping, params.block, {40, 40, 40});
  const std::string path = outdir + "/dns_wake.ppm";
  io::write_ppm(path, img);
  std::cout << "wrote " << path << "\n";
  return 0;
}
