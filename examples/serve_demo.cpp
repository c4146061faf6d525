// Multi-client streaming demo: three visualization clients — different
// fields, spot kinds and zoom windows — connect to one net::FrameServer
// over a local socket, the way a deployment would serve many users from
// one machine. Unlike an in-process SynthesisService demo, every frame
// here actually crosses a wire: the server streams dirty-tile deltas and
// each client reassembles its framebuffer locally, verified bit-exact
// against the engine's content hash.
//
// Each client advects its spot population along its field between frames
// (small motion per frame), so after the first full frame the server
// transmits only the tiles around moved spots — the delta-vs-full byte
// ratio printed per client is the wire-bandwidth half of the paper's
// temporal-coherence story. The demo prints per-client latency
// percentiles and then writes each client's *received* final frame to a
// PPM.
//
//   ./serve_demo [--frames=6] [--spots=2500] [--out-prefix=serve_client]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "io/ppm.hpp"
#include "net/frame_client.hpp"
#include "net/frame_server.hpp"
#include "render/image.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

struct ClientSetup {
  const char* name = "";
  net::FieldSpec field;
  core::SynthesisConfig synthesis;
};

struct ClientReport {
  std::vector<double> latency_ms;
  std::uint64_t full_bytes = 0;   ///< wire bytes of full frames
  std::uint64_t delta_bytes = 0;  ///< wire bytes of delta frames
  int delta_frames = 0;
  std::uint64_t last_hash = 0;
  render::Framebuffer final_frame;
};

/// One closed-loop client: connect, stream `frames` frames with the spot
/// population advected a small step along the field between submissions.
ClientReport run_client(const std::string& socket_path,
                        const ClientSetup& setup, int frames) {
  ClientReport report;
  net::FrameClient client(socket_path);
  core::DncConfig dnc;
  dnc.processors = 2;
  (void)client.open_session(setup.field, setup.synthesis, dnc);

  const auto field = setup.field.make_field();
  util::Rng rng(setup.synthesis.seed);
  auto spots = core::make_random_spots(field->domain(),
                                       setup.synthesis.spot_count, rng);

  net::ClientSubmitOptions options;
  options.incremental = false;
  // An interactive probe stirring one region: only spots inside the probe
  // disc advect between frames, so after the first full frame the server
  // transmits just the tiles around the probe — local motion is what the
  // delta encoding (and the paper's temporal coherence) pays off on.
  const field::Rect domain = field->domain();
  const field::Vec2 probe{domain.x0 + 0.5 * (domain.x1 - domain.x0),
                          domain.y0 + 0.5 * (domain.y1 - domain.y0)};
  const double probe_radius = 0.15 * (domain.x1 - domain.x0);
  const double step = 0.02;  // advection step per frame, world units
  for (int frame = 0; frame < frames; ++frame) {
    const util::Stopwatch watch;
    (void)client.submit(spots, options);
    const net::FrameClient::FrameResult result = client.await_frame();
    report.latency_ms.push_back(watch.seconds() * 1e3);
    if (result.full) {
      report.full_bytes += result.wire_bytes;
    } else {
      report.delta_bytes += result.wire_bytes;
      ++report.delta_frames;
    }
    report.last_hash = result.content_hash;
    for (auto& spot : spots) {
      const double dx = spot.position.x - probe.x;
      const double dy = spot.position.y - probe.y;
      if (dx * dx + dy * dy > probe_radius * probe_radius) continue;
      const field::Vec2 v = field->sample(spot.position);
      spot.position.x = std::clamp(spot.position.x + v.x * step, domain.x0, domain.x1);
      spot.position.y = std::clamp(spot.position.y + v.y * step, domain.y0, domain.y1);
    }
  }
  report.final_frame = client.framebuffer();  // received, verified pixels
  client.finish_writes();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int frames = args.get_int("frames", 6);
  const auto spot_count = static_cast<std::int64_t>(args.get_int("spots", 2500));
  const std::string prefix = args.get_string("out-prefix", "serve_client");

  // Three clients looking at three different things.
  std::vector<ClientSetup> setups(3);
  setups[0].name = "vortex/ellipse";
  setups[0].field.kind = net::FieldSpec::Kind::kRankineVortex;
  setups[0].field.a = 0.5;  // center
  setups[0].field.b = 0.5;
  setups[0].field.c = 2.0;  // strength
  setups[0].field.d = 0.15;  // core radius
  setups[0].field.domain = {0.0, 0.0, 1.0, 1.0};
  setups[1].name = "taylor-green/bent";
  setups[1].field.kind = net::FieldSpec::Kind::kTaylorGreen;
  setups[1].field.a = 1.0;  // amplitude
  setups[1].field.domain = {0.0, 0.0, 2.0, 2.0};
  setups[2].name = "double-gyre/zoomed";
  setups[2].field.kind = net::FieldSpec::Kind::kDoubleGyre;
  setups[2].field.a = 0.1;   // amplitude
  setups[2].field.b = 0.25;  // eps
  setups[2].field.c = 0.6;   // omega
  setups[2].field.d = 0.0;   // t

  for (std::size_t c = 0; c < setups.size(); ++c) {
    core::SynthesisConfig& config = setups[c].synthesis;
    config.texture_width = 256;
    config.texture_height = 256;
    config.spot_count = spot_count;
    config.spot_radius_px = 7.0;
    config.seed = 42 + c;
    config.intensity_scale = core::SerialSynthesizer::natural_intensity(config);
  }
  setups[1].synthesis.kind = core::SpotKind::kBent;
  setups[1].synthesis.bent.mesh_cols = 10;
  setups[1].synthesis.bent.mesh_rows = 3;
  setups[1].synthesis.bent.length_px = 24.0;
  // Client 2 browses a magnified window of its field — a different
  // world-to-texture mapping, same server.
  setups[2].synthesis.kind = core::SpotKind::kEllipse;
  setups[2].synthesis.window = field::Rect{0.2, 0.2, 1.0, 0.8};

  const std::string socket_path = prefix + ".sock";
  net::FrameServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.service.drivers = 3;
  server_options.wire_tiles = 192;
  net::FrameServer server(server_options);

  const util::Stopwatch wall;
  std::vector<ClientReport> reports(setups.size());
  {
    std::vector<std::jthread> threads;
    threads.reserve(setups.size());
    for (std::size_t c = 0; c < setups.size(); ++c) {
      threads.emplace_back([&, c] {
        reports[c] = run_client(socket_path, setups[c], frames);
      });
    }
  }
  const double wall_seconds = wall.seconds();
  server.stop();
  std::remove(socket_path.c_str());

  std::printf("%d clients x %d frames over one FrameServer (%d drivers, "
              "dirty-tile deltas on the wire)\n\n",
              static_cast<int>(setups.size()), frames, 3);
  std::printf("%-20s %10s %10s %12s %12s %8s\n", "client", "p50 ms", "p95 ms",
              "delta/full", "delta KiB", "hash");
  for (std::size_t c = 0; c < setups.size(); ++c) {
    const ClientReport& r = reports[c];
    // Mean delta frame bytes over the (one) full frame's bytes: the wire
    // compression the spot diff bought for this client's motion rate.
    const double ratio =
        (r.delta_frames > 0 && r.full_bytes > 0)
            ? (static_cast<double>(r.delta_bytes) / r.delta_frames) /
                  static_cast<double>(r.full_bytes)
            : 1.0;
    std::printf("%-20s %10.2f %10.2f %12.3f %12.1f %08llx\n", setups[c].name,
                util::percentile(r.latency_ms, 0.50),
                util::percentile(r.latency_ms, 0.95), ratio,
                static_cast<double>(r.delta_bytes) / 1024.0,
                static_cast<unsigned long long>(r.last_hash & 0xffffffffULL));
    const std::string out = prefix + "_" + std::to_string(c) + ".ppm";
    io::write_ppm(out, render::texture_to_image(r.final_frame));
  }
  std::printf("\ntotal wall time %.2f s for %d frames; every pixel above "
              "crossed the socket as a verified tile payload.\n",
              wall_seconds, frames * static_cast<int>(setups.size()));
  std::printf("wrote %s_{0,1,2}.ppm (each client's final received frame)\n",
              prefix.c_str());
  return 0;
}
