// Streaming frame-server gate (latency SLO + delta bandwidth + end-to-end
// bit-exactness).
//
// Workload: the steering scenario of the incremental ablation, seen from
// the wire. Four clients connect to one net::FrameServer over a local
// socket and stream the SAME deterministic frame sequence — a probe disc
// holding ~6% of the spot population stirs one region while the rest of
// the texture is static — closed-loop (submit, await, next). Identical
// sequences mean ONE in-process reference engine replay provides the
// ground-truth content hash for every frame of every client.
//
// Gates, all must hold (exit nonzero otherwise):
//
//   1. latency SLO: p95 submit->verified-frame latency under 4 concurrent
//      streamed sessions must stay within max(kSloFloorMs, kSloFactor x
//      the measured solo mean). Declared relative to a solo baseline run
//      on the same host so the gate measures multiplexing + wire overhead,
//      not the absolute speed of a loaded 1-core CI box.
//   2. delta bandwidth: steady-state delta frames must average <= 0.35x
//      the bytes of a full frame — the dirty-tile encoding has to actually
//      compress the ~6%-motion workload, headers and hashes included.
//   3. bit-exactness: every frame reassembled by every client must hash to
//      exactly the reference engine's hash for that frame index (on top of
//      the client's own per-tile and whole-frame verification, which
//      throws on any corruption).
//
// usage: bench_stream [--smoke] [--json <path>]
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "net/frame_client.hpp"
#include "net/frame_server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

constexpr int kClients = 4;
constexpr double kDeltaTarget = 0.35;  ///< delta bytes / full bytes ceiling
constexpr double kSloFloorMs = 250.0;  ///< absolute SLO floor
constexpr double kSloFactor = 8.0;     ///< x solo mean latency

struct StreamWorkload {
  net::FieldSpec field;
  core::SynthesisConfig synthesis;
  core::DncConfig dnc;
  /// Per-frame spot populations: frame f's snapshot after f stir steps.
  std::vector<std::vector<core::SpotInstance>> frames;
};

StreamWorkload make_workload(bool smoke, int frames) {
  StreamWorkload w;
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  w.field.kind = net::FieldSpec::Kind::kRankineVortex;
  w.field.a = 2.0;  // center
  w.field.b = 2.0;
  w.field.c = 1.2;  // strength
  w.field.d = 0.8;  // core radius
  w.field.domain = domain;

  w.synthesis.texture_width = smoke ? 128 : 192;
  w.synthesis.texture_height = w.synthesis.texture_width;
  w.synthesis.spot_count = smoke ? 1200 : 2500;
  w.synthesis.spot_radius_px = 3.0;
  w.synthesis.kind = core::SpotKind::kEllipse;
  w.synthesis.seed = 20260808;

  w.dnc.processors = 2;
  w.dnc.chunk_spots = 32;

  util::Rng rng(w.synthesis.seed);
  auto spots = core::make_random_spots(domain, w.synthesis.spot_count, rng);
  for (auto& s : spots) s.intensity *= 0.2;

  // The probe disc of the incremental ablation: radius 0.55 over a
  // 16-area domain holds ~6% of a uniform population. Each frame rotates
  // the probe spots 0.12 rad around the center — localized motion, so the
  // dirty-tile delta has something to compress.
  const field::Vec2 center{1.0, 1.0};
  const double radius = 0.55;
  std::vector<std::size_t> probe;
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const double dx = spots[k].position.x - center.x;
    const double dy = spots[k].position.y - center.y;
    if (dx * dx + dy * dy <= radius * radius) probe.push_back(k);
  }
  constexpr double kStep = 0.12;
  const double c = std::cos(kStep);
  const double s = std::sin(kStep);
  w.frames.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    w.frames.push_back(spots);
    for (const std::size_t k : probe) {
      const double dx = spots[k].position.x - center.x;
      const double dy = spots[k].position.y - center.y;
      spots[k].position = {center.x + c * dx - s * dy,
                          center.y + s * dx + c * dy};
    }
  }
  return w;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::uint64_t full_bytes = 0;
  std::uint64_t delta_bytes = 0;
  int full_frames = 0;
  int delta_frames = 0;
};

/// Streams the whole frame sequence closed-loop; counts hash mismatches
/// against the reference replay into `mismatches`.
ClientStats run_client(const std::string& socket_path, const StreamWorkload& w,
                       const std::vector<std::uint64_t>& reference,
                       std::atomic<int>& mismatches) {
  ClientStats stats;
  net::FrameClient client(socket_path);
  (void)client.open_session(w.field, w.synthesis, w.dnc);
  net::ClientSubmitOptions options;
  options.incremental = false;
  for (std::size_t f = 0; f < w.frames.size(); ++f) {
    const util::Stopwatch watch;
    (void)client.submit(w.frames[f], options);
    const net::FrameClient::FrameResult result = client.await_frame();
    stats.latency_ms.push_back(watch.seconds() * 1e3);
    if (result.content_hash != reference[f]) mismatches.fetch_add(1);
    if (result.full) {
      stats.full_bytes += result.wire_bytes;
      ++stats.full_frames;
    } else {
      stats.delta_bytes += result.wire_bytes;
      ++stats.delta_frames;
    }
  }
  client.finish_writes();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const int frames = smoke ? 6 : 10;

  std::printf("== streaming frame server gate (%s workload) ==\n",
              smoke ? "smoke" : "full");
  const StreamWorkload w = make_workload(smoke, frames);

  // Ground truth: one in-process engine replays the sequence. Every client
  // of every phase must reassemble exactly these hashes from the wire.
  std::vector<std::uint64_t> reference;
  {
    const auto field = w.field.make_field();
    core::DncSynthesizer engine(w.synthesis, w.dnc);
    for (const auto& spots : w.frames) {
      engine.synthesize(*field, spots);
      reference.push_back(engine.texture().content_hash());
    }
  }

  const std::string socket_path = "bench_stream.sock";
  net::FrameServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.service.drivers = 2;
  server_options.wire_tiles = 144;
  net::FrameServer server(server_options);
  std::atomic<int> mismatches{0};

  // Solo baseline: one client alone calibrates what a frame costs on this
  // host, wire included. The SLO is declared relative to its mean.
  const ClientStats solo = run_client(socket_path, w, reference, mismatches);
  double solo_mean_ms = 0.0;
  for (const double ms : solo.latency_ms) solo_mean_ms += ms;
  solo_mean_ms /= static_cast<double>(solo.latency_ms.size());

  // The streamed phase: kClients concurrent closed-loop sessions.
  std::vector<ClientStats> streamed(kClients);
  const util::Stopwatch wall;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        streamed[static_cast<std::size_t>(c)] =
            run_client(socket_path, w, reference, mismatches);
      });
    }
  }
  const double wall_seconds = wall.seconds();
  server.stop();
  std::remove(socket_path.c_str());

  std::vector<double> latency;
  std::uint64_t full_bytes = 0, delta_bytes = 0;
  int full_frames = 0, delta_frames = 0;
  for (const ClientStats& s : streamed) {
    latency.insert(latency.end(), s.latency_ms.begin(), s.latency_ms.end());
    full_bytes += s.full_bytes;
    delta_bytes += s.delta_bytes;
    full_frames += s.full_frames;
    delta_frames += s.delta_frames;
  }
  const double p50 = util::percentile(latency, 0.50);
  const double p95 = util::percentile(latency, 0.95);
  const double slo_ms = std::max(kSloFloorMs, kSloFactor * solo_mean_ms);
  const double mean_full =
      full_frames > 0 ? static_cast<double>(full_bytes) / full_frames : 0.0;
  const double mean_delta =
      delta_frames > 0 ? static_cast<double>(delta_bytes) / delta_frames : 0.0;
  const double delta_ratio = mean_full > 0.0 ? mean_delta / mean_full : 1.0;

  std::printf(
      "solo: %d frames, mean %.2f ms   streamed: %d clients x %d frames in "
      "%.2f s\n",
      frames, solo_mean_ms, kClients, frames, wall_seconds);
  std::printf(
      "latency p50 %.2f ms  p95 %.2f ms  (SLO %.2f ms = max(%.0f, %.0f x "
      "solo mean))\n",
      p50, p95, slo_ms, kSloFloorMs, kSloFactor);
  std::printf(
      "wire: full frame %.1f KiB, steady-state delta %.1f KiB -> ratio %.3f "
      "(target <= %.2f) over %d delta frames\n",
      mean_full / 1024.0, mean_delta / 1024.0, delta_ratio, kDeltaTarget,
      delta_frames);
  std::printf("hash verification: %d mismatches across %d frames\n",
              mismatches.load(), (kClients + 1) * frames);

  const bool slo_ok = p95 <= slo_ms;
  const bool delta_ok = delta_frames > 0 && delta_ratio <= kDeltaTarget;
  const bool hash_ok = mismatches.load() == 0;
  const bool ok = slo_ok && delta_ok && hash_ok;

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("workload.spots", w.synthesis.spot_count);
    report.set("workload.texture",
               static_cast<std::int64_t>(w.synthesis.texture_width));
    report.set("workload.clients", static_cast<std::int64_t>(kClients));
    report.set("workload.frames_per_client", static_cast<std::int64_t>(frames));
    report.set("solo.mean_latency_ms", solo_mean_ms);
    report.set("stream.latency_p50_ms", p50);
    report.set("stream.latency_p95_ms", p95);
    report.set("stream.wall_seconds", wall_seconds);
    report.set("wire.full_frame_bytes", mean_full);
    report.set("wire.delta_frame_bytes", mean_delta);
    report.set("wire.delta_frames", static_cast<std::int64_t>(delta_frames));
    report.set("gate.slo_ms", slo_ms);
    report.set("gate.p95_ms", p95);
    report.set("gate.slo_pass", slo_ok);
    report.set("gate.delta_ratio", delta_ratio);
    report.set("gate.delta_target", kDeltaTarget);
    report.set("gate.delta_pass", delta_ok);
    report.set("gate.hash_mismatches",
               static_cast<std::int64_t>(mismatches.load()));
    report.set("gate.pass", ok);
    report.set("mode", smoke ? "smoke" : "full");
    report.write(json_path);
  }
  if (!ok) std::printf("TARGET MISSED\n");
  return ok ? 0 : 1;
}
