// The served engine against the paper's pipe model: one session alone, wall
// clock.
//
// The paper divides the spots among process groups, one per graphics pipe,
// and blends the pipes' partials. On a CPU host a pipe is one server
// thread, so nG pipes cap raster parallelism at nG. The served engine
// (core::DncSynthesizer) lets every participant rasterize the spots it
// generated and sums the participants' partials. This bench measures both
// on two frames:
//
//   bent      bent_full's frame: 2500 bent 16x3 spots on a 512^2 texture,
//             in a Rankine vortex — raster-heavy (~1.9M fragments);
//   ellipse   20000 ellipse spots on 512^2 — many small spots.
//
// and three engines: the served engine at 4 processors, and the paper model
// at 4 processors x 1 pipe and 4 x 4. Repetitions interleave the engines
// (the order rotates each repetition) and each reports its wall-clock frame
// time; a ratio is the median over repetitions of the per-repetition
// paper/served ratio, so a host-wide slowdown hits both sides of a pair.
//
// Gates:
//   * every engine's texture is bit-identical on both frames;
//   * bent: served >= 1.3x faster than the paper model at 4 x 1 (needs a
//     host with >= 4 hardware threads; skipped, with a notice, on smaller
//     hosts, where four participants share fewer cores than they need).
// 4 x 4 is reported without a gate: four pipe threads already rasterize in
// parallel, and bent was only ~1.05x there before this engine.
//
// Exits nonzero when a gate fails; scripts/bench.sh checks the JSON report
// in as BENCH_engine.json.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace dcsn;

struct Frame {
  std::string name;
  core::SynthesisConfig synthesis;
  std::unique_ptr<field::VectorField> field;
  std::vector<core::SpotInstance> spots;
};

Frame make_frame(bool bent) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  Frame frame;
  frame.name = bent ? "bent" : "ellipse";
  frame.synthesis.texture_width = 512;
  frame.synthesis.texture_height = frame.synthesis.texture_width;
  if (bent) {
    frame.synthesis.kind = core::SpotKind::kBent;
    frame.synthesis.bent.mesh_cols = 16;
    frame.synthesis.bent.mesh_rows = 3;
    frame.synthesis.spot_count = 2500;
  } else {
    frame.synthesis.kind = core::SpotKind::kEllipse;
    frame.synthesis.spot_count = 20000;
  }
  frame.field = field::analytic::rankine_vortex({2.0, 2.0}, 1.2, 0.8, domain);
  util::Rng rng(frame.synthesis.seed);
  frame.spots = core::make_random_spots(domain, frame.synthesis.spot_count, rng);
  // Keeps per-pixel sums far inside the contribution lattice's exact range.
  for (auto& spot : frame.spots) spot.intensity *= 0.2;
  return frame;
}

/// One engine under test: runs a frame, returns its wall seconds.
struct Contender {
  std::string name;
  std::function<double()> run;
  std::function<std::uint64_t()> hash;
};

struct FrameResult {
  std::vector<double> median_ms;        ///< per contender
  std::vector<double> median_speedup;   ///< per contender: its time / served
  std::vector<double> speedup_q1, speedup_q3;
  bool bit_identical = true;
};

FrameResult measure(const Frame& frame, int repetitions, int frames_per_rep) {
  core::DncConfig served_cfg;
  served_cfg.processors = 4;
  core::DncConfig paper_4x1 = served_cfg;
  paper_4x1.pipes = 1;
  core::DncConfig paper_4x4 = served_cfg;
  paper_4x4.pipes = 4;
  core::DncSynthesizer served(frame.synthesis, served_cfg);
  paper::PipeSynthesizer model_4x1(frame.synthesis, paper_4x1);
  paper::PipeSynthesizer model_4x4(frame.synthesis, paper_4x4);

  const auto timed = [&](auto& engine) {
    return [&] {
      double seconds = 0.0;
      for (int k = 0; k < frames_per_rep; ++k) {
        seconds += engine.synthesize(*frame.field, frame.spots).frame_seconds;
      }
      return seconds / frames_per_rep;
    };
  };
  const std::vector<Contender> contenders{
      {"served", timed(served), [&] { return served.texture().content_hash(); }},
      {"paper_4x1", timed(model_4x1), [&] { return model_4x1.texture().content_hash(); }},
      {"paper_4x4", timed(model_4x4), [&] { return model_4x4.texture().content_hash(); }},
  };
  const std::size_t n = contenders.size();

  FrameResult result;
  for (const Contender& c : contenders) (void)c.run();  // warm-up
  for (const Contender& c : contenders) {
    result.bit_identical = result.bit_identical && c.hash() == contenders[0].hash();
  }
  std::vector<std::vector<double>> seconds(n);
  std::vector<std::vector<double>> ratios(n);
  for (int rep = 0; rep < repetitions; ++rep) {
    std::vector<double> this_rep(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = (i + static_cast<std::size_t>(rep)) % n;  // rotate the order
      this_rep[c] = contenders[c].run();
    }
    for (std::size_t c = 0; c < n; ++c) {
      seconds[c].push_back(this_rep[c]);
      ratios[c].push_back(this_rep[c] / this_rep[0]);
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    result.median_ms.push_back(util::percentile(seconds[c], 0.5) * 1e3);
    result.median_speedup.push_back(util::percentile(ratios[c], 0.5));
    result.speedup_q1.push_back(util::percentile(ratios[c], 0.25));
    result.speedup_q3.push_back(util::percentile(ratios[c], 0.75));
  }
  std::printf("\n%s frame: %lld spots, %dx%d\n", frame.name.c_str(),
              static_cast<long long>(frame.synthesis.spot_count),
              frame.synthesis.texture_width, frame.synthesis.texture_height);
  std::printf("  %-10s %10s %22s\n", "engine", "frame ms", "speedup of served");
  for (std::size_t c = 0; c < n; ++c) {
    std::printf("  %-10s %10.2f", contenders[c].name.c_str(), result.median_ms[c]);
    if (c > 0) {
      std::printf("   %5.2fx [%4.2f, %4.2f]", result.median_speedup[c],
                  result.speedup_q1[c], result.speedup_q3[c]);
    }
    std::printf("\n");
  }
  std::printf("  bit-identical: %s\n", result.bit_identical ? "yes" : "NO");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const int repetitions = smoke ? 5 : 9;
  const int frames_per_rep = smoke ? 1 : 3;
  const unsigned cores = std::thread::hardware_concurrency();
  constexpr double kGate = 1.3;
  std::printf("engine comparison: %d interleaved repetitions x %d frames, %u hardware "
              "threads (medians; [q1, q3] of the per-repetition ratios)\n",
              repetitions, frames_per_rep, cores);

  // --smoke keeps the frames (smaller ones measure the pool's start-up,
  // not the engines) and only runs fewer repetitions.
  const Frame bent = make_frame(/*bent=*/true);
  const Frame ellipse = make_frame(/*bent=*/false);
  const FrameResult b = measure(bent, repetitions, frames_per_rep);
  const FrameResult e = measure(ellipse, repetitions, frames_per_rep);

  const bool gated = cores >= 4;
  const bool speed_pass = !gated || b.median_speedup[1] >= kGate;
  const bool identical = b.bit_identical && e.bit_identical;
  if (gated) {
    std::printf("\nbent: served %.2fx faster than the paper model at 4x1 (gate: >= %.1fx)\n",
                b.median_speedup[1], kGate);
  } else {
    std::printf("\nfewer than 4 hardware threads — the speed gate is skipped\n");
  }

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("bench", "engine");
    report.set("mode", smoke ? "smoke" : "full");
    report.set("host.hardware_threads", static_cast<std::int64_t>(cores));
    report.set("repetitions", static_cast<std::int64_t>(repetitions));
    report.set("frames_per_repetition", static_cast<std::int64_t>(frames_per_rep));
    const char* engines[] = {"served", "paper_4x1", "paper_4x4"};
    for (const auto* r : {&b, &e}) {
      const std::string w = r == &b ? "bent" : "ellipse";
      const Frame& frame = r == &b ? bent : ellipse;
      report.set(w + ".spots", frame.synthesis.spot_count);
      report.set(w + ".texture_width", static_cast<std::int64_t>(frame.synthesis.texture_width));
      for (std::size_t c = 0; c < 3; ++c) {
        report.set(w + "." + engines[c] + ".frame_ms", r->median_ms[c]);
        if (c == 0) continue;
        report.set(w + ".speedup_vs_" + std::string(engines[c]).substr(6), r->median_speedup[c]);
        report.set(w + ".speedup_vs_" + std::string(engines[c]).substr(6) + ".q1",
                   r->speedup_q1[c]);
        report.set(w + ".speedup_vs_" + std::string(engines[c]).substr(6) + ".q3",
                   r->speedup_q3[c]);
      }
      report.set(w + ".bit_identical", r->bit_identical);
    }
    report.set("gate.threshold", kGate);
    report.set("gate.applied", gated);
    report.set("gate.pass", speed_pass && identical);
    report.write(json_path);
  }

  if (!identical) {
    std::printf("FAIL: the engines' textures differ\n");
    return 1;
  }
  if (!speed_pass) {
    std::printf("FAIL: bent speedup %.2fx below the %.1fx gate\n", b.median_speedup[1], kGate);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
