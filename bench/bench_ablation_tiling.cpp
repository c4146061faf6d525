// Ablation for the paper's §3 texture-decomposition tradeoff and §4
// implementation: full-texture gather-blend vs. tiled rendering.
//
// The paper's tiling gives each pipe one region: a cheap disjoint compose
// (copies instead of blends, smaller readbacks) bought with duplicated
// spot-shape work for spots whose extent straddles region boundaries. The
// served engine renders on the runtime pool instead: every participant
// rasterizes, each spot is generated once (no duplicates), and the
// participants' partials are summed over the texture — a blend per
// participant, no readback across a bus. (Its 64-px render grid only comes
// into play for frames that reuse tiles; a frame that renders everything
// skips it.) This bench runs the paper model's gather-blend at 2 and 4
// pipes and the served engine on both paper workloads.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const int frames = args.get_int("frames", 2);

  util::CsvWriter csv(bench::csv_path(argc, argv, "ablation_tiling.csv"),
                      {"workload", "pipes", "mode", "modeled_rate", "wall_rate",
                       "duplicates", "gather_ms", "readback_mb", "imbalance",
                       "stolen_chunks"});

  // Pipes for the paper model; 0 runs the served engine, which acquires no
  // pipe.
  const int modes[] = {2, 4, 0};

  for (const bool dns : {false, true}) {
    bench::Workload workload = dns ? bench::make_dns_workload(80)
                                   : bench::make_atmospheric_workload();
    std::printf("\n%s\n", workload.name.c_str());
    std::printf("%6s %14s %11s %9s %12s %11s %12s %11s %9s\n", "pipes", "mode",
                "modeled/s", "wall/s", "duplicates", "gather ms", "readback MB",
                "imbalance", "stolen");
    for (const int mode : modes) {
      core::DncConfig dnc;
      dnc.processors = 8;
      const bool paper_model = mode > 0;
      if (paper_model) dnc.pipes = mode;
      dnc.bus_bytes_per_second = bench::kPaperBusBytesPerSecond;
      const bench::RateSample sample = bench::measure_rates(
          workload, dnc, frames,
          paper_model ? bench::Engine::kPaperModel : bench::Engine::kServed);
      const paper::PipeFrameStats& stats = sample.stats;
      const char* name = paper_model ? "gather-blend" : "served";
      const std::string pipes = paper_model ? std::to_string(mode) : "-";
      std::printf("%6s %14s %11.2f %9.2f %12lld %11.2f %12.2f %11.2f %9lld\n",
                  pipes.c_str(), name, sample.modeled_rate, sample.wall_rate,
                  static_cast<long long>(stats.duplicated_spots),
                  stats.gather_seconds * 1e3,
                  static_cast<double>(stats.readback_bytes) / 1e6,
                  stats.imbalance,
                  static_cast<long long>(stats.stolen_chunks));
      csv.row({dns ? "dns" : "atmospheric", pipes, name,
               util::CsvWriter::num(sample.modeled_rate),
               util::CsvWriter::num(sample.wall_rate),
               std::to_string(stats.duplicated_spots),
               util::CsvWriter::num(stats.gather_seconds * 1e3),
               util::CsvWriter::num(static_cast<double>(stats.readback_bytes) / 1e6),
               util::CsvWriter::num(stats.imbalance),
               std::to_string(stats.stolen_chunks)});
    }
  }
  std::printf(
      "\npaper's tradeoff: per-pipe regions shrink the sequential compose but "
      "duplicate boundary spots, large spots (atmospheric 32x17 ribbons) more "
      "than small ones (DNS 16x3); the served engine generates every spot once "
      "and blends one partial per participant.\n");
  return 0;
}
