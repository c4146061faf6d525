// Ablation for the paper's §5.1 bandwidth observation: "At 5.6 textures per
// second the total bandwidth needed is approximately 116 MBytes/sec ...
// well below the maximum of 800 MBytes/sec."
//
// Sweeps the modeled bus bandwidth from unthrottled down to starvation and
// reports throughput and pipe stall time: the 800 MB/s Onyx2 bus never
// binds, narrower buses eventually do.
#include <cstdio>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const int frames = args.get_int("frames", 2);

  bench::Workload workload = bench::make_dns_workload(args.get_int("spinup", 80));
  std::printf("bus-bandwidth ablation on: %s\n", workload.name.c_str());
  std::printf("(geometry traffic is ~31 MB per texture in this workload)\n\n");

  util::CsvWriter csv(bench::csv_path(argc, argv, "ablation_bandwidth.csv"),
                      {"bus_mb_s", "rate", "stall_ms", "traffic_mb_s"});
  std::printf("%12s %12s %14s %16s\n", "bus (MB/s)", "textures/s",
              "pipe stall ms", "traffic (MB/s)");
  for (const double mb_per_s : {0.0, 800.0, 200.0, 60.0, 20.0}) {
    core::DncConfig dnc;
    dnc.processors = 8;
    dnc.pipes = 4;
    dnc.bus_bytes_per_second = mb_per_s * 1e6;
    const bench::RateSample sample = bench::measure_rates(workload, dnc, frames);
    const double rate = sample.wall_rate;
    const paper::PipeFrameStats& stats = sample.stats;
    const double traffic =
        static_cast<double>(stats.geometry_bytes + stats.readback_bytes) * rate / 1e6;
    if (mb_per_s == 0.0) {
      std::printf("%12s %12.2f %14.2f %16.1f\n", "unlimited", rate,
                  stats.pipe_stall_seconds * 1e3, traffic);
    } else {
      std::printf("%12.0f %12.2f %14.2f %16.1f\n", mb_per_s, rate,
                  stats.pipe_stall_seconds * 1e3, traffic);
    }
    csv.row({util::CsvWriter::num(mb_per_s), util::CsvWriter::num(rate),
             util::CsvWriter::num(stats.pipe_stall_seconds * 1e3),
             util::CsvWriter::num(traffic)});
  }
  std::printf("\npaper's observation reproduced if the 800 MB/s row matches the "
              "unlimited row (bus not the limiting factor) while narrow buses "
              "stall the pipes and cap throughput.\n");
  return 0;
}
