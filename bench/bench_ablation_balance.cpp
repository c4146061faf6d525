// Ablation for the load-balanced scheduler: static even-split partition vs.
// cross-group work stealing, in contiguous mode.
//
// The paper's eq. 3.2 assumes every process group carries the same work.
// A clustered spot set breaks that assumption: the even *index* split hands
// one group the expensive spots. This bench measures that failure mode on
// the balance stress workload (see bench_common), then the uniform control
// set where stealing must not cost anything. (Tiled mode has no groups to
// balance: its participants share one chunk counter over the spots.)
//
// The headline number is the *modeled* rate — the eq. 3.2 critical path over
// per-thread CPU time (assign + max(genP, genT) critical path + gather). The
// wall-clock rate is printed alongside, but on a host with fewer cores than
// workers + pipes it serializes the groups and cannot show a balancing win;
// the modeled rate is what a one-core-per-worker host would deliver.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "core/perf_model.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

struct Row {
  double static_rate = 0.0;
  double balanced_rate = 0.0;
  [[nodiscard]] double speedup() const {
    return static_rate > 0.0 ? balanced_rate / static_rate : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcsn;
  const util::Args args(argc, argv);
  const int frames = args.get_int("frames", 3);
  const int processors = args.get_int("processors", 4);

  util::CsvWriter csv(bench::csv_path(argc, argv, "ablation_balance.csv"),
                      {"workload", "pipes", "mode", "scheduler", "modeled_rate",
                       "wall_rate", "imbalance", "stolen_chunks", "steal_ms",
                       "genP_critical_s", "genT_critical_s"});

  std::printf("host cores: %u (modeled rate assumes one core per worker+pipe; "
              "wall rate is what this host delivered)\n",
              std::thread::hardware_concurrency());

  double worst_clustered_speedup = 1e9;
  double worst_uniform_speedup = 1e9;

  for (const bool clustered : {true, false}) {
    bench::Workload workload = bench::make_balance_workload(clustered);
    std::printf("\n%s\n", workload.name.c_str());
    std::printf("%6s %11s %10s %11s %9s %11s %10s %8s %9s\n", "pipes", "mode",
                "scheduler", "modeled/s", "wall/s", "speedup", "imbalance",
                "stolen", "steal ms");
    for (const int pipes : {2, 4}) {
      Row row;
      for (const bool balanced : {false, true}) {
        core::DncConfig dnc;
        dnc.processors = processors;
        dnc.pipes = pipes;
        dnc.steal = balanced;
        const bench::RateSample sample = bench::measure_rates(workload, dnc, frames);
        (balanced ? row.balanced_rate : row.static_rate) = sample.modeled_rate;
        char speedup_text[16] = "-";
        if (balanced) {
          std::snprintf(speedup_text, sizeof speedup_text, "%.2fx", row.speedup());
        }
        std::printf("%6d %11s %10s %11.2f %9.2f %11s %10.2f %8lld %9.2f\n", pipes,
                    "contiguous", balanced ? "steal" : "static", sample.modeled_rate,
                    sample.wall_rate, speedup_text, sample.stats.imbalance,
                    static_cast<long long>(sample.stats.stolen_chunks),
                    sample.stats.steal_seconds * 1e3);
        csv.row({clustered ? "clustered" : "uniform", std::to_string(pipes),
                 "contiguous", balanced ? "steal" : "static",
                 util::CsvWriter::num(sample.modeled_rate),
                 util::CsvWriter::num(sample.wall_rate),
                 util::CsvWriter::num(sample.stats.imbalance),
                 std::to_string(sample.stats.stolen_chunks),
                 util::CsvWriter::num(sample.stats.steal_seconds * 1e3),
                 util::CsvWriter::num(sample.stats.genP_critical_seconds),
                 util::CsvWriter::num(sample.stats.genT_critical_seconds)});
        if (balanced) {
          // The calibrated per-spot cost, so the workload's weight is visible.
          const core::PerfModel model = core::PerfModel::calibrate(sample.stats, pipes);
          std::printf("%42s per-spot cost estimate %.2f us\n", "",
                      model.per_spot_seconds() * 1e6);
        }
      }
      auto& worst = clustered ? worst_clustered_speedup : worst_uniform_speedup;
      worst = std::min(worst, row.speedup());
    }
  }

  std::printf(
      "\nsummary: worst clustered speedup %.2fx (target >= 1.3x), worst uniform "
      "speedup %.2fx (target: regression < 5%%, i.e. >= 0.95x)\n",
      worst_clustered_speedup, worst_uniform_speedup);
  std::printf(
      "the static partition starves whole groups on clustered spots; stealing "
      "rebalances generation at chunk granularity and routes loot to the "
      "lighter pipe.\n");
  // The targets are this bench's contract (modeled rates, so they hold on
  // any host); exit nonzero on a miss so CI can gate on the scheduler.
  const bool ok = worst_clustered_speedup >= 1.3 && worst_uniform_speedup >= 0.95;
  if (!ok) std::printf("TARGET MISSED\n");
  return ok ? 0 : 1;
}
