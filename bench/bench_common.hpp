// Shared benchmark harness: the paper's two workloads, configuration
// sweeps, and side-by-side paper-vs-measured table printing.
//
// Calibration note (see DESIGN.md §2 and §6): a 2026 CPU core rasterizes in
// software relatively faster (vs. its integration speed) than a 1997
// R10000-vs-InfiniteReality pairing, so the presets raise the streamline
// integration accuracy (bent.trace_substeps) until the measured
// genP : genT ratio sits in the paper's regime (~3-4 CPU-seconds per
// pipe-second). The benches print the measured ratio so this calibration is
// visible in every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/serial_synthesizer.hpp"
#include "field/grid_field.hpp"
#include "paper/pipe_synthesizer.hpp"

namespace dcsn::bench {

struct Workload {
  std::string name;
  std::unique_ptr<field::VectorField> field;
  core::SynthesisConfig synthesis;
  std::vector<core::SpotInstance> spots;
};

/// §5.1 workload: smog-model wind on the 53x55 grid, 2500 bent spots with
/// 32x17 meshes, 512x512 texture (~1.3 M quadrilaterals per texture).
Workload make_atmospheric_workload();

/// §5.2 workload: DNS slice on the 278x208 rectilinear grid after spin-up,
/// 40000 bent spots with 16x3 meshes, 512x512 texture (~1.9 M quads).
/// `spinup_steps` trades bench startup time against wake development.
Workload make_dns_workload(int spinup_steps = 120);

/// Load-balance stress workload: a capped swirl (solid rotation inside a
/// compact core, exactly stagnant outside) with bent spots. With `clustered`
/// set, the first half of the spot array sits inside the swirl core — those
/// spots trace full-length streamlines and rasterize full ribbons, while the
/// stagnant background spots degrade to cheap point quads. That skews the
/// contiguous even-index split (cost varies along the index axis), which is
/// exactly the imbalance bench_ablation_balance measures. With `clustered`
/// false the same field and config get uniformly scattered spots — the
/// "stealing must not regress" control.
Workload make_balance_workload(bool clustered);

/// The paper's hardware model: the Onyx2 bus.
constexpr double kPaperBusBytesPerSecond = 800.0e6;

/// Which engine a measurement runs: the paper's processor->pipe machine
/// model (the tables, figures and ablations study it) or the served engine.
enum class Engine { kPaperModel, kServed };

/// Runs `frames` frames of the workload through the paper model under the
/// given configuration and returns the mean textures/second (after one
/// warm-up frame). `last_stats` receives the final frame's stats when
/// non-null.
double measure_rate(const Workload& workload, const core::DncConfig& dnc,
                    int frames, core::FrameStats* last_stats = nullptr);

/// Both views of the frame rate over `frames` synthesized textures.
struct RateSample {
  /// Textures/s by wall clock — what this host actually delivered. Only
  /// meaningful as a parallelism measure when the host has at least one core
  /// per worker and pipe; an oversubscribed host serializes the groups and
  /// wall clock can only show scheduling *overhead*, never a balancing win.
  double wall_rate = 0.0;
  /// Textures/s from FrameStats::modeled_frame_seconds — the eq. 3.2
  /// critical path over per-thread CPU time, i.e. what a fully-parallel host
  /// would see. Load-independent, so it is the headline number for
  /// scheduling ablations.
  double modeled_rate = 0.0;
  /// Last measured frame; the pipe-only fields stay at their defaults for
  /// the served engine.
  paper::PipeFrameStats stats;
};

RateSample measure_rates(const Workload& workload, const core::DncConfig& dnc,
                         int frames, Engine engine = Engine::kPaperModel);

/// One measured cell of a paper table.
struct Cell {
  int processors = 0;
  int pipes = 0;
  double paper_rate = 0.0;     ///< textures/s from the paper (0 = cell empty)
  double measured_rate = 0.0;  ///< textures/s measured here
  core::FrameStats stats;
};

/// Runs the paper's (processors x pipes) grid for the given workload.
/// `paper` holds the published numbers row-major over processors {1,2,4,8}
/// x pipes {1,2,4}, 0 marking cells the paper leaves blank.
std::vector<Cell> run_table(const Workload& workload,
                            const std::vector<std::vector<double>>& paper,
                            double bus_bytes_per_second, int frames);

/// Prints the table in the paper's layout with measured values beside the
/// published ones, followed by the shape observations (§5 discussion).
void print_table(const std::string& title, const std::vector<Cell>& cells);

/// The paper's footnote 3: "We expect, but have not verified, that when
/// using 4 graphics pipes an optimal performance will be achieved by using
/// 16 processors." Measures 8/12/16 processors on 4 pipes and reports
/// whether the expectation holds on this machine.
void check_footnote3(const Workload& workload, double bus_bytes_per_second,
                     int frames);

/// Writes cells to a CSV at `path` (see csv_path for where that should be).
void write_csv(const std::string& path, const std::vector<Cell>& cells);

/// Where a bench's CSV belongs: `--out=DIR` wins, otherwise the build
/// tree's bench_out/ directory (DCSN_BENCH_OUT_DIR, injected by CMake).
/// Creates the directory. Keeps measurement droppings out of the source
/// tree — a bare filename used to land a stray CSV at the repo root.
std::string csv_path(int argc, char** argv, const std::string& filename);

// ---------------------------------------------------------------------------
// Machine-readable perf output (the BENCH_*.json trajectory)
// ---------------------------------------------------------------------------

/// Order-preserving key → value collection written as one flat JSON object.
/// Benches fill one of these alongside their human-readable tables;
/// scripts/bench.sh checks the result in as BENCH_*.json so later PRs can
/// diff performance instead of guessing. Keys use dots for grouping
/// ("span.frags_per_second") — flat on purpose, trivially greppable/diffable.
class JsonReport {
 public:
  void set(const std::string& key, double value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, bool value);
  void set(const std::string& key, const std::string& value);
  /// Without this overload a string literal would take the bool overload
  /// (pointer-to-bool standard conversion beats std::string construction).
  void set(const std::string& key, const char* value) {
    set(key, std::string(value));
  }

  /// Writes the object (pretty-printed, one key per line). Returns false and
  /// prints a warning if the file cannot be opened. Every report records the
  /// dispatched SIMD tier and the host's ISA flags ("simd.tier"/"simd.cpu",
  /// unless the bench already set them): perf numbers are meaningless in the
  /// trajectory without knowing which kernel tier produced them.
  bool write(const std::string& path) const;

 private:
  void put(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The shared `--json <path>` bench convention: returns the path following
/// the flag, or "" when absent.
std::string parse_json_path(int argc, char** argv);

/// True when `name` (e.g. "--smoke") appears in argv.
bool has_flag(int argc, char** argv, const std::string& name);

}  // namespace dcsn::bench
