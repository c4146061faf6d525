#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <type_traits>

#include "field/analytic.hpp"
#include "sim/dns_solver.hpp"
#include "sim/smog_model.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

#ifndef DCSN_BENCH_OUT_DIR
#define DCSN_BENCH_OUT_DIR "bench_out"
#endif

namespace dcsn::bench {

Workload make_atmospheric_workload() {
  Workload w;
  w.name = "atmospheric pollution (53x55 wind, 2500 bent spots, 32x17 mesh)";

  // A developed weather state: run the model for a few simulated hours.
  sim::SmogModel model(sim::SmogParams{});
  for (int step = 0; step < 8; ++step) model.step(0.5);
  w.field = std::make_unique<field::GridVectorField>(model.wind());

  w.synthesis.texture_width = 512;
  w.synthesis.texture_height = 512;
  w.synthesis.spot_count = 2500;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = 32;  // the paper's 32x17 mesh
  w.synthesis.bent.mesh_rows = 17;
  w.synthesis.bent.length_px = 40.0;
  w.synthesis.bent.trace_substeps = 24;  // calibration: genP/genT ~ 3-4
  w.synthesis.spot_radius_px = 5.0;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(w.synthesis.seed);
  w.spots = core::make_random_spots(w.field->domain(), w.synthesis.spot_count, rng);
  return w;
}

Workload make_dns_workload(int spinup_steps) {
  Workload w;
  w.name = "DNS turbulent flow (278x208 slice, 40000 bent spots, 16x3 mesh)";

  sim::DnsSolver solver(sim::DnsParams{});
  for (int step = 0; step < spinup_steps; ++step) solver.step();
  w.field = std::make_unique<field::RectilinearVectorField>(solver.snapshot());

  w.synthesis.texture_width = 512;
  w.synthesis.texture_height = 512;
  w.synthesis.spot_count = 40000;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = 16;  // the paper's 16x3 mesh
  w.synthesis.bent.mesh_rows = 3;
  w.synthesis.bent.length_px = 24.0;
  w.synthesis.bent.trace_substeps = 4;  // calibration: genP/genT ~ 3-4
  w.synthesis.spot_radius_px = 2.5;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(w.synthesis.seed);
  w.spots = core::make_random_spots(w.field->domain(), w.synthesis.spot_count, rng);
  return w;
}

Workload make_balance_workload(bool clustered) {
  Workload w;
  w.name = std::string("load-balance stress (capped swirl, 10000 bent spots, ") +
           (clustered ? "clustered" : "uniform") + ")";

  // Solid rotation under a (1 - (r/R)^2)^2 envelope: smooth inside the core,
  // *exactly* zero outside it. Outside spots see a stagnant field, so their
  // streamline trace stops at the seed and the bent spot degrades to a cheap
  // point quad — per-spot cost genuinely varies with position.
  const field::Vec2 center{0.26, 0.28};
  const double core_radius = 0.22;
  const double omega = 1.0;
  const field::Rect domain{0, 0, 1, 1};
  auto swirl = [center, core_radius, omega](field::Vec2 p) -> field::Vec2 {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    const double r2 = (dx * dx + dy * dy) / (core_radius * core_radius);
    if (r2 >= 1.0) return {0.0, 0.0};
    const double envelope = (1.0 - r2) * (1.0 - r2);
    return {-dy * omega * envelope, dx * omega * envelope};
  };
  // max of r * (1 - (r/R)^2)^2 over r is at r = R/sqrt(5).
  const double max_mag = omega * core_radius * 0.2863;
  w.field = std::make_unique<field::CallableField>(swirl, domain, max_mag);

  w.synthesis.texture_width = 512;
  w.synthesis.texture_height = 512;
  w.synthesis.spot_count = 10000;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = 16;
  w.synthesis.bent.mesh_rows = 5;
  w.synthesis.bent.length_px = 36.0;
  w.synthesis.bent.trace_substeps = 8;
  w.synthesis.spot_radius_px = 3.0;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(w.synthesis.seed);
  if (clustered) {
    // First half: dense cluster inside the swirl core (expensive spots,
    // contiguous in index order). Second half: scattered over the whole
    // domain, mostly stagnant (cheap).
    const std::int64_t in_cluster = w.synthesis.spot_count / 2;
    const double half_box = core_radius * 0.55;  // box stays inside the core
    w.spots.reserve(static_cast<std::size_t>(w.synthesis.spot_count));
    for (std::int64_t k = 0; k < in_cluster; ++k) {
      core::SpotInstance spot;
      spot.position = {rng.uniform(center.x - half_box, center.x + half_box),
                       rng.uniform(center.y - half_box, center.y + half_box)};
      spot.intensity = rng.intensity();
      w.spots.push_back(spot);
    }
    for (std::int64_t k = in_cluster; k < w.synthesis.spot_count; ++k) {
      core::SpotInstance spot;
      spot.position = {rng.uniform(domain.x0, domain.x1),
                       rng.uniform(domain.y0, domain.y1)};
      spot.intensity = rng.intensity();
      w.spots.push_back(spot);
    }
  } else {
    w.spots = core::make_random_spots(domain, w.synthesis.spot_count, rng);
  }
  return w;
}

namespace {

template <class Synth>
RateSample sample_rates(const Workload& workload, const core::DncConfig& dnc,
                        int frames) {
  Synth engine(workload.synthesis, dnc);
  (void)engine.synthesize(*workload.field, workload.spots);  // warm-up
  RateSample sample;
  double wall = 0.0;
  double modeled = 0.0;
  for (int k = 0; k < frames; ++k) {
    const auto stats = engine.synthesize(*workload.field, workload.spots);
    if constexpr (std::is_same_v<Synth, paper::PipeSynthesizer>) {
      sample.stats = stats;
    } else {
      static_cast<core::FrameStats&>(sample.stats) = stats;
    }
    wall += stats.frame_seconds;
    modeled += stats.modeled_frame_seconds;
  }
  sample.wall_rate = frames / wall;
  sample.modeled_rate = modeled > 0.0 ? frames / modeled : 0.0;
  return sample;
}

}  // namespace

double measure_rate(const Workload& workload, const core::DncConfig& dnc,
                    int frames, core::FrameStats* last_stats) {
  const RateSample sample = measure_rates(workload, dnc, frames);
  if (last_stats) *last_stats = sample.stats;
  return sample.wall_rate;
}

RateSample measure_rates(const Workload& workload, const core::DncConfig& dnc,
                         int frames, Engine engine) {
  return engine == Engine::kPaperModel
             ? sample_rates<paper::PipeSynthesizer>(workload, dnc, frames)
             : sample_rates<core::DncSynthesizer>(workload, dnc, frames);
}

std::vector<Cell> run_table(const Workload& workload,
                            const std::vector<std::vector<double>>& paper,
                            double bus_bytes_per_second, int frames) {
  const std::vector<int> processor_rows = {1, 2, 4, 8};
  const std::vector<int> pipe_cols = {1, 2, 4};
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < processor_rows.size(); ++r) {
    for (std::size_t c = 0; c < pipe_cols.size(); ++c) {
      if (paper[r][c] == 0.0) continue;  // cell blank in the paper
      Cell cell;
      cell.processors = processor_rows[r];
      cell.pipes = pipe_cols[c];
      cell.paper_rate = paper[r][c];
      core::DncConfig dnc;
      dnc.processors = cell.processors;
      dnc.pipes = cell.pipes;
      dnc.bus_bytes_per_second = bus_bytes_per_second;
      cell.measured_rate = measure_rate(workload, dnc, frames, &cell.stats);
      std::printf("  measured nP=%d nG=%d : %6.2f textures/s\n", cell.processors,
                  cell.pipes, cell.measured_rate);
      std::fflush(stdout);
      cells.push_back(cell);
    }
  }
  return cells;
}

namespace {
const Cell* find(const std::vector<Cell>& cells, int p, int g) {
  for (const Cell& c : cells)
    if (c.processors == p && c.pipes == g) return &c;
  return nullptr;
}
}  // namespace

void print_table(const std::string& title, const std::vector<Cell>& cells) {
  std::printf("\n%s\n", title.c_str());
  std::printf("textures per second, measured (paper) — rows: processors, cols: pipes\n");
  std::printf("%6s %18s %18s %18s\n", "", "1 pipe", "2 pipes", "4 pipes");
  for (const int p : {1, 2, 4, 8}) {
    std::printf("%6d", p);
    for (const int g : {1, 2, 4}) {
      if (const Cell* c = find(cells, p, g)) {
        std::printf("   %7.2f (%4.1f)  ", c->measured_rate, c->paper_rate);
      } else {
        std::printf("   %16s", "-");
      }
    }
    std::printf("\n");
  }

  // The §5 discussion points, recomputed from the measured cells.
  std::printf("\nshape observations:\n");
  const Cell* c11 = find(cells, 1, 1);
  const Cell* c41 = find(cells, 4, 1);
  const Cell* c81 = find(cells, 8, 1);
  if (c11 && c41 && c81) {
    std::printf(
        "  processors per pipe saturate: 1->4 procs gains %.2fx, 4->8 procs gains "
        "%.2fx (paper: large, then ~none)\n",
        c41->measured_rate / c11->measured_rate,
        c81->measured_rate / c41->measured_rate);
  }
  const Cell* c84 = find(cells, 8, 4);
  const Cell* c82 = find(cells, 8, 2);
  if (c81 && c82 && c84) {
    std::printf(
        "  pipes help when fed: at 8 procs, 1->2 pipes %.2fx, 2->4 pipes %.2fx\n",
        c82->measured_rate / c81->measured_rate,
        c84->measured_rate / c82->measured_rate);
  }
  const Cell* c21 = find(cells, 2, 1);
  const Cell* c22 = find(cells, 2, 2);
  if (c21 && c22) {
    std::printf(
        "  pipes idle when starved: at 2 procs, 1->2 pipes %.2fx (paper: 1.00x)\n",
        c22->measured_rate / c21->measured_rate);
  }
  if (c11 && c84) {
    const double speedup = c84->measured_rate / c11->measured_rate;
    std::printf(
        "  8 procs + 4 pipes vs 1+1: %.2fx of the ideal 8x — sequential gather c = "
        "%.1f ms/frame keeps it sublinear (paper: 5.6x of 8x)\n",
        speedup, c84->stats.gather_seconds * 1e3);
  }
  if (c84) {
    const double bytes_per_texture = static_cast<double>(c84->stats.geometry_bytes);
    const double mb_per_s = bytes_per_texture * c84->measured_rate / 1.0e6;
    std::printf(
        "  geometry traffic at the fastest config: %.1f MB/texture, %.0f MB/s of "
        "the modeled 800 MB/s bus (paper: well below the maximum)\n",
        bytes_per_texture / 1.0e6, mb_per_s);
    const double ratio = c84->stats.genP_seconds / c84->stats.genT_seconds;
    std::printf("  calibration: measured genP/genT per spot = %.2f\n", ratio);
  }
}

void check_footnote3(const Workload& workload, double bus_bytes_per_second,
                     int frames) {
  std::printf("\nfootnote 3 — the paper *expected* 16 processors to be optimal "
              "for 4 pipes:\n");
  double best_rate = 0.0;
  int best_procs = 0;
  for (const int procs : {8, 12, 16}) {
    core::DncConfig dnc;
    dnc.processors = procs;
    dnc.pipes = 4;
    dnc.bus_bytes_per_second = bus_bytes_per_second;
    const double rate = measure_rate(workload, dnc, frames);
    std::printf("  %2d procs / 4 pipes : %6.2f textures/s\n", procs, rate);
    if (rate > best_rate) {
      best_rate = rate;
      best_procs = procs;
    }
  }
  std::printf("  best measured: %d processors — the paper's expectation %s on "
              "this machine\n",
              best_procs, best_procs == 16 ? "holds" : "does not quite hold");
}

void JsonReport::put(const std::string& key, std::string rendered) {
  for (auto& [existing, value] : entries_) {
    if (existing == key) {
      value = std::move(rendered);
      return;
    }
  }
  entries_.emplace_back(key, std::move(rendered));
}

void JsonReport::set(const std::string& key, double value) {
  char buffer[64];
  // %.17g round-trips doubles; JSON has no inf/nan, fall back to null.
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "null");
  }
  put(key, buffer);
}

void JsonReport::set(const std::string& key, std::int64_t value) {
  put(key, std::to_string(value));
}

void JsonReport::set(const std::string& key, bool value) {
  put(key, value ? "true" : "false");
}

void JsonReport::set(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          quoted += esc;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  put(key, std::move(quoted));
}

bool JsonReport::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::printf("warning: cannot open %s for the JSON report\n", path.c_str());
    return false;
  }
  // Stamp the dispatched kernel tier and host ISA into every report (unless
  // the bench set them itself, e.g. a tier-ablation bench).
  auto entries = entries_;
  auto append_if_absent = [&entries](const char* key, const std::string& value) {
    for (const auto& [existing, unused] : entries) {
      if (existing == key) return;
    }
    std::string quoted = "\"";
    quoted += value;
    quoted += '"';
    entries.emplace_back(key, std::move(quoted));
  };
  append_if_absent("simd.tier", util::simd::tier_name(util::simd::active_tier()));
  append_if_absent("simd.cpu", util::simd::cpu_flags());
  std::fprintf(file, "{\n");
  for (std::size_t k = 0; k < entries.size(); ++k) {
    std::fprintf(file, "  \"%s\": %s%s\n", entries[k].first.c_str(),
                 entries[k].second.c_str(),
                 k + 1 < entries.size() ? "," : "");
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

std::string parse_json_path(int argc, char** argv) {
  for (int k = 1; k < argc; ++k) {
    if (std::string(argv[k]) == "--json") {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "error: --json requires a path argument\n");
        std::exit(2);
      }
      return argv[k + 1];
    }
  }
  return {};
}

bool has_flag(int argc, char** argv, const std::string& name) {
  for (int k = 1; k < argc; ++k) {
    if (name == argv[k]) return true;
  }
  return false;
}

void write_csv(const std::string& path, const std::vector<Cell>& cells) {
  util::CsvWriter csv(path, {"processors", "pipes", "paper_rate", "measured_rate",
                             "genP_s", "genT_s", "gather_s", "geometry_bytes"});
  for (const Cell& c : cells) {
    csv.row({std::to_string(c.processors), std::to_string(c.pipes),
             util::CsvWriter::num(c.paper_rate), util::CsvWriter::num(c.measured_rate),
             util::CsvWriter::num(c.stats.genP_seconds),
             util::CsvWriter::num(c.stats.genT_seconds),
             util::CsvWriter::num(c.stats.gather_seconds),
             std::to_string(c.stats.geometry_bytes)});
  }
  std::printf("wrote %s\n", path.c_str());
}

std::string csv_path(int argc, char** argv, const std::string& filename) {
  const util::Args args(argc, argv);
  std::filesystem::path dir =
      args.get_string("out", std::string(DCSN_BENCH_OUT_DIR));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create %s (%s); writing %s in cwd\n",
                 dir.string().c_str(), ec.message().c_str(), filename.c_str());
    return filename;
  }
  return (dir / filename).string();
}

}  // namespace dcsn::bench
