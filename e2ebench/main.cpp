// End-to-end streaming benchmark driver.
//
// usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--smoke] [--corrupt-reference]
//
// Starts a net::FrameServer and drives it from kClients closed-loop
// net::FrameClient connections in this process: each client submits a
// frame, waits for it, verifies it and submits the next. Every timed frame
// is checked against a reference hash computed beforehand by
// core::SerialSynthesizer, a different engine from the one served.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced socket run plus a per-frame layer replay
// (replay.hpp), and writes a Chrome trace-event file and a waterfall table
// to --out-dir. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --smoke shrinks every workload so the whole pipeline runs in seconds;
// --corrupt-reference flips one reference hash (the self-check uses it to
// prove verification can fail).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/serial_synthesizer.hpp"
#include "net/protocol.hpp"
#include "replay.hpp"
#include "socket_run.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using e2e::ClientFrame;
using e2e::ReplayFrame;
using e2e::Workload;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_out";
  bool smoke = false;
  bool corrupt_reference = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw dcsn::util::Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value());
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      throw dcsn::util::Error("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    throw dcsn::util::Error(
        "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Process measurements
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Resets the process's RSS high-water mark (VmHWM), so that peak_rss_mib
/// belongs to the serving phase and not to input generation or the
/// reference replay. Returns false where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw dcsn::util::Error("VmHWM not found in /proc/self/status");
}

/// Host CPU ticks from /proc/stat: {steal, total}. A diagnostic of how much
/// time the hypervisor took away during the measured phase.
std::pair<double, double> host_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  return dcsn::util::percentile(std::move(values), 0.5);
}

double ratio(double part, double base) { return base > 0.0 ? part / base : 0.0; }

/// Completion rate as the median over fixed-size windows of consecutive
/// completions: a burst of host steal time spoils one window, not the run.
double windowed_frames_per_s(const std::vector<ClientFrame>& frames, double start_s) {
  std::vector<double> done;
  for (const ClientFrame& f : frames) done.push_back(f.done_s);
  std::sort(done.begin(), done.end());
  const std::size_t window = std::max<std::size_t>(4, done.size() / 16);
  std::vector<double> rates;
  double window_start = start_s;
  for (std::size_t end = window; end <= done.size(); end += window) {
    const double t = done[end - 1];
    if (t > window_start) rates.push_back(static_cast<double>(window) / (t - window_start));
    window_start = t;
  }
  return median(rates);
}

std::vector<double> latencies_ms(const std::vector<ClientFrame>& frames) {
  std::vector<double> out;
  for (const ClientFrame& f : frames) {
    if (f.delivered) out.push_back(f.latency_ms());
  }
  return out;
}

/// Latency percentile `p` as the median over windows of consecutive
/// completions, like windowed_frames_per_s: a burst of host steal time
/// spoils the tail of one window, not the tail of the run. Every window
/// holds at least 200 delivered frames, so its p95 has ten samples beyond
/// it; the window count is odd, so the median is one window's value.
double windowed_latency_ms(const std::vector<ClientFrame>& frames, double p) {
  std::vector<const ClientFrame*> done;
  for (const ClientFrame& f : frames) {
    if (f.delivered) done.push_back(&f);
  }
  std::sort(done.begin(), done.end(),
            [](const ClientFrame* a, const ClientFrame* b) { return a->done_s < b->done_s; });
  const std::size_t n = done.size();
  std::size_t windows = std::clamp<std::size_t>(n / 200, 1, 15);
  if (windows % 2 == 0) --windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> latency;
    for (std::size_t i = n * w / windows; i < n * (w + 1) / windows; ++i) {
      latency.push_back(done[i]->latency_ms());
    }
    per_window.push_back(dcsn::util::percentile(std::move(latency), p));
  }
  return median(per_window);
}

int count_failed(const std::vector<ClientFrame>& frames) {
  return static_cast<int>(std::count_if(frames.begin(), frames.end(),
                                        [](const ClientFrame& f) { return !f.verified; }));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw dcsn::util::Error("metric " + m.name + " is not finite");
    }
    json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Set-up helpers
// ---------------------------------------------------------------------------

/// Hash of every distinct input, from core::SerialSynthesizer on a private
/// runtime: an engine independent of the DnC engine the server runs.
std::vector<std::uint64_t> reference_hashes(const Workload& w) {
  dcsn::core::Runtime runtime;
  dcsn::core::SerialSynthesizer serial(w.synthesis, runtime);
  const auto field = w.field.make_field();
  std::vector<std::uint64_t> hashes;
  for (const auto& spots : w.inputs) {
    (void)serial.synthesize(*field, spots, /*threads=*/4);
    hashes.push_back(serial.texture().content_hash());
  }
  return hashes;
}

std::vector<std::uint64_t> submit_bytes(const Workload& w) {
  std::vector<std::uint64_t> bytes;
  for (const auto& spots : w.inputs) {
    dcsn::net::SubmitMsg msg;
    msg.flags = w.incremental ? dcsn::net::SubmitMsg::kFlagIncremental : 0;
    msg.spots.assign(spots.begin(), spots.end());
    bytes.push_back(dcsn::net::kHeaderBytes + msg.encode().size());
  }
  return bytes;
}

/// Frame counts: every client runs a fixed number of frames, sized from
/// --seconds by the workload's nominal rate, so the same arguments always
/// run the same frames.
struct Plan {
  int setups = 1;  ///< set-ups per run; setup_s is their median
  int warmup = 0;
  int measured = 0;  ///< per client
  [[nodiscard]] int first() const { return 1 + warmup; }
};

Plan make_plan(const Options& o) {
  Plan p;
  if (o.smoke) {
    p.warmup = 1;
    p.measured = 6;
    return p;
  }
  const double frames = o.seconds * e2e::nominal_fps(o.workload) / e2e::kClients;
  p.measured = std::max(16, static_cast<int>(std::lround(frames)));
  p.warmup = std::max(2, p.measured / 10);
  // browse_shared's set-up renders every view once (seconds); the others
  // set up in well under a second, where a few more samples cost little.
  p.setups = o.workload == "browse_shared" ? 3 : 7;
  return p;
}

struct Prepared {
  Workload workload;
  std::vector<std::uint64_t> reference;
  std::vector<std::uint64_t> up_bytes;
  std::string socket_path;
};

Prepared prepare(const Options& o, const Plan& plan, int frames_needed) {
  Prepared p;
  p.workload = e2e::make_workload(o.workload, o.seed, frames_needed, o.smoke);
  p.reference = reference_hashes(p.workload);
  if (o.corrupt_reference) {
    p.reference[static_cast<std::size_t>(p.workload.order[0][plan.first()])] ^= 1;
  }
  p.up_bytes = submit_bytes(p.workload);
  p.socket_path = o.out_dir + "/e2e-" + std::to_string(::getpid()) + ".sock";
  std::printf("workload %s seed %llu: %lld spots, %dx%d, %zu distinct inputs, "
              "SLO %.0f ms, %d clients x %d measured frames (+%d warm-up)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<long long>(p.workload.synthesis.spot_count),
              p.workload.synthesis.texture_width, p.workload.synthesis.texture_height,
              p.workload.inputs.size(), p.workload.latency_limit_ms, e2e::kClients,
              plan.measured, plan.warmup);
  return p;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int run_end_to_end(const Options& o) {
  const Plan plan = make_plan(o);
  Prepared p = prepare(o, plan, plan.first() + plan.measured);
  const Workload& w = p.workload;
  if (!reset_peak_rss()) std::printf("note: clear_refs refused; peak RSS is process-wide\n");

  // Set-up several times; the median is the reported set-up time and the
  // last instance serves the measured phase.
  std::vector<double> setup_samples;
  int setup_mismatches = 0;
  std::optional<e2e::Serving> serving;
  for (int i = 0; i < plan.setups; ++i) {
    serving.reset();
    serving.emplace(w, p.reference, p.up_bytes, p.socket_path);
    setup_samples.push_back(serving->setup_seconds());
    setup_mismatches += serving->setup_mismatches();
  }
  (void)serving->run(1, plan.warmup, false);

  const auto steal0 = host_steal_ticks();
  const double cpu0 = process_cpu_seconds();
  const double start = e2e::now_seconds();
  const std::vector<ClientFrame> frames = serving->run(plan.first(), plan.measured, false);
  const double cpu = process_cpu_seconds() - cpu0;
  const double wall = e2e::now_seconds() - start;
  const auto steal1 = host_steal_ticks();
  serving.reset();

  const auto n = static_cast<double>(frames.size());
  const std::vector<double> latency = latencies_ms(frames);
  double up = 0.0;
  double down = 0.0;
  int slo_met = 0;
  int verified = 0;
  for (const ClientFrame& f : frames) {
    up += static_cast<double>(f.up_bytes);
    down += static_cast<double>(f.down_bytes);
    slo_met += f.delivered && f.latency_ms() <= w.latency_limit_ms;
    verified += f.verified;
  }
  const int failed = count_failed(frames);
  const double steal_share =
      ratio(steal1.first - steal0.first, steal1.second - steal0.second);
  std::printf("measured %zu frames in %.3f s; latency samples %zu (whole-run p50 %.4f "
              "p95 %.4f ms); set-up samples",
              frames.size(), wall, latency.size(), dcsn::util::percentile(latency, 0.50),
              dcsn::util::percentile(latency, 0.95));
  for (const double s : setup_samples) std::printf(" %.4f", s);
  std::printf("; host steal share %.4f; set-up frames unverified %d\n", steal_share,
              setup_mismatches);

  std::vector<Metric> metrics{
      {"setup_s", median(setup_samples), "s"},
      {"frames_per_s", windowed_frames_per_s(frames, start), "1/s"},
      {"latency_p50_ms", windowed_latency_ms(frames, 0.50), "ms"},
      {"latency_p95_ms", windowed_latency_ms(frames, 0.95), "ms"},
      {"slo_met_share", slo_met / n, "share"},
      {"verified_share", verified / n, "share"},
      {"wire_up_kib_per_frame", up / n / 1024.0, "KiB"},
      {"wire_down_kib_per_frame", down / n / 1024.0, "KiB"},
      {"cpu_ms_per_frame", cpu * 1e3 / n, "ms"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  print_result(failed == 0 && setup_mismatches == 0, static_cast<int>(frames.size()),
               failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics, Chrome trace and waterfall
// ---------------------------------------------------------------------------

void write_chrome_trace(const std::string& path, const std::vector<ClientFrame>& socket,
                        const std::vector<ReplayFrame>& replay) {
  std::ofstream out(path);
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto event = [&](const char* name, const char* cat, int pid, int tid,
                         double begin_s, double end_s, const std::string& args) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << name << "\", \"cat\": \"" << cat
        << "\", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << begin_s * 1e6 << ", \"dur\": " << (end_s - begin_s) * 1e6
        << ", \"args\": {" << args << "}}";
    first = false;
  };
  for (const ClientFrame& f : socket) {
    if (!f.delivered) continue;
    const std::string args = "\"client_tag\": " + std::to_string(f.client_tag) +
                             ", \"frame\": " + std::to_string(f.frame);
    event("FrameClient::submit", "net", 1, f.client, f.submit_begin_s, f.await_begin_s, args);
    event("FrameClient::await_frame", "net", 1, f.client, f.await_begin_s, f.done_s, args);
  }
  for (const ReplayFrame& r : replay) {
    if (!r.timed) continue;
    const std::string args = "\"frame\": " + std::to_string(r.frame);
    for (int s = 0; s < e2e::kStageCount; ++s) {
      const auto stage = static_cast<e2e::Stage>(s);
      event(e2e::stage_name(stage), "replay", 2, r.client, r.begin_s[s], r.begin_s[s + 1],
            args);
    }
    // The service's own split of the resolve stage: queue wait first, then
    // the engine frame.
    const double qw = r.stats.queue_wait_seconds;
    const double t0 = r.begin_s[e2e::kResolve];
    event("service.queue_wait", "service", 2, r.client, t0, t0 + qw, args);
    event("engine.frame", "engine", 2, r.client, t0 + qw, t0 + qw + r.stats.frame_seconds,
          args);
  }
  out << "\n]}\n";
  if (!out) throw dcsn::util::Error("cannot write " + path);
}

int run_traced(const Options& o) {
  const Plan plan = make_plan(o);
  Prepared p = prepare(o, plan, plan.first() + plan.measured);
  const Workload& w = p.workload;

  std::vector<ClientFrame> untraced;
  std::vector<ClientFrame> traced;
  int setup_mismatches = 0;
  {
    e2e::Serving serving(w, p.reference, p.up_bytes, p.socket_path);
    setup_mismatches = serving.setup_mismatches();
    (void)serving.run(1, plan.warmup, false);
    for (const ClientFrame& f : serving.run(plan.first(), plan.measured, true)) {
      (f.traced ? traced : untraced).push_back(f);
    }
  }
  const int replay_frames = o.smoke ? plan.measured : std::max(8, plan.measured / 2);
  const std::vector<ReplayFrame> replayed =
      e2e::replay(w, p.reference, plan.first(), replay_frames);

  // Socket-side spans.
  std::vector<double> submit_ms;
  std::vector<double> await_ms;
  for (const ClientFrame& f : traced) {
    if (!f.delivered) continue;
    submit_ms.push_back((f.await_begin_s - f.submit_begin_s) * 1e3);
    await_ms.push_back((f.done_s - f.await_begin_s) * 1e3);
  }
  const double socket_p50 = dcsn::util::percentile(latencies_ms(untraced), 0.5);
  const double traced_p50 = dcsn::util::percentile(latencies_ms(traced), 0.5);

  // Replay stages and engine counters, over the timed frames. Raster and
  // geometry times are taken over every replayed frame that rasterized
  // anything, untimed prefix included: on browse_shared no timed frame
  // renders (all store hits), and its priming pass is then what those
  // layers cost.
  std::map<std::string, std::vector<double>> ms;
  double fragments = 0.0, reused = 0.0, render_tiles = 0.0;
  double skipped = 0.0, assignments = 0.0, hits = 0.0, probes = 0.0;
  double hit_bytes = 0.0, dirty = 0.0, wire_tiles = 0.0, vertices = 0.0, cross = 0.0;
  double rendered_fragments = 0.0, rendered_busy = 0.0;
  int timed = 0;
  int replay_failed = 0;
  for (const ReplayFrame& r : replayed) {
    const dcsn::core::FrameStats& s = r.stats;
    if (s.raster.fragments > 0) {
      ms["genP"].push_back(s.genP_critical_seconds * 1e3);
      ms["genT"].push_back(s.genT_critical_seconds * 1e3);
      ms["genT_busy"].push_back(s.genT_seconds * 1e3);
      rendered_fragments += static_cast<double>(s.raster.fragments);
      rendered_busy += s.genT_seconds;
    }
    if (!r.timed) {
      setup_mismatches += !r.verified;
      continue;
    }
    ++timed;
    for (int st = 0; st < e2e::kStageCount; ++st) {
      ms[e2e::stage_name(static_cast<e2e::Stage>(st))].push_back(
          r.stage_ms(static_cast<e2e::Stage>(st)));
    }
    ms["queue_wait"].push_back(s.queue_wait_seconds * 1e3);
    ms["frame"].push_back(s.frame_seconds * 1e3);
    ms["overhead"].push_back(r.stage_ms(e2e::kResolve) -
                             (s.queue_wait_seconds + s.frame_seconds) * 1e3);
    ms["gather"].push_back(s.gather_seconds * 1e3);
    ms["assign"].push_back(s.assign_seconds * 1e3);
    ms["modeled"].push_back(s.modeled_frame_seconds * 1e3);
    fragments += static_cast<double>(s.raster.fragments);
    vertices += static_cast<double>(s.vertices);
    cross += static_cast<double>(s.cross_session_chunks);
    reused += static_cast<double>(s.tiles_reused);
    render_tiles += r.render_tiles;
    skipped += static_cast<double>(s.spots_skipped);
    assignments += static_cast<double>(s.spots_submitted + s.spots_skipped +
                                       s.cache_spots_skipped);
    hits += static_cast<double>(s.cache_tile_hits);
    probes += static_cast<double>(s.cache_tile_hits + s.cache_tile_misses);
    hit_bytes += static_cast<double>(s.cache_hit_bytes);
    dirty += r.dirty_tiles;
    wire_tiles += r.wire_tiles;
    replay_failed += !r.verified;
  }
  const double frames = std::max(1, timed);

  // Waterfall: replay stages in the server's order, the resolve stage split
  // by the service's own accounting, and the residual that closes the sum
  // to the socket p50.
  const std::vector<std::pair<std::string, double>> rows{
      {"net.up_codec", median(ms["net.up_codec"])},
      {"service.queue_wait", median(ms["queue_wait"])},
      {"engine.frame", median(ms["frame"])},
      {"service.overhead", median(ms["overhead"])},
      {"delta.diff", median(ms["delta.diff"])},
      {"net.down_codec", median(ms["net.down_codec"])},
      {"net.client_verify", median(ms["net.client_verify"])},
  };
  double stages = 0.0;
  for (const auto& row : rows) stages += row.second;
  const double residual = socket_p50 - stages;
  const double overhead = ratio(traced_p50 - socket_p50, socket_p50);

  std::ostringstream table;
  table << "waterfall " << o.workload << " seed " << o.seed << " (median ms per frame, "
        << timed << " replay frames, " << latencies_ms(untraced).size()
        << " socket frames)\n";
  char line[160];
  for (const auto& row : rows) {
    std::snprintf(line, sizeof line, "  %-22s %10.4f\n", row.first.c_str(), row.second);
    table << line;
  }
  std::snprintf(line, sizeof line, "  %-22s %10.4f\n", "net.residual", residual);
  table << line;
  std::snprintf(line, sizeof line, "  %-22s %10.4f  (socket latency p50, untraced)\n",
                "= total", socket_p50);
  table << line;
  std::snprintf(line, sizeof line,
                "tracing overhead: traced p50 %.4f ms vs untraced %.4f ms (%+.2f%%)\n",
                traced_p50, socket_p50, overhead * 100.0);
  table << line;
  std::printf("%s", table.str().c_str());

  const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  write_chrome_trace(stem + ".trace.json", traced, replayed);
  std::ofstream(stem + ".waterfall.txt") << table.str();
  std::printf("wrote %s.trace.json and %s.waterfall.txt\n", stem.c_str(), stem.c_str());

  std::vector<Metric> metrics{
      {"net.submit_ms", median(submit_ms), "ms"},
      {"net.await_ms", median(await_ms), "ms"},
      {"net.up_codec_ms", median(ms["net.up_codec"]), "ms"},
      {"net.down_codec_ms", median(ms["net.down_codec"]), "ms"},
      {"net.client_verify_ms", median(ms["net.client_verify"]), "ms"},
      {"net.residual_ms", residual, "ms"},
      {"service.queue_wait_ms", median(ms["queue_wait"]), "ms"},
      {"service.overhead_ms", median(ms["overhead"]), "ms"},
      {"engine.frame_ms", median(ms["frame"]), "ms"},
      {"engine.gather_ms", median(ms["gather"]), "ms"},
      {"engine.cross_session_chunks_per_frame", cross / frames, "count"},
      {"engine.assign_ms", median(ms["assign"]), "ms"},
      {"engine.modeled_frame_ms", median(ms["modeled"]), "ms"},
      {"engine.render_tiles_per_frame", render_tiles / frames, "count"},
      {"engine.spot_assignments_per_frame", assignments / frames, "count"},
      {"geometry.genP_critical_ms", median(ms["genP"]), "ms"},
      {"geometry.vertices_per_frame", vertices / frames, "count"},
      {"render.genT_critical_ms", median(ms["genT"]), "ms"},
      {"render.genT_busy_ms", median(ms["genT_busy"]), "ms"},
      {"render.mfrag_per_s", ratio(rendered_fragments, rendered_busy) / 1e6, "Mfrag/s"},
      {"render.fragments_per_frame", fragments / frames, "count"},
      {"cache.tiles_reused_share", ratio(reused, render_tiles), "share"},
      {"cache.spots_skipped_share", ratio(skipped, assignments), "share"},
      {"store.hit_share", ratio(hits, probes), "share"},
      {"store.probes_per_frame", probes / frames, "count"},
      {"store.hit_mib_per_frame", hit_bytes / frames / (1024.0 * 1024.0), "MiB"},
      {"delta.diff_ms", median(ms["delta.diff"]), "ms"},
      {"delta.dirty_tile_share", ratio(dirty, wire_tiles), "share"},
      {"delta.wire_tiles_per_frame", wire_tiles / frames, "count"},
  };
  const int failed = count_failed(untraced) + count_failed(traced) + replay_failed;
  const int attempted = static_cast<int>(untraced.size() + traced.size()) + timed;
  print_result(failed == 0 && setup_mismatches == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    std::filesystem::create_directories(o.out_dir);
    return o.trace == 0 ? run_end_to_end(o) : run_traced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: error: %s\n", e.what());
    return 1;
  }
}
