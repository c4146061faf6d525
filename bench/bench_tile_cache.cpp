// Cross-session content-addressed tile cache — the shared-store payoff
// measured.
//
// PR 5 let K sessions share one worker/pipe pool; each still rasterized its
// own frames from scratch. The core::TileStore adds the missing layer for
// the many-users-one-dataset deployment: tile pixels are a pure function of
// (spot subset, field content, raster config) — PR 4's lattice guarantee —
// so a tile rendered by one session IS the tile every other session needs,
// bit for bit. This bench measures the claim end to end:
//
//   uncached    K sessions on one service, tile_cache off: every session
//               pays the full generation + rasterization cost.
//   cached      a fresh service whose store starts cold. Session 1 renders
//               and publishes every tile; sessions 2..K compose their
//               frames straight from the store.
//
// Costs are *modeled* (FrameStats::modeled_frame_seconds — eq. 3.2 critical
// paths over per-thread CPU clocks) so a one-core CI host measures the same
// thing a big one would. The fingerprint, key hashing and store probes are
// deliberately charged inside the assignment phase of that model, so the
// cache cannot look free: a hit frame's cost is its real bookkeeping cost.
//
// Gates (both must hold, plus bit-identity):
//   * K-session cached aggregate <= 1.4x one session's uncached cost —
//     serving K users costs barely more than serving one;
//   * aggregate speedup (uncached K-session cost / cached) >= 2.5x;
//   * every frame's content_hash equals the solo uncached engine's.
//
// Exits nonzero when a gate fails; scripts/bench.sh checks the JSON report
// in as BENCH_tile_cache.json.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/synthesis_service.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;

constexpr int kSessions = 4;

double aggregate_modeled(const std::vector<core::SynthesisResult>& results) {
  double sum = 0.0;
  for (const core::SynthesisResult& r : results) {
    sum += r.stats.modeled_frame_seconds;
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);

  // A genP-heavy workload (bent spots, deep integration): the cost a warm
  // session avoids is dominated by generation, exactly the term the store
  // removes. Every session views the SAME dataset — same seed, same spots,
  // same field — which is the deployment the tentpole targets.
  core::SynthesisConfig synthesis;
  synthesis.texture_width = smoke ? 128 : 256;
  synthesis.texture_height = smoke ? 128 : 256;
  synthesis.spot_count = smoke ? 1200 : 3500;
  synthesis.spot_radius_px = 6.0;
  synthesis.kind = core::SpotKind::kBent;
  synthesis.bent.mesh_cols = 10;
  synthesis.bent.mesh_rows = 3;
  synthesis.bent.length_px = 28.0;
  synthesis.bent.trace_substeps = 8;

  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.tiled = true;  // the store caches the tiled decomposition's units

  const field::Rect domain{0.0, 0.0, 2.0, 2.0};
  const auto field = field::analytic::taylor_green(1.0, domain);
  util::Rng rng(synthesis.seed);
  auto spots = core::make_random_spots(domain, synthesis.spot_count, rng);
  for (auto& spot : spots) spot.intensity *= 0.2;

  // Solo uncached engine: the bit-identity oracle.
  core::DncSynthesizer solo(synthesis, dnc);
  std::printf(
      "tile-cache workload: %lld bent spots (%dx%d mesh), %dx%d texture, "
      "%d sessions x 1 frame on one dataset, nP=%d, %zu grid tiles\n",
      static_cast<long long>(synthesis.spot_count), synthesis.bent.mesh_cols,
      synthesis.bent.mesh_rows, synthesis.texture_width,
      synthesis.texture_height, kSessions, dnc.processors, solo.tiles().size());

  solo.synthesize(*field, spots);
  const std::uint64_t expected_hash = solo.texture().content_hash();

  auto run_sessions = [&](bool tile_cache, core::TileStore::Stats* store_stats) {
    core::Runtime runtime({.workers = 2});
    core::SynthesisService service({.drivers = 1}, runtime);
    core::DncConfig session_dnc = dnc;
    session_dnc.tile_cache = tile_cache;
    std::vector<core::SynthesisResult> results;
    for (int s = 0; s < kSessions; ++s) {
      const auto id = service.open_session(synthesis, session_dnc);
      core::SynthesisRequest req;
      req.field = field.get();
      req.spots = spots;
      // Sequential on one driver: session s+1 starts only after session s
      // published, the arrive-one-after-another browsing pattern.
      results.push_back(service.submit(id, std::move(req)).result.get());
    }
    if (store_stats != nullptr) *store_stats = service.tile_cache_stats();
    return results;
  };

  const auto uncached = run_sessions(false, nullptr);
  core::TileStore::Stats store_stats;
  const auto cached = run_sessions(true, &store_stats);

  bool bit_identical = true;
  for (int s = 0; s < kSessions; ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (uncached[i].content_hash != expected_hash ||
        cached[i].content_hash != expected_hash) {
      bit_identical = false;
      std::printf("HASH MISMATCH session %d: uncached %016llx cached %016llx "
                  "expected %016llx\n",
                  s, static_cast<unsigned long long>(uncached[i].content_hash),
                  static_cast<unsigned long long>(cached[i].content_hash),
                  static_cast<unsigned long long>(expected_hash));
    }
  }

  const double uncached_aggregate = aggregate_modeled(uncached);
  const double cached_aggregate = aggregate_modeled(cached);
  const double single_cost = uncached_aggregate / kSessions;
  const double cost_ratio = cached_aggregate / single_cost;
  const double speedup = uncached_aggregate / cached_aggregate;
  std::int64_t hits = 0, published = 0;
  for (const core::SynthesisResult& r : cached) {
    hits += r.stats.cache_tile_hits;
    published += r.stats.cache_tiles_published;
  }

  std::printf("\n%-9s", "session:");
  for (int s = 0; s < kSessions; ++s) std::printf("  %8d", s);
  std::printf("\n%-9s", "uncached");
  for (const auto& r : uncached)
    std::printf("  %6.2fms", r.stats.modeled_frame_seconds * 1e3);
  std::printf("\n%-9s", "cached");
  for (const auto& r : cached)
    std::printf("  %6.2fms", r.stats.modeled_frame_seconds * 1e3);
  std::printf("\n\nstore: %lld tiles published by session 0, %lld hits by "
              "sessions 1..%d (%lld store hits total), %llu bytes live\n",
              static_cast<long long>(published), static_cast<long long>(hits),
              kSessions - 1, static_cast<long long>(store_stats.hits),
              static_cast<unsigned long long>(store_stats.bytes));
  std::printf(
      "modeled cost: one uncached session %.2f ms; %d cached sessions "
      "%.2f ms aggregate = %.2fx one session (target <= 1.4x), "
      "%.2fx aggregate speedup (target >= 2.5x)\n",
      single_cost * 1e3, kSessions, cached_aggregate * 1e3, cost_ratio,
      speedup);

  const auto tiles = static_cast<std::int64_t>(solo.tiles().size());
  const bool sharing_happened = hits == (kSessions - 1) * tiles;
  const bool ok =
      bit_identical && sharing_happened && cost_ratio <= 1.4 && speedup >= 2.5;

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("workload.spots", synthesis.spot_count);
    report.set("workload.texture",
               static_cast<std::int64_t>(synthesis.texture_width));
    report.set("workload.sessions", static_cast<std::int64_t>(kSessions));
    report.set("workload.tiles", tiles);
    report.set("uncached.single_session_modeled_ms", single_cost * 1e3);
    report.set("uncached.aggregate_modeled_ms", uncached_aggregate * 1e3);
    report.set("cached.aggregate_modeled_ms", cached_aggregate * 1e3);
    report.set("cached.cold_session_modeled_ms",
               cached.front().stats.modeled_frame_seconds * 1e3);
    report.set("cached.warm_session_modeled_ms",
               cached.back().stats.modeled_frame_seconds * 1e3);
    report.set("store.tiles_published", published);
    report.set("store.tile_hits", hits);
    report.set("store.live_bytes",
               static_cast<std::int64_t>(store_stats.bytes));
    report.set("gate.bit_identical", bit_identical);
    report.set("gate.cost_ratio_vs_one_session", cost_ratio);
    report.set("gate.cost_ratio_target", 1.4);
    report.set("gate.aggregate_speedup", speedup);
    report.set("gate.speedup_target", 2.5);
    report.set("gate.pass", ok);
    report.set("mode", smoke ? "smoke" : "full");
    report.write(json_path);
  }
  if (!ok) std::printf("TARGET MISSED\n");
  return ok ? 0 : 1;
}
