#include "workloads.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using dcsn::core::SpotInstance;
using dcsn::field::Rect;
using dcsn::field::Vec2;

constexpr Rect kDomain{0.0, 0.0, 4.0, 4.0};
constexpr Vec2 kCenter{2.0, 2.0};
/// Rotation phases of the periodic motion: frame K equals frame 0.
constexpr int kPhases = 16;
/// browse_shared's stored views (one spot set per time step).
constexpr int kViews = 16;
/// Keeps per-pixel partial sums far inside the lattice's exact range.
constexpr double kIntensity = 0.2;

dcsn::net::FieldSpec rankine_vortex() {
  dcsn::net::FieldSpec field;
  field.kind = dcsn::net::FieldSpec::Kind::kRankineVortex;
  field.a = kCenter.x;
  field.b = kCenter.y;
  field.c = 1.2;  // strength
  field.d = 0.8;  // core radius
  field.domain = kDomain;
  return field;
}

Vec2 rotate(Vec2 p, Vec2 center, double angle) {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  const double dx = p.x - center.x;
  const double dy = p.y - center.y;
  return {center.x + c * dx - s * dy, center.y + s * dx + c * dy};
}

/// Largest divisor of n not above sqrt(n): the short side of the most
/// nearly square cols x rows = n stratification.
std::int64_t short_side(std::int64_t n) {
  std::int64_t best = 1;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) best = d;
  }
  return best;
}

double random_intensity(dcsn::util::Rng& rng) {
  return (2.0 * rng.uniform() - 1.0) * kIntensity;
}

// Spot positions are stratified: one uniformly jittered spot per cell of an
// equal-area partition. Every region then holds the same number of spots
// for every seed up to one cell, so the work a frame does, the tiles a
// moving region dirties and the bytes a frame ships barely depend on the
// seed, while positions and intensities still do.

/// `count` jittered spots over the domain, one per cell of a grid.
std::vector<SpotInstance> uniform_spots(std::int64_t count, dcsn::util::Rng& rng) {
  const std::int64_t rows = short_side(count);
  const std::int64_t cols = count / rows;
  const double cw = kDomain.width() / static_cast<double>(cols);
  const double ch = kDomain.height() / static_cast<double>(rows);
  std::vector<SpotInstance> spots;
  spots.reserve(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    const Vec2 p{kDomain.x0 + (static_cast<double>(k % cols) + rng.uniform()) * cw,
                 kDomain.y0 + (static_cast<double>(k / cols) + rng.uniform()) * ch};
    spots.push_back({p, random_intensity(rng)});
  }
  return spots;
}

/// `count` jittered spots inside the disc inscribed in the domain, one per
/// cell of an equal-area polar partition (rings x sectors), so a rigid
/// rotation about the center keeps every spot inside the domain.
std::vector<SpotInstance> disc_spots(std::int64_t count, dcsn::util::Rng& rng) {
  const double radius = kDomain.width() / 2.0;
  const std::int64_t rings = short_side(count);
  const std::int64_t sectors = count / rings;
  std::vector<SpotInstance> spots;
  spots.reserve(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    const double r = radius * std::sqrt((static_cast<double>(k / sectors) + rng.uniform()) /
                                        static_cast<double>(rings));
    const double theta = 2.0 * std::numbers::pi *
                         (static_cast<double>(k % sectors) + rng.uniform()) /
                         static_cast<double>(sectors);
    const Vec2 p{kCenter.x + r * std::cos(theta), kCenter.y + r * std::sin(theta)};
    spots.push_back({p, random_intensity(rng)});
  }
  return spots;
}

/// Every client cycles the phases 0, 1, ..., K-1, 0, ...
std::vector<std::vector<int>> cyclic_order(int frames) {
  std::vector<std::vector<int>> order(kClients);
  for (auto& seq : order) {
    for (int f = 0; f < frames; ++f) seq.push_back(f % kPhases);
  }
  return order;
}

void set_bent(dcsn::core::SynthesisConfig& synthesis) {
  synthesis.kind = dcsn::core::SpotKind::kBent;
  synthesis.bent.mesh_cols = 16;
  synthesis.bent.mesh_rows = 3;
}

// bent_full: the animation case. Every spot rotates rigidly by 2*pi/K per
// frame, so every wire tile the population covers is dirty and frames ship
// (nearly) in full. Default DncConfig: untiled, 4 processors, 1 pipe.
Workload bent_full(std::uint64_t seed, int frames, bool smoke) {
  Workload w;
  w.latency_limit_ms = 1000.0;
  w.synthesis.texture_width = smoke ? 128 : 512;
  w.synthesis.spot_count = smoke ? 300 : 2500;
  set_bent(w.synthesis);
  if (smoke) w.synthesis.bent.length_px = 12.0;

  dcsn::util::Rng rng(seed);
  const auto base = disc_spots(w.synthesis.spot_count, rng);
  for (int k = 0; k < kPhases; ++k) {
    const double angle = 2.0 * std::numbers::pi * k / kPhases;
    auto spots = base;
    for (auto& s : spots) s.position = rotate(s.position, kCenter, angle);
    w.inputs.push_back(std::move(spots));
  }
  w.priming.assign(kClients, {});
  w.order = cyclic_order(frames);
  return w;
}

// steer_local: steering. A probe disc holding ~6% of the spots rotates
// through K positions; the rest of the texture is static. Tiled with 4
// pipes and incremental submits, so the server's O(spots) decode, diff,
// assign and plan dominate, not raster.
Workload steer_local(std::uint64_t seed, int frames, bool smoke) {
  Workload w;
  w.latency_limit_ms = 250.0;
  w.incremental = true;
  w.synthesis.texture_width = smoke ? 128 : 512;
  w.synthesis.spot_count = smoke ? 2500 : 20000;
  w.synthesis.spot_radius_px = 3.0;
  w.synthesis.kind = dcsn::core::SpotKind::kEllipse;
  w.dnc.tiled = true;
  w.dnc.pipes = 4;

  dcsn::util::Rng rng(seed);
  const auto base = uniform_spots(w.synthesis.spot_count, rng);
  // Radius 0.55 over the 16-area domain holds ~6% of a uniform population.
  const Vec2 probe_center{1.0, 1.0};
  const double probe_radius = 0.55;
  std::vector<std::size_t> probe;
  for (std::size_t k = 0; k < base.size(); ++k) {
    const double dx = base[k].position.x - probe_center.x;
    const double dy = base[k].position.y - probe_center.y;
    if (dx * dx + dy * dy <= probe_radius * probe_radius) probe.push_back(k);
  }
  for (int k = 0; k < kPhases; ++k) {
    const double angle = 2.0 * std::numbers::pi * k / kPhases;
    auto spots = base;
    for (const std::size_t i : probe) {
      spots[i].position = rotate(base[i].position, probe_center, angle);
    }
    w.inputs.push_back(std::move(spots));
  }
  w.priming.assign(kClients, {});
  w.order = cyclic_order(frames);
  return w;
}

// browse_shared: several users browsing one database. K independent spot
// sets stand in for K time steps; every client visits them in its own
// seeded order. Tiled with 4 pipes and the shared tile cache on; the
// clients' priming pass renders every view once before timing, so every
// timed frame is served from the TileStore.
Workload browse_shared(std::uint64_t seed, int frames, bool smoke) {
  Workload w;
  w.latency_limit_ms = 250.0;
  w.synthesis.texture_width = smoke ? 128 : 512;
  w.synthesis.spot_count = smoke ? 2500 : 20000;
  set_bent(w.synthesis);
  if (smoke) w.synthesis.bent.length_px = 12.0;
  w.dnc.tiled = true;
  w.dnc.pipes = 4;
  w.dnc.tile_cache = true;

  dcsn::util::Rng rng(seed);
  for (int v = 0; v < kViews; ++v) {
    w.inputs.push_back(uniform_spots(w.synthesis.spot_count, rng));
  }
  w.priming.assign(kClients, {});
  for (int v = 0; v < kViews; ++v) w.priming[v % kClients].push_back(v);
  w.order.assign(kClients, {});
  for (auto& seq : w.order) {
    // Never the same view twice in a row: every frame is a new view.
    int view = static_cast<int>(rng() % kViews);
    for (int f = 0; f < frames; ++f) {
      seq.push_back(view);
      view = (view + 1 + static_cast<int>(rng() % (kViews - 1))) % kViews;
    }
  }
  return w;
}

}  // namespace

double nominal_fps(const std::string& name) {
  if (name == "bent_full") return 22.0;
  if (name == "steer_local") return 145.0;
  if (name == "browse_shared") return 200.0;
  throw dcsn::util::Error("unknown workload: " + name);
}

Workload make_workload(const std::string& name, std::uint64_t seed, int frames,
                       bool smoke) {
  Workload w;
  if (name == "bent_full") {
    w = bent_full(seed, frames, smoke);
  } else if (name == "steer_local") {
    w = steer_local(seed, frames, smoke);
  } else if (name == "browse_shared") {
    w = browse_shared(seed, frames, smoke);
  } else {
    throw dcsn::util::Error("unknown workload: " + name);
  }
  w.field = rankine_vortex();
  w.synthesis.texture_height = w.synthesis.texture_width;
  w.synthesis.seed = seed;
  return w;
}

}  // namespace e2e
