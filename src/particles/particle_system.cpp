#include "particles/particle_system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>

#include "core/runtime.hpp"
#include "util/error.hpp"

namespace dcsn::particles {

namespace {

// Particles per chunk of advance() on the shared runtime pool.
constexpr std::int64_t kParticleGrain = 256;

}  // namespace

ParticleSystem::ParticleSystem(ParticleSystemConfig config, field::Rect domain,
                               util::Rng rng)
    : config_(config), domain_(domain) {
  DCSN_CHECK(config_.count > 0, "particle count must be positive");
  DCSN_CHECK(config_.mean_lifetime > 0.0, "mean lifetime must be positive");
  DCSN_CHECK(config_.fade_fraction >= 0.0 && config_.fade_fraction <= 0.5,
             "fade fraction must lie in [0, 0.5]");
  stream_seed_ = rng();
  particles_.resize(static_cast<std::size_t>(config_.count));
  for (Particle& p : particles_) {
    respawn(p, rng);
    // Spread birth times uniformly across the life cycle so the initial
    // population is already in steady state.
    p.age = rng.uniform() * p.lifetime;
  }
}

void ParticleSystem::advance(const field::VectorField& f, double dt) {
  ++generation_;
  const auto n = static_cast<std::int64_t>(particles_.size());
  const std::uint64_t gen_salt =
      stream_seed_ ^ (static_cast<std::uint64_t>(generation_) * 0x9e3779b97f4a7c15ULL);
  // Each chunk adds its own respawn count: an integer sum, exact in any
  // order.
  std::atomic<std::int64_t> respawned{0};
  const auto advance_chunk = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t chunk_respawned = 0;
    for (std::int64_t idx = begin; idx < end; ++idx) {
      Particle& p = particles_[static_cast<std::size_t>(idx)];
      p.position = step(f, p.position, dt, config_.method);
      p.age += dt;
      const bool died = p.age >= p.lifetime;
      const bool escaped =
          config_.respawn_out_of_domain && !domain_.contains(p.position);
      if (died || escaped) {
        // Per-particle deterministic stream: independent of thread count.
        util::Rng local(gen_salt ^ static_cast<std::uint64_t>(idx));
        respawn(p, local);
        ++chunk_respawned;
      }
    }
    respawned.fetch_add(chunk_respawned, std::memory_order_relaxed);
  };
  core::Runtime::global().parallel_for(n, kParticleGrain, advance_chunk);
  last_respawns_ = respawned.load(std::memory_order_relaxed);
}

double ParticleSystem::fade_weight(const Particle& p, double fade_fraction) {
  if (p.lifetime <= 0.0) return 0.0;
  const double phase = std::clamp(p.age / p.lifetime, 0.0, 1.0);
  if (fade_fraction <= 0.0) return 1.0;
  // sin^2 ramps: C1-continuous so spot intensities never pop frame to frame.
  if (phase < fade_fraction) {
    const double t = phase / fade_fraction;
    const double s = std::sin(0.5 * std::numbers::pi * t);
    return s * s;
  }
  if (phase > 1.0 - fade_fraction) {
    const double t = (1.0 - phase) / fade_fraction;
    const double s = std::sin(0.5 * std::numbers::pi * t);
    return s * s;
  }
  return 1.0;
}

void ParticleSystem::respawn(Particle& p, util::Rng& rng) const {
  p.position = {rng.uniform(domain_.x0, domain_.x1), rng.uniform(domain_.y0, domain_.y1)};
  p.intensity = rng.intensity();
  p.age = 0.0;
  p.lifetime = config_.mean_lifetime * rng.uniform(0.5, 1.5);
}

}  // namespace dcsn::particles
