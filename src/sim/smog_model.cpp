#include "sim/smog_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/runtime.hpp"
#include "util/error.hpp"

namespace dcsn::sim {

namespace {

// Rows per chunk of the transport loop on the shared runtime pool: the
// paper's 53x55 grid is one chunk and runs inline on the caller.
constexpr std::int64_t kRowGrain = 64;

}  // namespace

SmogModel::SmogModel(SmogParams params)
    : params_(params),
      wind_(field::RegularGrid(params.nx, params.ny, params.domain)),
      concentration_{field::ScalarField(wind_.grid()), field::ScalarField(wind_.grid())},
      scratch_{field::ScalarField(wind_.grid()), field::ScalarField(wind_.grid())} {
  DCSN_CHECK(params_.pressure_systems >= 0, "pressure system count must be >= 0");
  util::Rng rng(params_.seed);
  const field::Rect& d = params_.domain;
  for (int s = 0; s < params_.pressure_systems; ++s) {
    PressureSystem sys;
    sys.position = {rng.uniform(d.x0, d.x1), rng.uniform(d.y0, d.y1)};
    const double angle = rng.uniform(0.0, 2.0 * 3.141592653589793);
    sys.drift = {std::cos(angle), std::sin(angle)};
    sys.sign = rng.uniform() < 0.5 ? 1.0 : -1.0;
    systems_.push_back(sys);
  }
  // Default emission sources: three "cities" spread over the domain.
  sources_.push_back({d.at(0.25, 0.35), 8.0});
  sources_.push_back({d.at(0.55, 0.60), 12.0});
  sources_.push_back({d.at(0.75, 0.30), 6.0});
  update_wind();
}

void SmogModel::set_source_rate(std::size_t index, double rate) {
  DCSN_CHECK(index < sources_.size(), "emission source index out of range");
  DCSN_CHECK(rate >= 0.0, "emission rate must be non-negative");
  sources_[index].rate = rate;
}

void SmogModel::update_wind() {
  // Geostrophic flow: wind circulates around pressure centers; a Gaussian
  // pressure bump of radius R gives a rotational wind peaking near R.
  wind_.fill([this](field::Vec2 p) {
    field::Vec2 v = params_.base_wind;
    for (const PressureSystem& sys : systems_) {
      const field::Vec2 r = p - sys.position;
      const double dist_sq = r.length_sq();
      const double r2 = params_.system_radius * params_.system_radius;
      // tangential speed ~ strength * (|r|/R) * exp(1/2 - |r|^2 / 2R^2),
      // normalized so the peak (at |r| = R) equals system_strength.
      const double envelope = std::exp(0.5 - 0.5 * dist_sq / r2);
      const field::Vec2 tangent = r.perp();
      v += tangent * (sys.sign * params_.system_strength * envelope /
                      params_.system_radius);
    }
    return v;
  });
}

void SmogModel::step(double dt) {
  DCSN_CHECK(dt > 0.0, "time step must be positive");
  // Move the weather: pressure systems drift and wrap around the domain.
  const field::Rect& d = params_.domain;
  for (PressureSystem& sys : systems_) {
    sys.position += sys.drift * (params_.system_speed * dt);
    if (sys.position.x < d.x0) sys.position.x += d.width();
    if (sys.position.x > d.x1) sys.position.x -= d.width();
    if (sys.position.y < d.y0) sys.position.y += d.height();
    if (sys.position.y > d.y1) sys.position.y -= d.height();
  }
  update_wind();

  // CFL-limited substepping for the explicit transport scheme.
  const field::RegularGrid& grid = wind_.grid();
  const double h = std::min(grid.dx(), grid.dy());
  const double vmax = std::max(wind_.max_magnitude(), 1e-9);
  const double dt_adv = 0.4 * h / vmax;
  const double dt_diff = params_.diffusivity > 0.0
                             ? 0.2 * h * h / params_.diffusivity
                             : dt;
  const double dt_max = std::min(dt_adv, dt_diff);
  const int substeps = std::max(1, static_cast<int>(std::ceil(dt / dt_max)));
  const double sub_dt = dt / substeps;
  for (int s = 0; s < substeps; ++s) advect_diffuse_react(sub_dt);
  time_ += dt;
}

void SmogModel::advect_diffuse_react(double dt) {
  const field::RegularGrid& grid = wind_.grid();
  const int nx = grid.nx();
  const int ny = grid.ny();
  const double dx = grid.dx();
  const double dy = grid.dy();

  for (int species = 0; species < 2; ++species) {
    const field::ScalarField& c = concentration_[static_cast<std::size_t>(species)];
    field::ScalarField& out = scratch_[static_cast<std::size_t>(species)];

    // Rows are independent: each writes only its own cells of `out`.
    core::Runtime::global().parallel_for(ny, kRowGrain, [&](int j0, int j1) {
      for (int j = j0; j < j1; ++j) {
        for (int i = 0; i < nx; ++i) {
          const field::Vec2 v = wind_.at(i, j);
          const double cc = c.at(i, j);
          const double cl = c.at(std::max(i - 1, 0), j);
          const double cr = c.at(std::min(i + 1, nx - 1), j);
          const double cd = c.at(i, std::max(j - 1, 0));
          const double cu = c.at(i, std::min(j + 1, ny - 1));

          // First-order upwind advection (stable under the CFL substepping).
          const double ddx = v.x >= 0.0 ? (cc - cl) / dx : (cr - cc) / dx;
          const double ddy = v.y >= 0.0 ? (cc - cd) / dy : (cu - cc) / dy;
          const double advection = -(v.x * ddx + v.y * ddy);

          const double laplacian =
              (cl - 2.0 * cc + cr) / (dx * dx) + (cd - 2.0 * cc + cu) / (dy * dy);

          double reaction;
          if (species == static_cast<int>(Species::kPrecursor)) {
            reaction = -(params_.photo_rate + params_.precursor_decay) * cc;
          } else {
            const double precursor =
                concentration_[static_cast<std::size_t>(Species::kPrecursor)].at(i, j);
            reaction = params_.photo_rate * precursor - params_.ozone_decay * cc;
          }

          out.at(i, j) =
              std::max(0.0, cc + dt * (advection + params_.diffusivity * laplacian +
                                       reaction));
        }
      }
    });
  }
  for (int species = 0; species < 2; ++species) {
    std::swap(concentration_[static_cast<std::size_t>(species)],
              scratch_[static_cast<std::size_t>(species)]);
  }

  // Emissions: Gaussian stamps around each source feed the precursor field.
  field::ScalarField& precursor =
      concentration_[static_cast<std::size_t>(Species::kPrecursor)];
  const double stamp_radius = 1.5 * std::max(dx, dy);
  for (const EmissionSource& src : sources_) {
    if (src.rate <= 0.0) continue;
    const field::CellCoord cc = grid.locate(src.position);
    for (int j = std::max(0, cc.j - 3); j <= std::min(ny - 1, cc.j + 3); ++j) {
      for (int i = std::max(0, cc.i - 3); i <= std::min(nx - 1, cc.i + 3); ++i) {
        const field::Vec2 p = grid.position(i, j);
        const double dist_sq = (p - src.position).length_sq();
        const double w = std::exp(-0.5 * dist_sq / (stamp_radius * stamp_radius));
        precursor.at(i, j) += dt * src.rate * w;
      }
    }
  }
}

}  // namespace dcsn::sim
