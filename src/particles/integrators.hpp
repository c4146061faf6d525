// Numerical integrators for particle advection (pipeline step 2).
//
// The paper advects every spot's particle a small distance per frame. Euler
// is the 1991 original's choice; RK4 is what the bent-spot streamlines need
// near high-curvature regions. All steppers take velocity from the field at
// intermediate positions, so they work with any VectorField.
#pragma once

#include "field/vector_field.hpp"

namespace dcsn::particles {

enum class Integrator { kEuler, kRk2, kRk4 };

/// The steppers below take `k1`, the velocity at `p`, from the caller: a
/// streamline tracer has it already (its stagnation check and the previous
/// point's tangent are the same sample) and saves one field sample per step.
/// Each is the same arithmetic as its self-sampling form.
[[nodiscard]] inline field::Vec2 euler_step_from(field::Vec2 p, field::Vec2 k1,
                                                 double dt) {
  return p + k1 * dt;
}

/// Midpoint rule (second order).
[[nodiscard]] inline field::Vec2 rk2_step_from(const field::VectorField& f,
                                               field::Vec2 p, field::Vec2 k1,
                                               double dt) {
  const field::Vec2 k2 = f.sample(p + k1 * (dt * 0.5));
  return p + k2 * dt;
}

/// Classic fourth-order Runge–Kutta.
[[nodiscard]] inline field::Vec2 rk4_step_from(const field::VectorField& f,
                                               field::Vec2 p, field::Vec2 k1,
                                               double dt) {
  const field::Vec2 k2 = f.sample(p + k1 * (dt * 0.5));
  const field::Vec2 k3 = f.sample(p + k2 * (dt * 0.5));
  const field::Vec2 k4 = f.sample(p + k3 * dt);
  return p + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0);
}

[[nodiscard]] inline field::Vec2 step_from(const field::VectorField& f, field::Vec2 p,
                                           field::Vec2 k1, double dt,
                                           Integrator method) {
  switch (method) {
    case Integrator::kEuler:
      return euler_step_from(p, k1, dt);
    case Integrator::kRk2:
      return rk2_step_from(f, p, k1, dt);
    case Integrator::kRk4:
      return rk4_step_from(f, p, k1, dt);
  }
  return p;  // unreachable
}

[[nodiscard]] inline field::Vec2 euler_step(const field::VectorField& f,
                                            field::Vec2 p, double dt) {
  return euler_step_from(p, f.sample(p), dt);
}

[[nodiscard]] inline field::Vec2 rk2_step(const field::VectorField& f,
                                          field::Vec2 p, double dt) {
  return rk2_step_from(f, p, f.sample(p), dt);
}

[[nodiscard]] inline field::Vec2 rk4_step(const field::VectorField& f,
                                          field::Vec2 p, double dt) {
  return rk4_step_from(f, p, f.sample(p), dt);
}

[[nodiscard]] inline field::Vec2 step(const field::VectorField& f, field::Vec2 p,
                                      double dt, Integrator method) {
  return step_from(f, p, f.sample(p), dt, method);
}

}  // namespace dcsn::particles
