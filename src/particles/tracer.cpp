#include "particles/tracer.hpp"

#include <algorithm>

namespace dcsn::particles {

namespace {

// Unit-speed wrapper: integrating this field advances by arc length, not
// time, giving streamline points evenly spaced along the curve.
class UnitSpeedField final : public field::VectorField {
 public:
  UnitSpeedField(const field::VectorField& base, double direction,
                 double stagnation_speed)
      : base_(base), direction_(direction), stagnation_(stagnation_speed) {}

  [[nodiscard]] field::Vec2 sample(field::Vec2 p) const override {
    const field::Vec2 v = base_.sample(p);
    const double len = v.length();
    if (len < stagnation_) return {};
    return v * (direction_ / len);
  }

  [[nodiscard]] field::Rect domain() const override { return base_.domain(); }
  [[nodiscard]] double max_magnitude() const override { return 1.0; }

 private:
  const field::VectorField& base_;
  double direction_;
  double stagnation_;
};

}  // namespace

Streamline StreamlineTracer::trace(const field::VectorField& f, field::Vec2 seed,
                                   int steps_forward, int steps_backward) const {
  Streamline line;
  trace(f, seed, steps_forward, steps_backward, line);
  return line;
}

void StreamlineTracer::trace(const field::VectorField& f, field::Vec2 seed,
                             int steps_forward, int steps_backward,
                             Streamline& out) const {
  const field::Rect domain = f.domain();
  out.points.clear();
  out.tangents.clear();
  const auto capacity = static_cast<std::size_t>(std::max(steps_forward, 0)) +
                        static_cast<std::size_t>(std::max(steps_backward, 0)) + 1;
  out.points.reserve(capacity);
  out.tangents.reserve(capacity);

  // `v` is the unit march velocity at the current point: the stagnation
  // check, the step's first RK stage, and — once the step lands — the new
  // point's tangent, sampled once.
  auto march = [&](double direction, int steps, field::Vec2 v) {
    const UnitSpeedField unit(f, direction, config_.stagnation_speed);
    field::Vec2 p = seed;
    for (int k = 0; k < steps; ++k) {
      if (v.length_sq() == 0.0) break;  // stagnation
      const field::Vec2 next =
          step_from(unit, p, v, config_.step_length, config_.method);
      if (config_.clamp_to_domain && !domain.contains(next)) break;
      if ((next - p).length_sq() == 0.0) break;  // no progress
      p = next;
      v = unit.sample(p);
      out.points.push_back(p);
      out.tangents.push_back(v * direction);  // flow direction, not march direction
    }
  };

  // One sample at the seed serves both marches' first velocity (what
  // UnitSpeedField::sample would return there) and the seed's tangent.
  const field::Vec2 at_seed = f.sample(seed);
  const double len = at_seed.length();
  const auto unit_at_seed = [&](double direction) {
    return len < config_.stagnation_speed ? field::Vec2{} : at_seed * (direction / len);
  };

  // Upstream points come out seed-first; reverse so the polyline runs
  // upstream -> seed -> downstream.
  march(-1.0, steps_backward, unit_at_seed(-1.0));
  std::reverse(out.points.begin(), out.points.end());
  std::reverse(out.tangents.begin(), out.tangents.end());

  out.seed_index = out.points.size();
  out.points.push_back(seed);
  out.tangents.push_back(len >= config_.stagnation_speed ? at_seed / len
                                                         : field::Vec2{1.0, 0.0});
  march(+1.0, steps_forward, unit_at_seed(+1.0));
}

}  // namespace dcsn::particles
