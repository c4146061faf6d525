// Streamline tracing: the geometric substrate of bent spots.
//
// A bent spot (de Leeuw & van Wijk '95) is a textured mesh swept along a
// streamline through the spot's position, so the spot follows the flow even
// where curvature is high. The tracer integrates with fixed *spatial* step
// length (unit-speed field) so a spot's extent is controlled in texture
// space, independent of local velocity magnitude.
#pragma once

#include <vector>

#include "field/vector_field.hpp"
#include "particles/integrators.hpp"

namespace dcsn::particles {

struct TracerConfig {
  double step_length = 1.0;           ///< arc length per step, world units
  Integrator method = Integrator::kRk4;
  double stagnation_speed = 1e-9;     ///< stop when |v| falls below this
  bool clamp_to_domain = true;        ///< stop when leaving the field domain
};

/// A traced streamline: points[k] is the position after k steps from the
/// seed; tangents[k] the unit flow direction there. `seed_index` locates the
/// seed inside `points` when tracing both directions.
struct Streamline {
  std::vector<field::Vec2> points;
  std::vector<field::Vec2> tangents;
  std::size_t seed_index = 0;

  [[nodiscard]] std::size_t size() const { return points.size(); }
};

class StreamlineTracer {
 public:
  explicit StreamlineTracer(TracerConfig config = {}) : config_(config) {}

  /// Traces `steps_forward` steps downstream and `steps_backward` upstream
  /// of `seed`; the seed itself is always included. Stops early at domain
  /// boundaries or stagnation points, so the result may be shorter than
  /// requested (never empty).
  [[nodiscard]] Streamline trace(const field::VectorField& f, field::Vec2 seed,
                                 int steps_forward, int steps_backward) const;

  /// The same trace into `out`, reusing its buffers' capacity: a caller that
  /// keeps one Streamline per thread traces without allocating. An RK4
  /// trace samples the field 4 times per step, plus once at the seed (each
  /// step's first RK stage is the velocity its stagnation check and the
  /// previous point's tangent already sampled).
  void trace(const field::VectorField& f, field::Vec2 seed, int steps_forward,
             int steps_backward, Streamline& out) const;

  [[nodiscard]] const TracerConfig& config() const { return config_; }

 private:
  TracerConfig config_;
};

}  // namespace dcsn::particles
