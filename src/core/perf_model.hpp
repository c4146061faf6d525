// The paper's analytic performance model (eq. 2.1 and eq. 3.2) and the
// balanced-resource-allocation advisor built on it.
//
//   T_serial(N)       = max( N*genP, N*genT )
//   T_dnc(N, nP, nG)  = max( N*genP/nP, N*genT/nG ) + c(nG)
//
// genP/genT are per-spot costs; c is the sequential gather overhead, linear
// in the number of pipes (one readback + blend per pipe) plus a fixed term.
// calibrate() fits these constants from measured FrameStats so the model
// can be validated against measurements (bench_model_vs_measured) and used
// to answer the paper's §3 question: how many processors per pipe before
// the pipe saturates?
#pragma once

#include <cstdint>

#include "core/dnc_synthesizer.hpp"

namespace dcsn::core {

struct PerfModelParams {
  double genP_per_spot = 0.0;   ///< seconds of CPU work per spot
  double genT_per_spot = 0.0;   ///< seconds of pipe work per spot
  double gather_per_pipe = 0.0; ///< seconds of sequential gather per pipe
  double fixed_overhead = 0.0;  ///< per-frame constant (barriers, dispatch)
};

class PerfModel {
 public:
  PerfModel() = default;
  explicit PerfModel(PerfModelParams params) : params_(params) {}

  /// Fits genP/genT from a measured frame (any configuration) and the
  /// gather term from the same frame's gather time.
  [[nodiscard]] static PerfModel calibrate(const FrameStats& frame, int pipes_used);

  /// eq. 2.1: single processor, single pipe, full overlap.
  [[nodiscard]] double predict_serial(std::int64_t spots) const;

  /// eq. 3.2.
  [[nodiscard]] double predict(std::int64_t spots, int processors, int pipes) const;

  /// eq. 3.2 under temporal reuse (the incremental path): only
  /// `spots_rendered` of the population regenerate — spread over all
  /// processors, since clean-tile workers steal for dirty groups — and
  /// rasterize on the `pipes - tiles_reused` dirty pipes, whose readbacks
  /// are the only surviving share of the gather term. FrameStats supplies
  /// the inputs: spots_submitted for `spots_rendered`, tiles_reused
  /// verbatim.
  [[nodiscard]] double predict_incremental(std::int64_t spots_rendered,
                                           int processors, int pipes,
                                           int tiles_reused) const;

  /// Textures/second, the unit of the paper's tables.
  [[nodiscard]] double predict_rate(std::int64_t spots, int processors,
                                    int pipes) const {
    const double t = predict(spots, processors, pipes);
    return t > 0.0 ? 1.0 / t : 0.0;
  }

  /// The processor count at which one pipe saturates: beyond this, adding
  /// processors to the group cannot help (paper §5.1: "approximately 4").
  [[nodiscard]] double processors_per_pipe_balance() const;

  /// Combined per-spot cost estimate (CPU shape calculation + pipe raster):
  /// converts spot counts to seconds for advisors and benches.
  [[nodiscard]] double per_spot_seconds() const {
    return params_.genP_per_spot + params_.genT_per_spot;
  }

  [[nodiscard]] const PerfModelParams& params() const { return params_; }

 private:
  PerfModelParams params_;
};

/// Exhaustive search over machine configurations using the model.
struct AllocationChoice {
  int processors = 1;
  int pipes = 1;
  double predicted_seconds = 0.0;
};

/// Best (processors, pipes) for the workload within the machine limits.
[[nodiscard]] AllocationChoice best_allocation(const PerfModel& model,
                                               std::int64_t spots, int max_processors,
                                               int max_pipes);

}  // namespace dcsn::core
