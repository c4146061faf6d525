// Workloads of the end-to-end streaming benchmark.
//
// Every workload is a fixed program of spot populations: a handful of
// distinct inputs, generated from the seed before anything is timed, and
// one input sequence per client. Motion is periodic (input k repeats every
// K frames), so no particle advection or simulation step runs while the
// server is being measured, and the same seed replays the same byte, tile
// and fragment counts exactly.
//
// The wire can only name analytic fields, so all three workloads use the
// Rankine vortex on the 4x4 domain of bench_stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_params.hpp"
#include "core/spot_source.hpp"
#include "net/protocol.hpp"

namespace e2e {

inline constexpr int kClients = 4;
/// Service driver threads: 4 clients contend for 2 in-flight frames.
inline constexpr int kDrivers = 2;

struct Workload {
  dcsn::net::FieldSpec field;
  dcsn::core::SynthesisConfig synthesis;
  dcsn::core::DncConfig dnc;
  /// Submits carry the incremental flag (SynthesisCache planning).
  bool incremental = false;
  /// A frame slower than this (submit to verified frame) misses the SLO.
  double latency_limit_ms = 0.0;
  /// Distinct spot populations. Every submitted frame is one of these.
  std::vector<std::vector<dcsn::core::SpotInstance>> inputs;
  /// Per client: inputs submitted before the first timed set-up frame
  /// completes (browse_shared's priming pass; empty elsewhere).
  std::vector<std::vector<int>> priming;
  /// Per client: input index of frame f (f = 0 is the set-up frame).
  std::vector<std::vector<int>> order;
};

/// Frames per second `name` sustains on a 4-core host. Only used to turn
/// --seconds into a fixed per-client frame count, so that counts repeat
/// exactly run to run. Throws dcsn::util::Error on an unknown name.
[[nodiscard]] double nominal_fps(const std::string& name);

/// Builds workload `name` for `seed` with `frames` entries in every
/// client's order. `smoke` shrinks texture and spot counts so the whole
/// pipeline runs in seconds (the self-check). Throws dcsn::util::Error on
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     int frames, bool smoke);

}  // namespace e2e
