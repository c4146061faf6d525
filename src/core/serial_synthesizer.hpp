// The all-software baseline synthesizer.
//
// This is spot noise as published in 1991 and as run before this paper made
// it interactive: generate every spot, scan-convert and blend on the CPU,
// no graphics subsystem involved. It doubles as the paper's §4 alternative
// ("if processors are sufficiently fast ... bypassing the graphics
// subsystem altogether") when run with threads > 1, where spots are
// processed into worker-private framebuffers that are summed at the end —
// valid because lattice-snapped addition commutes exactly.
//
// Every path runs through core::Runtime::parallel: the calling thread and
// up to threads - 1 workers of the shared pool (the same pool the
// divide-and-conquer engine multiplexes) claim fixed 64-spot chunks; each
// participant rasterizes into its own partial from the runtime's
// framebuffer pool. One pool serves
// every synthesis strategy in the process, and the path stays visible to
// ThreadSanitizer.
//
// It is also the reference implementation the divide-and-conquer engine is
// tested against: for the same spots both must produce the same texture
// (bit-identical — see tests/test_determinism.cpp).
#pragma once

#include <memory>

#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_params.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"

namespace dcsn::core {

struct SerialStats {
  double total_seconds = 0.0;
  // genP and genT: thread-CPU seconds summed over participants, at every
  // thread count.
  double genP_seconds = 0.0;  ///< geometry generation
  double genT_seconds = 0.0;  ///< scan conversion + blending
  std::int64_t spots = 0;
  std::int64_t vertices = 0;
  render::RasterStats raster;
};

class SerialSynthesizer {
 public:
  /// Borrows from the process-global Runtime.
  explicit SerialSynthesizer(SynthesisConfig config);
  SerialSynthesizer(SynthesisConfig config, Runtime& runtime);

  /// Renders `spots` over `f` into the internal texture and returns stats.
  /// `threads` caps the participants (at most one per hardware thread). The
  /// texture is bit-identical for every thread count, and the calling thread
  /// always participates, so progress never depends on pool availability.
  SerialStats synthesize(const field::VectorField& f,
                         std::span<const SpotInstance> spots, int threads = 1);

  [[nodiscard]] const render::Framebuffer& texture() const { return texture_; }
  [[nodiscard]] const SynthesisConfig& config() const { return config_; }
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }

  /// Intensity scale that keeps texture standard deviation roughly
  /// independent of spot count: amplitudes add in quadrature, so scale by
  /// 1/sqrt(expected spots overlapping a pixel).
  [[nodiscard]] static double natural_intensity(const SynthesisConfig& config);

 private:
  SynthesisConfig config_;
  Runtime* runtime_;
  render::Framebuffer texture_;
  std::shared_ptr<const render::SpotProfile> profile_;
};

}  // namespace dcsn::core
