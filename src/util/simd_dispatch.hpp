// Runtime-dispatched explicit-SIMD kernels for the pixel hot paths.
//
// util/simd.hpp holds the portable reference kernels: plain loops whose
// vectorization is at the compiler's mercy, and which form the scalar tier.
// This layer adds hand-written AVX2 / NEON implementations of the same
// kernels plus the fused span sampler the SoA rasterizer refactor enables,
// selected once at startup from CPU feature detection (CPUID on x86-64,
// baseline NEON on aarch64) — the binary needs no -march flags and still
// runs the widest ISA the host offers. An x86-64 host without AVX2 runs the
// scalar tier, whose compiled code is SSE2 already.
//
// Determinism contract: every tier is pinned to the scalar expressions
// BIT-FOR-BIT. The contribution-lattice snap (util/simd.hpp) is the magic-
// constant round `((x + 1.5*2^23) - 1.5*2^23) * 2^-17`, three IEEE
// single-rounded operations — a vector lane performs the identical
// operations on the identical bits, so the snap vectorizes exactly. Maximum
// blending is spelled as the same `dst < s ? s : dst` comparison (NaN and
// -0.0 behaviour included; never the ISA's min/max instruction, whose NaN
// rules differ). FMA is *never* used, not even on tiers that have it: a
// fused multiply-add rounds once where the scalar expression rounds twice,
// which would break lattice exactness and with it every golden hash,
// incremental-reuse proof and delta stream. The cross-tier byte-equality
// suite (tests/test_simd.cpp, ctest -L simd) and the per-tier golden runs
// (scripts/verify.sh --simd-tiers) enforce all of this.
//
// Thread safety: the active tier is read with an atomic load and written
// only by startup init or set_active_tier() (tests/benches, between renders
// — never while workers are rasterizing). The kernel tables themselves are
// immutable statics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcsn::util::simd {

/// Implementation tiers, ordered by preference within an architecture.
enum class Tier : int {
  kScalar = 0,  ///< util/simd.hpp portable kernels (any compiler)
  kAvx2 = 1,    ///< 256-bit + gathers, detected via CPUID
  kNeon = 2,    ///< 128-bit, baseline on aarch64
};

/// Everything the fused span sampler needs: the padded bilinear table and
/// the 32.32 fixed-point walk (render::SpotProfile::RowSampler state,
/// rebased to the span start). Plain data so util/ stays independent of
/// render/ — the rasterizer builds one per rendered span.
struct SampleSpan {
  const float* table = nullptr;  ///< padded profile table, row-major
  std::size_t stride = 0;        ///< table row stride in floats (padded)
  std::int64_t fx0 = 0, fy0 = 0; ///< 32.32 texel position of fragment 0
  std::int64_t dfx = 0, dfy = 0; ///< 32.32 per-fragment step
  float weight = 0.0f;           ///< spot intensity, applied pre-quantize
};

/// One tier's kernel set. All pointers are non-null in every table.
/// Preconditions match the scalar kernels: dst/src never alias, and for the
/// sample_row kernels every fragment position in [0, n) lies inside the
/// table (the rasterizer's in-range sub-span solve guarantees it).
struct KernelTable {
  void (*add)(float* dst, const float* src, std::size_t n);
  void (*add_scaled)(float* dst, const float* src, float w, std::size_t n);
  void (*max_scaled)(float* dst, const float* src, float w, std::size_t n);
  void (*max_with)(float* dst, float v, std::size_t n);
  void (*quantize_span)(float* dst, const float* src, std::size_t n);
  /// dst[k] += quantize(weight * bilinear(fx0 + k*dfx, fy0 + k*dfy))
  void (*sample_row_add)(float* dst, const SampleSpan& span, std::size_t n);
  /// dst[k] = max(dst[k], quantize(weight * bilinear(...))), max spelled
  /// as the scalar comparison.
  void (*sample_row_max)(float* dst, const SampleSpan& span, std::size_t n);
  /// Batched sample_row_add: span i blends into dst[i][0..lens[i]).
  /// Spans of one batch MAY overlap (the rasterizer batches every triangle
  /// of a call, and a folded ribbon's triangles cover common pixels). The
  /// result is byte-identical to calling sample_row_add span by span in
  /// batch order, because each blend is a lattice-exact add (or, for _max,
  /// the comparison max) and such whole read-modify-writes commute. A tier
  /// may therefore reorder the batch or defer a span, but it must apply
  /// each span's blend as its own read-modify-write: two spans that share a
  /// pixel are never packed into one load/store block (the AVX2 tier checks
  /// a parked tail against its partner in O(1) and blends an overlapping
  /// pair singly).
  void (*sample_rows_add)(float* const* dst, const SampleSpan* spans,
                          const std::uint32_t* lens, std::size_t count);
  /// Batched sample_row_max, same contract.
  void (*sample_rows_max)(float* const* dst, const SampleSpan* spans,
                          const std::uint32_t* lens, std::size_t count);
};

/// The ambient dispatched table: best available tier, or the DCSN_SIMD
/// override (scalar|avx2|neon; unknown or unavailable values warn on
/// stderr and fall back to the detected best). First call decides.
[[nodiscard]] const KernelTable& kernels();

/// Tier behind kernels().
[[nodiscard]] Tier active_tier();

/// Re-points kernels() at another *available* tier (util::Error otherwise).
/// For tests and tier-ablation benches only; call between renders, never
/// while workers are inside the rasterizer.
void set_active_tier(Tier tier);

/// True when this host can run `tier`.
[[nodiscard]] bool tier_available(Tier tier);

/// Every tier this host can run, scalar first.
[[nodiscard]] std::vector<Tier> available_tiers();

/// A specific tier's kernels (util::Error when unavailable).
[[nodiscard]] const KernelTable& kernels_for(Tier tier);

/// "scalar" / "avx2" / "neon".
[[nodiscard]] const char* tier_name(Tier tier);

/// Parses a DCSN_SIMD-style name; returns false on unknown names.
[[nodiscard]] bool tier_from_name(std::string_view name, Tier& out);

/// Detected CPU features, e.g. "sse2 sse4.2 avx avx2 fma" — recorded in
/// bench JSON reports so perf baselines name the ISA they ran on.
[[nodiscard]] std::string cpu_flags();

}  // namespace dcsn::util::simd
