// Temporal synthesis cache: decides, frame by frame, which tiles of a tiled
// DncSynthesizer must be re-rendered and which can be served from the
// previous frame's pixels.
//
// The cache snapshots the last committed frame — its spot population, a
// fingerprint of the data field, the engine and its frame serial. plan()
// diffs the new population against the snapshot (core::FrameDelta) and
// derives the dirty-tile set on the engine's render grid, which is fixed
// for the engine's lifetime; the engine then skips generation,
// rasterization and compose for clean tiles and retains their region of
// the final texture untouched. Because rasterization is
// target-independent and accumulation lattice-exact, the retained pixels
// are bit-identical to a full resynthesis (the incremental fuzz suite
// asserts exactly that).
//
// Invalidation story — plan() falls back to a full frame whenever reuse
// could be unsound:
//   * explicit invalidate(): REQUIRED whenever field contents change in
//     place — steering updates, or a time-varying dataset reloaded into
//     the same object. The automatic fingerprint below samples a dense
//     fixed grid; it makes accidental aliasing very unlikely but still
//     cannot see every localized in-place write, so the contract puts
//     in-place mutation on the caller;
//   * field fingerprint: a different field object invalidates on identity,
//     and a field whose content fingerprint (field::fingerprint_field — a
//     full FNV-1a hash over the domain, the maximum magnitude and a
//     16x16 sample grid, the same fingerprint core::TileStore keys tiles
//     by) moved invalidates automatically. The fingerprint makes the check
//     contentful — a per-frame field allocation that recycles the previous
//     frame's address cannot slip through on its identity alone (the
//     aliasing regression in tests/test_incremental.cpp pins a localized
//     edit the old 8-point probes missed) — but it is still sampled, which
//     is why in-place steering mutation additionally requires the explicit
//     invalidate();
//   * engine or serial mismatch: every synthesize() bumps a serial; if a
//     different engine is planned for, or the engine rendered any frame
//     the cache did not commit (another caller, or a failed frame), the
//     final texture's retained regions can no longer be trusted;
//   * non-tiled engines have no render grid to retain tiles on; plan()
//     always answers "full".
#pragma once

#include <span>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/frame_delta.hpp"
#include "field/fingerprint.hpp"

namespace dcsn::core {

class SynthesisCache {
 public:
  struct Decision {
    /// False: render a full frame (pass no plan to the engine).
    bool incremental = false;
    FramePlan plan;    ///< valid when incremental
    FrameDelta delta;  ///< diff vs the committed snapshot (incremental only)
  };

  /// Classifies the coming frame. `spots` is the snapshot the caller will
  /// pass to synthesize(); the cache does not retain the span.
  [[nodiscard]] Decision plan(const DncSynthesizer& engine,
                              const field::VectorField& f,
                              std::span<const SpotInstance> spots);

  /// Records a successfully synthesized frame. Call only after
  /// synthesize() returned (an exception means the frame was abandoned and
  /// must not be committed — the serial guard would catch the mistake, but
  /// don't make it).
  void commit(const DncSynthesizer& engine, const field::VectorField& f,
              std::vector<SpotInstance> spots);

  /// Drops the snapshot; the next frame renders fully. For steering
  /// applications that mutate the field in place.
  void invalidate() { valid_ = false; }

  [[nodiscard]] bool valid() const { return valid_; }

 private:
  bool valid_ = false;
  std::vector<SpotInstance> spots_;  ///< last committed population
  const DncSynthesizer* engine_ = nullptr;  ///< engine it was rendered by
  const field::VectorField* field_ = nullptr;
  /// Content fingerprint of the committed field (domain + extremes + grid
  /// samples; see field/fingerprint.hpp). plan() rejects non-finite
  /// fingerprints outright, so a NaN-poisoned field conservatively renders
  /// full frames — the same behavior the old NaN-never-equal probes had.
  field::FieldFingerprint fingerprint_{};
  std::int64_t engine_serial_ = -1;
};

}  // namespace dcsn::core
