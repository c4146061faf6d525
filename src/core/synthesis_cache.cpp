#include "core/synthesis_cache.hpp"

#include <utility>

#include "core/spot_geometry.hpp"

namespace dcsn::core {

SynthesisCache::Decision SynthesisCache::plan(const DncSynthesizer& engine,
                                              const field::VectorField& f,
                                              std::span<const SpotInstance> spots) {
  Decision d;
  if (!engine.dnc_config().tiled || !valid_) return d;  // nothing to retain per tile
  // Field guard: a swapped field object invalidates on identity, and a
  // field whose content fingerprint moved (domain, extremes or any grid
  // sample — raw bytes, exact) changes spot geometry everywhere. The
  // fingerprint is the same one TileStore keys tiles by, so the two caches
  // agree on what "same field" means. A non-finite fingerprint is rejected
  // outright: NaN content has stable hash bytes but no trustworthy
  // identity.
  const field::FieldFingerprint fp = field::fingerprint_field(f);
  // Engine guard: another engine, or a frame this cache did not commit
  // (another driver, or an abandoned frame) — the retained texture regions
  // are not last-committed-frame pixels any more.
  if (&f != field_ || !fp.finite || fp != fingerprint_ || &engine != engine_ ||
      engine.frame_serial() != engine_serial_) {
    valid_ = false;
    return d;
  }

  // The same mapping + conservative extent the engine's preprocessing uses,
  // so "clean" below means "identical per-tile assignment list".
  const SpotGeometryGenerator generator(engine.config(), f);
  d.delta = diff_spots(spots_, spots);
  d.plan.tile_dirty = dirty_tiles(d.delta, spots_, spots, generator.mapping(),
                                  generator.max_extent_px(), engine.tiles());
  d.incremental = true;
  return d;
}

void SynthesisCache::commit(const DncSynthesizer& engine,
                            const field::VectorField& f,
                            std::vector<SpotInstance> spots) {
  spots_ = std::move(spots);
  engine_ = &engine;
  field_ = &f;
  fingerprint_ = field::fingerprint_field(f);
  engine_serial_ = engine.frame_serial();
  valid_ = engine.dnc_config().tiled;
}

}  // namespace dcsn::core
