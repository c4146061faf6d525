// Content-addressed tile store: unit + torture coverage.
//
// The store's contract has four load-bearing clauses, each pinned here:
//
//   * correctness — a probe hit returns pixels bit-identical to what was
//     published under that key, and (at engine level) a cache-served tile
//     is bit-identical to fresh rasterization;
//   * bounded memory — stats().bytes <= budget at every instant, under
//     random budgets, random tile sizes and constant eviction pressure;
//   * pin safety — an entry with a live Checkout is never evicted and its
//     pixels stay readable (and correct) while the pin is held;
//   * collision safety — the index hash is a performance hint, not a
//     correctness input: even a constant hash (injected through the
//     Config::index_hash test seam) can only cause misses, never serve a
//     stale or wrong tile, because every lookup compares the full key.
//
// The concurrent hammer runs under TSan in scripts/verify.sh --tsan
// (ctest label: cache).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "core/spot_source.hpp"
#include "core/tile_store.hpp"
#include "field/analytic.hpp"
#include "field/fingerprint.hpp"
#include "render/framebuffer_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using core::TileKey;
using core::TileStore;

// Deterministic per-key pixel pattern: lets any test verify that the pixels
// a probe returns belong to the key it asked for, not to some other entry.
float pattern_at(std::uint64_t id, std::size_t i) {
  const std::uint64_t v = (id * 2654435761ULL + i * 97ULL) % 1000ULL;
  return static_cast<float>(v) / 1000.0f - 0.5f;
}

render::Framebuffer make_tile(int width, int height, std::uint64_t id) {
  render::Framebuffer fb(width, height);
  std::size_t i = 0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) fb.at(x, y) = pattern_at(id, i++);
  }
  return fb;
}

bool matches_pattern(const render::Framebuffer& fb, std::uint64_t id) {
  std::size_t i = 0;
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      if (fb.at(x, y) != pattern_at(id, i++)) return false;
    }
  }
  return true;
}

TileKey key_of(std::uint64_t id, int width = 16, int height = 16) {
  // Distinct content hashes per id; the rect encodes the dimensions so a
  // published buffer always matches its key.
  return TileKey{id * 1000003ULL + 1, id * 7919ULL + 2, 3, 0, 0, width, height};
}

std::size_t tile_bytes(int width, int height) {
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
         sizeof(float);
}

// ------------------------------------------------------------ unit basics ---

TEST(TileStore, PublishThenProbeReturnsBitIdenticalPixels) {
  TileStore store({.max_bytes = 1 << 20, .shards = 4});
  const TileKey key = key_of(1);
  EXPECT_FALSE(store.probe(key));  // cold miss

  ASSERT_TRUE(store.publish(key, make_tile(16, 16, 1)).inserted);
  TileStore::Checkout hit = store.probe(key);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.pixels(), make_tile(16, 16, 1));

  const TileStore::Stats s = store.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, tile_bytes(16, 16));
}

TEST(TileStore, FirstWriterWinsOnDuplicatePublish) {
  TileStore store({.max_bytes = 1 << 20, .shards = 1});
  const TileKey key = key_of(2);
  ASSERT_TRUE(store.publish(key, make_tile(16, 16, 2)).inserted);
  // Bit-determinism means a real duplicate carries identical pixels; use a
  // different pattern here precisely to observe which writer won.
  EXPECT_FALSE(store.publish(key, make_tile(16, 16, 99)).inserted);
  const TileStore::Checkout hit = store.probe(key);
  ASSERT_TRUE(hit);
  EXPECT_TRUE(matches_pattern(hit.pixels(), 2));
  EXPECT_EQ(store.stats().duplicates, 1);
  EXPECT_EQ(store.stats().entries, 1);
}

TEST(TileStore, PublishDimensionMismatchIsAnError) {
  TileStore store({.max_bytes = 1 << 20, .shards = 1});
  EXPECT_THROW((void)store.publish(key_of(3, 16, 16), make_tile(8, 8, 3)),
               util::Error);
}

TEST(TileStore, OversizedTileIsRejectedNotInserted) {
  // 2 KiB budget over 2 shards: a 16x16 float tile (1 KiB) exceeds the
  // 1 KiB shard budget by nothing — use 32x32 (4 KiB) to exceed it.
  TileStore store({.max_bytes = 2048, .shards = 2});
  const TileKey key = key_of(4, 32, 32);
  EXPECT_FALSE(store.publish(key, make_tile(32, 32, 4)).inserted);
  EXPECT_EQ(store.stats().rejects, 1);
  EXPECT_EQ(store.stats().entries, 0);
  EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(TileStore, RejectedAndEvictedBuffersRecycleIntoThePool) {
  render::FramebufferPool pool(8);
  TileStore store({.max_bytes = tile_bytes(16, 16), .shards = 1, .recycle = &pool});
  ASSERT_TRUE(store.publish(key_of(5), make_tile(16, 16, 5)).inserted);
  // Duplicate: the loser's buffer lands in the pool.
  (void)store.publish(key_of(5), make_tile(16, 16, 5));
  EXPECT_EQ(pool.idle_count(), 1u);
  // Eviction: key 6 displaces key 5, whose buffer lands in the pool too.
  EXPECT_EQ(store.publish(key_of(6), make_tile(16, 16, 6)).evicted, 1);
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(TileStore, LruEvictsOldestUnpinnedFirst) {
  // Budget: exactly three 16x16 tiles in one shard.
  TileStore store({.max_bytes = 3 * tile_bytes(16, 16), .shards = 1});
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(store.publish(key_of(id), make_tile(16, 16, id)).inserted);
  }
  // Touch 1 so 2 becomes LRU.
  { const auto pin = store.probe(key_of(1)); ASSERT_TRUE(pin); }
  const auto outcome = store.publish(key_of(4), make_tile(16, 16, 4));
  ASSERT_TRUE(outcome.inserted);
  EXPECT_EQ(outcome.evicted, 1);
  EXPECT_TRUE(store.contains(key_of(1)));
  EXPECT_FALSE(store.contains(key_of(2)));  // the LRU victim
  EXPECT_TRUE(store.contains(key_of(3)));
  EXPECT_TRUE(store.contains(key_of(4)));
}

TEST(TileStore, PinnedEntriesSurviveEvictionPressure) {
  TileStore store({.max_bytes = 2 * tile_bytes(16, 16), .shards = 1});
  ASSERT_TRUE(store.publish(key_of(1), make_tile(16, 16, 1)).inserted);
  const TileStore::Checkout pin = store.probe(key_of(1));
  ASSERT_TRUE(pin);
  // Publish far more than the budget holds; key 1 is pinned throughout.
  for (std::uint64_t id = 2; id <= 12; ++id) {
    (void)store.publish(key_of(id), make_tile(16, 16, id));
    EXPECT_LE(store.stats().bytes, store.stats().budget_bytes);
  }
  EXPECT_TRUE(store.contains(key_of(1)));
  EXPECT_TRUE(matches_pattern(pin.pixels(), 1));  // still readable, still right
}

TEST(TileStore, AllPinnedShardRejectsInsteadOfOvershooting) {
  TileStore store({.max_bytes = 2 * tile_bytes(16, 16), .shards = 1});
  ASSERT_TRUE(store.publish(key_of(1), make_tile(16, 16, 1)).inserted);
  ASSERT_TRUE(store.publish(key_of(2), make_tile(16, 16, 2)).inserted);
  const auto pin1 = store.probe(key_of(1));
  const auto pin2 = store.probe(key_of(2));
  ASSERT_TRUE(pin1);
  ASSERT_TRUE(pin2);
  const auto outcome = store.publish(key_of(3), make_tile(16, 16, 3));
  EXPECT_FALSE(outcome.inserted);
  EXPECT_EQ(outcome.evicted, 0);
  EXPECT_LE(store.stats().bytes, store.stats().budget_bytes);
  EXPECT_EQ(store.stats().rejects, 1);
}

TEST(TileStore, ClearDropsUnpinnedKeepsPinned) {
  TileStore store({.max_bytes = 1 << 20, .shards = 2});
  ASSERT_TRUE(store.publish(key_of(1), make_tile(16, 16, 1)).inserted);
  ASSERT_TRUE(store.publish(key_of(2), make_tile(16, 16, 2)).inserted);
  const auto pin = store.probe(key_of(1));
  store.clear();
  EXPECT_TRUE(store.contains(key_of(1)));
  EXPECT_FALSE(store.contains(key_of(2)));
  EXPECT_TRUE(matches_pattern(pin.pixels(), 1));
}

// ------------------------------------------------------- collision seam ---

TEST(TileStore, ConstantIndexHashNeverServesTheWrongTile) {
  // Force every key into one bucket chain: full-key comparison is now the
  // only thing between a lookup and a stale answer.
  TileStore store({.max_bytes = 1 << 20,
                   .shards = 1,
                   .index_hash = [](const TileKey&) { return 7ULL; }});
  for (std::uint64_t id = 1; id <= 16; ++id) {
    ASSERT_TRUE(store.publish(key_of(id), make_tile(16, 16, id)).inserted);
  }
  for (std::uint64_t id = 1; id <= 16; ++id) {
    const auto hit = store.probe(key_of(id));
    ASSERT_TRUE(hit) << "id " << id;
    EXPECT_TRUE(matches_pattern(hit.pixels(), id)) << "id " << id;
  }
  EXPECT_FALSE(store.probe(key_of(99)));  // absent key: a miss, not an alias
}

TEST(TileStore, CollidingKeysStayDistinctAcrossEviction) {
  // Two colliding keys under a one-tile budget: publishing B evicts A, and
  // a probe for A must then miss — never return B's pixels.
  TileStore store({.max_bytes = tile_bytes(16, 16),
                   .shards = 1,
                   .index_hash = [](const TileKey&) { return 7ULL; }});
  ASSERT_TRUE(store.publish(key_of(1), make_tile(16, 16, 1)).inserted);
  const auto outcome = store.publish(key_of(2), make_tile(16, 16, 2));
  ASSERT_TRUE(outcome.inserted);
  EXPECT_EQ(outcome.evicted, 1);
  EXPECT_FALSE(store.probe(key_of(1)));
  const auto hit = store.probe(key_of(2));
  ASSERT_TRUE(hit);
  EXPECT_TRUE(matches_pattern(hit.pixels(), 2));
}

// ------------------------------------------------- eviction-pressure fuzz ---

TEST(TileStore, EvictionFuzzHoldsByteAndPinInvariants) {
  util::Rng rng(20260807);
  for (int round = 0; round < 12; ++round) {
    const std::size_t shards = 1 + static_cast<std::size_t>(rng.uniform() * 4);
    // Budgets from pathologically tiny (evicts every publish) to roomy.
    const std::size_t budget =
        512 + static_cast<std::size_t>(rng.uniform() * 64 * 1024);
    TileStore store({.max_bytes = budget, .shards = shards});
    std::deque<std::pair<std::uint64_t, TileStore::Checkout>> pinned;

    for (int op = 0; op < 300; ++op) {
      const std::uint64_t id = 1 + static_cast<std::uint64_t>(rng.uniform() * 40);
      const int size = 4 << static_cast<int>(rng.uniform() * 4);  // 4..32 px
      const TileKey key = key_of(id, size, size);
      const double dice = rng.uniform();
      if (dice < 0.5) {
        (void)store.publish(key, make_tile(size, size, id));
      } else if (dice < 0.85) {
        TileStore::Checkout hit = store.probe(key);
        if (hit) {
          // A hit must be the exact pixels published under this key.
          ASSERT_TRUE(matches_pattern(hit.pixels(), id));
          if (rng.uniform() < 0.5 && pinned.size() < 8) {
            pinned.emplace_back(id, std::move(hit));
          }
        }
      } else if (!pinned.empty()) {
        pinned.pop_front();  // release the oldest pin
      }
      // THE invariant: never over budget, no matter the op mix.
      ASSERT_LE(store.stats().bytes, budget);
      // Live pins stay resident and correct under any pressure.
      for (const auto& [pid, pin] : pinned) {
        ASSERT_TRUE(matches_pattern(pin.pixels(), pid));
      }
    }
    EXPECT_LE(store.stats().bytes, budget);
  }
}

// ---------------------------------------------------- concurrent hammer ---

TEST(TileStore, ConcurrentHammerIsRaceFreeAndNeverServesWrongPixels) {
  // K threads publish/probe/release a small shared key space under an
  // eviction-heavy budget. TSan (scripts/verify.sh --tsan) is the real
  // assertion; the pattern checks additionally prove no cross-key serving.
  TileStore store({.max_bytes = 8 * tile_bytes(16, 16), .shards = 4});
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 24;
  std::vector<std::jthread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      std::deque<std::pair<std::uint64_t, TileStore::Checkout>> pins;
      for (int op = 0; op < 2000; ++op) {
        const std::uint64_t id =
            1 + static_cast<std::uint64_t>(rng.uniform() * kKeys);
        if (rng.uniform() < 0.4) {
          (void)store.publish(key_of(id), make_tile(16, 16, id));
        } else {
          TileStore::Checkout hit = store.probe(key_of(id));
          if (hit) {
            if (!matches_pattern(hit.pixels(), id)) {
              ADD_FAILURE() << "wrong pixels served for key " << id;
              return;
            }
            if (pins.size() < 4 && rng.uniform() < 0.3) {
              pins.emplace_back(id, std::move(hit));
            }
          }
        }
        if (pins.size() > 2 || (rng.uniform() < 0.2 && !pins.empty())) {
          pins.pop_front();
        }
      }
    });
  }
  threads.clear();  // join
  const TileStore::Stats s = store.stats();
  EXPECT_GT(s.hits, 0);
  EXPECT_GT(s.misses, 0);
  EXPECT_GT(s.evictions, 0);
  EXPECT_LE(s.bytes, s.budget_bytes);
}

// ------------------------------------------------ key-derivation helpers ---

TEST(TileStore, SpotSubsetHashDistinguishesSubsetsAndCounts) {
  util::Rng rng(9);
  const auto spots = core::make_random_spots({0.0, 0.0, 4.0, 4.0}, 20, rng);
  const std::vector<std::int64_t> a{0, 1, 2};
  const std::vector<std::int64_t> b{0, 1, 3};  // different member
  const std::vector<std::int64_t> prefix{0, 1};
  EXPECT_EQ(core::hash_spot_subset(spots, a), core::hash_spot_subset(spots, a));
  EXPECT_NE(core::hash_spot_subset(spots, a), core::hash_spot_subset(spots, b));
  EXPECT_NE(core::hash_spot_subset(spots, a),
            core::hash_spot_subset(spots, prefix));
  EXPECT_NE(core::hash_spot_subset(spots, {}),
            core::hash_spot_subset(spots, prefix));

  // One flipped bit in any field of any entry changes the key: low
  // mantissa, high mantissa, exponent and sign bits of x, y and intensity.
  const std::uint64_t base = core::hash_spot_subset(spots, a);
  const auto flipped = [](double v, int bit) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ (std::uint64_t{1} << bit));
  };
  for (const std::int64_t entry : a) {
    for (const int bit : {0, 1, 31, 51, 52, 62, 63}) {
      for (int field = 0; field < 3; ++field) {
        auto mutated = spots;
        core::SpotInstance& s = mutated[static_cast<std::size_t>(entry)];
        double& v = field == 0 ? s.position.x : field == 1 ? s.position.y : s.intensity;
        v = flipped(v, bit);
        EXPECT_NE(core::hash_spot_subset(mutated, a), base)
            << "entry " << entry << ", field " << field << ", bit " << bit;
      }
    }
  }
  // Swapping two entries of the list changes the key too.
  const std::vector<std::int64_t> swapped{0, 2, 1};
  EXPECT_NE(core::hash_spot_subset(spots, swapped), base);
}

TEST(TileStore, FieldFingerprintSeparatesContentAndFlagsNaN) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto a = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  const auto b = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  const auto c = field::analytic::rankine_vortex({2.0, 2.1}, 1.5, 1.0, domain);
  const field::FieldFingerprint fa = field::fingerprint_field(*a);
  EXPECT_TRUE(fa.finite);
  EXPECT_EQ(fa, field::fingerprint_field(*b));  // same content, any object
  EXPECT_NE(fa.hash, field::fingerprint_field(*c).hash);

  const field::CallableField poisoned(
      [](field::Vec2) -> field::Vec2 { return {std::nan(""), 0.0}; }, domain,
      1.0);
  EXPECT_FALSE(field::fingerprint_field(poisoned).finite);
}

// ------------------------------------------- engine-level bit equality ---

TEST(TileStore, CachedEngineFrameIsBitIdenticalToFreshRasterization) {
  // A private runtime = a private store: frame 1 publishes every tile,
  // frame 2 serves every tile from the store — and both must equal an
  // uncached engine's output bit for bit.
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto field = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  core::SynthesisConfig sc;
  sc.texture_width = 128;  // a 2x2 render grid
  sc.texture_height = 128;
  sc.spot_count = 200;
  sc.spot_radius_px = 5.0;
  sc.kind = core::SpotKind::kEllipse;
  util::Rng rng(77);
  auto spots = core::make_random_spots(domain, sc.spot_count, rng);
  for (auto& s : spots) s.intensity *= 0.2;

  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.tiled = true;
  core::DncSynthesizer uncached(sc, dnc);
  uncached.synthesize(*field, spots);
  ASSERT_EQ(uncached.tiles().size(), 4u);

  core::Runtime runtime({.workers = 2});
  dnc.tile_cache = true;
  core::DncSynthesizer first(sc, dnc, runtime);
  const core::FrameStats cold = first.synthesize(*field, spots);
  EXPECT_EQ(cold.cache_tile_hits, 0);
  EXPECT_EQ(cold.cache_tile_misses, 4);
  EXPECT_EQ(cold.cache_tiles_published, 4);
  EXPECT_EQ(first.texture(), uncached.texture());

  core::DncSynthesizer second(sc, dnc, runtime);
  const core::FrameStats warm = second.synthesize(*field, spots);
  EXPECT_EQ(warm.cache_tile_hits, 4);
  EXPECT_EQ(warm.cache_tile_misses, 0);
  EXPECT_EQ(warm.spots_submitted, 0);  // nothing generated or rasterized
  EXPECT_EQ(second.texture(), uncached.texture());
  EXPECT_EQ(runtime.tile_store().stats().hits, 4);
}

TEST(TileStore, NonFiniteFieldBypassesTheStore) {
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const field::CallableField poisoned(
      [](field::Vec2) -> field::Vec2 { return {std::nan(""), 0.0}; }, domain,
      1.0);
  core::SynthesisConfig sc;
  sc.texture_width = 32;
  sc.texture_height = 32;
  sc.spot_count = 10;
  sc.kind = core::SpotKind::kPoint;
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  dnc.tiled = true;
  dnc.tile_cache = true;
  core::Runtime runtime({.workers = 1});
  core::DncSynthesizer engine(sc, dnc, runtime);
  util::Rng rng(3);
  const auto spots = core::make_random_spots(domain, sc.spot_count, rng);
  const core::FrameStats stats = engine.synthesize(poisoned, spots);
  EXPECT_EQ(stats.cache_tile_hits, 0);
  EXPECT_EQ(stats.cache_tile_misses, 0);
  EXPECT_EQ(stats.cache_tiles_published, 0);
  EXPECT_EQ(runtime.tile_store().stats().entries, 0);
}

}  // namespace
