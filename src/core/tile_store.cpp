#include "core/tile_store.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace dcsn::core {

namespace {

std::uint64_t default_index_hash(const TileKey& key) {
  // The three content hashes are already well mixed; fold them
  // with the rectangle so same-content tiles of different regions spread
  // across shards.
  std::uint64_t h = util::fnv1a(&key.spot_hash, sizeof(key.spot_hash));
  h = util::fnv1a(&key.field_fp, sizeof(key.field_fp), h);
  h = util::fnv1a(&key.config_hash, sizeof(key.config_hash), h);
  h = util::fnv1a(&key.x0, sizeof(key.x0), h);
  h = util::fnv1a(&key.y0, sizeof(key.y0), h);
  h = util::fnv1a(&key.width, sizeof(key.width), h);
  h = util::fnv1a(&key.height, sizeof(key.height), h);
  return h;
}

/// The murmur3 64-bit finalizer: a bijection in which every input bit
/// flips each output bit with probability ~1/2.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t hash_spot_subset(std::span<const SpotInstance> spots,
                               std::span<const std::int64_t> indices) {
  // A chain h = mix64(h ^ word) over the count and then each entry's three
  // 64-bit bit patterns: a word at a time instead of FNV-1a's byte at a
  // time, and with full avalanche per word, so the key stays sensitive to
  // every bit and to the order of the entries (a collision would serve
  // another subset's pixels).
  std::uint64_t h = mix64(util::kFnv1aOffset ^ indices.size());
  for (const std::int64_t k : indices) {
    const SpotInstance& spot = spots[static_cast<std::size_t>(k)];
    h = mix64(h ^ std::bit_cast<std::uint64_t>(spot.position.x));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(spot.position.y));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(spot.intensity));
  }
  return h;
}

TileStore::TileStore(Config config) : config_(std::move(config)) {
  DCSN_CHECK(config_.shards >= 1, "tile store needs at least one shard");
  if (!config_.index_hash) config_.index_hash = default_index_hash;
  shard_budget_ = config_.max_bytes / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(&config_.index_hash));
  }
}

TileStore::Shard& TileStore::shard_of(const TileKey& key) {
  return *shards_[static_cast<std::size_t>(config_.index_hash(key) %
                                           shards_.size())];
}

const TileStore::Shard& TileStore::shard_of(const TileKey& key) const {
  return *shards_[static_cast<std::size_t>(config_.index_hash(key) %
                                           shards_.size())];
}

TileStore::Checkout TileStore::probe(const TileKey& key) {
  Shard& shard = shard_of(key);
  util::MutexLock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Checkout{};
  }
  // Refresh recency and pin under the shard lock; the pin is what keeps the
  // entry alive once the lock drops.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  it->second->pins.fetch_add(1, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Checkout{&*it->second};
}

bool TileStore::contains(const TileKey& key) const {
  const Shard& shard = shard_of(key);
  util::MutexLock lock(shard.mutex);
  return shard.index.contains(key);
}

TileStore::PublishOutcome TileStore::publish(const TileKey& key,
                                             render::Framebuffer&& pixels) {
  DCSN_CHECK(pixels.width() == key.width && pixels.height() == key.height,
             "published tile dimensions must match its key's rectangle");
  const std::uint64_t incoming = pixels.byte_size();
  PublishOutcome outcome;
  if (incoming > shard_budget_) {
    // Larger than a whole shard's budget: uncacheable, not an error — huge
    // tiles simply render uncached.
    rejects_.fetch_add(1, std::memory_order_relaxed);
    discard(std::move(pixels));
    return outcome;
  }
  Shard& shard = shard_of(key);
  std::vector<render::Framebuffer> evicted;  // recycled outside the lock
  {
    util::MutexLock lock(shard.mutex);
    if (shard.index.contains(key)) {
      // First writer wins. Entries are immutable, and bit-determinism means
      // the loser's pixels are identical anyway.
      duplicates_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Evict strictly from the LRU tail, skipping pinned entries. The
      // acquire load pairs with Checkout::reset's release decrement: once
      // it reads zero, every reader of the entry's pixels is done.
      auto victim = shard.lru.end();
      while (shard.bytes + incoming > shard_budget_ &&
             victim != shard.lru.begin()) {
        --victim;
        if (victim->pins.load(std::memory_order_acquire) != 0) continue;
        shard.bytes -= victim->pixels.byte_size();
        shard.index.erase(victim->key);
        evicted.push_back(std::move(victim->pixels));
        victim = shard.lru.erase(victim);
        ++outcome.evicted;
      }
      if (shard.bytes + incoming > shard_budget_) {
        // Only pinned entries remain in the way; never overshoot, never
        // evict a live checkout — refuse instead.
        rejects_.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.lru.emplace_front(key, std::move(pixels));
        shard.index.emplace(key, shard.lru.begin());
        shard.bytes += incoming;
        inserts_.fetch_add(1, std::memory_order_relaxed);
        outcome.inserted = true;
      }
    }
    DCSN_CHECK(shard.bytes <= shard_budget_,
               "tile store shard exceeded its byte budget");
  }
  evictions_.fetch_add(outcome.evicted, std::memory_order_relaxed);
  if (!outcome.inserted) discard(std::move(pixels));
  for (auto& fb : evicted) discard(std::move(fb));
  return outcome;
}

void TileStore::clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::vector<render::Framebuffer> dropped;
    {
      util::MutexLock lock(shard.mutex);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->pins.load(std::memory_order_acquire) != 0) {
          ++it;
          continue;
        }
        shard.bytes -= it->pixels.byte_size();
        shard.index.erase(it->key);
        dropped.push_back(std::move(it->pixels));
        it = shard.lru.erase(it);
      }
      DCSN_CHECK(shard.bytes <= shard_budget_,
                 "tile store shard exceeded its byte budget");
    }
    evictions_.fetch_add(static_cast<std::int64_t>(dropped.size()),
                         std::memory_order_relaxed);
    for (auto& fb : dropped) discard(std::move(fb));
  }
}

TileStore::Stats TileStore::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.duplicates = duplicates_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.budget_bytes = config_.max_bytes;
  for (const auto& shard_ptr : shards_) {
    util::MutexLock lock(shard_ptr->mutex);
    s.entries += static_cast<std::int64_t>(shard_ptr->lru.size());
    s.bytes += shard_ptr->bytes;
  }
  return s;
}

void TileStore::discard(render::Framebuffer&& fb) {
  if (config_.recycle != nullptr) config_.recycle->release(std::move(fb));
}

}  // namespace dcsn::core
