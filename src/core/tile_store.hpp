// Process-wide content-addressed tile cache: the cross-session memoization
// layer over the divide-and-conquer decomposition.
//
// PR 4 made every tile's pixels a *pure function* of three inputs — the
// spot subset assigned to the tile, the data field's content, and the
// raster configuration: rasterization is target-independent and
// accumulation is snapped to the contribution lattice, so the same inputs
// produce the same bits on any pipe, any worker interleaving, any session.
// That purity is what makes a shared cache sound: a tile rendered by one
// session IS the tile any other session would render for the same key, bit
// for bit. The TileStore exploits it — N sessions browsing the same dataset
// rasterize each tile once, not N times (the ROADMAP's millions-of-users
// direction; in the paper's terms, the divide step's independent work units
// become *reusable* work units).
//
//   TileKey      = hash(spot subset) + field fingerprint + hash(raster
//                  config) + the tile's pixel rectangle. Collision safety
//                  does not rest on the hashes alone: entries store the full
//                  key and every lookup compares it, so even a forced index
//                  collision (see Config::index_hash, the test seam) can
//                  only miss, never serve a wrong tile. What the hashes must
//                  guarantee is only that *distinct content rarely collides
//                  on all three 64-bit components at once* — the same
//                  accidental-collision standard the golden-frame suite
//                  already accepts for frame identity.
//   probe(key)   → refcounted Checkout (pin) on hit; the pinned pixels are
//                  immutable and safe to compose from without copying while
//                  the Checkout lives. Eviction never touches pinned
//                  entries.
//   publish(key, pixels) → moves a rendered tile in (no copy; the engine
//                  hands over its readback buffer). First writer wins;
//                  a duplicate, an over-budget reject, or an eviction sends
//                  the buffer to the configured FramebufferPool instead of
//                  the allocator.
//
// Bounded memory: the store is sharded (key-hash modulo) and each shard
// runs strict LRU under max_bytes / shards. The global invariant
// `stats().bytes <= max_bytes` holds at every instant — publish evicts
// unpinned tail entries first and *rejects* the insert when pinned entries
// leave no room, rather than ever overshooting. Counters (hits, misses,
// inserts, duplicates, evictions, rejects, live bytes/entries) feed
// FrameStats and the bench_tile_cache gate.
//
// Threading: one mutex per shard; probes of different shards never contend.
// Checkout release is lock-free (an atomic pin decrement). The store must
// outlive every Checkout taken from it — in practice it lives on the
// core::Runtime, which outlives every borrowing session.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/spot_source.hpp"
#include "render/framebuffer.hpp"
#include "render/framebuffer_pool.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::core {

/// Content identity of one cached tile. Hash components identify the
/// inputs; the rectangle identifies which region of the texture the pixels
/// are (two tiles with identical inputs but different rects are different
/// entries — target independence makes their pixels equal only when the
/// rects match the rasterized regions).
struct TileKey {
  std::uint64_t spot_hash = 0;    ///< hash_spot_subset of the assigned spots
  std::uint64_t field_fp = 0;     ///< field::FieldFingerprint::hash
  std::uint64_t config_hash = 0;  ///< pixel-affecting raster config
  int x0 = 0;
  int y0 = 0;
  int width = 0;
  int height = 0;

  bool operator==(const TileKey&) const = default;
};

/// Hashes the spot subset `indices` of `spots` (the 64-bit patterns of each
/// position and intensity, in list order — ascending index order from the
/// tile assignment, exactly the order-independent identity the lattice
/// makes sufficient). Sensitive to every bit and to entry order. Seeded
/// with the subset size so a prefix subset never aliases its extension.
[[nodiscard]] std::uint64_t hash_spot_subset(
    std::span<const SpotInstance> spots, std::span<const std::int64_t> indices);

class TileStore {
 public:
  struct Config {
    /// Global byte budget across all shards (pixel payload only).
    std::size_t max_bytes = 256u << 20;
    /// Lock shards; each runs its own LRU under max_bytes / shards.
    std::size_t shards = 8;
    /// Evicted / rejected / duplicate buffers are recycled here instead of
    /// freed (nullptr: just freed).
    render::FramebufferPool* recycle = nullptr;
    /// TEST SEAM: overrides the key -> bucket-index hash. Lookups always
    /// compare full keys, so a degenerate hash (e.g. constant) degrades
    /// performance but can never cause a stale or wrong tile to be served —
    /// tests/test_tile_store.cpp proves exactly that.
    std::function<std::uint64_t(const TileKey&)> index_hash{};
  };

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t duplicates = 0;  ///< publishes that lost the first-writer race
    std::int64_t evictions = 0;
    std::int64_t rejects = 0;  ///< publishes refused (over budget / pinned full)
    std::int64_t entries = 0;
    std::uint64_t bytes = 0;         ///< live pixel bytes, <= budget_bytes always
    std::uint64_t budget_bytes = 0;  ///< Config::max_bytes
  };

  struct PublishOutcome {
    bool inserted = false;
    std::int64_t evicted = 0;  ///< entries evicted to make room
  };

 private:
  struct Entry {
    Entry(const TileKey& k, render::Framebuffer&& fb)
        : key(k), pixels(std::move(fb)) {}
    TileKey key;
    render::Framebuffer pixels;
    std::atomic<int> pins{0};
  };

 public:
  /// Pinned, immutable view of a cached tile. While alive, the entry cannot
  /// be evicted; pixels() is safe to read from any thread. Release is
  /// lock-free. The owning TileStore must outlive the Checkout.
  class Checkout {
   public:
    Checkout() = default;
    Checkout(Checkout&& other) noexcept
        : entry_(std::exchange(other.entry_, nullptr)) {}
    Checkout& operator=(Checkout&& other) noexcept {
      if (this != &other) {
        reset();
        entry_ = std::exchange(other.entry_, nullptr);
      }
      return *this;
    }
    Checkout(const Checkout&) = delete;
    Checkout& operator=(const Checkout&) = delete;
    ~Checkout() { reset(); }

    [[nodiscard]] const render::Framebuffer& pixels() const {
      return entry_->pixels;
    }
    explicit operator bool() const { return entry_ != nullptr; }

    /// Unpins early (idempotent). The release store pairs with the
    /// evictor's acquire load: reads of pixels() happen-before any
    /// destruction of the entry.
    void reset() {
      if (entry_ != nullptr) {
        entry_->pins.fetch_sub(1, std::memory_order_release);
        entry_ = nullptr;
      }
    }

   private:
    friend class TileStore;
    explicit Checkout(Entry* entry) : entry_(entry) {}
    Entry* entry_ = nullptr;
  };

  // (A default *argument* would need Config's member initializers before
  // the enclosing class is complete; a delegating constructor does not.)
  TileStore() : TileStore(Config{}) {}
  explicit TileStore(Config config);

  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  /// Looks `key` up: on a hit, pins the entry, refreshes its LRU position
  /// and returns a Checkout; on a miss returns an empty Checkout. Counts
  /// hits/misses.
  [[nodiscard]] Checkout probe(const TileKey& key);

  /// Pure lookup: no pin, no LRU refresh, no counter traffic. For "is it
  /// worth extracting this tile" decisions.
  [[nodiscard]] bool contains(const TileKey& key) const;

  /// Inserts a rendered tile, consuming `pixels` either way: kept on
  /// insert, recycled (or freed) on duplicate/reject. Evicts unpinned LRU
  /// entries of the shard as needed; never exceeds the byte budget and
  /// never evicts a pinned entry — when pinned entries leave no room the
  /// publish is rejected instead. `pixels` dimensions must equal the key's
  /// rectangle.
  PublishOutcome publish(const TileKey& key, render::Framebuffer&& pixels);

  /// Drops every unpinned entry (tests and bench phase resets). Pinned
  /// entries stay; their bytes remain accounted.
  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  struct KeyIndexHash {
    const std::function<std::uint64_t(const TileKey&)>* fn;
    std::size_t operator()(const TileKey& key) const {
      return static_cast<std::size_t>((*fn)(key));
    }
  };

  struct Shard {
    mutable util::Mutex mutex;
    /// Front = most recently used. std::list: stable Entry addresses (pins
    /// are referenced lock-free by Checkouts) and O(1) LRU splice.
    std::list<Entry> lru DCSN_GUARDED_BY(mutex);
    std::unordered_map<TileKey, std::list<Entry>::iterator, KeyIndexHash>
        index DCSN_GUARDED_BY(mutex);
    std::uint64_t bytes DCSN_GUARDED_BY(mutex) = 0;

    explicit Shard(const std::function<std::uint64_t(const TileKey&)>* fn)
        : index(16, KeyIndexHash{fn}) {}
  };

  [[nodiscard]] Shard& shard_of(const TileKey& key);
  [[nodiscard]] const Shard& shard_of(const TileKey& key) const;
  /// Consumes `fb` into the recycle pool (or frees it).
  void discard(render::Framebuffer&& fb);

  Config config_;
  std::uint64_t shard_budget_ = 0;  ///< max_bytes / shards
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> inserts_{0};
  std::atomic<std::int64_t> duplicates_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> rejects_{0};
};

}  // namespace dcsn::core
