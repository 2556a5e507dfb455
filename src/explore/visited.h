// Visited-state stores for the exploration engines.
//
// Two families:
//   * VisitedSet        -- the single-threaded store (exact flat key set or
//                          double-bit Bloom filter in bitstate mode), with an
//                          optional hash seed so swarm workers can run
//                          independently seeded bitstate searches;
//   * ShardedVisitedSet -- the concurrent exact store used by the parallel
//                          engine: lock-striped over the 64-bit state hash so
//                          workers contend only when they land on the same
//                          shard. Insertion is linearizable per key, and the
//                          global count is an atomic, so max-states checks
//                          stay cheap.
//
// Exact storage is the flat open-addressing table + slab arena from
// flat_store.h (no per-key heap nodes); approx_bytes() reports the real
// table + arena footprint, which is what the memory-budget ladder consumes.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "explore/flat_store.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp::explore {

/// Single-threaded visited-state store: exact flat key set, or double-bit
/// Bloom filter in bitstate (supertrace) mode. `seed` perturbs the bitstate
/// hash functions; seed 0 reproduces the historical single-search behavior.
/// The exact set starts at its minimum and grows with the keys it holds;
/// the filter is a lazily zeroed mapping, so a short search pays only for
/// the pages its bits land on, however large the filter.
class VisitedSet {
 public:
  VisitedSet(bool bitstate, std::uint64_t bytes, std::uint64_t seed)
      : bitstate_(bitstate),
        seed_(seed),
        filter_bytes_(bitstate ? bytes : 0),
        bits_(static_cast<std::size_t>(filter_bytes_),
              ZeroBuf::Pages::Small) {
    // insert() takes its bit indices modulo the filter's size in bits
    PNP_CHECK(!bitstate || bytes > 0,
              "bitstate filter of 0 bytes: bitstate_bytes must be positive");
  }

  /// Pipelined insert for callers that can overlap the probe's cache misses
  /// with other work (exact mode only): stage() hashes the key and prefetches
  /// its first probe slot; probe_staged() later walks the (prefetched)
  /// cluster, inserting definitely-fresh keys and prefetching the arena
  /// record of a fingerprint match; confirm_staged() settles that match
  /// later still. Any number of stage() calls may be in flight; the later
  /// calls must pass the hash stage() returned. See
  /// FlatKeySet::probe_or_insert.
  std::uint64_t stage(std::span<const std::uint8_t> key) const {
    const std::uint64_t h = fast_hash64(key);
    set_.prefetch(h);
    return h;
  }

  FlatKeySet::Staged probe_staged(std::span<const std::uint8_t> key,
                                  std::uint64_t h) {
    return set_.probe_or_insert(key, h);
  }

  bool confirm_staged(std::span<const std::uint8_t> key, std::uint64_t h,
                      std::uint32_t off) {
    return set_.confirm_or_insert(key, h, off);
  }

  /// Returns true if `key` was not present before (and records it).
  bool insert(std::span<const std::uint8_t> key) {
    if (!bitstate_) return set_.insert(key, fast_hash64(key));
    const std::uint64_t nbits = filter_bytes_ * 8;
    const std::uint64_t b1 = (hash_bytes(key) ^ avalanche64(seed_)) % nbits;
    const std::uint64_t b2 = (hash_bytes2(key) + seed_ * kFnvPrime) % nbits;
    const bool seen = get_bit(b1) && get_bit(b2);
    set_bit(b1);
    set_bit(b2);
    if (!seen) ++approx_count_;
    return !seen;
  }

  std::uint64_t size() const {
    return bitstate_ ? approx_count_ : set_.size();
  }

  /// Memory footprint: the bit array in bitstate mode; probe arrays plus
  /// resident key-arena slabs for the exact set.
  std::uint64_t approx_bytes() const {
    if (bitstate_) return filter_bytes_;
    return set_.approx_bytes();
  }

  /// New key-arena slabs spill to `pool`; no-op in bitstate mode (the bit
  /// array is fixed-size, there is nothing to spill).
  void attach_spill(support::SpillPool* pool) {
    if (!bitstate_) set_.attach_spill(pool);
  }

  /// Enumerates every stored key; exact mode only (bitstate stores hashes,
  /// not keys, which is why bitstate runs cannot be checkpointed).
  template <class F>
  void for_each_key(F&& f) const {
    PNP_CHECK(!bitstate_, "bitstate visited set cannot enumerate keys");
    set_.for_each_key(f);
  }

 private:
  std::uint8_t* bits() const {
    return static_cast<std::uint8_t*>(bits_.data());
  }
  bool get_bit(std::uint64_t i) const {
    return (bits()[i >> 3] >> (i & 7)) & 1;
  }
  void set_bit(std::uint64_t i) {
    bits()[i >> 3] |= std::uint8_t(1u << (i & 7));
  }

  bool bitstate_;
  std::uint64_t seed_;
  std::uint64_t filter_bytes_;  // the bit array's size; bits_ rounds up
  ZeroBuf bits_;
  FlatKeySet set_;
  std::uint64_t approx_count_ = 0;
};

/// Concurrent exact visited set, lock-striped into 64 shards selected by the
/// top bits of the state-key hash (the bottom bits probe the shard-local
/// flat table, so the two uses stay independent). Every shard starts at the
/// flat set's minimum, so the store's footprint follows the keys it holds
/// rather than the shard count.
class ShardedVisitedSet {
 public:
  ShardedVisitedSet() : shards_(kShards) {
    for (Shard& sh : shards_)
      sh.bytes.store(sh.set.approx_bytes(), std::memory_order_relaxed);
  }

  static std::uint64_t hash_key(std::span<const std::uint8_t> key) {
    return fast_hash64(key);
  }

  /// Returns true if `key` was not present (and records it). `h` must be
  /// hash_key(key); callers always have it already for sharding.
  bool insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    Shard& sh = shards_[shard_of(h)];
    bool fresh;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      fresh = sh.set.insert(key, h);
      if (fresh)
        // Published under the shard lock but read without it: approx_bytes()
        // may see a slightly stale footprint, never a torn one.
        sh.bytes.store(sh.set.approx_bytes(), std::memory_order_relaxed);
    }
    if (fresh) count_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  std::uint64_t size() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Footprint across all shards, readable without taking any shard lock.
  std::uint64_t approx_bytes() const {
    std::uint64_t bytes = 0;
    for (const Shard& sh : shards_)
      bytes += sh.bytes.load(std::memory_order_relaxed);
    return bytes;
  }

  /// New key-arena slabs in every shard spill to `pool`. Safe to call while
  /// workers are inserting: the switch is taken under each shard lock and
  /// only affects future slab allocations.
  void attach_spill(support::SpillPool* pool) {
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.set.attach_spill(pool);
      sh.bytes.store(sh.set.approx_bytes(), std::memory_order_relaxed);
    }
  }

  /// Enumerates every stored key across all shards, taking each shard lock
  /// in turn. Callers needing a consistent snapshot must quiesce inserts
  /// first (the parallel engine's checkpoint barrier does).
  template <class F>
  void for_each_key(F&& f) const {
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.set.for_each_key(f);
    }
  }

 private:
  static constexpr std::size_t kShards = 64;

  static std::size_t shard_of(std::uint64_t h) {
    return static_cast<std::size_t>(h >> 58);  // top 6 bits
  }

  // Cache-line aligned so neighboring shard locks don't false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    FlatKeySet set;
    std::atomic<std::uint64_t> bytes{0};
  };

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace pnp::explore
