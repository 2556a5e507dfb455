// Hashing utilities for state vectors.
//
// The explorer dedupes millions of small byte strings; we use a 64-bit
// FNV-1a with an avalanche finalizer, which is plenty for closed-set
// hashing and has no external dependencies. A second independent hash is
// provided for the double-bit bitstate (supertrace) mode.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

namespace pnp {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t avalanche64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Views character data (state keys are built in std::string buffers) as the
/// byte span the hashing and visited-store APIs consume.
inline std::span<const std::uint8_t> byte_span(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

inline std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes,
                                std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return avalanche64(h);
}

/// Independent second hash for Bloom-style bitstate storage.
inline std::uint64_t hash_bytes2(std::span<const std::uint8_t> bytes) {
  return hash_bytes(bytes, 0x9e3779b97f4a7c15ull);
}

/// Word-at-a-time hash for IN-MEMORY tables only (visited-state store,
/// COLLAPSE component interning). FNV-1a's byte-serial multiply chain costs
/// ~4 cycles per byte; state keys are hashed tens of millions of times per
/// run, which made hashing itself show up in exploration profiles. This
/// reads 8-byte words (memcpy, so alignment-safe) and is several times
/// faster on the 20-60 byte inputs the stores see. It is NOT byte-order
/// stable across platforms: anything persisted (verdict cache keys, AOT
/// artifact names) must keep using stable_hash64/hash_bytes. Bitstate mode
/// also keeps FNV so seeded swarm searches reproduce historical verdicts.
inline std::uint64_t fast_hash64(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9ddfea08eb382d69ull;
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ (bytes.size() * kFnvPrime);
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    __builtin_memcpy(&w, p, n);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  return avalanche64(h);
}

/// Deterministic Fisher-Yates shuffle driven by xorshift64* from `seed`:
/// the same (items, seed) always gives the same order, so a search that
/// re-streams a state sees one order on every pass. Swarm workers and
/// racing LTL workers seed it per state. Seed 0, xorshift's fixed point, is
/// replaced by a constant.
template <class T>
void seeded_shuffle(std::span<T> v, std::uint64_t seed) {
  std::uint64_t x = seed ? seed : 0x9e3779b97f4a7c15ull;
  for (std::size_t i = v.size(); i > 1; --i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    std::swap(v[i - 1], v[(x * 0x2545f4914f6cdd1dull) % i]);
  }
}

/// Platform- and endian-stable 64-bit digest of a text. This is the ONLY
/// hash the content-addressed verification cache may use for persisted
/// keys: FNV-1a consumes bytes one at a time (no word-width or byte-order
/// dependence) and every constant is pinned above, so the same canonical
/// text digests identically on every machine -- a cache written on one
/// host is valid on another. tests/test_reduce.cpp pins known digests;
/// changing this function invalidates persisted caches and must bump
/// reduce::kCacheFormatVersion.
inline std::uint64_t stable_hash64(std::string_view text) {
  return hash_bytes(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

}  // namespace pnp
