// Addressing for append-only stores that grow in chunks which never move.
//
// Chunk 0 and chunk 1 hold 2^first_log units each, every later chunk holds
// twice the one before it, up to 2^last_log units; from there on every
// chunk holds 2^last_log units. The chunks before the first full one thus
// cover exactly [0, 2^last_log), so a store pays for what it holds -- at
// most twice its contents -- and a unit's chunk and position within it
// follow from the unit index alone, with no table to search.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace pnp::support {

struct DoublingChunks {
  unsigned first_log = 0;  // log2 of the first chunk's size, in units
  unsigned last_log = 0;   // log2 of the full chunk size; >= first_log

  struct Pos {
    std::size_t chunk;  // chunk index
    std::uint64_t at;   // unit offset inside that chunk
  };

  /// Where unit `i` lives.
  constexpr Pos locate(std::uint64_t i) const {
    if ((i >> last_log) != 0)
      return {last_log - first_log + static_cast<std::size_t>(i >> last_log),
              i & ((std::uint64_t{1} << last_log) - 1)};
    if ((i >> first_log) == 0) return {0, i};
    const unsigned b = static_cast<unsigned>(std::bit_width(i)) - 1;
    return {b - first_log + 1, i - (std::uint64_t{1} << b)};
  }

  /// Units chunk `k` holds.
  constexpr std::uint64_t size(std::size_t k) const {
    if (k == 0) return std::uint64_t{1} << first_log;
    if (k <= last_log - first_log) return std::uint64_t{1} << (first_log + k - 1);
    return std::uint64_t{1} << last_log;
  }

  /// Index of chunk `k`'s first unit.
  constexpr std::uint64_t begin(std::size_t k) const {
    if (k == 0) return 0;
    if (k <= last_log - first_log) return std::uint64_t{1} << (first_log + k - 1);
    return static_cast<std::uint64_t>(k - (last_log - first_log)) << last_log;
  }
};

}  // namespace pnp::support
