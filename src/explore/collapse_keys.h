// COLLAPSE visited keys for the streaming searches (the sequential explorer
// and the LTL product search): a full compress for states with no parent to
// delta against, and a delta re-intern for successors, driven by the
// generator's undo log while it still describes the step's mutation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "kernel/compress.h"
#include "kernel/state.h"

namespace pnp::explore {

// Header-only: delta() runs once per generated successor in both searches,
// so it stays inlinable into their loops. Built from the layout alone: the
// delta step is the compressor's, whichever engine generated the successor.
class CollapseKeys {
 public:
  explicit CollapseKeys(const kernel::Layout& lay)
      : compressor_(lay, /*stripes=*/1) {
    ids_.resize(static_cast<std::size_t>(compressor_.n_regions()));
    hashes_.resize(ids_.size());
  }

  /// Key of a state with no parent to delta against (search roots, resume
  /// seeds). The compressed encoding is injective, so set membership over
  /// these keys is state identity.
  std::span<const std::uint8_t> full(const kernel::State& s) {
    compressor_.compress_full(s, key_, ids_.data());
    ++full_;
    return key_;
  }

  /// Key of a successor `s` of the state whose region ids are `parent_ids`,
  /// while `undo` (the generator's (slot, previous value) log) still lists
  /// the slots the step wrote: only the touched regions are re-interned, the
  /// rest reuse `parent_ids` (the COLLAPSE delta win -- most steps dirty one
  /// or two regions out of many). Produces exactly the bytes full() would.
  std::span<const std::uint8_t> delta(
      const kernel::State& s, const std::uint32_t* parent_ids,
      std::span<const std::pair<int, kernel::Value>> undo) {
    compressor_.compress_delta(s, parent_ids, undo, hashes_.data(), key_,
                               ids_.data());
    ++delta_;
    return key_;
  }

  /// The last keyed state's per-region component ids (n_regions() entries);
  /// a successor of that state passes them to delta() as `parent_ids`.
  std::vector<std::uint32_t>& ids() { return ids_; }

  /// The buffer full()/delta() return a view of. Callers may append to it
  /// (the LTL product suffixes the Buchi state); the next call replaces it.
  std::vector<std::uint8_t>& key() { return key_; }

  kernel::StateCompressor& compressor() { return compressor_; }
  const kernel::StateCompressor& compressor() const { return compressor_; }
  int n_regions() const { return compressor_.n_regions(); }

  /// Full and delta compressions so far (the CompressFull / CompressDelta
  /// counters).
  std::uint64_t full_count() const { return full_; }
  std::uint64_t delta_count() const { return delta_; }

 private:
  kernel::StateCompressor compressor_;
  std::vector<std::uint8_t> key_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint64_t> hashes_;  // compress_delta's per-region scratch
  std::uint64_t full_ = 0;
  std::uint64_t delta_ = 0;
};

}  // namespace pnp::explore
