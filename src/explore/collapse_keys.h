// COLLAPSE visited keys for the streaming searches (the sequential explorer
// and the LTL product search): a full compress for states with no parent to
// delta against, and a delta re-intern for successors, driven by the
// generator's undo log while it still describes the step's mutation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "codegen/engine.h"
#include "kernel/compress.h"
#include "kernel/state.h"

namespace pnp::explore {

// Header-only: delta() runs once per generated successor in both searches,
// so it stays inlinable into their loops.
class CollapseKeys {
 public:
  /// `engine` (may be null) serves the dirty-mask / region-hash store path
  /// when it supports this layout (Engine::encode_support, <= 64 regions).
  CollapseKeys(const kernel::Layout& lay, const codegen::Engine* engine)
      : compressor_(lay, /*stripes=*/1) {
    const std::size_t n = static_cast<std::size_t>(compressor_.n_regions());
    ids_.resize(n);
    dirty_.resize(n);
    if (engine != nullptr && engine->encode_support() && n <= 64) {
      enc_engine_ = engine;
      region_hashes_.resize(n);
    }
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
    if (enc_engine_ != nullptr) {
      // Engine store path: the undo log folds to a region bitmask through
      // the engine's constant slot->mask table, and each dirty region's
      // hash comes from its open-coded layout walk (bit-exact fast_hash64,
      // so ids and key bytes are unchanged -- see Engine::encode_support).
      const std::uint64_t dirty =
          enc_engine_->dirty_regions(undo.data(), undo.size());
      for (std::uint64_t rest = dirty; rest != 0; rest &= rest - 1) {
        const int k = std::countr_zero(rest);
        region_hashes_[static_cast<std::size_t>(k)] =
            enc_engine_->region_hash(s.mem.data(), k);
      }
      compressor_.compress_delta_masked(s, parent_ids, dirty,
                                        region_hashes_.data(), key_,
                                        ids_.data());
    } else {
      std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
      const std::vector<int>& reg = compressor_.region_of_slot();
      for (const auto& [slot, old] : undo)
        dirty_[static_cast<std::size_t>(
            reg[static_cast<std::size_t>(slot)])] = 1;
      compressor_.compress_delta(s, parent_ids, dirty_.data(), key_,
                                 ids_.data());
    }
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
  std::vector<std::uint8_t> dirty_;  // per-region dirty flags (reused)
  // Engine-specialized store path (null = generic compressor walk): set
  // when the engine open-codes this layout's dirty-mask and region-hash.
  const codegen::Engine* enc_engine_ = nullptr;
  std::vector<std::uint64_t> region_hashes_;  // per-region, dirty bits only
  std::uint64_t full_ = 0;
  std::uint64_t delta_ = 0;
};

}  // namespace pnp::explore
