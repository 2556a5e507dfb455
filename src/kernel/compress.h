// COLLAPSE-style state compression (after SPIN's COLLAPSE mode, Holzmann).
//
// The state vector is split along Layout::regions() boundaries -- globals,
// one region per process frame, one region per buffered channel -- and each
// region's slot values are interned once in a per-region component table.
// A compressed state is then just one varint component id per region plus
// the atomic-holder pid: a successor that only moved one process re-encodes
// as a handful of bytes instead of the whole vector, and the full slot data
// for each distinct component is stored exactly once, in the table.
//
// Ids are dense and injective per region, so equal compressed keys imply
// equal states (the property the visited set relies on), and decompress()
// is exact -- the tables retain every component ever interned.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "kernel/state.h"
#include "support/chunks.h"
#include "support/spill.h"

namespace pnp::kernel {

/// Chunked append-only arena of fixed-width component value records -- the
/// intern pool behind each compressor stripe. Chunks never move (so value
/// pointers stay stable across appends) and, once a SpillPool is attached,
/// new chunks are disk-backed: the pool's pages are clean-evictable, which
/// lets the intern tables grow past the memory budget. Chunk sizes double
/// from 4 records up to ~4 KiB (support::DoublingChunks), so a region with a
/// handful of components holds a handful of records, and record `local`'s
/// chunk follows from its bits -- O(1), no division.
class ValueArena {
 public:
  void init(int width) {
    width_ = width < 0 ? 0 : static_cast<std::size_t>(width);
    // full chunks: the largest power of two of records within kChunkValues
    const std::size_t per_full =
        kChunkValues / (width_ == 0 ? 1 : width_);
    const unsigned last =
        per_full <= 1 ? 0u
                      : static_cast<unsigned>(std::bit_width(per_full) - 1);
    growth_ = {std::min(kFirstLog, last), last};
  }

  const Value* at(std::uint32_t local) const {
    // A width-0 region has one empty component; hand back a stable dummy
    // so memcmp(at(..), vals, 0) sees a valid pointer.
    if (width_ == 0) return &kZeroWidth;
    const support::DoublingChunks::Pos p = growth_.locate(local);
    return chunks_[p.chunk] + p.at * width_;
  }

  /// Appends one record (width values); records are addressed by append
  /// order, matching the caller's dense local ids.
  void append(const Value* vals) {
    if (width_ == 0) return;
    if (count_ == end_) new_chunk();
    const support::DoublingChunks::Pos p = growth_.locate(count_);
    std::memcpy(chunks_.back() + p.at * width_, vals, width_ * sizeof(Value));
    ++count_;
  }

  void attach_spill(support::SpillPool* pool) { spill_ = pool; }

  std::uint64_t resident_bytes() const { return heap_bytes_; }

 private:
  static constexpr std::size_t kChunkValues = 1024;  // full chunk: ~4 KiB
  static constexpr unsigned kFirstLog = 2;           // first chunk: 4 records

  void new_chunk() {
    const std::size_t k = chunks_.size();
    const std::size_t bytes =
        static_cast<std::size_t>(growth_.size(k)) * width_ * sizeof(Value);
    if (spill_) {
      chunks_.push_back(static_cast<Value*>(spill_->alloc(bytes)));
    } else {
      heap_.emplace_back(new Value[bytes / sizeof(Value)]);
      chunks_.push_back(heap_.back().get());
      heap_bytes_ += bytes;
    }
    end_ += growth_.size(k);
  }

  static constexpr Value kZeroWidth{};

  std::size_t width_ = 1;
  support::DoublingChunks growth_{kFirstLog, 10};
  std::uint64_t count_ = 0;  // records appended
  std::uint64_t end_ = 0;    // records the allocated chunks can hold
  std::vector<Value*> chunks_;
  std::vector<std::unique_ptr<Value[]>> heap_;  // owns the heap chunks
  support::SpillPool* spill_ = nullptr;         // not owned
  std::uint64_t heap_bytes_ = 0;
};

class StateCompressor {
 public:
  /// `stripes` > 1 lock-stripes every component table so compress() may be
  /// called concurrently from that many (or more) workers; 1 elides all
  /// locking for single-threaded searches. Every stripe's table starts at
  /// kMinSlots and doubles with the components it interns.
  explicit StateCompressor(const Layout& lay, int stripes = 1);

  StateCompressor(const StateCompressor&) = delete;
  StateCompressor& operator=(const StateCompressor&) = delete;

  /// Replaces `out` with the compressed encoding of `s` (reusing capacity):
  /// LEB128 varint component ids in region order, then `atomic_pid & 0xff`.
  void compress(const State& s, std::vector<std::uint8_t>& out);

  /// compress() that also reports each region's component id into `ids`
  /// (n_regions() entries), enabling compress_delta() on successors.
  void compress_full(const State& s, std::vector<std::uint8_t>& out,
                     std::uint32_t* ids);

  /// Delta compression -- the core COLLAPSE win. `s` is a successor of the
  /// state whose region ids are `prev_ids`, and `undo` is the successor
  /// generator's (slot, previous value) log, which lists every slot the
  /// step wrote. The log folds through a slot -> bit table (region k on bit
  /// k mod 64) into a dirty mask; the dirty regions are hashed into
  /// `hash_scratch` (n_regions() entries) in a loop of their own, then
  /// re-interned, and clean regions reuse `prev_ids` without touching their
  /// slots. Past 64 regions a dirty bit also covers the clean regions that
  /// share it; re-interning those returns the ids they already have.
  /// Produces exactly the bytes compress() would; `ids` receives s's
  /// per-region ids.
  void compress_delta(const State& s, const std::uint32_t* prev_ids,
                      std::span<const std::pair<int, Value>> undo,
                      std::uint64_t* hash_scratch,
                      std::vector<std::uint8_t>& out, std::uint32_t* ids);

  /// Exact inverse of compress() for keys produced by this compressor.
  State decompress(std::span<const std::uint8_t> key) const;

  int n_regions() const { return static_cast<int>(regions_.size()); }

  /// Total distinct components interned across all regions.
  std::uint64_t components() const;

  /// Distinct components per region, in region order -- the intern-table
  /// size profile surfaced by the observability layer (a region whose count
  /// approaches the visited-set size is not compressing).
  std::vector<std::uint64_t> region_component_counts() const;

  /// Resident footprint of the intern tables: open-addressing slot arrays
  /// plus the heap-resident component value chunks. Feeds memory-budget
  /// accounting; spilled chunks are excluded (see attach_spill).
  std::uint64_t approx_bytes() const;

  /// New component-value chunks in every stripe spill to `pool` from now
  /// on. Safe to call while workers are interning (the switch is taken
  /// under each stripe lock in concurrent mode).
  void attach_spill(support::SpillPool* pool);

 private:
  // One lock stripe of a region's intern table: open addressing over one
  // flat array of {local id, 32-bit fingerprint} slots (a probe touches one
  // cache line, and the arena confirms every fingerprint match, so the
  // truncation to 32 bits can cost a rare extra compare but never a wrong
  // id), with the component values appended to a width-strided arena. A
  // component's global id is local_index * n_stripes + stripe, which keeps
  // ids dense and injective without cross-stripe coordination.
  struct Slot {
    std::uint32_t id = kEmptySlot;  // local index; kEmptySlot = free
    std::uint32_t fp = 0;           // low 32 bits of the component hash
  };
  struct Stripe {
    std::mutex mu;
    std::vector<Slot> slots;
    ValueArena store;
    std::uint32_t count = 0;
    std::atomic<std::uint64_t> bytes{0};  // resident footprint
  };
  struct Region {
    int begin = 0;
    int width = 0;
    std::unique_ptr<Stripe[]> stripes;
  };

  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::size_t kMinSlots = 8;

  std::uint32_t intern(Region& r, const Value* vals);
  std::uint32_t intern_hashed(Region& r, const Value* vals, std::uint64_t h);
  static void grow(Stripe& st);

  std::vector<Region> regions_;
  std::vector<std::uint64_t> slot_bit_;  // per slot: bit (region mod 64)
  int n_stripes_;
  bool concurrent_;
  int state_size_;
};

}  // namespace pnp::kernel
