// Flat visited-key storage: an open-addressing fingerprint table plus an
// append-only slab arena for the key bytes.
//
// The previous stores kept one heap-allocated std::string per state inside
// a node-based std::unordered_set -- three pointer chases and ~64 bytes of
// overhead per state. Here a state costs one 8-byte {offset, fingerprint}
// slot in a flat huge-page-backed table plus its key bytes (length-prefixed)
// in a slab arena that never moves or frees, so inserts are a single probe
// sequence and a bump-pointer append.
//
// Durability: a SpillPool (support/spill.h) can be attached at any point;
// slabs allocated after that are mmap'd file-backed blocks whose pages are
// clean-evictable, so the arena keeps growing past the memory budget while
// only the pre-spill slabs and the probe arrays stay unconditionally
// resident. Offsets, spans, and equals() work identically on both kinds of
// slab -- callers cannot tell where a record landed.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "support/hash.h"
#include "support/panic.h"
#include "support/spill.h"

namespace pnp::explore {

/// Anonymous mapping advised onto transparent huge pages. The visited
/// table is probed at a random slot per insert; at millions of states the
/// table spans hundreds of megabytes, so with 4 KiB pages nearly every
/// probe adds a dTLB miss on top of the unavoidable cache miss. 2 MiB
/// pages cover the whole table with a few dozen TLB entries. Falls back to
/// plain operator new when mmap is unavailable (non-Linux, or mmap
/// failure) -- callers only see zeroed memory either way.
class HugeZeroBuf {
 public:
  HugeZeroBuf() = default;
  explicit HugeZeroBuf(std::size_t bytes) { allocate(bytes); }
  ~HugeZeroBuf() { release(); }

  HugeZeroBuf(HugeZeroBuf&& o) noexcept { *this = std::move(o); }
  HugeZeroBuf& operator=(HugeZeroBuf&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      bytes_ = o.bytes_;
      mapped_ = o.mapped_;
      o.data_ = nullptr;
      o.bytes_ = 0;
      o.mapped_ = false;
    }
    return *this;
  }
  HugeZeroBuf(const HugeZeroBuf&) = delete;
  HugeZeroBuf& operator=(const HugeZeroBuf&) = delete;

  void* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }

 private:
  static constexpr std::size_t kHuge = std::size_t{2} << 20;

  void allocate(std::size_t bytes) {
    bytes_ = bytes;
#if defined(__linux__)
    if (bytes >= kHuge) {
      const std::size_t len = (bytes + kHuge - 1) & ~(kHuge - 1);
      void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        ::madvise(p, len, MADV_HUGEPAGE);
        data_ = p;
        bytes_ = len;
        mapped_ = true;
        return;
      }
    }
#endif
    data_ = ::operator new(bytes);
    std::memset(data_, 0, bytes);
  }

  void release() {
#if defined(__linux__)
    if (mapped_) {
      ::munmap(data_, bytes_);
      data_ = nullptr;
      mapped_ = false;
      return;
    }
#endif
    if (data_ != nullptr) ::operator delete(data_);
    data_ = nullptr;
  }

  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
};

/// Append-only arena for length-prefixed key records. Records never span a
/// slab boundary and slabs never move, so a returned offset (and a pointer
/// into its record) stays valid for the arena's lifetime.
class KeyArena {
 public:
  /// Appends `key` (2-byte length prefix + bytes), followed by one zeroed
  /// mark byte when `marked`, and returns its offset.
  std::uint32_t append(std::span<const std::uint8_t> key,
                       bool marked = false) {
    const std::size_t need = key.size() + 2 + (marked ? 1 : 0);
    PNP_CHECK(key.size() <= 0xffff, "visited key exceeds 64 KiB");
    if (kSlabBytes - used_ < need) new_slab();
    const std::uint32_t off = static_cast<std::uint32_t>(
        (slabs_.size() - 1) * kSlabBytes + used_);
    std::uint8_t* dst = slabs_.back() + used_;
    dst[0] = static_cast<std::uint8_t>(key.size() & 0xff);
    dst[1] = static_cast<std::uint8_t>(key.size() >> 8);
    std::memcpy(dst + 2, key.data(), key.size());
    if (marked) dst[2 + key.size()] = 0;
    used_ += need;
    return off;
  }

  /// The mark byte of the (marked) record at `off`.
  std::uint8_t* mark(std::uint32_t off) {
    std::uint8_t* p = slabs_[off / kSlabBytes] + off % kSlabBytes;
    return p + 2 + (static_cast<std::size_t>(p[0]) |
                    (static_cast<std::size_t>(p[1]) << 8));
  }

  std::span<const std::uint8_t> at(std::uint32_t off) const {
    const std::uint8_t* p = slabs_[off / kSlabBytes] + off % kSlabBytes;
    const std::size_t len =
        static_cast<std::size_t>(p[0]) | (static_cast<std::size_t>(p[1]) << 8);
    return {p + 2, len};
  }

  bool equals(std::uint32_t off, std::span<const std::uint8_t> key) const {
    const std::span<const std::uint8_t> rec = at(off);
    return rec.size() == key.size() &&
           std::memcmp(rec.data(), key.data(), key.size()) == 0;
  }

  /// Hints the cache that the record at `off` is about to be read. Two
  /// lines: a typical key straddles a line boundary often enough that the
  /// second serial miss would eat most of the hint's win.
  void prefetch(std::uint32_t off) const {
    const std::uint8_t* p = slabs_[off / kSlabBytes] + off % kSlabBytes;
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
  }

  /// Slabs allocated from now on come from `pool` (disk-backed) instead of
  /// the heap. Existing slabs are untouched, but the current slab is sealed
  /// so the very next append already lands on the new backing -- "after
  /// attach, keys go to disk" must not depend on how full the last heap
  /// slab happens to be (offsets are absolute, so sealing only wastes the
  /// slab's tail). Pass nullptr to detach. The pool must outlive the
  /// arena's last access.
  void attach_spill(support::SpillPool* pool) {
    if (pool != spill_) used_ = kSlabBytes;
    spill_ = pool;
  }
  bool spilling() const { return spill_ != nullptr; }

  /// Total arena footprint, resident or not.
  std::uint64_t bytes() const { return slabs_.size() * kSlabBytes; }
  /// Heap (unconditionally resident) share of bytes().
  std::uint64_t resident_bytes() const { return heap_.size() * kSlabBytes; }
  /// Disk-backed (page-cache evictable) share of bytes().
  std::uint64_t spill_bytes() const {
    return (slabs_.size() - heap_.size()) * kSlabBytes;
  }

 private:
  // 2 MiB slabs sit on one transparent huge page each: duplicate-candidate
  // confirms read the arena at random offsets, and the huge mapping spares
  // them the per-read dTLB miss the old 256 KiB heap slabs paid.
  static constexpr std::size_t kSlabBytes = std::size_t{2} << 20;
  static constexpr std::size_t kMaxSlabs = (std::uint64_t{1} << 32) / kSlabBytes;

  void new_slab() {
    PNP_CHECK(slabs_.size() < kMaxSlabs,
              "visited-key arena exceeds 4 GiB (raise the memory budget "
              "or switch to bitstate mode)");
    if (spill_) {
      slabs_.push_back(static_cast<std::uint8_t*>(spill_->alloc(kSlabBytes)));
    } else {
      heap_.emplace_back(kSlabBytes);
      slabs_.push_back(static_cast<std::uint8_t*>(heap_.back().data()));
    }
    used_ = 0;
  }

  std::vector<std::uint8_t*> slabs_;  // heap- and spill-backed alike
  std::vector<HugeZeroBuf> heap_;     // owns the heap slabs
  support::SpillPool* spill_ = nullptr;  // not owned; frees on destruction
  std::size_t used_ = kSlabBytes;  // forces the first slab on first append
};

/// Open-addressing set of byte keys, probed by a caller-supplied 64-bit
/// hash. Key bytes live in the arena; the table is ONE flat array of 8-byte
/// {offset, fingerprint} slots. Interleaving matters: the table is far
/// larger than cache on big runs, so a probe that touched parallel
/// fingerprint and offset arrays cost two DRAM misses where one slot read
/// costs one -- and insert() is the hottest call in exact-mode exploration
/// (~60% of a profiled bridge run). The stored fingerprint is the hash's
/// low 32 bits; a fingerprint match is confirmed against the arena bytes,
/// so truncation can cause a rare extra compare, never a wrong answer. The
/// probe index is also derived from the low hash bits, which is what lets
/// rehash() re-place slots without the full 64-bit hash. (A variant that
/// stored short keys inline in 32-byte slots was measured slower here:
/// linear-probe clusters span 4x the cache lines, and the 4x table defeats
/// the TLB on kernels without transparent huge pages.)
///
/// A *marked* set gives every record one zeroed byte after its key, which
/// the owner updates in place through find_or_insert -- the LTL nested DFS
/// keeps its per-state search marks there, one store instead of one set per
/// mark. An unmarked set's records keep the plain length-prefixed layout.
class FlatKeySet {
 public:
  explicit FlatKeySet(std::uint64_t expected = 0, bool marked = false)
      : marked_(marked) {
    rehash(cap_for(expected));
  }

  /// Hints the cache that `h`'s first probe slot is about to be read. An
  /// insert that grows the table in between simply wastes the hint.
  void prefetch(std::uint64_t h) const {
    if (slots_ != nullptr)
      __builtin_prefetch(&slots_[static_cast<std::size_t>(h) & mask_]);
  }

  /// Returns true if `key` was not present before (and records it). `h`
  /// must be the same hash function for every insert into this set.
  bool insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    return find_slot(key, h).fresh;
  }

  /// Marked sets: the mark byte of `key`'s record, inserting the key with a
  /// zeroed mark first when it is absent. The pointer stays valid for the
  /// set's lifetime (arena records never move, growth only re-places slots).
  std::uint8_t* find_or_insert(std::span<const std::uint8_t> key,
                               std::uint64_t h) {
    const std::size_t i = find_slot(key, h).slot;  // may grow slots_
    return arena_.mark(slots_[i].off1 - 1);
  }

  /// Result of probe_or_insert: `fresh` means the key was definitely absent
  /// and has been inserted; otherwise `off` is the arena offset of the
  /// first fingerprint match, to be settled by confirm_or_insert.
  struct Staged {
    bool fresh;
    std::uint32_t off;
  };

  /// First half of a split insert: walks `h`'s cluster and inserts the key
  /// outright when no stored fingerprint matches (the definitely-fresh
  /// case). On a fingerprint match it leaves the table unchanged,
  /// prefetches the matching record's bytes, and returns the offset for a
  /// later confirm_or_insert. An insert is two DEPENDENT memory reads --
  /// probe slot, then key bytes at the offset the slot holds -- and on big
  /// tables both are DRAM misses the out-of-order window cannot hide;
  /// splitting them across two calls lets a pipelined caller overlay each
  /// with real work (the explorer overlays successor generation).
  Staged probe_or_insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    if ((size_ + 1) * 10 >= cap_ * 7) grow();
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].off1 != 0) {
      if (slots_[i].fp == fp) {
        const std::uint32_t off = slots_[i].off1 - 1;
        arena_.prefetch(off);
        return {false, off};
      }
      i = (i + 1) & mask_;
    }
    fill(i, key, fp);
    return {true, 0};
  }

  /// Second half: settles a probe_or_insert fingerprint match. Returns
  /// false when the record equals `key` (a genuine duplicate -- the common
  /// case); a fingerprint collision falls back to a full insert, which
  /// steps past the colliding slot and probes on. Intervening inserts and
  /// grows are fine: arena offsets never move.
  bool confirm_or_insert(std::span<const std::uint8_t> key, std::uint64_t h,
                         std::uint32_t off) {
    if (arena_.equals(off, key)) return false;
    return insert(key, h);
  }

  std::uint64_t size() const { return size_; }

  /// Pre-sizes the table for `n` keys (never shrinks).
  void reserve(std::uint64_t n) {
    const std::size_t cap = cap_for(n);
    if (cap > cap_) rehash(cap);
  }

  /// Calls `f(std::span<const std::uint8_t>)` once per stored key, in
  /// table order. Used by checkpointing to enumerate the visited set.
  template <class F>
  void for_each_key(F&& f) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (slots_[i].off1 != 0) f(arena_.at(slots_[i].off1 - 1));
    }
  }

  /// New arena slabs spill to `pool` from now on (see KeyArena).
  void attach_spill(support::SpillPool* pool) { arena_.attach_spill(pool); }
  bool spilling() const { return arena_.spilling(); }

  /// Resident footprint: probe arrays + heap arena slabs. Spilled slabs are
  /// deliberately excluded -- their pages are clean-evictable, which is the
  /// whole point of spilling.
  std::uint64_t approx_bytes() const {
    return cap_ * sizeof(Slot) + arena_.resident_bytes();
  }

  /// Disk-backed share of the arena.
  std::uint64_t spill_bytes() const { return arena_.spill_bytes(); }

 private:
  static std::size_t cap_for(std::uint64_t expected) {
    // smallest power of two holding `expected` at <= 0.7 load
    std::size_t cap = 64;
    while (cap * 7 < (expected + 1) * 10) cap <<= 1;
    return cap;
  }

  // off1 is the arena offset + 1, so the all-zeroes slot a fresh mapping
  // starts with means "free" (kernel zero pages, no memset pass).
  struct Slot {
    std::uint32_t off1;  // arena offset + 1; 0 marks a free slot
    std::uint32_t fp;    // low 32 bits of the key hash
  };

  void rehash(std::size_t cap) {
    // The probe index comes from the stored 32-bit fingerprint, so the
    // table cannot outgrow 2^32 slots -- the 4 GiB arena overflows first.
    PNP_CHECK(cap <= (std::size_t{1} << 32),
              "visited table exceeds 2^32 slots");
    HugeZeroBuf buf(cap * sizeof(Slot));
    Slot* slots = static_cast<Slot*>(buf.data());
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < cap_; ++i) {
      const Slot& s = slots_[i];
      if (s.off1 == 0) continue;
      std::size_t j = static_cast<std::size_t>(s.fp) & mask;
      while (slots[j].off1 != 0) j = (j + 1) & mask;
      slots[j] = s;
    }
    buf_ = std::move(buf);
    slots_ = slots;
    cap_ = cap;
    mask_ = mask;
  }

  void grow() { rehash(cap_ * 2); }

  struct Found {
    std::size_t slot;
    bool fresh;  // the key was absent and has just been inserted
  };

  /// Walks `h`'s cluster to `key`'s slot, inserting the key when absent.
  Found find_slot(std::span<const std::uint8_t> key, std::uint64_t h) {
    if ((size_ + 1) * 10 >= cap_ * 7) grow();
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].off1 != 0) {
      if (slots_[i].fp == fp && arena_.equals(slots_[i].off1 - 1, key))
        return {i, false};
      i = (i + 1) & mask_;
    }
    fill(i, key, fp);
    return {i, true};
  }

  /// Stores `key` in free slot `i`.
  void fill(std::size_t i, std::span<const std::uint8_t> key,
            std::uint32_t fp) {
    slots_[i].fp = fp;
    slots_[i].off1 = arena_.append(key, marked_) + 1;
    ++size_;
  }

  HugeZeroBuf buf_;
  Slot* slots_ = nullptr;
  std::size_t cap_ = 0;
  bool marked_ = false;
  KeyArena arena_;
  std::uint64_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace pnp::explore
