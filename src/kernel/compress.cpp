#include "kernel/compress.h"

#include <bit>
#include <cstring>

#include "support/hash.h"
#include "support/panic.h"

namespace pnp::kernel {

namespace {

// Compressed keys are built tens of millions of times per run; writing
// through a raw pointer into a pre-sized buffer avoids the per-byte
// push_back size/capacity dance that showed up in exploration profiles.
inline std::uint8_t* write_varint(std::uint8_t* p, std::uint32_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

// Worst-case encoded size: 5 varint bytes per region plus the pid byte.
inline std::size_t key_bound(std::size_t n_regions) { return n_regions * 5 + 1; }

std::uint32_t read_varint(std::span<const std::uint8_t> key, std::size_t& at) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    PNP_CHECK(at < key.size(), "truncated compressed state key");
    const std::uint8_t b = key[at++];
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    PNP_CHECK(shift < 32, "overlong varint in compressed state key");
  }
}

// The hash a component is interned under: stripe, fingerprint and probe
// start all derive from it.
inline std::uint64_t component_hash(const Value* vals, int width) {
  return fast_hash64({reinterpret_cast<const std::uint8_t*>(vals),
                      static_cast<std::size_t>(width) * sizeof(Value)});
}

}  // namespace

StateCompressor::StateCompressor(const Layout& lay, int stripes)
    : n_stripes_(stripes < 1 ? 1 : stripes),
      concurrent_(stripes > 1),
      state_size_(lay.size()) {
  const auto regions = lay.regions();
  regions_.reserve(regions.size());
  for (const auto& [begin, width] : regions) {
    Region r;
    r.begin = begin;
    r.width = width;
    r.stripes = std::make_unique<Stripe[]>(static_cast<std::size_t>(n_stripes_));
    for (int i = 0; i < n_stripes_; ++i) {
      Stripe& st = r.stripes[static_cast<std::size_t>(i)];
      st.slots.assign(kMinSlots, Slot{});
      st.store.init(width);
      st.bytes.store(st.slots.capacity() * sizeof(Slot) +
                         st.store.resident_bytes(),
                     std::memory_order_relaxed);
    }
    regions_.push_back(std::move(r));
  }
  slot_bit_.assign(static_cast<std::size_t>(state_size_), 0);
  for (std::size_t k = 0; k < regions_.size(); ++k)
    for (int i = 0; i < regions_[k].width; ++i)
      slot_bit_[static_cast<std::size_t>(regions_[k].begin + i)] =
          std::uint64_t{1} << (k % 64);
}

void StateCompressor::grow(Stripe& st) {
  const std::size_t cap = st.slots.size() * 2;
  PNP_CHECK(cap <= (std::size_t{1} << 32),
            "component intern table exceeds 2^32 slots");
  std::vector<Slot> slots(cap);
  const std::size_t mask = cap - 1;
  for (const Slot& s : st.slots) {
    if (s.id == kEmptySlot) continue;
    std::size_t j = static_cast<std::size_t>(s.fp) & mask;
    while (slots[j].id != kEmptySlot) j = (j + 1) & mask;
    slots[j] = s;
  }
  st.slots = std::move(slots);
}

std::uint32_t StateCompressor::intern(Region& r, const Value* vals) {
  return intern_hashed(r, vals, component_hash(vals, r.width));
}

std::uint32_t StateCompressor::intern_hashed(Region& r, const Value* vals,
                                             std::uint64_t h) {
  const std::size_t width = static_cast<std::size_t>(r.width);
  // High bits pick the stripe, low bits probe the stripe-local table, so the
  // two uses stay independent.
  const int si = static_cast<int>((h >> 48) % static_cast<std::uint64_t>(n_stripes_));
  const std::uint32_t fp = static_cast<std::uint32_t>(h);
  Stripe& st = r.stripes[static_cast<std::size_t>(si)];
  std::unique_lock<std::mutex> lock(st.mu, std::defer_lock);
  if (concurrent_) lock.lock();

  const std::size_t mask = st.slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (st.slots[i].id != kEmptySlot) {
    if (st.slots[i].fp == fp &&
        std::memcmp(st.store.at(st.slots[i].id), vals,
                    width * sizeof(Value)) == 0)
      return st.slots[i].id * static_cast<std::uint32_t>(n_stripes_) +
             static_cast<std::uint32_t>(si);
    i = (i + 1) & mask;
  }
  // fresh component: append values, claim the probe slot
  const std::uint32_t local = st.count++;
  st.store.append(vals);
  st.slots[i].fp = fp;
  st.slots[i].id = local;
  if ((static_cast<std::size_t>(st.count) + 1) * 10 >= st.slots.size() * 7)
    grow(st);
  st.bytes.store(st.slots.capacity() * sizeof(Slot) +
                     st.store.resident_bytes(),
                 std::memory_order_relaxed);
  return local * static_cast<std::uint32_t>(n_stripes_) +
         static_cast<std::uint32_t>(si);
}

void StateCompressor::compress(const State& s, std::vector<std::uint8_t>& out) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (Region& r : regions_)
    p = write_varint(p, intern(r, s.mem.data() + r.begin));
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void StateCompressor::compress_full(const State& s,
                                    std::vector<std::uint8_t>& out,
                                    std::uint32_t* ids) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    ids[k] = intern(regions_[k], s.mem.data() + regions_[k].begin);
    p = write_varint(p, ids[k]);
  }
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void StateCompressor::compress_delta(
    const State& s, const std::uint32_t* prev_ids,
    std::span<const std::pair<int, Value>> undo, std::uint64_t* hash_scratch,
    std::vector<std::uint8_t>& out, std::uint32_t* ids) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  std::uint64_t dirty = 0;
  for (const auto& [slot, old] : undo)
    dirty |= slot_bit_[static_cast<std::size_t>(slot)];
  const std::size_t n = regions_.size();
  for (std::uint64_t rest = dirty; rest != 0; rest &= rest - 1)
    for (std::size_t k = static_cast<std::size_t>(std::countr_zero(rest));
         k < n; k += 64)
      hash_scratch[k] =
          component_hash(s.mem.data() + regions_[k].begin, regions_[k].width);
  out.resize(key_bound(n));
  std::uint8_t* p = out.data();
  for (std::size_t k = 0; k < n; ++k) {
    ids[k] = (dirty >> (k % 64)) & 1u
                 ? intern_hashed(regions_[k], s.mem.data() + regions_[k].begin,
                                 hash_scratch[k])
                 : prev_ids[k];
    p = write_varint(p, ids[k]);
  }
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

State StateCompressor::decompress(std::span<const std::uint8_t> key) const {
  State s;
  s.mem.assign(static_cast<std::size_t>(state_size_), 0);
  std::size_t at = 0;
  for (const Region& r : regions_) {
    const std::uint32_t id = read_varint(key, at);
    const std::uint32_t local = id / static_cast<std::uint32_t>(n_stripes_);
    const std::uint32_t si = id % static_cast<std::uint32_t>(n_stripes_);
    const Stripe& st = r.stripes[si];
    PNP_CHECK(local < st.count, "decompress: component id out of range");
    const std::size_t width = static_cast<std::size_t>(r.width);
    std::memcpy(s.mem.data() + r.begin, st.store.at(local),
                width * sizeof(Value));
  }
  PNP_CHECK(at + 1 == key.size(), "decompress: trailing bytes in key");
  const std::uint8_t pid = key[at];
  s.atomic_pid = pid == 0xff ? -1 : static_cast<int>(pid);
  return s;
}

std::uint64_t StateCompressor::components() const {
  std::uint64_t n = 0;
  for (const Region& r : regions_)
    for (int i = 0; i < n_stripes_; ++i)
      n += r.stripes[static_cast<std::size_t>(i)].count;
  return n;
}

std::vector<std::uint64_t> StateCompressor::region_component_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(regions_.size());
  for (const Region& r : regions_) {
    std::uint64_t n = 0;
    for (int i = 0; i < n_stripes_; ++i)
      n += r.stripes[static_cast<std::size_t>(i)].count;
    out.push_back(n);
  }
  return out;
}

std::uint64_t StateCompressor::approx_bytes() const {
  std::uint64_t bytes = 0;
  for (const Region& r : regions_)
    for (int i = 0; i < n_stripes_; ++i)
      bytes += r.stripes[static_cast<std::size_t>(i)].bytes.load(
          std::memory_order_relaxed);
  return bytes;
}

void StateCompressor::attach_spill(support::SpillPool* pool) {
  for (Region& r : regions_) {
    for (int i = 0; i < n_stripes_; ++i) {
      Stripe& st = r.stripes[static_cast<std::size_t>(i)];
      std::unique_lock<std::mutex> lock(st.mu, std::defer_lock);
      if (concurrent_) lock.lock();
      st.store.attach_spill(pool);
    }
  }
}

}  // namespace pnp::kernel
