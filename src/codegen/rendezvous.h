// The static rendezvous partner index the compiled engines share.
//
// A rendezvous send hands its message straight to a receive that another
// process has enabled at its current pc. The interpreter finds that partner
// by scanning every process's out-transitions and resolving each receive's
// channel again; on connector models, where most channels are rendezvous,
// that scan is a large share of successor generation. Channel ids fold per
// process (fold.h), so the candidate partners are known before the search
// starts: this index lists, for each rendezvous channel, the processes that
// may receive on it, and for each such process the receives at each pc.
//
// A receive whose channel does not fold is listed under EVERY rendezvous
// channel and re-checked at run time. That keeps one path and no scan
// fallback: walking the index visits exactly the receives the scan would
// resolve and match, in the scan's order (ascending partner pid, then
// out[pc] order), so successor order, the arity check and the invalid-
// channel ModelError all surface where the scan surfaces them.
//
// The index is flat -- one offsets array over one entries array, plus the
// row of each receiving pid's pc 0 -- because every obligation and every
// fault variant builds an engine, and per-pc vectors would dominate that
// build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernel/machine.h"

namespace pnp::codegen {

class RendezvousIndex {
 public:
  explicit RendezvousIndex(const kernel::Machine& m);

  /// Pids that may receive on rendezvous channel `chan`, ascending (the
  /// sender itself included when it also receives there). Empty for a
  /// buffered channel.
  std::span<const std::int32_t> receivers(int chan) const {
    return range(chan_row_ + chan);
  }

  /// Receive transitions of receiver `pid` at `pc` whose channel is a
  /// rendezvous channel or does not fold, in out[pc] order. `pid` must be
  /// listed under some channel.
  std::span<const std::int32_t> receives(int pid, int pc) const {
    return range(pc_row_[static_cast<std::size_t>(pid)] + pc);
  }

 private:
  std::span<const std::int32_t> range(int row) const {
    const auto r = static_cast<std::size_t>(row);
    return {entries_.data() + offsets_[r], entries_.data() + offsets_[r + 1]};
  }

  // Row r is entries_[offsets_[r], offsets_[r + 1]). The (pid, pc) rows
  // come first, then one row per channel.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::int32_t> entries_;
  std::vector<std::int32_t> pc_row_;  // per pid: its pc-0 row, -1 if none
  int chan_row_ = 0;                  // row of channel 0
};

}  // namespace pnp::codegen
