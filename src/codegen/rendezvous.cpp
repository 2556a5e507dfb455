#include "codegen/rendezvous.h"

#include <algorithm>
#include <utility>

#include "codegen/fold.h"
#include "compile/compiler.h"

namespace pnp::codegen {

RendezvousIndex::RendezvousIndex(const kernel::Machine& m) {
  const model::SystemSpec& sys = m.spec();
  const kernel::Layout& lay = m.layout();
  const int n_chans = static_cast<int>(sys.channels.size());
  const int n = m.n_processes();
  auto rendezvous = [&](int c) { return lay.chan_capacity(c) == 0; };

  std::size_t rows = static_cast<std::size_t>(n_chans);
  for (int pid = 0; pid < n; ++pid)
    rows += static_cast<std::size_t>(m.proc_of(pid).n_pcs);
  offsets_.reserve(rows + 1);
  offsets_.push_back(0);
  pc_row_.assign(static_cast<std::size_t>(n), -1);

  // (channel, pid) receiver pairs in ascending pid order, one per pair.
  std::vector<std::pair<int, std::int32_t>> listed;
  std::vector<std::uint32_t> last(static_cast<std::size_t>(n_chans),
                                  static_cast<std::uint32_t>(n));
  auto list = [&](int c, int pid) {
    if (last[static_cast<std::size_t>(c)] == static_cast<std::uint32_t>(pid))
      return;
    last[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(pid);
    listed.emplace_back(c, pid);
  };

  for (int pid = 0; pid < n; ++pid) {
    const compile::CompiledProc& cp = m.proc_of(pid);
    const std::vector<expr::Value>& args =
        sys.processes[static_cast<std::size_t>(pid)].args;
    const std::size_t first_row = offsets_.size() - 1;
    const std::size_t first_entry = entries_.size();
    bool dynamic = false;
    for (int pc = 0; pc < cp.n_pcs; ++pc) {
      for (const int ti : cp.out[static_cast<std::size_t>(pc)]) {
        const compile::Transition& t = cp.trans[static_cast<std::size_t>(ti)];
        if (t.op != compile::OpKind::Recv) continue;
        const auto c = fold_const(sys.exprs, t.chan, {args.data(), args.size()},
                                  static_cast<expr::Value>(pid));
        if (!c) {
          dynamic = true;
        } else if (*c < 0 || *c >= n_chans || !rendezvous(*c)) {
          continue;  // buffered (or never a valid channel): not a partner
        } else {
          list(*c, pid);
        }
        entries_.push_back(ti);
      }
      offsets_.push_back(static_cast<std::uint32_t>(entries_.size()));
    }
    if (entries_.size() == first_entry) {  // receives on no rendezvous
      offsets_.resize(first_row + 1);
      continue;
    }
    pc_row_[static_cast<std::size_t>(pid)] =
        static_cast<std::int32_t>(first_row);
    if (dynamic)
      for (int c = 0; c < n_chans; ++c)
        if (rendezvous(c)) list(c, pid);
  }

  // Channel rows: a stable counting sort of the pairs keeps each channel's
  // pids ascending.
  chan_row_ = static_cast<int>(offsets_.size()) - 1;
  std::vector<std::uint32_t>& at = last;  // per channel: count, then cursor
  std::fill(at.begin(), at.end(), 0);
  for (const auto& [c, pid] : listed) ++at[static_cast<std::size_t>(c)];
  for (std::uint32_t& a : at) {
    const std::uint32_t begin = offsets_.back();
    offsets_.push_back(begin + a);
    a = begin;
  }
  entries_.resize(entries_.size() + listed.size());
  for (const auto& [c, pid] : listed)
    entries_[at[static_cast<std::size_t>(c)]++] = pid;
}

}  // namespace pnp::codegen
