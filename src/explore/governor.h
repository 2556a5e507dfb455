// The stop policy of every search (DESIGN.md section 8): when it looks at
// its budgets, what counts against memory, when it spills or warns, which
// truncation reason wins, and how the Stats fields all searches share are
// filled. FlatRun, the LTL product search and every ParallelRun worker (all
// sharing one) run under a Governor. The loop keeps its frontier,
// successors, counters and checkpoint contents, and shows the governor a
// `Loop` with stored(), store_bytes(), frontier_bytes() (frontier + trail
// bookkeeping) and publish() (its counter block).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "kernel/compress.h"
#include "obs/obs.h"
#include "support/panic.h"
#include "support/spill.h"

namespace pnp::explore {

/// Budgets, telemetry and the frontier peak are looked at once per this many
/// expansion passes.
constexpr std::uint64_t kBudgetCheckStride = 1024;

/// One worker's share of a memory budget when `workers` searches each hold
/// their own stores (swarm and racing LTL workers): the search as a whole is
/// held to the budget, not to `workers` times it.
inline std::uint64_t memory_share(std::uint64_t budget, int workers) {
  if (budget == 0 || workers <= 1) return budget;
  return std::max<std::uint64_t>(1,
                                 budget / static_cast<std::uint64_t>(workers));
}

class Governor {
 public:
  /// `siblings` is the stop flag a swarm's or an LTL race's workers share;
  /// null gives the governor a flag of its own.
  Governor(const Options& opt, std::uint32_t state_size,
           std::atomic<bool>* siblings = nullptr)
      : opt_(opt),
        state_size_(state_size),
        stop_(siblings != nullptr ? siblings : &own_stop_),
        start_(std::chrono::steady_clock::now()) {}

  /// Per-pass entry, true when the search must stop: the stop flag or the
  /// interrupt is up, or -- every kBudgetCheckStride passes of the caller's
  /// own `tick` -- the deadline or the memory budget ran out.
  template <class Loop>
  bool pass(std::uint64_t& tick, Loop&& loop) {
    if (stopped()) return true;
    if (opt_.interrupt != nullptr &&
        opt_.interrupt->load(std::memory_order_relaxed)) {
      truncate(TruncationReason::Interrupted);
      return true;
    }
    return ++tick % kBudgetCheckStride == 0 && stride(loop);
  }

  /// Whether the stop flag is up. A search stopped by a flag it did not
  /// raise itself is aborted(): incomplete, its result not its own to report.
  bool stopped() {
    if (!stop_->load(std::memory_order_relaxed)) return false;
    if (stop_ != &own_stop_ && !halts_all(truncation_.load())) {
      aborted_ = true;
      complete_.store(false, std::memory_order_relaxed);
    }
    return true;
  }
  bool aborted() const { return aborted_; }
  /// Raises the stop flag without a truncation (a violation was found).
  void stop() { stop_->store(true, std::memory_order_release); }

  /// Records why the search stopped early: the first reason wins and the
  /// search is incomplete. Deadline, MemoryBudget and Interrupted also raise
  /// the stop flag, halting every worker that shares it.
  void truncate(TruncationReason why) {
    complete_.store(false, std::memory_order_relaxed);
    TruncationReason none = TruncationReason::None;
    if (truncation_.load(std::memory_order_relaxed) == none)
      truncation_.compare_exchange_strong(none, why);
    if (halts_all(why)) stop_->store(true, std::memory_order_release);
  }

  /// `attach` hands the pool the stores to move to disk when memory runs
  /// short; a search that never calls this never spills.
  void spill_into(std::function<void(support::SpillPool*)> attach) {
    attach_ = std::move(attach);
  }

  /// Whether the search writes checkpoints (an I/O failure turns them off).
  bool checkpointing() const {
    return !opt_.checkpoint_path.empty() && !ckpt_failed_.load();
  }
  bool checkpoint_due(std::uint64_t stored) const {
    return opt_.checkpoint_every != 0 && checkpointing() &&
           stored >= last_ckpt_.load() + opt_.checkpoint_every;
  }

  /// The snapshot to re-seed from (null for a fresh search), checked
  /// against this machine; restores the loop's counters and the sequence.
  const Checkpoint* resume(std::uint64_t& matched, std::uint64_t& transitions) {
    const Checkpoint* c = opt_.resume_from;
    if (c == nullptr) return nullptr;
    PNP_CHECK(c->meta.state_size == state_size_,
              "checkpoint state size does not match this machine");
    matched = c->meta.states_matched;
    transitions = c->meta.transitions;
    seq_ = c->meta.seq;
    return c;
  }
  /// The loop re-seeded `stored` states from the snapshot.
  void resumed(std::uint64_t stored) {
    last_ckpt_.store(stored);
    if (opt_.obs != nullptr) opt_.obs->resumed(opt_.checkpoint_path, stored);
  }

  /// Commits a checkpoint of a quiesced search, whose states `visited` and
  /// `frontier` stream. An I/O failure turns further checkpoints off and the
  /// search goes on: losing durability beats aborting a verification.
  template <class Visited, class Frontier>
  void commit(std::uint64_t stored, std::uint64_t matched,
              std::uint64_t transitions, Visited&& visited,
              Frontier&& frontier) {
    const CheckpointMeta meta{opt_.config_digest, state_size_, matched,
                              transitions, seq_ + 1, {}};
    try {
      write_checkpoint(opt_.checkpoint_path, meta, visited, frontier);
    } catch (const ModelError&) {
      ckpt_failed_.store(true);
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("checkpoint-io", seq_ + 1, 0);
      return;
    }
    ++seq_;
    ++written_;
    last_ckpt_.store(stored);
    if (opt_.obs != nullptr)
      opt_.obs->checkpointed(opt_.checkpoint_path, stored, seq_);
  }

  /// Fills the Stats fields all searches share. An `approximate` (bitstate)
  /// search is incomplete, and BitstateApprox unless a budget truncated it.
  template <class Loop>
  void finish(Stats& st, const Loop& loop, bool approximate = false) {
    note_frontier(loop.frontier_bytes());
    const TruncationReason why = truncation_.load();
    st.seconds = seconds();
    st.complete = complete_.load() && !approximate;
    st.truncation = why == TruncationReason::None && approximate
                        ? TruncationReason::BitstateApprox
                        : why;
    st.store_bytes = loop.store_bytes();
    st.approx_memory_bytes = st.store_bytes + peak_frontier_ + obs_bytes();
    st.spilled = spilled_.load();
    st.spill_bytes = st.spilled ? pool_->disk_bytes() : 0;
    st.checkpoints_written = written_;
    st.resumed = opt_.resume_from != nullptr;
  }

  /// Sets the gauges of a finished search whose Stats count; `keys` is its
  /// compressor (null in bitstate mode).
  void publish(const Stats& st, const kernel::StateCompressor* keys) {
    if (opt_.obs == nullptr) return;
    obs::Recorder& rec = opt_.obs->recorder();
    rec.max_gauge(obs::Gauge::StoreBytes, st.store_bytes);
    rec.max_gauge(obs::Gauge::FrontierBytes, peak_frontier_);
    rec.max_gauge(obs::Gauge::MaxDepthReached,
                  static_cast<std::uint64_t>(st.max_depth_reached));
    if (keys == nullptr) return;
    rec.max_gauge(obs::Gauge::InternedComponents, keys->components());
    rec.max_gauge(obs::Gauge::CompressorBytes, keys->approx_bytes());
  }

 private:
  static bool halts_all(TruncationReason why) {
    return why == TruncationReason::Deadline ||
           why == TruncationReason::MemoryBudget ||
           why == TruncationReason::Interrupted;
  }

  /// The stride tick: frontier peak, deadline, memory, then telemetry.
  template <class Loop>
  bool stride(Loop& loop) {
    const std::uint64_t frontier = loop.frontier_bytes();
    note_frontier(frontier);
    if (opt_.deadline_seconds > 0.0 && seconds() >= opt_.deadline_seconds) {
      truncate(TruncationReason::Deadline);
      return true;
    }
    const std::uint64_t budget = opt_.memory_budget_bytes;
    const std::uint64_t used =
        budget > 0 ? loop.store_bytes() + frontier + obs_bytes() : 0;
    // Spill ahead of exhaustion (80%) so the resident probe arrays and
    // pre-spill slabs stay under the budget; once spilled the budget governs
    // residency, not growth, and never truncates.
    if (budget > 0 && !spilled_.load() && used >= budget - budget / 5)
      spill(used);
    if (budget > 0 && !spilled_.load() && used >= budget) {
      truncate(TruncationReason::MemoryBudget);
      return true;
    }
    if (opt_.obs == nullptr) return false;
    loop.publish();
    const std::uint64_t stored = loop.stored();
    const std::uint64_t max_states = opt_.max_states;
    opt_.obs->progress(stored, max_states);
    if (max_states > 0 && stored >= max_states - max_states / 5 &&
        !warned_states_.exchange(true))
      opt_.obs->budget_warning("max-states", stored, max_states);
    if (budget > 0 && used >= budget - budget / 5 &&
        !warned_memory_.exchange(true))
      opt_.obs->budget_warning("memory", used, budget);
    return false;
  }

  /// One attempt to attach a spill pool. An unusable directory leaves the
  /// stores in RAM, and the budget then truncates as without one.
  void spill(std::uint64_t used) {
    if (opt_.spill_dir.empty() || !attach_) return;
    std::call_once(spill_once_, [&] {
      try {
        pool_ = std::make_unique<support::SpillPool>(opt_.spill_dir);
      } catch (const ModelError&) {
        return;
      }
      attach_(pool_.get());
      spilled_.store(true);
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("memory-spill", used,
                                 opt_.memory_budget_bytes);
    });
  }

  void note_frontier(std::uint64_t bytes) {
    std::uint64_t seen = peak_frontier_.load(std::memory_order_relaxed);
    while (bytes > seen && !peak_frontier_.compare_exchange_weak(seen, bytes)) {
    }
  }
  std::uint64_t obs_bytes() const {
    return opt_.obs != nullptr ? opt_.obs->approx_bytes() : 0;
  }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  const Options& opt_;
  const std::uint32_t state_size_;  // checkpoint identity
  std::atomic<bool> own_stop_{false};
  std::atomic<bool>* const stop_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<bool> complete_{true};
  std::atomic<TruncationReason> truncation_{TruncationReason::None};
  bool aborted_ = false;
  std::atomic<std::uint64_t> peak_frontier_{0};
  std::atomic<bool> warned_states_{false};
  std::atomic<bool> warned_memory_{false};
  std::function<void(support::SpillPool*)> attach_;
  std::once_flag spill_once_;
  std::unique_ptr<support::SpillPool> pool_;
  std::atomic<bool> spilled_{false};
  // One writer at a time: the loop, ParallelRun's checkpoint coordinator
  // with every worker parked, or the caller after the join.
  std::uint64_t seq_ = 0;      // last committed sequence number
  std::uint64_t written_ = 0;  // committed by this search
  std::atomic<bool> ckpt_failed_{false};
  std::atomic<std::uint64_t> last_ckpt_{0};
};

}  // namespace pnp::explore
