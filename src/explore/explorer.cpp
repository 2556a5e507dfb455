#include "explore/explorer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>

#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/collapse_keys.h"
#include "explore/por.h"
#include "explore/visited.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/spill.h"

namespace pnp::explore {

const char* violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::AssertFailed: return "assertion violation";
    case ViolationKind::Deadlock: return "invalid end state (deadlock)";
    case ViolationKind::InvariantViolated: return "invariant violation";
    case ViolationKind::EndInvariantViolated:
      return "end-state invariant violation";
    case ViolationKind::AcceptanceCycle: return "acceptance cycle (liveness violation)";
  }
  return "?";
}

const char* truncation_reason_name(TruncationReason r) {
  switch (r) {
    case TruncationReason::None: return "none";
    case TruncationReason::MaxStates: return "max-states limit reached";
    case TruncationReason::MaxDepth: return "max-depth limit reached";
    case TruncationReason::Deadline: return "wall-clock deadline exceeded";
    case TruncationReason::MemoryBudget: return "memory budget exceeded";
    case TruncationReason::BitstateApprox:
      return "bitstate hashing (probabilistic coverage)";
    case TruncationReason::MemorySpilled:
      return "memory budget exceeded (stores spilled to disk)";
    case TruncationReason::Interrupted:
      return "interrupted (final checkpoint written)";
  }
  return "?";
}

namespace {

using kernel::Machine;
using kernel::State;
using kernel::Step;
using kernel::Succ;

constexpr std::uint64_t kBudgetCheckStride = 1024;

/// Visited-table pre-size hint: honor a caller-set max_states bound exactly,
/// but cap the speculative up-front allocation -- the flat tables double
/// cheaply past the cap.
std::uint64_t expected_states(const Options& opt) {
  return std::min<std::uint64_t>(opt.max_states, std::uint64_t{1} << 16);
}

std::optional<Violation> invariant_violation(const Machine& m,
                                             const Options& opt,
                                             const State& s) {
  if (opt.invariant != expr::kNoExpr && m.eval_global(opt.invariant, s) == 0) {
    Violation v;
    v.kind = ViolationKind::InvariantViolated;
    v.message = "invariant violated" +
                (opt.invariant_name.empty() ? std::string()
                                            : ": " + opt.invariant_name);
    return v;
  }
  return std::nullopt;
}

/// Checks that apply only to states with no successors (deadlock and the
/// end-state invariant), in the historical precedence order.
std::optional<Violation> terminal_violation(const Machine& m,
                                            const Options& opt,
                                            const State& s) {
  if (opt.check_deadlock && !m.is_valid_end(s)) {
    Violation v;
    v.kind = ViolationKind::Deadlock;
    v.message = "no executable transition and not all processes at a "
                "valid end state";
    return v;
  }
  if (opt.end_invariant != expr::kNoExpr &&
      m.eval_global(opt.end_invariant, s) == 0) {
    Violation v;
    v.kind = ViolationKind::EndInvariantViolated;
    v.message =
        "terminal state violates end invariant" +
        (opt.end_invariant_name.empty() ? std::string()
                                        : ": " + opt.end_invariant_name);
    return v;
  }
  return std::nullopt;
}

/// Deterministic per-state successor shuffle for swarm workers: seeded by
/// (worker seed, state key hash) so regenerating a DFS frame's successor
/// list reproduces the exact same order.
void permute_succs(std::vector<Succ>& succs, std::uint64_t perm_seed,
                   const std::string& key) {
  if (succs.size() < 2) return;
  std::uint64_t x = avalanche64(perm_seed ^ hash_bytes(byte_span(key)));
  for (std::size_t i = succs.size() - 1; i > 0; --i) {
    // xorshift64* step, then reduce; bias is irrelevant here
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const std::size_t j =
        static_cast<std::size_t>((x * 0x2545f4914f6cdd1dull) % (i + 1));
    std::swap(succs[i], succs[j]);
  }
}

/// The streaming sequential engine: COLLAPSE component compression, flat
/// visited store, and mutate-and-revert successor generation. Runs every
/// non-permuted single-threaded search (exact and bitstate). Discovery
/// order -- and therefore verdicts, stored-state counts, counterexample
/// trails, and the exact bit pattern of the bitstate filter -- is identical
/// to the historical copy-based engine (DESIGN.md section 11 has the
/// step-by-step argument).
class FlatRun {
 public:
  FlatRun(const Machine& m, const Options& opt, const std::atomic<bool>* stop)
      : m_(m),
        opt_(opt),
        visited_(opt.bitstate, opt.bitstate_bytes, /*seed=*/0,
                 opt.bitstate ? 0 : expected_states(opt)),
        keys_(m.layout(), opt.engine),
        stop_(stop) {
    if (opt.obs != nullptr) blk_ = opt.obs->recorder().open_block();
    if (!opt.checkpoint_path.empty() || opt.resume_from != nullptr) {
      PNP_CHECK(!opt.bitstate,
                "checkpointing requires exact mode (bitstate stores hashes, "
                "not states)");
      PNP_CHECK(!opt.por || opt.bfs,
                "checkpointing with partial-order reduction requires BFS or "
                "threads > 1 (the sequential-DFS ample proviso depends on "
                "the search stack, which a resumed run cannot reconstruct)");
    }
    if (opt.resume_from != nullptr) {
      PNP_CHECK(opt.resume_from->meta.state_size == m.layout().size(),
                "checkpoint state size does not match this machine");
    }
  }

  Result go() {
    start_ = std::chrono::steady_clock::now();
    Result r = opt_.bfs ? bfs() : dfs();
    // Final checkpoint: persist the cut whenever the search ended without a
    // verdict -- on truncation/interrupt it is the resume point, and for a
    // complete pass it is an empty-frontier snapshot a resume returns from
    // immediately.
    if (ckpt_enabled() && !r.violation.has_value()) commit_checkpoint();
    r.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    r.stats.states_stored = visited_.size();
    r.stats.states_matched = matched_;
    r.stats.transitions = transitions_;
    r.stats.max_depth_reached = max_depth_seen_;
    r.stats.complete = complete_ && !opt_.bitstate;
    r.stats.store_bytes = store_bytes();
    r.stats.approx_memory_bytes = r.stats.store_bytes + frontier_bytes_;
    r.stats.truncation = truncation_ != TruncationReason::None
                             ? truncation_
                             : (opt_.bitstate ? TruncationReason::BitstateApprox
                                              : TruncationReason::None);
    r.stats.spilled = spilled_;
    if (spilled_)
      r.stats.spill_bytes =
          visited_.spill_bytes() + keys_.compressor().spill_bytes();
    r.stats.checkpoints_written = ckpt_written_;
    r.stats.resumed = opt_.resume_from != nullptr;
    if (blk_ != nullptr) {
      publish_counters();
      obs::Recorder& rec = opt_.obs->recorder();
      rec.max_gauge(obs::Gauge::StoreBytes, r.stats.store_bytes);
      rec.max_gauge(obs::Gauge::FrontierBytes, frontier_bytes_);
      rec.max_gauge(obs::Gauge::MaxDepthReached,
                    static_cast<std::uint64_t>(max_depth_seen_));
      if (!opt_.bitstate) {
        rec.max_gauge(obs::Gauge::InternedComponents,
                      keys_.compressor().components());
        rec.max_gauge(obs::Gauge::CompressorBytes,
                      keys_.compressor().approx_bytes());
      }
      r.stats.approx_memory_bytes += opt_.obs->approx_bytes();
    }
    return r;
  }

 private:
  // DFS frames do NOT own their successor lists: candidates are streamed
  // from the generator and a pass stops at the first fresh child, so the
  // stack holds O(depth) states with no materialized successor vectors at
  // all. Returning to a frame re-streams its candidates; `next` skips the
  // ones already handled and `counted` keeps the transitions stat exact
  // across passes.
  struct Frame {
    State state;
    std::string raw_key;  // canonical encoding; filled only under POR (C3)
    // this state's per-region component ids (exact mode): successors reuse
    // them for every region their undo log left untouched
    std::vector<std::uint32_t> ids;
    Step in_step;  // step that produced this state (invalid at root)
    std::uint32_t next = 0;
    std::uint32_t counted = 0;
    // Engine resume token: where the previous pass's sweep stopped, letting
    // the next pass skip earlier processes' guard sweeps entirely.
    std::uint64_t resume = 0;
    bool checked = false;
    int por_choice = -1;  // recorded ample decision (see por_choose)
  };

  enum class Outcome : std::uint8_t { Exhausted, Child, Violation };

  /// One generation pass over the top frame: skips candidates handled by
  /// earlier passes, maintains the transitions high-water mark, and stops
  /// the pass at the first fresh child or violation.
  class DfsSink final : public kernel::SuccSink {
   public:
    DfsSink(FlatRun& run, Frame& f) : run_(run), f_(f) {}

    bool on_successor(const State& ns, const Step& step) override {
      const std::uint32_t i = idx_++;
      if (i >= f_.counted) {
        f_.counted = i + 1;
        ++run_.transitions_;
      }
      if (i < f_.next) return true;  // handled in an earlier pass
      if (defer_) return run_.dfs_deferred(ns, step, f_, *this);
      ++f_.next;
      return run_.dfs_candidate(ns, step, f_, *this);
    }

    Outcome outcome = Outcome::Exhausted;
    bool defer_ = false;  // engine path: pipeline the visited probes
    std::uint32_t idx_ = 0;
    State child;      // fresh child (Outcome::Child) or final state (Violation)
    Step child_step;  // its in-step / the violating extra step
    Violation violation;

   private:
    FlatRun& run_;
    Frame& f_;
  };

  /// Handles one not-yet-processed candidate; returns false to stop the
  /// generation pass (fresh child to push, or violation).
  bool dfs_candidate(const State& ns, const Step& step, Frame& f,
                     DfsSink& sink) {
    if (step.assert_failed) {
      sink.violation.kind = ViolationKind::AssertFailed;
      sink.violation.message = "assertion failed: " + m_.describe_step(step);
      sink.child = ns;
      sink.child_step = step;
      sink.outcome = Outcome::Violation;
      return false;
    }
    if (!visited_.insert(succ_key(ns, f.ids))) {
      ++matched_;
      return true;
    }
    if (visited_.size() >= opt_.max_states) {
      truncate(TruncationReason::MaxStates);
      // stored, but not expanded: remember it for the final checkpoint so a
      // resume with a higher limit picks up exactly where this run stopped
      if (ckpt_enabled())
        overflow_.push_back(
            {State(ns), static_cast<std::uint32_t>(stack_.size())});
      return true;
    }
    if (static_cast<int>(stack_.size()) > opt_.max_depth) {
      truncate(TruncationReason::MaxDepth);
      if (ckpt_enabled())
        overflow_.push_back(
            {State(ns), static_cast<std::uint32_t>(stack_.size())});
      return true;
    }
    sink.child = ns;  // the one copy a genuinely fresh state costs
    sink.child_step = step;
    sink.outcome = Outcome::Child;
    return false;
  }

  // A successor whose visited probe is in flight. The engine-path sink
  // defers each candidate's dup check across the next two emits: the probe
  // slot is prefetched when the candidate is compressed, the cluster walk
  // runs one emit later (slot line in cache, arena record of a fingerprint
  // match prefetched), and the arena confirm one emit after that. An exact
  // dup check is two DEPENDENT DRAM misses -- probe slot, then key bytes --
  // that dominate the compiled engines' wall time; pipelining overlays each
  // with the engine's revert/guard/mutate work for the following candidates
  // instead of stalling on them. The pending state is not copied: it is
  // reconstructed on demand from the frame's source state plus the step's
  // (slot, new value) writes.
  struct Pending {
    Step step;
    std::vector<std::uint8_t> key;   // compressed visited key
    std::vector<std::uint32_t> ids;  // successor's per-region component ids
    std::vector<std::pair<std::int32_t, std::int32_t>> writes;
    std::uint64_t hash = 0;
    std::uint32_t off = 0;   // fingerprint match to confirm (stage 2)
    int atomic_pid = -1;
    std::uint8_t stage = 0;  // 0 empty, 1 slot prefetched, 2 record prefetched
  };

  /// Engine-path candidate handling: stages this candidate's visited probe
  /// and advances the two in-flight ones. Candidates still resolve in
  /// stream order, so outcomes, `next` bookkeeping, and verdicts are
  /// identical to the immediate path -- the one observable difference is
  /// that a pass surfaces (and counts) up to two extra candidates before
  /// stopping, which the `counted` high-water mark already de-duplicates
  /// across passes.
  bool dfs_deferred(const State& ns, const Step& step, Frame& f,
                    DfsSink& sink) {
    if (step.assert_failed) {
      // Stream order: if an in-flight candidate is fresh it stops the pass
      // first, and this candidate re-surfaces (and fires) on a later pass.
      if (drain_pending(f, sink)) return false;
      ++f.next;
      sink.violation.kind = ViolationKind::AssertFailed;
      sink.violation.message = "assertion failed: " + m_.describe_step(step);
      sink.child = ns;
      sink.child_step = step;
      sink.outcome = Outcome::Violation;
      return false;
    }
    // Compress and hash now -- the undo log is only valid during this
    // callback -- but keep the result out of the store until later emits.
    const auto key = succ_key(ns, f.ids);
    const std::uint64_t h = visited_.stage(key);
    if (pend_[0].stage == 2 && confirm_front(f, sink)) return false;
    if (pend_[0].stage == 1 && walk_front(f, sink, /*defer=*/true))
      return false;
    // after confirm + walk the front is settled or awaiting its confirm, so
    // one of the two buffers is always free for this candidate
    Pending& p = pend_[pend_[0].stage == 0 ? 0 : 1];
    p.step = step;
    p.key.assign(key.begin(), key.end());
    p.ids.assign(keys_.ids().begin(), keys_.ids().end());
    p.writes.clear();
    for (const auto& [slot, old] : scratch_.undo)
      p.writes.emplace_back(slot, ns.mem[static_cast<std::size_t>(slot)]);
    p.hash = h;
    p.atomic_pid = ns.atomic_pid;
    p.stage = 1;
    return true;
  }

  /// Walks the front candidate's (prefetched) probe cluster. A definitely-
  /// fresh candidate inserts and resolves here; a fingerprint match defers
  /// the arena confirm one more emit (defer) or settles it immediately.
  /// Returns true when the pass must stop.
  bool walk_front(Frame& f, DfsSink& sink, bool defer) {
    Pending& p = pend_[0];
    const auto st = visited_.probe_staged(p.key, p.hash);
    if (st.fresh) return fresh_front(f, sink);
    p.off = st.off;
    p.stage = 2;
    if (defer) return false;
    return confirm_front(f, sink);
  }

  /// Settles the front candidate's prefetched arena confirm. Returns true
  /// when the pass must stop (fresh via fingerprint collision).
  bool confirm_front(Frame& f, DfsSink& sink) {
    Pending& p = pend_[0];
    if (!visited_.confirm_staged(p.key, p.hash, p.off)) {
      ++matched_;
      ++f.next;
      pop_front();
      return false;
    }
    return fresh_front(f, sink);
  }

  /// The front candidate proved fresh (already in the store). Truncation
  /// keeps the pass streaming; otherwise the pass stops with the child.
  bool fresh_front(Frame& f, DfsSink& sink) {
    Pending& p = pend_[0];
    ++f.next;
    if (visited_.size() >= opt_.max_states) {
      truncate(TruncationReason::MaxStates);
      if (ckpt_enabled())
        overflow_.push_back(
            {pending_state(f, p), static_cast<std::uint32_t>(stack_.size())});
      pop_front();
      return false;
    }
    if (static_cast<int>(stack_.size()) > opt_.max_depth) {
      truncate(TruncationReason::MaxDepth);
      if (ckpt_enabled())
        overflow_.push_back(
            {pending_state(f, p), static_cast<std::uint32_t>(stack_.size())});
      pop_front();
      return false;
    }
    sink.child = pending_state(f, p);
    sink.child_step = p.step;
    // the frame push reads the child's region ids out of keys_.ids(), which
    // a later candidate's compression has since overwritten
    keys_.ids().assign(p.ids.begin(), p.ids.end());
    sink.outcome = Outcome::Child;
    // a younger in-flight candidate sits exactly at the new f.next, so it
    // re-surfaces on the next pass; drop it
    pend_[0].stage = 0;
    pend_[1].stage = 0;
    return true;
  }

  void pop_front() {
    std::swap(pend_[0], pend_[1]);  // recycles the settled buffers
    pend_[1].stage = 0;
  }

  /// Fully resolves every in-flight candidate in stream order (pass end, or
  /// a violation they outrank). Returns true when one was fresh.
  bool drain_pending(Frame& f, DfsSink& sink) {
    while (pend_[0].stage != 0) {
      if (pend_[0].stage == 1) {
        if (walk_front(f, sink, /*defer=*/false)) return true;
      } else if (confirm_front(f, sink)) {
        return true;
      }
    }
    return false;
  }

  /// An in-flight candidate's state: the frame's source state with the
  /// step's writes applied (write order is irrelevant -- every recorded
  /// value is the slot's final one).
  State pending_state(const Frame& f, const Pending& p) const {
    State s(f.state);
    for (const auto& [slot, val] : p.writes)
      s.mem[static_cast<std::size_t>(slot)] = val;
    s.atomic_pid = p.atomic_pid;
    return s;
  }

  Result dfs() {
    Result r;
    const OnStackFn on_stack_fn = [this](const State& st) {
      kernel::encode_key_into(st, probe_buf_);
      return on_stack_.contains(probe_buf_);
    };
    const OnStackFn* proviso = opt_.por ? &on_stack_fn : nullptr;

    if (opt_.resume_from != nullptr) {
      // Resumed search: the visited set is re-seeded from the snapshot and
      // the frontier states wait in seeds_; each becomes a stack root when
      // the previous one's subtree is exhausted. POR is rejected here (see
      // the constructor), so on_stack_ stays empty.
      seed_resume();
    } else {
      Frame root;
      root.state = m_.initial();
      visited_.insert(root_key(root.state));
      if (!opt_.bitstate) root.ids = keys_.ids();
      if (opt_.por) {
        kernel::encode_key_into(root.state, root.raw_key);
        on_stack_.insert(root.raw_key);
      }
      stack_.push_back(std::move(root));
    }

    const std::uint64_t per_frame_bytes =
        sizeof(Frame) + 2 * state_bytes();  // state vector + raw key
    while (true) {
      if (stack_.empty() && !next_seed()) break;
      if (stopped()) {
        complete_ = false;
        break;
      }
      if (interrupt_requested()) {
        truncate(TruncationReason::Interrupted);
        break;
      }
      if (over_budget(stack_.size() * per_frame_bytes)) break;
      observe(stack_.size() * per_frame_bytes);
      maybe_checkpoint();
      Frame& f = stack_.back();
      const bool first = !f.checked;
      if (first) {
        f.checked = true;
        if (opt_.por) {
          f.por_choice = por_choose(m_, f.state, proviso, scratch_,
                                    opt_.engine);
          if (f.por_choice >= 0) ++por_ample_;
        }
        max_depth_seen_ = std::max(max_depth_seen_,
                                   static_cast<int>(stack_.size()) - 1);
        // The invariant check moved ahead of successor generation
        // (generation has no side effects and the check reads only the
        // state), so the verdict and trace are unchanged.
        if (auto v = invariant_violation(m_, opt_, f.state)) {
          v->trace = stack_trace(nullptr, nullptr);
          r.violation = std::move(*v);
          return r;
        }
      }
      DfsSink sink(*this, f);
      if (opt_.por) {
        if (opt_.engine) {
          // Engine-backed POR: same native skip / resume-token / deferred-
          // probe pipeline as the plain engine path below, applied to the
          // recorded ample choice's stream (full sweep when choice < 0).
          sink.idx_ = f.next;
          sink.defer_ = !opt_.bitstate;
          por_visit(m_, f.state, f.por_choice, scratch_, sink, opt_.engine,
                    f.next, &f.resume);
          drain_pending(f, sink);
        } else {
          por_visit(m_, f.state, f.por_choice, scratch_, sink);
        }
      } else if (opt_.engine) {
        // Compiled engines suppress the already-handled candidates natively
        // (guard bookkeeping intact, no mutate/emit/revert): start the sink's
        // index where the engine resumes so candidate numbering is unchanged.
        sink.idx_ = f.next;
        sink.defer_ = !opt_.bitstate;
        opt_.engine->visit_successors(f.state, scratch_, sink, f.next,
                                      &f.resume);
        drain_pending(f, sink);  // in-flight candidates' probes, in order
      } else
        m_.visit_successors(f.state, scratch_, sink);
      switch (sink.outcome) {
        case Outcome::Violation:
          sink.violation.trace = stack_trace(&sink.child_step, &sink.child);
          r.violation = std::move(sink.violation);
          return r;
        case Outcome::Child: {
          Frame nf;
          nf.state = std::move(sink.child);
          // keys_.ids() still holds the child's ids: the pass stopped at it
          if (!opt_.bitstate) nf.ids = keys_.ids();
          nf.in_step = sink.child_step;
          if (opt_.por) {
            kernel::encode_key_into(nf.state, nf.raw_key);
            on_stack_.insert(nf.raw_key);
          }
          stack_.push_back(std::move(nf));
          break;
        }
        case Outcome::Exhausted:
          // A first pass that saw zero candidates means a terminal state.
          if (first && sink.idx_ == 0) {
            if (auto v = terminal_violation(m_, opt_, f.state)) {
              v->trace = stack_trace(nullptr, nullptr);
              r.violation = std::move(*v);
              return r;
            }
          }
          if (opt_.por) on_stack_.erase(stack_.back().raw_key);
          stack_.pop_back();
          break;
      }
    }
    return r;
  }

  struct BfsNode {
    State state;
    std::vector<std::uint32_t> ids;  // per-region component ids (exact mode)
    std::int64_t parent;
    Step in_step;
  };

  class BfsSink final : public kernel::SuccSink {
   public:
    BfsSink(FlatRun& run, std::int64_t head) : run_(run), head_(head) {}

    bool on_successor(const State& ns, const Step& step) override {
      ++count;
      return run_.bfs_candidate(ns, step, head_, *this);
    }

    std::uint32_t count = 0;
    bool violated = false;
    Violation violation;
    State vstate;
    Step vstep;

   private:
    FlatRun& run_;
    std::int64_t head_;
  };

  bool bfs_candidate(const State& ns, const Step& step, std::int64_t head,
                     BfsSink& sink) {
    ++transitions_;
    if (step.assert_failed) {
      sink.violation.kind = ViolationKind::AssertFailed;
      sink.violation.message = "assertion failed: " + m_.describe_step(step);
      sink.vstate = ns;
      sink.vstep = step;
      sink.violated = true;
      return false;
    }
    if (!visited_.insert(
            succ_key(ns, nodes_[static_cast<std::size_t>(head)].ids))) {
      ++matched_;
      return true;
    }
    if (visited_.size() >= opt_.max_states) {
      truncate(TruncationReason::MaxStates);
      if (ckpt_enabled()) overflow_.push_back({State(ns), 0});
      return true;
    }
    nodes_.push_back({State(ns),
                      opt_.bitstate ? std::vector<std::uint32_t>()
                                    : keys_.ids(),
                      head, step});
    return true;
  }

  Result bfs() {
    Result r;
    auto build_trace = [&](std::int64_t i, const Step* extra_step,
                           const State* extra_state) {
      trace::Trace t;
      if (!opt_.want_trace) return t;
      std::vector<trace::TraceStep> rev;
      for (std::int64_t j = i; j > 0;
           j = nodes_[static_cast<std::size_t>(j)].parent)
        rev.push_back({nodes_[static_cast<std::size_t>(j)].in_step,
                       m_.describe_step(
                           nodes_[static_cast<std::size_t>(j)].in_step)});
      t.steps.assign(rev.rbegin(), rev.rend());
      if (extra_step)
        t.steps.push_back({*extra_step, m_.describe_step(*extra_step)});
      t.final_state = m_.format_state(
          extra_state ? *extra_state
                      : nodes_[static_cast<std::size_t>(i)].state);
      return t;
    };

    if (opt_.resume_from != nullptr) {
      // Resumed search: frontier states re-enter the queue as parentless
      // roots, so a counterexample trail found after resume starts at a
      // checkpointed frontier state rather than the initial state.
      seed_resume();
      for (Checkpoint::Pending& p : seeds_) {
        BfsNode n{std::move(p.state), {}, -1, {}};
        keys_.full(n.state);
        n.ids = keys_.ids();
        nodes_.push_back(std::move(n));
      }
      seeds_.clear();
    } else {
      BfsNode root{m_.initial(), {}, -1, {}};
      visited_.insert(root_key(root.state));
      if (!opt_.bitstate) root.ids = keys_.ids();
      nodes_.push_back(std::move(root));
    }

    const std::uint64_t per_node_bytes = sizeof(BfsNode) + state_bytes();
    // bfs_head_ is a member so a checkpoint cut knows where the unexpanded
    // tail begins; on a clean exit it equals nodes_.size() (empty frontier).
    for (bfs_head_ = 0;
         bfs_head_ < static_cast<std::int64_t>(nodes_.size()); ++bfs_head_) {
      const std::int64_t head = bfs_head_;
      if (stopped()) {
        complete_ = false;
        break;
      }
      if (interrupt_requested()) {
        truncate(TruncationReason::Interrupted);
        break;
      }
      if (over_budget(nodes_.size() * per_node_bytes)) break;
      observe(nodes_.size() * per_node_bytes);
      maybe_checkpoint();
      if (auto v = invariant_violation(
              m_, opt_, nodes_[static_cast<std::size_t>(head)].state)) {
        v->trace = build_trace(head, nullptr, nullptr);
        r.violation = std::move(*v);
        return r;
      }
      // Deque references survive push_back, so streaming new nodes into
      // nodes_ while expanding the head is safe.
      const State& hs = nodes_[static_cast<std::size_t>(head)].state;
      BfsSink sink(*this, head);
      if (opt_.por) {
        const int choice = por_choose(m_, hs, nullptr, scratch_, opt_.engine);
        if (choice >= 0) ++por_ample_;
        por_visit(m_, hs, choice, scratch_, sink, opt_.engine);
      } else if (opt_.engine)
        opt_.engine->visit_successors(hs, scratch_, sink);
      else
        m_.visit_successors(hs, scratch_, sink);
      if (sink.violated) {
        sink.violation.trace = build_trace(head, &sink.vstep, &sink.vstate);
        r.violation = std::move(sink.violation);
        return r;
      }
      if (sink.count == 0) {
        if (auto v = terminal_violation(
                m_, opt_, nodes_[static_cast<std::size_t>(head)].state)) {
          v->trace = build_trace(head, nullptr, nullptr);
          r.violation = std::move(*v);
          return r;
        }
      }
    }
    max_depth_seen_ = 0;  // depth tracking is a DFS notion
    return r;
  }

  /// Key of the root state (no parent to delta against). Exact mode uses
  /// the compressed component-id encoding (injective, so set membership is
  /// unchanged); bitstate mode keeps hashing the raw canonical encoding --
  /// the Bloom filter's verdict depends on the exact bytes its hash
  /// functions see. Exact mode leaves the state's per-region ids in
  /// keys_.ids() for the caller to adopt.
  std::span<const std::uint8_t> root_key(const State& s) {
    if (opt_.bitstate) {
      kernel::encode_key_into(s, probe_buf_);
      return byte_span(probe_buf_);
    }
    return keys_.full(s);
  }

  /// Key of a successor just produced by the streaming generator, while its
  /// undo log still describes the mutation (see CollapseKeys::delta).
  std::span<const std::uint8_t> succ_key(
      const State& s, const std::vector<std::uint32_t>& parent_ids) {
    if (opt_.bitstate) {
      kernel::encode_key_into(s, probe_buf_);
      return byte_span(probe_buf_);
    }
    return keys_.delta(s, parent_ids.data(), scratch_.undo);
  }

  std::uint64_t store_bytes() const {
    return visited_.approx_bytes() +
           (opt_.bitstate ? 0 : keys_.compressor().approx_bytes());
  }

  trace::Trace stack_trace(const Step* extra_step,
                           const State* extra_state) const {
    trace::Trace t;
    if (!opt_.want_trace) return t;
    // Descriptions are rendered only here, on the cold path: the DFS push
    // path must not pay for string construction.
    for (std::size_t i = 1; i < stack_.size(); ++i)
      t.steps.push_back(
          {stack_[i].in_step, m_.describe_step(stack_[i].in_step)});
    if (extra_step)
      t.steps.push_back({*extra_step, m_.describe_step(*extra_step)});
    t.final_state =
        m_.format_state(extra_state ? *extra_state : stack_.back().state);
    return t;
  }

  void truncate(TruncationReason why) {
    complete_ = false;
    if (truncation_ == TruncationReason::None) truncation_ = why;
  }

  /// Deadline / memory check, amortized: the clock and the footprint sum
  /// are only consulted every `kBudgetCheckStride` expansion passes.
  bool over_budget(std::uint64_t frontier_bytes) {
    if (opt_.deadline_seconds <= 0.0 && opt_.memory_budget_bytes == 0)
      return false;
    if (++budget_tick_ % kBudgetCheckStride != 0) return false;
    frontier_bytes_ = frontier_bytes;
    if (opt_.deadline_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      if (elapsed >= opt_.deadline_seconds) {
        truncate(TruncationReason::Deadline);
        return true;
      }
    }
    if (opt_.memory_budget_bytes > 0 && !spilled_) {
      const std::uint64_t used =
          store_bytes() + frontier_bytes + observer_bytes();
      // Spill ahead of exhaustion (at 80% of the budget) so the resident
      // probe arrays and pre-spill slabs stay under it; once spilled the
      // budget governs residency, not growth, and never truncates.
      if (!opt_.spill_dir.empty() && !opt_.bitstate &&
          used >= opt_.memory_budget_bytes - opt_.memory_budget_bytes / 5) {
        begin_spill(used);
        if (spilled_) return false;
      }
      if (used >= opt_.memory_budget_bytes) {
        truncate(TruncationReason::MemoryBudget);
        return true;
      }
    }
    return false;
  }

  /// Switches the visited-key arena and compressor intern pools to
  /// disk-backed storage. Failure (unusable spill dir, disk full) falls
  /// back to the in-RAM truncation path instead of aborting the search.
  void begin_spill(std::uint64_t used) {
    try {
      spill_ = std::make_unique<support::SpillPool>(opt_.spill_dir);
      visited_.attach_spill(spill_.get());
      keys_.compressor().attach_spill(spill_.get());
      spilled_ = true;
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("memory-spill", used,
                                 opt_.memory_budget_bytes);
    } catch (const ModelError&) {
      spill_.reset();
    }
  }

  bool interrupt_requested() const {
    return opt_.interrupt != nullptr &&
           opt_.interrupt->load(std::memory_order_relaxed);
  }

  bool ckpt_enabled() const {
    return !opt_.checkpoint_path.empty() && !opt_.bitstate && !ckpt_failed_;
  }

  void maybe_checkpoint() {
    if (!ckpt_enabled() || opt_.checkpoint_every == 0) return;
    if (visited_.size() < last_ckpt_states_ + opt_.checkpoint_every) return;
    commit_checkpoint();
  }

  /// Commits a consistent cut: every visited state (decompressed back to
  /// value-array form) plus the unexpanded frontier -- the DFS stack / BFS
  /// queue tail, unconsumed resume seeds, and truncation overflow. I/O
  /// failure disables further checkpoints and keeps searching: losing
  /// durability beats aborting a verification mid-flight.
  void commit_checkpoint() {
    CheckpointMeta meta;
    meta.config_digest = opt_.config_digest;
    meta.state_size = static_cast<std::uint32_t>(m_.layout().size());
    meta.states_matched = matched_;
    meta.transitions = transitions_;
    meta.seq = ckpt_seq_ + 1;
    try {
      write_checkpoint(
          opt_.checkpoint_path, meta,
          [&](const StateSink& sink) {
            visited_.for_each_key([&](std::span<const std::uint8_t> key) {
              sink(keys_.compressor().decompress(key), 0);
            });
          },
          [&](const StateSink& sink) {
            if (opt_.bfs) {
              for (std::int64_t j = bfs_head_;
                   j < static_cast<std::int64_t>(nodes_.size()); ++j)
                sink(nodes_[static_cast<std::size_t>(j)].state, 0);
            } else {
              for (std::size_t i = 0; i < stack_.size(); ++i)
                sink(stack_[i].state, static_cast<std::uint32_t>(i));
            }
            for (const Checkpoint::Pending& p : seeds_) sink(p.state, p.depth);
            for (const Checkpoint::Pending& p : overflow_)
              sink(p.state, p.depth);
          });
    } catch (const ModelError&) {
      ckpt_failed_ = true;
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("checkpoint-io", ckpt_seq_ + 1, 0);
      return;
    }
    ++ckpt_seq_;
    ++ckpt_written_;
    last_ckpt_states_ = visited_.size();
    if (opt_.obs != nullptr)
      opt_.obs->checkpointed(opt_.checkpoint_path, visited_.size(), ckpt_seq_);
  }

  /// Re-seeds the visited set and counters from opt_.resume_from. The
  /// compressor re-interns every state, rebuilding its tables and arenas
  /// deterministically; the frontier lands in seeds_.
  void seed_resume() {
    const Checkpoint& c = *opt_.resume_from;
    for (const State& s : c.visited) visited_.insert(keys_.full(s));
    matched_ = c.meta.states_matched;
    transitions_ = c.meta.transitions;
    ckpt_seq_ = c.meta.seq;
    last_ckpt_states_ = visited_.size();
    seeds_.assign(c.frontier.begin(), c.frontier.end());
    if (opt_.obs != nullptr)
      opt_.obs->resumed(opt_.checkpoint_path, visited_.size());
  }

  /// Pops the next resume seed onto the empty DFS stack. Seed frames sit at
  /// index 0 like the root, so stack_trace() naturally reports the trail
  /// from the checkpointed frontier state onward.
  bool next_seed() {
    if (seeds_.empty()) return false;
    Frame f;
    f.state = std::move(seeds_.back().state);
    seeds_.pop_back();
    keys_.full(f.state);
    f.ids = keys_.ids();
    stack_.push_back(std::move(f));
    return true;
  }

  std::uint64_t observer_bytes() const {
    return opt_.obs != nullptr ? opt_.obs->approx_bytes() : 0;
  }

  /// Telemetry tick, amortized like over_budget(): every kBudgetCheckStride
  /// expansion passes, publish the local tallies into this run's counter
  /// block (absolute relaxed stores), offer a rate-limited heartbeat, and
  /// emit the one-shot 80% budget warnings.
  void observe(std::uint64_t frontier_bytes) {
    if (blk_ == nullptr) return;
    if (++obs_tick_ % kBudgetCheckStride != 0) return;
    publish_counters();
    const std::uint64_t stored = visited_.size();
    opt_.obs->progress(stored, opt_.max_states);
    if (!warned_states_ && opt_.max_states > 0 &&
        stored >= opt_.max_states - opt_.max_states / 5) {
      warned_states_ = true;
      opt_.obs->budget_warning("max-states", stored, opt_.max_states);
    }
    if (!warned_memory_ && opt_.memory_budget_bytes > 0) {
      const std::uint64_t used =
          store_bytes() + frontier_bytes + observer_bytes();
      if (used >= opt_.memory_budget_bytes - opt_.memory_budget_bytes / 5) {
        warned_memory_ = true;
        opt_.obs->budget_warning("memory", used, opt_.memory_budget_bytes);
      }
    }
  }

  void publish_counters() {
    blk_->set(obs::Counter::StatesStored, visited_.size());
    blk_->set(obs::Counter::StatesMatched, matched_);
    blk_->set(obs::Counter::Transitions, transitions_);
    blk_->set(obs::Counter::PorAmpleSets, por_ample_);
    blk_->set(obs::Counter::CompressFull, keys_.full_count());
    blk_->set(obs::Counter::CompressDelta, keys_.delta_count());
  }

  std::uint64_t state_bytes() const {
    return static_cast<std::uint64_t>(m_.layout().size()) *
           sizeof(kernel::Value);
  }

  bool stopped() const {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  const Machine& m_;
  const Options& opt_;
  VisitedSet visited_;
  CollapseKeys keys_;  // exact-mode keys (COLLAPSE, delta from parent ids)
  const std::atomic<bool>* stop_ = nullptr;

  kernel::SuccScratch scratch_;
  std::vector<Frame> stack_;
  std::deque<BfsNode> nodes_;
  std::unordered_set<std::string> on_stack_;
  Pending pend_[2];  // engine-path probe pipeline, oldest first (DFS only)
  std::string probe_buf_;

  std::uint64_t matched_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t budget_tick_ = 0;
  std::uint64_t frontier_bytes_ = 0;
  int max_depth_seen_ = 0;
  bool complete_ = true;
  TruncationReason truncation_ = TruncationReason::None;
  std::chrono::steady_clock::time_point start_{};

  obs::CounterBlock* blk_ = nullptr;  // this run's telemetry slice
  std::uint64_t obs_tick_ = 0;
  std::uint64_t por_ample_ = 0;
  bool warned_states_ = false;
  bool warned_memory_ = false;

  // -- durability state ------------------------------------------------------
  std::unique_ptr<support::SpillPool> spill_;
  bool spilled_ = false;
  bool ckpt_failed_ = false;
  std::uint64_t ckpt_seq_ = 0;        // last committed sequence number
  std::uint64_t ckpt_written_ = 0;    // checkpoints committed by THIS run
  std::uint64_t last_ckpt_states_ = 0;
  std::int64_t bfs_head_ = 0;         // first unexpanded BFS node
  std::vector<Checkpoint::Pending> seeds_;     // resume frontier, unconsumed
  std::vector<Checkpoint::Pending> overflow_;  // stored-not-expanded on limit
};

/// The legacy copy-based engine, retained exclusively for swarm workers
/// with a nonzero permutation seed: shuffling a state's successor order
/// requires the whole list materialized, so these searches keep building
/// successor vectors and raw keys. Worker 0 of a swarm (seed 0) runs the
/// streaming engine above instead.
class PermutedRun {
 public:
  PermutedRun(const Machine& m, const Options& opt, std::uint64_t perm_seed,
              std::uint64_t bitstate_seed, const std::atomic<bool>* stop)
      : m_(m),
        opt_(opt),
        visited_(opt.bitstate, opt.bitstate_bytes, bitstate_seed),
        perm_seed_(perm_seed),
        stop_(stop) {
    if (opt.obs != nullptr) blk_ = opt.obs->recorder().open_block();
  }

  Result go() {
    start_ = std::chrono::steady_clock::now();
    Result r = opt_.bfs ? bfs() : dfs();
    r.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    r.stats.states_stored = visited_.size();
    r.stats.states_matched = matched_;
    r.stats.transitions = transitions_;
    r.stats.max_depth_reached = max_depth_seen_;
    r.stats.complete = complete_ && !opt_.bitstate;
    r.stats.store_bytes = visited_.approx_bytes();
    r.stats.approx_memory_bytes = visited_.approx_bytes() + frontier_bytes_;
    // A hard truncation (deadline, limit) is the more actionable
    // explanation; bitstate approximation is only reported when nothing
    // else cut the search short.
    r.stats.truncation = truncation_ != TruncationReason::None
                             ? truncation_
                             : (opt_.bitstate ? TruncationReason::BitstateApprox
                                              : TruncationReason::None);
    if (blk_ != nullptr) {
      publish_counters();
      opt_.obs->recorder().max_gauge(
          obs::Gauge::MaxDepthReached,
          static_cast<std::uint64_t>(max_depth_seen_));
      r.stats.approx_memory_bytes += opt_.obs->approx_bytes();
    }
    return r;
  }

 private:
  // DFS frames do NOT own their successor lists: only the top-of-stack
  // frame's successors are materialized (in a shared scratch vector) and
  // they are regenerated when the search returns to a frame.
  struct Frame {
    State state;
    std::string key;
    Step in_step;  // step that produced this state (invalid at root)
    std::uint32_t next = 0;
    bool checked = false;
    int por_choice = -1;  // recorded ample decision (see por_choose)
  };

  void truncate(TruncationReason why) {
    complete_ = false;
    if (truncation_ == TruncationReason::None) truncation_ = why;
  }

  bool over_budget(std::uint64_t frontier_bytes) {
    if (opt_.deadline_seconds <= 0.0 && opt_.memory_budget_bytes == 0)
      return false;
    if (++budget_tick_ % kBudgetCheckStride != 0) return false;
    frontier_bytes_ = frontier_bytes;
    if (opt_.deadline_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      if (elapsed >= opt_.deadline_seconds) {
        truncate(TruncationReason::Deadline);
        return true;
      }
    }
    if (opt_.memory_budget_bytes > 0 &&
        visited_.approx_bytes() + frontier_bytes +
                (opt_.obs != nullptr ? opt_.obs->approx_bytes() : 0) >=
            opt_.memory_budget_bytes) {
      truncate(TruncationReason::MemoryBudget);
      return true;
    }
    return false;
  }

  /// Swarm workers publish their tallies every kBudgetCheckStride
  /// expansions; the seeded searches overlap, so their counters are a
  /// coverage-effort measure, not a deduplicated state count.
  void observe() {
    if (blk_ == nullptr) return;
    if (++obs_tick_ % kBudgetCheckStride != 0) return;
    publish_counters();
    opt_.obs->progress(visited_.size(), opt_.max_states);
  }

  void publish_counters() {
    blk_->set(obs::Counter::StatesStored, visited_.size());
    blk_->set(obs::Counter::StatesMatched, matched_);
    blk_->set(obs::Counter::Transitions, transitions_);
    blk_->set(obs::Counter::PorAmpleSets, por_ample_);
  }

  /// Per-state checks (invariant, deadlock). Returns a violation or nullopt.
  std::optional<Violation> check_state(const State& s, bool has_succ) {
    if (auto v = invariant_violation(m_, opt_, s)) return v;
    if (!has_succ) return terminal_violation(m_, opt_, s);
    return std::nullopt;
  }

  trace::Trace stack_trace(const std::vector<Frame>& stack,
                           const Succ* extra) const {
    trace::Trace t;
    if (!opt_.want_trace) return t;
    for (std::size_t i = 1; i < stack.size(); ++i)
      t.steps.push_back(
          {stack[i].in_step, m_.describe_step(stack[i].in_step)});
    if (extra)
      t.steps.push_back({extra->second, m_.describe_step(extra->second)});
    const State& final_state =
        extra ? extra->first : stack.back().state;
    t.final_state = m_.format_state(final_state);
    return t;
  }

  Result dfs() {
    Result r;
    std::vector<Frame> stack;
    std::unordered_set<std::string> on_stack;
    const OnStackFn on_stack_fn = [&on_stack](const State& s) {
      return on_stack.contains(kernel::encode_key(s));
    };
    const OnStackFn* proviso = opt_.por ? &on_stack_fn : nullptr;

    Frame root;
    root.state = m_.initial();
    root.key = kernel::encode_key(root.state);
    visited_.insert(byte_span(root.key));
    stack.push_back(std::move(root));
    if (opt_.por) on_stack.insert(stack.back().key);

    std::vector<Succ> succs;          // successors of the top frame only
    std::ptrdiff_t succs_for = -1;    // stack index the scratch belongs to

    const std::uint64_t per_frame_bytes =
        sizeof(Frame) + 2 * state_bytes();  // state vector + encoded key
    while (!stack.empty()) {
      if (stopped()) {
        complete_ = false;
        break;
      }
      if (over_budget(stack.size() * per_frame_bytes)) break;
      observe();
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(stack.size()) - 1;
      Frame& f = stack[static_cast<std::size_t>(idx)];
      if (succs_for != idx) {
        succs.clear();
        if (!f.checked && opt_.por) {
          f.por_choice = por_choose(m_, f.state, proviso, opt_.engine);
          if (f.por_choice >= 0) ++por_ample_;
        }
        if (opt_.por)
          por_expand(m_, f.state, f.por_choice, succs, opt_.engine);
        else if (opt_.engine)
          opt_.engine->successors(f.state, succs);
        else
          m_.successors(f.state, succs);
        if (perm_seed_ != 0) permute_succs(succs, perm_seed_, f.key);
        succs_for = idx;
        if (!f.checked) {
          f.checked = true;
          transitions_ += succs.size();
          max_depth_seen_ = std::max(max_depth_seen_, static_cast<int>(idx));
          if (auto v = check_state(f.state, !succs.empty())) {
            v->trace = stack_trace(stack, nullptr);
            r.violation = std::move(*v);
            return r;
          }
        }
      }
      if (f.next >= succs.size()) {
        if (opt_.por) on_stack.erase(f.key);
        stack.pop_back();
        succs_for = -1;
        continue;
      }
      Succ& succ = succs[f.next++];
      if (succ.second.assert_failed) {
        Violation v;
        v.kind = ViolationKind::AssertFailed;
        v.message = "assertion failed: " + m_.describe_step(succ.second);
        v.trace = stack_trace(stack, &succ);
        r.violation = std::move(v);
        return r;
      }
      std::string key = kernel::encode_key(succ.first);
      if (!visited_.insert(byte_span(key))) {
        ++matched_;
        continue;
      }
      if (visited_.size() >= opt_.max_states) {
        truncate(TruncationReason::MaxStates);
        continue;
      }
      if (static_cast<int>(stack.size()) > opt_.max_depth) {
        truncate(TruncationReason::MaxDepth);
        continue;
      }
      Frame nf;
      nf.state = std::move(succ.first);
      nf.key = std::move(key);
      nf.in_step = succ.second;
      if (opt_.por) on_stack.insert(nf.key);
      stack.push_back(std::move(nf));
      succs_for = -1;  // the new top needs its own successor list
    }
    return r;
  }

  Result bfs() {
    Result r;
    struct Node {
      State state;
      std::int64_t parent;
      Step in_step;
    };
    std::deque<Node> nodes;

    auto build_trace = [&](std::int64_t i, const Succ* extra) {
      trace::Trace t;
      if (!opt_.want_trace) return t;
      std::vector<trace::TraceStep> rev;
      for (std::int64_t j = i; j > 0; j = nodes[static_cast<std::size_t>(j)].parent)
        rev.push_back({nodes[static_cast<std::size_t>(j)].in_step,
                       m_.describe_step(nodes[static_cast<std::size_t>(j)].in_step)});
      t.steps.assign(rev.rbegin(), rev.rend());
      if (extra)
        t.steps.push_back({extra->second, m_.describe_step(extra->second)});
      t.final_state = m_.format_state(
          extra ? extra->first : nodes[static_cast<std::size_t>(i)].state);
      return t;
    };

    {
      Node root{m_.initial(), -1, {}};
      const std::string key = kernel::encode_key(root.state);
      visited_.insert(byte_span(key));
      nodes.push_back(std::move(root));
    }

    const std::uint64_t per_node_bytes = sizeof(Node) + 2 * state_bytes();
    std::vector<Succ> succs;
    for (std::int64_t head = 0; head < static_cast<std::int64_t>(nodes.size());
         ++head) {
      if (stopped()) {
        complete_ = false;
        break;
      }
      if (over_budget(nodes.size() * per_node_bytes)) break;
      observe();
      succs.clear();
      if (opt_.por)
        por_successors(m_, nodes[static_cast<std::size_t>(head)].state, succs,
                       nullptr, opt_.engine);
      else if (opt_.engine)
        opt_.engine->successors(nodes[static_cast<std::size_t>(head)].state,
                                succs);
      else
        m_.successors(nodes[static_cast<std::size_t>(head)].state, succs);
      if (perm_seed_ != 0)
        permute_succs(
            succs, perm_seed_,
            kernel::encode_key(nodes[static_cast<std::size_t>(head)].state));
      transitions_ += succs.size();
      if (auto v = check_state(nodes[static_cast<std::size_t>(head)].state,
                               !succs.empty())) {
        v->trace = build_trace(head, nullptr);
        r.violation = std::move(*v);
        return r;
      }
      for (Succ& succ : succs) {
        if (succ.second.assert_failed) {
          Violation v;
          v.kind = ViolationKind::AssertFailed;
          v.message = "assertion failed: " + m_.describe_step(succ.second);
          v.trace = build_trace(head, &succ);
          r.violation = std::move(v);
          return r;
        }
        std::string key = kernel::encode_key(succ.first);
        if (!visited_.insert(byte_span(key))) {
          ++matched_;
          continue;
        }
        if (visited_.size() >= opt_.max_states) {
          truncate(TruncationReason::MaxStates);
          continue;
        }
        nodes.push_back({std::move(succ.first), head, succ.second});
      }
    }
    max_depth_seen_ = 0;  // depth tracking is a DFS notion
    return r;
  }

  std::uint64_t state_bytes() const {
    return static_cast<std::uint64_t>(m_.layout().size()) *
           sizeof(kernel::Value);
  }

  bool stopped() const {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  const Machine& m_;
  const Options& opt_;
  VisitedSet visited_;
  std::uint64_t perm_seed_ = 0;
  const std::atomic<bool>* stop_ = nullptr;
  std::uint64_t matched_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t budget_tick_ = 0;
  std::uint64_t frontier_bytes_ = 0;
  int max_depth_seen_ = 0;
  bool complete_ = true;
  TruncationReason truncation_ = TruncationReason::None;
  std::chrono::steady_clock::time_point start_{};

  obs::CounterBlock* blk_ = nullptr;
  std::uint64_t obs_tick_ = 0;
  std::uint64_t por_ample_ = 0;
};

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

Result run_single(const kernel::Machine& m, const Options& opt,
                  std::uint64_t perm_seed, std::uint64_t bitstate_seed,
                  const std::atomic<bool>* stop) {
  if (perm_seed == 0) {
    FlatRun run(m, opt, stop);
    return run.go();
  }
  PermutedRun run(m, opt, perm_seed, bitstate_seed, stop);
  return run.go();
}

}  // namespace detail

Result explore(const kernel::Machine& m, const Options& opt) {
  const int threads = resolve_threads(opt.threads);
  if (threads <= 1) {
    FlatRun run(m, opt, nullptr);
    return run.go();
  }
  return opt.bitstate ? detail::run_swarm(m, opt, threads)
                      : detail::run_parallel(m, opt, threads);
}

}  // namespace pnp::explore
