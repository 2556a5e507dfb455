#include "explore/explorer.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>

#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/collapse_keys.h"
#include "explore/governor.h"
#include "explore/por.h"
#include "explore/visited.h"
#include "support/hash.h"
#include "support/panic.h"

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

namespace detail {

std::optional<Violation> invariant_violation(const kernel::Machine& m,
                                             const Options& opt,
                                             const kernel::State& s) {
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

std::optional<Violation> terminal_violation(const kernel::Machine& m,
                                            const Options& opt,
                                            const kernel::State& s) {
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

}  // namespace detail

namespace {

using detail::invariant_violation;
using detail::terminal_violation;
using kernel::Machine;
using kernel::State;
using kernel::Step;
using kernel::Succ;

/// The streaming sequential engine: COLLAPSE component compression, flat
/// visited store, and mutate-and-revert successor generation through the
/// run's engine. Runs every single-threaded search (exact and bitstate),
/// swarm workers included. Discovery order -- and therefore verdicts,
/// stored-state counts, counterexample trails, and the exact bit pattern of
/// the bitstate filter -- is identical to the historical copy-based engine
/// (DESIGN.md section 11 has the step-by-step argument).
class FlatRun {
 public:
  FlatRun(const Machine& m, const Options& opt, std::uint64_t seed,
          std::atomic<bool>* stop)
      : gov_(opt, static_cast<std::uint32_t>(m.layout().size()), stop),
        m_(m),
        opt_(opt),
        eng_(*opt.engine),
        visited_(opt.bitstate, opt.bitstate_bytes, seed),
        keys_(m.layout()),
        seed_(seed),
        // The pipelined probe pays per-candidate bookkeeping to overlap the
        // store's cache misses with the next candidates' generation. Only
        // native code generates fast enough for that to pay; under the
        // interpreter and the bytecode engine generation dominates
        // (DESIGN.md section 15.4). Bitstate has no exact probe to pipeline.
        defer_(!opt.bitstate &&
               opt.engine->kind() == codegen::EngineKind::Aot) {
    PNP_CHECK(seed == 0 || opt.bitstate,
              "a seeded search order requires bitstate mode (replayed "
              "successors carry no undo log to delta-compress from)");
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
    if (!opt.bitstate)
      gov_.spill_into([this](support::SpillPool* pool) {
        visited_.attach_spill(pool);
        keys_.compressor().attach_spill(pool);
      });
  }

  Result go() {
    Result r = opt_.bfs ? bfs() : dfs();
    // Final checkpoint: persist the cut whenever the search ended without a
    // verdict -- on truncation/interrupt it is the resume point, and for a
    // complete pass it is an empty-frontier snapshot a resume returns from
    // immediately.
    if (gov_.checkpointing() && !r.violation.has_value()) commit_checkpoint();
    r.stats.states_stored = visited_.size();
    r.stats.states_matched = matched_;
    r.stats.transitions = transitions_;
    r.stats.max_depth_reached = max_depth_seen_;
    gov_.finish(r.stats, *this, opt_.bitstate);
    if (blk_ != nullptr) {
      publish();
      gov_.publish(r.stats, opt_.bitstate ? nullptr : &keys_.compressor());
    }
    return r;
  }

  // The governor's view of this search (governor.h).
  std::uint64_t stored() const { return visited_.size(); }

  std::uint64_t store_bytes() const {
    return visited_.approx_bytes() +
           (opt_.bitstate ? 0 : keys_.compressor().approx_bytes());
  }

  /// The DFS stack (state vector + raw key per frame) or the BFS node deque,
  /// which keeps every node for trail reconstruction.
  std::uint64_t frontier_bytes() const {
    const std::uint64_t sb = m_.layout().size() * sizeof(kernel::Value);
    return opt_.bfs ? nodes_.size() * (sizeof(BfsNode) + sb)
                    : stack_.size() * (sizeof(Frame) + 2 * sb);
  }

  void publish() {
    blk_->set(obs::Counter::StatesStored, visited_.size());
    blk_->set(obs::Counter::StatesMatched, matched_);
    blk_->set(obs::Counter::Transitions, transitions_);
    blk_->set(obs::Counter::PorAmpleSets, por_ample_);
    blk_->set(obs::Counter::CompressFull, keys_.full_count());
    blk_->set(obs::Counter::CompressDelta, keys_.delta_count());
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
      if (run_.defer_) return run_.dfs_deferred(ns, step, f_, *this);
      ++f_.next;
      return run_.dfs_candidate(ns, step, f_, *this);
    }

    Outcome outcome = Outcome::Exhausted;
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
      gov_.truncate(TruncationReason::MaxStates);
      // stored, but not expanded: remember it for the final checkpoint so a
      // resume with a higher limit picks up exactly where this run stopped
      if (gov_.checkpointing())
        overflow_.push_back(
            {State(ns), static_cast<std::uint32_t>(stack_.size())});
      return true;
    }
    if (static_cast<int>(stack_.size()) > opt_.max_depth) {
      gov_.truncate(TruncationReason::MaxDepth);
      if (gov_.checkpointing())
        overflow_.push_back(
            {State(ns), static_cast<std::uint32_t>(stack_.size())});
      return true;
    }
    sink.child = ns;  // the one copy a genuinely fresh state costs
    sink.child_step = step;
    sink.outcome = Outcome::Child;
    return false;
  }

  // A successor whose visited probe is in flight. The pipelined sink
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

  /// Pipelined candidate handling: stages this candidate's visited probe
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
      gov_.truncate(TruncationReason::MaxStates);
      if (gov_.checkpointing())
        overflow_.push_back(
            {pending_state(f, p), static_cast<std::uint32_t>(stack_.size())});
      pop_front();
      return false;
    }
    if (static_cast<int>(stack_.size()) > opt_.max_depth) {
      gov_.truncate(TruncationReason::MaxDepth);
      if (gov_.checkpointing())
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

    if (const Checkpoint* c = gov_.resume(matched_, transitions_)) {
      // Resumed search: the visited set is re-seeded from the snapshot and
      // the frontier states wait in seeds_; each becomes a stack root when
      // the previous one's subtree is exhausted. POR is rejected here (see
      // the constructor), so on_stack_ stays empty.
      seed_resume(*c);
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

    while (true) {
      if (stack_.empty() && !next_seed()) break;
      if (gov_.pass(tick_, *this)) break;
      if (gov_.checkpoint_due(visited_.size())) commit_checkpoint();
      Frame& f = stack_.back();
      const bool first = !f.checked;
      if (first) {
        f.checked = true;
        if (opt_.por) {
          f.por_choice = por_choose(eng_, f.state, proviso, scratch_);
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
      if (seed_ != 0) {
        seeded_visit(f.state, f.por_choice, sink);
      } else {
        // The engine suppresses the already-handled candidates itself: start
        // the sink's index where the stream resumes so candidate numbering
        // is unchanged. The stream is the recorded ample choice's under POR
        // (a full sweep when the choice is -1).
        sink.idx_ = f.next;
        por_visit(eng_, f.state, f.por_choice, scratch_, sink, f.next,
                  &f.resume);
        drain_pending(f, sink);  // in-flight candidates' probes, in order
      }
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
      gov_.truncate(TruncationReason::MaxStates);
      if (gov_.checkpointing()) overflow_.push_back({State(ns), 0});
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

    if (const Checkpoint* c = gov_.resume(matched_, transitions_)) {
      // Resumed search: frontier states re-enter the queue as parentless
      // roots, so a counterexample trail found after resume starts at a
      // checkpointed frontier state rather than the initial state.
      seed_resume(*c);
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

    // bfs_head_ is a member so a checkpoint cut knows where the unexpanded
    // tail begins; on a clean exit it equals nodes_.size() (empty frontier).
    for (bfs_head_ = 0;
         bfs_head_ < static_cast<std::int64_t>(nodes_.size()); ++bfs_head_) {
      const std::int64_t head = bfs_head_;
      if (gov_.pass(tick_, *this)) break;
      if (gov_.checkpoint_due(visited_.size())) commit_checkpoint();
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
      int choice = -1;
      if (opt_.por) {
        choice = por_choose(eng_, hs, nullptr, scratch_);
        if (choice >= 0) ++por_ample_;
      }
      if (seed_ != 0)
        seeded_visit(hs, choice, sink);
      else
        por_visit(eng_, hs, choice, scratch_, sink);
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

  /// A swarm worker's pass (seed_ != 0): collects the state's candidate
  /// stream (the ample stream under POR), shuffles it by the worker seed
  /// and the state's raw encoding -- so every pass over a state sees one
  /// order -- and replays it into `sink`. Swarm runs are bitstate, whose
  /// keys are raw encodings that need no undo log, so the replayed copies
  /// key exactly.
  void seeded_visit(const State& s, int choice, kernel::SuccSink& sink) {
    succs_.clear();
    kernel::CollectSink collect(succs_);
    por_visit(eng_, s, choice, scratch_, collect);
    kernel::encode_key_into(s, probe_buf_);
    seeded_shuffle(std::span<Succ>(succs_),
                   avalanche64(seed_ ^ hash_bytes(byte_span(probe_buf_))));
    for (const Succ& succ : succs_)
      if (!sink.on_successor(succ.first, succ.second)) break;
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

  /// Commits a consistent cut: every visited state (decompressed back to
  /// value-array form) plus the unexpanded frontier -- the DFS stack / BFS
  /// queue tail, unconsumed resume seeds, and truncation overflow.
  void commit_checkpoint() {
    gov_.commit(
        visited_.size(), matched_, transitions_,
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
          for (const Checkpoint::Pending& p : overflow_) sink(p.state, p.depth);
        });
  }

  /// Re-seeds the visited set from a checkpoint. The compressor re-interns
  /// every state, rebuilding its tables and arenas deterministically; the
  /// frontier lands in seeds_.
  void seed_resume(const Checkpoint& c) {
    for (const State& s : c.visited) visited_.insert(keys_.full(s));
    seeds_.assign(c.frontier.begin(), c.frontier.end());
    gov_.resumed(visited_.size());
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

  Governor gov_;  // first: its spill pool outlives the stores
  const Machine& m_;
  const Options& opt_;
  const codegen::Engine& eng_;
  VisitedSet visited_;
  CollapseKeys keys_;  // exact-mode keys (COLLAPSE, delta from parent ids)
  std::uint64_t seed_;  // swarm order and filter seed; 0 = canonical search
  bool defer_;          // pipeline the DFS's visited probes (see dfs_deferred)

  kernel::SuccScratch scratch_;
  std::vector<Frame> stack_;
  std::deque<BfsNode> nodes_;
  std::unordered_set<std::string> on_stack_;
  Pending pend_[2];  // DFS probe pipeline, oldest first
  std::vector<Succ> succs_;  // a seeded pass's candidates
  std::string probe_buf_;

  std::uint64_t matched_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t tick_ = 0;  // expansion passes, for the governor's stride
  int max_depth_seen_ = 0;

  obs::Recorder::Block blk_;  // this run's telemetry slice, folded at the end
  std::uint64_t por_ample_ = 0;

  // -- checkpoint contents ---------------------------------------------------
  std::int64_t bfs_head_ = 0;         // first unexpanded BFS node
  std::vector<Checkpoint::Pending> seeds_;     // resume frontier, unconsumed
  std::vector<Checkpoint::Pending> overflow_;  // stored-not-expanded on limit
};

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

Result run_single(const kernel::Machine& m, const Options& opt,
                  std::uint64_t seed, std::atomic<bool>* stop) {
  FlatRun run(m, opt, seed, stop);
  return run.go();
}

}  // namespace detail

Result explore(const kernel::Machine& m, const Options& opt) {
  if (opt.engine == nullptr) {
    const std::unique_ptr<codegen::Engine> interp = codegen::make_engine(m, {});
    Options o = opt;
    o.engine = interp.get();
    return explore(m, o);
  }
  const int threads = resolve_threads(opt.threads);
  if (threads <= 1) return detail::run_single(m, opt, 0, nullptr);
  return opt.bitstate ? detail::run_swarm(m, opt, threads)
                      : detail::run_parallel(m, opt, threads);
}

}  // namespace pnp::explore
