#include "ltl/product.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "explore/collapse_keys.h"
#include "explore/flat_store.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp::ltl {

namespace {

using explore::TruncationReason;
using kernel::Machine;
using kernel::State;
using kernel::Step;
using kernel::Value;

using Undo = std::span<const std::pair<int, Value>>;

/// The deadline, the memory budget and telemetry are consulted once per
/// this many expansion passes (as in the sequential explorer).
constexpr std::uint64_t kBudgetCheckStride = 1024;

// Mark bits of a product-store record. The CVWY nested DFS needs two marks
// per product state -- visited by the outer search, visited by an inner
// search -- kept as bits of ONE stored key, the store of Holzmann, Peled &
// Yannakakis, "On Nested Depth First Search"; the third bit stands in for
// the outer search's on-stack set.
constexpr std::uint8_t kOuter = 1;
constexpr std::uint8_t kInner = 2;
constexpr std::uint8_t kOnStack = 4;

const Step kNoStep{};

/// Deterministic Fisher-Yates driven by xorshift64*: racing workers diversify
/// their DFS order without giving up reproducibility (the same (product key,
/// seed) always yields the same order, so every pass over a frame sees
/// identical positions).
void shuffle(std::vector<std::uint32_t>& v, std::uint64_t seed) {
  std::uint64_t x = seed ? seed : 0x9e3779b97f4a7c15ull;
  auto next = [&x]() {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 0x2545F4914F6CDD1Dull;
  };
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[next() % i]);
}

/// Adapts `f(index, successor, step) -> keep going` to the streaming
/// generator. Candidates are numbered from `first` (where an engine's native
/// skip resumes) and those below `skip` are dropped (the interpreter has no
/// native skip).
template <class F>
class StreamSink final : public kernel::SuccSink {
 public:
  StreamSink(std::uint32_t first, std::uint32_t skip, F& f)
      : idx(first), skip_(skip), f_(f) {}

  bool on_successor(const State& ns, const Step& step) override {
    const std::uint32_t i = idx++;
    return i < skip_ || f_(i, ns, step);
  }

  std::uint32_t idx;  // candidates enumerated so far

 private:
  std::uint32_t skip_;
  F& f_;
};

// The product automaton of system x Buchi automaton, optionally unfolded
// into #processes + 2 copies for weak fairness (Choueka construction,
// as in SPIN's -f):
//   copy 0:       edges from a state whose Buchi component is accepting
//                 lead to copy 1, others stay in copy 0;
//   copy i (1..N): edges lead to copy i+1 when process i-1 just moved or is
//                 disabled in the source state, else stay in copy i;
//   copy N+1:     edges lead back to copy 0; these states are the accepting
//                 set -- a cycle through copy N+1 is exactly a fair
//                 accepting cycle.
//
// A product state's key is the COLLAPSE key of its system state (delta-
// compressed from the parent's region ids, explore::CollapseKeys) followed
// by the varint q * copies + copy. Keys live in one marked flat store whose
// per-record mark byte carries the nested DFS's marks, so the search holds
// no per-state heap nodes and its memory is measurable.
class ProductSearch {
 public:
  ProductSearch(const Machine& m, const PropertyContext& ctx,
                const BuchiAutomaton& ba, const CheckOptions& opt,
                const codegen::Engine* engine = nullptr,
                std::uint64_t perm_seed = 0,
                const std::atomic<bool>* stop = nullptr)
      : m_(m), ctx_(ctx), ba_(ba), opt_(opt), engine_(engine),
        perm_seed_(perm_seed), stop_(stop), keys_(m.layout(), engine),
        store_(std::min<std::uint64_t>(opt.max_states, std::uint64_t{1} << 16),
               /*marked=*/true),
        nr_(static_cast<std::size_t>(keys_.n_regions())) {
    PNP_CHECK(ctx.size() <= 64, "at most 64 propositions supported");
    PNP_CHECK(!opt.weak_fairness || m.n_processes() <= 62,
              "weak fairness supports at most 62 processes");
    n_copies_ = opt.weak_fairness ? m.n_processes() + 2 : 1;
    if (opt.obs != nullptr) blk_ = opt.obs->recorder().open_block();
  }

  /// True when the run was cancelled by the shared stop flag (a sibling
  /// worker finished first); the result is then meaningless.
  bool aborted() const { return aborted_; }

  LtlResult run() {
    start_ = std::chrono::steady_clock::now();
    LtlResult r;
    r.buchi_states = ba_.states.size();
    r.formula_text = ba_.formula_text;

    const State s0 = m_.initial();
    const std::uint64_t mask0 = props_mask(s0);
    bool found = false;
    // A halted search leaves on-stack marks behind, so no further outer
    // search may start over them.
    for (std::size_t q = 0; q < ba_.states.size() && !found && !halted_; ++q) {
      if (!ba_.states[q].initial) continue;
      if (!enters(static_cast<int>(q), mask0)) continue;
      found = search(s0, static_cast<int>(q), r);
    }
    r.holds = !found;
    r.stats.states_stored = n_outer_;
    r.stats.transitions = transitions_;
    r.stats.complete = complete_;
    r.stats.truncation = truncation_;
    r.stats.store_bytes = store_bytes();
    r.stats.approx_memory_bytes =
        r.stats.store_bytes + stack_bytes() + observer_bytes();
    r.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    return r;
  }

  /// Publishes this search's tallies and store gauges. Called by check_ltl
  /// for the authoritative search only, so racing losers never inflate the
  /// merged totals.
  void publish_counters() {
    if (blk_ == nullptr) return;
    blk_->set(obs::Counter::StatesStored, n_outer_);
    blk_->set(obs::Counter::Transitions, transitions_);
    blk_->set(obs::Counter::CompressFull, keys_.full_count());
    blk_->set(obs::Counter::CompressDelta, keys_.delta_count());
    obs::Recorder& rec = opt_.obs->recorder();
    rec.max_gauge(obs::Gauge::StoreBytes, store_bytes());
    rec.max_gauge(obs::Gauge::InternedComponents,
                  keys_.compressor().components());
    rec.max_gauge(obs::Gauge::CompressorBytes,
                  keys_.compressor().approx_bytes());
  }

 private:
  // One frame per product state on the DFS stack; an inner search runs on
  // the same stack, on top of the accepting outer frame that seeded it.
  // Frames own no successor lists: each pass re-streams the system
  // successors from the frame's cursor -- system candidate `next`, from its
  // Buchi edge `edge` on -- and stops at the first fresh child, so a
  // successor's state is copied only when it becomes a frame. Popped frames
  // are recycled with their state buffers. Region ids live in frame_ids_.
  struct Frame {
    State state;
    Step in_step;  // the step into this state (unused at roots and seeds)
    std::uint8_t* marks = nullptr;  // this product state's store marks
    std::uint64_t key_hash = 0;     // of its product key (seeds permuted order)
    std::uint64_t resume = 0;   // engine resume token for this state
    std::uint64_t enabled = 0;  // pids with a successor (fair copies 1..N)
    std::uint32_t next = 0;     // cursor: system candidate (permuted: position)
    std::uint32_t edge = 0;     // cursor: Buchi edge of candidate `next`
    std::uint32_t counted = 0;  // candidates whose edges are in transitions_
                                // (permuted: 1 once all of them are)
    int q = 0;
    int copy = 0;
    bool in_stutter = false;
    bool inner = false;     // part of an inner (cycle-closing) search
    bool expanded = false;  // first pass done
    bool terminal = false;  // no system successors: stutter edges only
    bool nested = false;    // accepting outer frame whose inner search ran
  };

  enum class Outcome : std::uint8_t { Exhausted, Child, Cycle };
  enum class Visit : std::uint8_t { Seen, Stored, Fresh, Cycle };

  /// The outer search from (s0, q0), with an inner search nested at the
  /// post-order of every accepting state. Returns true on an accepting
  /// cycle, whose lasso it writes into `r`.
  bool search(const State& s0, int q0, LtlResult& r) {
    reserve_slot(0);
    const std::uint64_t h = root_key(s0, q0);
    std::uint8_t* marks = store_.find_or_insert(keys_.key(), h);
    if ((*marks & kOuter) != 0) return false;
    *marks |= kOuter | kOnStack;
    ++n_outer_;
    place(0, s0, q0, 0, marks, h, /*inner=*/false, keys_.ids().data());
    depth_ = 1;

    while (depth_ > 0) {
      if (halt()) return false;
      observe();
      reserve_slot(depth_);  // the child slot, before frame references
      Frame& f = stack_[depth_ - 1];
      const Outcome o = f.nested ? Outcome::Exhausted
                        : perm_seed_ == 0 ? pass(f)
                                          : permuted_pass(f);
      switch (o) {
        case Outcome::Child: {
          Frame& c = stack_[depth_];
          if (!c.inner) *c.marks |= kOnStack;
          ++depth_;
          break;
        }
        case Outcome::Cycle:
          build_violation(r);
          return true;
        case Outcome::Exhausted:
          post_order(f);
          break;
      }
    }
    return false;
  }

  /// An exhausted frame: an accepting outer frame first seeds its inner
  /// search (once, and only if the state is not inner-visited yet); every
  /// other frame pops.
  void post_order(Frame& f) {
    if (!f.inner && !f.nested && accepting(f.q, f.copy)) {
      f.nested = true;
      if ((*f.marks & kInner) == 0) {
        *f.marks |= kInner;
        ++n_inner_;
        inner_base_ = depth_;
        place(depth_, f.state, f.q, f.copy, f.marks, f.key_hash,
              /*inner=*/true, frame_ids(depth_ - 1));
        ++depth_;
        return;
      }
    }
    if (!f.inner) *f.marks &= static_cast<std::uint8_t>(~kOnStack);
    --depth_;
  }

  /// One generation pass over frame `f` from its cursor (canonical order).
  Outcome pass(Frame& f) {
    prepare(f);
    outcome_ = Outcome::Exhausted;
    if (!f.terminal) {
      const std::uint32_t seen =
          stream(f.state, f.next, &f.resume,
                 [&](std::uint32_t i, const State& ns, const Step& step) {
                   return candidate(f, i, ns, step, scratch_.undo, false);
                 });
      if (seen != 0) return outcome_;
      f.terminal = true;
    }
    // Stutter extension: a terminal system state loops on itself.
    candidate(f, 0, f.state, kNoStep, {}, /*stutter=*/true);
    return outcome_;
  }

  /// System candidate `i` of frame `f` -- successor `ns` by `step`, whose
  /// writes `undo` lists -- expanded into its product edges (Buchi edges in
  /// automaton order, from the cursor on). Returns false to stop the pass,
  /// with outcome_ saying why.
  bool candidate(Frame& f, std::uint32_t i, const State& ns, const Step& step,
                 Undo undo, bool stutter) {
    const BuchiState& bq = ba_.states[static_cast<std::size_t>(f.q)];
    const std::uint64_t mask = props_mask(ns);
    if (i >= f.counted) {
      f.counted = i + 1;
      for (const int q2 : bq.out) transitions_ += enters(q2, mask);
    }
    const int c2 = copy_after(f, step, stutter);
    std::size_t sys_len = 0;
    for (std::uint32_t e = i == f.next ? f.edge : 0; e < bq.out.size(); ++e) {
      const int q2 = bq.out[e];
      if (!enters(q2, mask)) continue;
      if (sys_len == 0) sys_len = keys_.delta(ns, frame_ids(f), undo).size();
      const Visit v = visit(f.inner, product_key(sys_len, q2, c2));
      if (v == Visit::Seen || v == Visit::Stored) continue;
      if (v == Visit::Fresh) {
        f.next = i;
        f.edge = e + 1;
        set_child(f, ns, step, stutter, q2, c2);
        outcome_ = Outcome::Child;
      } else {
        closing_step_ = step;
        closing_stutter_ = stutter;
        outcome_ = Outcome::Cycle;
      }
      return false;
    }
    f.next = i + 1;
    f.edge = 0;
    return true;
  }

  /// One product edge of a permuted pass, keyed but not yet generated.
  struct Cand {
    std::uint32_t sys;  // system candidate index (0 for stutter edges)
    int q;
    int copy;
    bool stutter;
    std::uint32_t key_off;  // into cand_keys_
    std::uint32_t key_len;
  };

  /// A racing worker's pass (perm_seed_ != 0): one sweep keys every product
  /// edge of the frame, the edges are taken in the frame's seeded
  /// permutation (`next` counts positions), and only a candidate that
  /// becomes a child or closes a cycle is generated again.
  Outcome permuted_pass(Frame& f) {
    prepare(f);
    cands_.clear();
    cand_keys_.clear();
    const BuchiState& bq = ba_.states[static_cast<std::size_t>(f.q)];
    auto collect = [&](std::uint32_t i, const State& ns, const Step& step,
                       Undo undo, bool stutter) {
      const std::uint64_t mask = props_mask(ns);
      const int c2 = copy_after(f, step, stutter);
      std::size_t sys_len = 0;
      for (const int q2 : bq.out) {
        if (!enters(q2, mask)) continue;
        if (sys_len == 0)
          sys_len = keys_.delta(ns, frame_ids(f), undo).size();
        const auto key = product_key(sys_len, q2, c2);
        cands_.push_back({i, q2, c2, stutter,
                          static_cast<std::uint32_t>(cand_keys_.size()),
                          static_cast<std::uint32_t>(key.size())});
        cand_keys_.insert(cand_keys_.end(), key.begin(), key.end());
      }
      return true;
    };
    const std::uint32_t seen =
        stream(f.state, 0, nullptr,
               [&](std::uint32_t i, const State& ns, const Step& step) {
                 return collect(i, ns, step, scratch_.undo, false);
               });
    if (seen == 0) collect(0, f.state, kNoStep, {}, /*stutter=*/true);
    if (f.counted == 0) {
      f.counted = 1;
      transitions_ += cands_.size();
    }
    order_.resize(cands_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    shuffle(order_, avalanche64(perm_seed_ ^ f.key_hash));
    while (f.next < order_.size()) {
      const Cand c = cands_[order_[f.next++]];
      const Visit v = visit(f.inner, std::span<const std::uint8_t>(
                                         cand_keys_.data() + c.key_off,
                                         c.key_len));
      if (v == Visit::Seen || v == Visit::Stored) continue;
      regenerate(f, c, v == Visit::Fresh);
      return v == Visit::Fresh ? Outcome::Child : Outcome::Cycle;
    }
    return Outcome::Exhausted;
  }

  /// Generates permuted candidate `c` again: the child frame (`child`) or
  /// the cycle-closing step.
  void regenerate(Frame& f, const Cand& c, bool child) {
    auto take = [&](const State& ns, const Step& step, Undo undo) {
      if (child) {
        keys_.delta(ns, frame_ids(f), undo);  // the child's region ids
        set_child(f, ns, step, c.stutter, c.q, c.copy);
      } else {
        closing_step_ = step;
        closing_stutter_ = c.stutter;
      }
      return false;
    };
    if (c.stutter) {
      take(f.state, kNoStep, {});
      return;
    }
    stream(f.state, c.sys, nullptr,
           [&](std::uint32_t, const State& ns, const Step& step) {
             return take(ns, step, scratch_.undo);
           });
  }

  /// First-pass setup: under weak fairness a frame in copies 1..N needs the
  /// set of enabled processes before any edge's copy is known.
  void prepare(Frame& f) {
    if (f.expanded) return;
    f.expanded = true;
    if (!opt_.weak_fairness || f.copy < 1 || f.copy > m_.n_processes())
      return;
    std::uint64_t pids = 0;
    stream(f.state, 0, nullptr,
           [&pids](std::uint32_t, const State&, const Step& step) {
             if (step.pid >= 0 && step.pid < 64)
               pids |= std::uint64_t{1} << step.pid;
             if (step.partner_pid >= 0 && step.partner_pid < 64)
               pids |= std::uint64_t{1} << step.partner_pid;
             return true;
           });
    f.enabled = pids;
  }

  /// Streams `s`'s system successors into `f` from candidate `skip` on;
  /// returns the number of candidates enumerated (0 = terminal state when
  /// `skip` is 0 and `f` never stopped the stream).
  template <class F>
  std::uint32_t stream(const State& s, std::uint32_t skip,
                       std::uint64_t* resume, F&& f) {
    StreamSink<std::remove_reference_t<F>> sink(
        engine_ != nullptr ? skip : 0, skip, f);
    if (engine_ != nullptr)
      engine_->visit_successors(s, scratch_, sink, skip, resume);
    else
      m_.visit_successors(s, scratch_, sink);
    return sink.idx;
  }

  /// Probes `key` for an outer or inner visit and records it.
  Visit visit(bool inner, std::span<const std::uint8_t> key) {
    const std::uint64_t h = fast_hash64(key);
    std::uint8_t* marks = store_.find_or_insert(key, h);
    if (inner && (*marks & kOnStack) != 0) return Visit::Cycle;
    const std::uint8_t bit = inner ? kInner : kOuter;
    if ((*marks & bit) != 0) return Visit::Seen;
    *marks |= bit;
    // stored, but past max_states it is never expanded
    if (++(inner ? n_inner_ : n_outer_) >= opt_.max_states) {
      truncate(TruncationReason::MaxStates);
      return Visit::Stored;
    }
    fresh_marks_ = marks;
    fresh_hash_ = h;
    return Visit::Fresh;
  }

  /// Builds the root product key (s0, q0) in keys_.key(); returns its hash.
  std::uint64_t root_key(const State& s0, int q0) {
    const std::size_t sys_len = keys_.full(s0).size();
    return fast_hash64(product_key(sys_len, q0, 0));
  }

  /// The product key in keys_.key(): the system key (its first `sys_len`
  /// bytes) followed by the varint q * copies + copy.
  std::span<const std::uint8_t> product_key(std::size_t sys_len, int q,
                                            int copy) {
    std::vector<std::uint8_t>& key = keys_.key();
    key.resize(sys_len);
    std::uint64_t v = static_cast<std::uint64_t>(q) *
                          static_cast<std::uint64_t>(n_copies_) +
                      static_cast<std::uint64_t>(copy);
    for (; v >= 0x80; v >>= 7)
      key.push_back(static_cast<std::uint8_t>(v | 0x80));
    key.push_back(static_cast<std::uint8_t>(v));
    return key;
  }

  /// Fills the child slot (stack_[depth_]) with a fresh child of `f`; its
  /// region ids are the last keyed state's.
  void set_child(const Frame& f, const State& ns, const Step& step,
                 bool stutter, int q, int copy) {
    Frame& c = place(depth_, ns, q, copy, fresh_marks_, fresh_hash_, f.inner,
                     keys_.ids().data());
    c.in_step = step;
    c.in_stutter = stutter;
  }

  /// Resets stack slot `d` (which must exist) to a fresh frame.
  Frame& place(std::size_t d, const State& s, int q, int copy,
               std::uint8_t* marks, std::uint64_t key_hash, bool inner,
               const std::uint32_t* ids) {
    Frame& c = stack_[d];
    c.state.mem.assign(s.mem.begin(), s.mem.end());
    c.state.atomic_pid = s.atomic_pid;
    c.marks = marks;
    c.key_hash = key_hash;
    c.resume = 0;
    c.enabled = 0;
    c.next = 0;
    c.edge = 0;
    c.counted = 0;
    c.q = q;
    c.copy = copy;
    c.in_stutter = false;
    c.inner = inner;
    c.expanded = false;
    c.terminal = false;
    c.nested = false;
    std::copy_n(ids, nr_, frame_ids_.begin() +
                              static_cast<std::ptrdiff_t>(d * nr_));
    return c;
  }

  void reserve_slot(std::size_t d) {
    if (stack_.size() <= d) stack_.resize(d + 1);
    if (frame_ids_.size() < (d + 1) * nr_) frame_ids_.resize((d + 1) * nr_);
  }

  const std::uint32_t* frame_ids(std::size_t d) const {
    return frame_ids_.data() + d * nr_;
  }
  const std::uint32_t* frame_ids(const Frame& f) const {
    return frame_ids(static_cast<std::size_t>(&f - stack_.data()));
  }

  std::uint64_t props_mask(const State& s) const {
    std::uint64_t mask = 0;
    for (int i = 0; i < ctx_.size(); ++i)
      if (m_.eval_global(ctx_.expr_of(i), s) != 0)
        mask |= std::uint64_t{1} << i;
    return mask;
  }

  /// Whether the automaton may enter `q` at a state whose propositions are
  /// `mask` (its label holds there).
  bool enters(int q, std::uint64_t mask) const {
    for (const Literal& lit : ba_.states[static_cast<std::size_t>(q)].label) {
      const bool v = (mask >> lit.prop) & 1;
      if (v == lit.negated) return false;
    }
    return true;
  }

  /// The fairness copy a product edge by `step` (a stutter step when
  /// `stutter`) leads to out of `f`.
  int copy_after(const Frame& f, const Step& step, bool stutter) const {
    return stutter ? next_copy(f.q, f.copy, -1, -1, 0)
                   : next_copy(f.q, f.copy, step.pid, step.partner_pid,
                               f.enabled);
  }

  bool accepting(int q, int copy) const {
    if (!opt_.weak_fairness)
      return ba_.states[static_cast<std::size_t>(q)].accepting;
    return copy == n_copies_ - 1;  // copy N+1
  }

  /// Destination copy for a step executed by `moved_pid` (or a stutter /
  /// fully-blocked step when moved_pid < 0) out of (q, copy).
  int next_copy(int q, int copy, int moved_pid, int moved_partner,
                std::uint64_t enabled_pids) const {
    if (!opt_.weak_fairness) return 0;
    const int n = m_.n_processes();
    if (copy == 0)
      return ba_.states[static_cast<std::size_t>(q)].accepting ? 1 : 0;
    if (copy == n + 1) return 0;
    const int watched = copy - 1;  // process this copy waits on
    const bool moved = moved_pid == watched || moved_partner == watched;
    const bool disabled = ((enabled_pids >> watched) & 1) == 0;
    return (moved || disabled) ? copy + 1 : copy;
  }

  /// Whether the search must stop now: a sibling worker won, the interrupt
  /// flag is up, or a budget ran out. Once true it stays true.
  bool halt() {
    if (!halted_) halted_ = stop_requested() || interrupted() || over_budget();
    return halted_;
  }

  bool stop_requested() {
    if (stop_ && stop_->load(std::memory_order_relaxed)) {
      aborted_ = true;
      complete_ = false;
      return true;
    }
    return false;
  }

  bool interrupted() {
    if (opt_.interrupt == nullptr ||
        !opt_.interrupt->load(std::memory_order_relaxed))
      return false;
    truncate(TruncationReason::Interrupted);
    return true;
  }

  void truncate(TruncationReason why) {
    complete_ = false;
    if (truncation_ == TruncationReason::None) truncation_ = why;
  }

  /// Deadline / memory check, amortized: the clock and the footprint sum
  /// are consulted every kBudgetCheckStride expansion passes.
  bool over_budget() {
    if (opt_.deadline_seconds <= 0.0 && opt_.memory_budget_bytes == 0)
      return false;
    if (++budget_tick_ % kBudgetCheckStride != 0) return false;
    if (opt_.deadline_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
                .count() >= opt_.deadline_seconds) {
      truncate(TruncationReason::Deadline);
      return true;
    }
    if (opt_.memory_budget_bytes > 0 &&
        store_bytes() + stack_bytes() + observer_bytes() >=
            opt_.memory_budget_bytes) {
      truncate(TruncationReason::MemoryBudget);
      return true;
    }
    return false;
  }

  /// Product store plus the COLLAPSE intern tables behind its keys.
  std::uint64_t store_bytes() const {
    return store_.approx_bytes() + keys_.compressor().approx_bytes();
  }

  /// Every frame slot ever used keeps its buffers, so the high-water mark
  /// is the footprint.
  std::uint64_t stack_bytes() const {
    return stack_.size() *
               (sizeof(Frame) + static_cast<std::uint64_t>(
                                    m_.layout().size()) *
                                    sizeof(Value)) +
           frame_ids_.capacity() * sizeof(std::uint32_t);
  }

  std::uint64_t observer_bytes() const {
    return opt_.obs != nullptr ? opt_.obs->approx_bytes() : 0;
  }

  /// The lasso: the outer stack up to the accepting state, then the inner
  /// search's path from it and the step that closes the cycle.
  void build_violation(LtlResult& r) {
    explore::Violation v;
    v.kind = explore::ViolationKind::AcceptanceCycle;
    v.message = "acceptance cycle: an execution violates " + ba_.formula_text;
    if (opt_.weak_fairness) v.message += " (weak fairness enforced)";
    if (opt_.want_trace) {
      auto add = [&](const Step& st, bool stutter) {
        trace::TraceStep ts;
        ts.step = st;
        ts.description = stutter ? "(stutter: system terminated, state repeats)"
                                 : m_.describe_step(st);
        v.trace.steps.push_back(std::move(ts));
      };
      for (std::size_t i = 1; i < inner_base_; ++i)
        add(stack_[i].in_step, stack_[i].in_stutter);
      trace::TraceStep marker;
      marker.step = Step{};
      marker.description = "=== start of accepting cycle ===";
      v.trace.steps.push_back(std::move(marker));
      for (std::size_t i = inner_base_ + 1; i < depth_; ++i)
        add(stack_[i].in_step, stack_[i].in_stutter);
      add(closing_step_, closing_stutter_);
      v.trace.final_state = m_.format_state(stack_[inner_base_ - 1].state);
    }
    r.violation = std::move(v);
  }

  /// Amortized telemetry every kBudgetCheckStride passes: a rate-limited
  /// heartbeat always; counter publication only when this is the lone
  /// search (racing workers overlap, so their intermediate tallies would
  /// inflate the merged totals -- the winner publishes once at the end
  /// instead, via check_ltl).
  void observe() {
    if (blk_ == nullptr) return;
    if (++obs_tick_ % kBudgetCheckStride != 0) return;
    if (stop_ == nullptr) publish_counters();
    opt_.obs->progress(n_outer_, opt_.max_states);
  }

  const Machine& m_;
  const PropertyContext& ctx_;
  const BuchiAutomaton& ba_;
  const CheckOptions& opt_;
  const codegen::Engine* engine_{nullptr};
  std::uint64_t perm_seed_{0};
  const std::atomic<bool>* stop_{nullptr};
  int n_copies_{1};

  explore::CollapseKeys keys_;
  explore::FlatKeySet store_;  // product keys, one mark byte per record
  std::size_t nr_;             // COLLAPSE regions per system state
  kernel::SuccScratch scratch_;
  std::vector<Frame> stack_;   // slots [0, depth_) are live
  std::vector<std::uint32_t> frame_ids_;  // nr_ region ids per stack slot
  std::size_t depth_ = 0;
  std::size_t inner_base_ = 0;  // slot of the running inner search's seed

  Outcome outcome_ = Outcome::Exhausted;  // why the last pass stopped
  std::uint8_t* fresh_marks_ = nullptr;   // marks of the last Fresh visit
  std::uint64_t fresh_hash_ = 0;          // its product key's hash
  Step closing_step_;  // the step closing a found cycle
  bool closing_stutter_ = false;

  std::vector<Cand> cands_;  // permuted passes: the frame's product edges
  std::vector<std::uint8_t> cand_keys_;
  std::vector<std::uint32_t> order_;

  std::uint64_t n_outer_ = 0;  // states visited by the outer search
  std::uint64_t n_inner_ = 0;  // states visited by inner searches
  std::uint64_t transitions_ = 0;
  bool complete_ = true;
  bool aborted_ = false;
  bool halted_ = false;  // stopped early: aborted, interrupted or over budget
  TruncationReason truncation_ = TruncationReason::None;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t budget_tick_ = 0;
  obs::CounterBlock* blk_ = nullptr;
  std::uint64_t obs_tick_ = 0;
};

}  // namespace

LtlResult check_ltl(const kernel::Machine& m, FormulaPool& pool,
                    const PropertyContext& ctx, FRef phi,
                    const CheckOptions& opt) {
  const FRef neg = pool.negate(phi);
  const BuchiAutomaton ba = build_buchi(pool, neg, &ctx);
  const int threads = explore::resolve_threads(opt.threads);

  // One engine serves every worker: engines are immutable after construction
  // and all mutable search state (scratch, visited sets) is per-worker.
  // Non-strict: an unavailable AOT toolchain degrades to bytecode with the
  // reason captured in `engine_note` rather than failing the check.
  std::unique_ptr<codegen::Engine> engine;
  std::string engine_note;
  if (opt.engine != codegen::EngineKind::Interp) {
    codegen::EngineOptions ecfg;
    ecfg.kind = opt.engine;
    ecfg.cache_dir = opt.engine_cache_dir;
    ecfg.strict = false;
    ecfg.obs = opt.obs;
    engine = codegen::make_engine(m, ecfg, &engine_note);
  }

  std::size_t phase = 0;
  if (opt.obs != nullptr)
    phase = opt.obs->begin_phase(
        threads <= 1 ? "ltl-product" : "ltl-product-racing", opt.max_states);
  LtlResult r;
  if (threads <= 1) {
    ProductSearch search(m, ctx, ba, opt, engine.get());
    r = search.run();
    search.publish_counters();
  } else {
    // Racing workers over the shared read-only (machine, automaton): worker
    // 0 runs the canonical order, the rest follow independently permuted
    // DFS orders. The first to finish posts its result and cancels the
    // rest -- sound because every worker's search is exact. Each worker
    // builds its own product store, so each gets an even share of the
    // memory budget: the race as a whole is held to the budget, not to
    // threads times it.
    CheckOptions wopt = opt;
    if (opt.memory_budget_bytes > 0)
      wopt.memory_budget_bytes = std::max<std::uint64_t>(
          1, opt.memory_budget_bytes / static_cast<std::uint64_t>(threads));
    std::atomic<bool> stop{false};
    std::atomic<int> winner{-1};
    std::vector<std::optional<LtlResult>> results(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> crew;
    crew.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      crew.emplace_back([&, w] {
        const std::uint64_t seed =
            w == 0 ? 0
                   : avalanche64(0x17e1'0ba5'e11eull +
                                 static_cast<std::uint64_t>(w));
        ProductSearch search(m, ctx, ba, wopt, engine.get(), seed, &stop);
        LtlResult wr = search.run();
        if (search.aborted()) return;
        int expected = -1;
        if (winner.compare_exchange_strong(expected, w)) {
          search.publish_counters();  // only the authoritative search counts
          results[static_cast<std::size_t>(w)] = std::move(wr);
          stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : crew) t.join();
    const int w = winner.load();
    PNP_CHECK(w >= 0, "check_ltl: no racing worker finished");
    r = std::move(*results[static_cast<std::size_t>(w)]);
    r.stats.threads = threads;
  }
  r.formula_text = pool.to_string(phi, &ctx);
  r.engine_requested = opt.engine;
  r.engine_actual = engine ? engine->kind() : codegen::EngineKind::Interp;
  r.engine_note = std::move(engine_note);
  if (opt.obs != nullptr) {
    opt.obs->end_phase(phase, r.stats.states_stored, r.stats.seconds,
                       r.stats.complete ? std::string()
                                        : explore::truncation_reason_name(
                                              r.stats.truncation));
    if (!r.holds && r.violation)
      opt.obs->counterexample(r.formula_text, "acceptance cycle");
  }
  return r;
}

LtlResult check_ltl(const kernel::Machine& m, const PropertyContext& ctx,
                    const std::string& formula, const CheckOptions& opt) {
  FormulaPool pool;
  const FRef phi = parse_ltl(pool, ctx, formula);
  return check_ltl(m, pool, ctx, phi, opt);
}

}  // namespace pnp::ltl
