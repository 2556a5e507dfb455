// Multi-core exploration engines.
//
// Exact mode (run_parallel): every worker owns a deque of pending states
// and steals from its peers when it runs dry; the visited set is the
// lock-striped ShardedVisitedSet over flat probe tables, keyed by the
// COLLAPSE-compressed state encoding (a shared lock-striped
// StateCompressor interns the components), so the reached-state set -- and
// therefore the verdict and the stored-state count of a complete run -- is
// identical at every thread count. Successors are streamed from per-worker
// mutate-and-revert scratch; only genuinely fresh states are copied.
// Counterexamples are reconstructed from per-worker parent-edge arenas
// after the winning worker flags a violation, so trails stay exact (their
// shape may differ run to run; the verdict may not).
//
// Atomic regions and rendezvous handshakes never interleave across workers
// by construction: Engine::visit_successors() expands a whole state at a
// time -- an atomic region is carried IN the state (atomic_pid) and a
// handshake is a single composite step -- so one worker always computes the
// complete successor bundle of the state it popped.
//
// Swarm mode (run_swarm): N fully independent bitstate searches, each with
// its own Bloom filter seed and a deterministic per-state successor
// shuffle. A violation found by any worker stops the swarm; otherwise every
// filter runs to completion and coverage is the union of the filters.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "explore/governor.h"
#include "explore/por.h"
#include "explore/visited.h"
#include "kernel/compress.h"
#include "support/hash.h"

namespace pnp::explore {
namespace detail {

namespace {

using kernel::Machine;
using kernel::State;
using kernel::Step;

constexpr std::uint64_t kNoGid = ~std::uint64_t{0};

class ParallelRun {
 public:
  ParallelRun(const Machine& m, const Options& opt, int threads)
      : gov_(opt, static_cast<std::uint32_t>(m.layout().size())),
        m_(m),
        opt_(opt),
        n_(threads),
        workers_(static_cast<std::size_t>(threads)),
        compressor_(m.layout(), /*stripes=*/16) {
    if (opt.obs != nullptr)
      for (Worker& w : workers_) w.blk = opt.obs->recorder().open_block();
    // Both stores attach under their own locks, so racing workers keep
    // inserting throughout the switch.
    gov_.spill_into([this](support::SpillPool* pool) {
      visited_.attach_spill(pool);
      compressor_.attach_spill(pool);
    });
  }

  Result go() {
    active_ = n_;
    if (const Checkpoint* c = gov_.resume(base_matched_, base_transitions_))
      seed_resume(*c);
    else
      seed_root();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_));
    for (int w = 0; w < n_; ++w)
      threads.emplace_back([this, w] { work(w); });
    for (std::thread& t : threads) t.join();
    return finish();
  }

  // The governor's view of the run (governor.h).
  std::uint64_t stored() const { return visited_.size(); }

  std::uint64_t store_bytes() const {
    return visited_.approx_bytes() + compressor_.approx_bytes();
  }

  /// Queued items plus the parent-edge arenas, from atomic counters only:
  /// every in-flight item carries a state, every stored state at most one
  /// arena node.
  std::uint64_t frontier_bytes() const {
    const std::uint64_t state_bytes =
        static_cast<std::uint64_t>(m_.layout().size()) * sizeof(kernel::Value);
    const auto inflight =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, inflight_.load(std::memory_order_relaxed)));
    std::uint64_t bytes = inflight * (sizeof(Item) + state_bytes);
    if (opt_.want_trace) bytes += visited_.size() * sizeof(Node);
    return bytes;
  }

 private:
  /// A pending state. `gid` indexes the parent-edge arena entry recorded for
  /// it (kNoGid for the root, or always when traces are off); `depth` is the
  /// BFS/DFS depth for max_depth accounting.
  struct Item {
    State state;
    std::uint64_t gid = kNoGid;
    std::uint32_t depth = 0;
  };

  /// Parent edge for counterexample reconstruction. Owner-written during the
  /// search, read only after all workers joined.
  struct Node {
    std::uint64_t parent = kNoGid;
    Step in_step;
  };

  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<Item> queue;
    std::deque<Node> nodes;  // stable addresses; grows only
    WorkerStats stats;
    std::uint64_t tick = 0;              // expansions, for the governor
    kernel::SuccScratch scratch;         // mutate-and-revert workspace
    std::vector<std::uint8_t> key_buf;   // compressed-key scratch
    obs::Recorder::Block blk;            // this worker's telemetry slice
    std::uint64_t por_ample = 0;
    // Stored-but-never-queued states (max_states/max_depth), kept so a
    // final checkpoint's frontier is exactly where this run stopped.
    std::vector<Checkpoint::Pending> overflow;
  };

  /// First violation wins; everything needed to rebuild the trail after the
  /// workers joined.
  struct Win {
    Violation violation;
    std::uint64_t gid = kNoGid;      // node of the state being expanded
    std::optional<Step> extra_step;  // assert step beyond that state, if any
    State final_state;
  };

  /// What the governor reads on worker `me`'s stride tick: the run's store
  /// and frontier, and `me`'s own counter block.
  struct WorkerView {
    ParallelRun& run;
    Worker& me;
    std::uint64_t stored() const { return run.stored(); }
    std::uint64_t store_bytes() const { return run.store_bytes(); }
    std::uint64_t frontier_bytes() const { return run.frontier_bytes(); }
    void publish() { run.publish_worker(me); }
  };

  static std::uint64_t make_gid(int w, std::uint64_t index) {
    return (static_cast<std::uint64_t>(w) << 40) | index;
  }

  void seed_root() {
    Item root;
    root.state = m_.initial();
    Worker& w0 = workers_[0];
    compressor_.compress(root.state, w0.key_buf);
    visited_.insert(w0.key_buf, ShardedVisitedSet::hash_key(w0.key_buf));
    // The root insert is nobody's WorkerStats; charge it to the recorder's
    // base block so the merged StatesStored total matches visited_.size().
    if (opt_.obs != nullptr)
      opt_.obs->recorder().add(obs::Counter::StatesStored, 1);
    inflight_.store(1, std::memory_order_relaxed);
    w0.queue.push_back(std::move(root));
  }

  /// Re-seeds the shared store from a checkpoint and deals the frontier
  /// round-robin across the workers' queues. Frontier items are parentless
  /// (gid == kNoGid): a trail found after resume starts at a checkpointed
  /// frontier state.
  void seed_resume(const Checkpoint& c) {
    Worker& w0 = workers_[0];
    for (const State& s : c.visited) {
      compressor_.compress(s, w0.key_buf);
      visited_.insert(w0.key_buf, ShardedVisitedSet::hash_key(w0.key_buf));
    }
    std::int64_t inflight = 0;
    for (std::size_t i = 0; i < c.frontier.size(); ++i) {
      Item it;
      it.state = c.frontier[i].state;
      it.depth = c.frontier[i].depth;
      workers_[i % static_cast<std::size_t>(n_)].queue.push_back(
          std::move(it));
      ++inflight;
    }
    inflight_.store(inflight, std::memory_order_relaxed);
    // Restored states are nobody's WorkerStats; charge them to the base
    // block so the merged StatesStored total matches visited_.size().
    if (opt_.obs != nullptr)
      opt_.obs->recorder().add(obs::Counter::StatesStored, visited_.size());
    gov_.resumed(visited_.size());
  }

  /// Commits a consistent cut. Callers must have quiesced the workers (the
  /// barrier during the run, or joined threads afterwards).
  void commit_checkpoint() {
    std::uint64_t matched = base_matched_;
    std::uint64_t transitions = base_transitions_;
    for (Worker& w : workers_) {
      matched += w.stats.states_matched;
      transitions += w.stats.transitions;
    }
    gov_.commit(
        visited_.size(), matched, transitions,
        [&](const StateSink& sink) {
          visited_.for_each_key([&](std::span<const std::uint8_t> key) {
            sink(compressor_.decompress(key), 0);
          });
        },
        [&](const StateSink& sink) {
          for (Worker& w : workers_) {
            std::lock_guard<std::mutex> lock(w.mu);
            for (const Item& it : w.queue) sink(it.state, it.depth);
            for (const Checkpoint::Pending& p : w.overflow)
              sink(p.state, p.depth);
          }
        });
  }

  bool pop_own(Worker& me, Item& out) {
    std::lock_guard<std::mutex> lock(me.mu);
    if (me.queue.empty()) return false;
    if (opt_.bfs) {
      out = std::move(me.queue.front());
      me.queue.pop_front();
    } else {
      out = std::move(me.queue.back());
      me.queue.pop_back();
    }
    return true;
  }

  bool steal(int w, Item& out) {
    for (int i = 1; i < n_; ++i) {
      Worker& victim = workers_[static_cast<std::size_t>((w + i) % n_)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (victim.queue.empty()) continue;
      // steal the oldest item: closest to the root, largest subtree
      out = std::move(victim.queue.front());
      victim.queue.pop_front();
      return true;
    }
    return false;
  }

  void push(Worker& me, Item item) {
    inflight_.fetch_add(1, std::memory_order_release);
    std::lock_guard<std::mutex> lock(me.mu);
    me.queue.push_back(std::move(item));
  }

  void work(int w) {
    Worker& me = workers_[static_cast<std::size_t>(w)];
    const auto t0 = std::chrono::steady_clock::now();
    while (!gov_.stopped()) {
      ckpt_point(me);
      Item item;
      if (!pop_own(me, item) && !steal(w, item)) {
        if (inflight_.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
        continue;
      }
      expand(w, me, item);
      inflight_.fetch_sub(1, std::memory_order_release);
    }
    // Retire from the checkpoint barrier so a coordinator never waits for a
    // worker that already exited. This also wakes everyone parked there
    // when a stop ended the loop: taking park_mu_ first closes the
    // pred-check/sleep race against the lock-free stop flag.
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      --active_;
    }
    park_cv_.notify_all();
    me.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // -- checkpoint barrier ----------------------------------------------------
  //
  // Periodic checkpoints need a consistent cut of a mutating shared store.
  // The worker that notices the stride elapsed elects itself coordinator
  // (CAS on ckpt_request_); everyone else parks at the top of their work
  // loop. When parked_ == active_ the world is quiesced -- no in-flight
  // expansions, every queued item unexpanded -- and the coordinator commits
  // the snapshot single-threadedly, then releases the barrier. Interrupts
  // skip the barrier entirely: they stop the run and the final checkpoint is
  // written after the workers joined.

  void ckpt_point(Worker& me) {
    if (ckpt_request_.load(std::memory_order_acquire)) {
      park(me);
      return;
    }
    if (!gov_.checkpoint_due(visited_.size())) return;
    bool expected = false;
    if (!ckpt_request_.compare_exchange_strong(expected, true))
      return;  // lost the election; next loop iteration parks
    coordinate();
  }

  void park(Worker&) {
    std::unique_lock<std::mutex> lock(park_mu_);
    ++parked_;
    park_cv_.notify_all();
    park_cv_.wait(lock, [&] {
      return !ckpt_request_.load(std::memory_order_acquire) ||
             gov_.stopped();
    });
    --parked_;
  }

  void coordinate() {
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      ++parked_;  // count self
      park_cv_.wait(lock, [&] { return parked_ == active_ || gov_.stopped(); });
      if (!gov_.stopped()) commit_checkpoint();
      --parked_;
      ckpt_request_.store(false, std::memory_order_release);
    }
    park_cv_.notify_all();
  }

  void publish_worker(Worker& me) {
    me.blk->set(obs::Counter::StatesStored, me.stats.states_stored);
    me.blk->set(obs::Counter::StatesMatched, me.stats.states_matched);
    me.blk->set(obs::Counter::Transitions, me.stats.transitions);
    me.blk->set(obs::Counter::PorAmpleSets, me.por_ample);
  }

  void record_violation(Violation v, std::uint64_t gid,
                        const Step* extra_step, const State& final_state) {
    {
      std::lock_guard<std::mutex> lock(win_mu_);
      if (winner_) return;  // first worker wins; verdict is the same either way
      Win win;
      win.violation = std::move(v);
      win.gid = gid;
      if (extra_step) win.extra_step = *extra_step;
      win.final_state = final_state;
      winner_ = std::move(win);
    }
    gov_.stop();
  }

  /// Streams one popped item's successors: dedup against the shared store,
  /// push fresh states, flag violations. Aborts the pass on a violation or
  /// when the swarm-wide stop flag goes up.
  class ParSink final : public kernel::SuccSink {
   public:
    ParSink(ParallelRun& run, int w, Worker& me, const Item& item)
        : run_(run), w_(w), me_(me), item_(item) {}

    bool on_successor(const State& ns, const Step& step) override {
      if (run_.gov_.stopped()) {
        aborted = true;
        return false;
      }
      ++produced;
      ++me_.stats.transitions;
      return run_.par_candidate(ns, step, w_, me_, item_, *this);
    }

    std::uint32_t produced = 0;
    bool aborted = false;  // stopped early; successor count is partial

   private:
    ParallelRun& run_;
    const int w_;
    Worker& me_;
    const Item& item_;
  };

  bool par_candidate(const State& ns, const Step& step, int w, Worker& me,
                     const Item& item, ParSink& sink) {
    if (step.assert_failed) {
      Violation v;
      v.kind = ViolationKind::AssertFailed;
      v.message = "assertion failed: " + m_.describe_step(step);
      record_violation(std::move(v), item.gid, &step, ns);
      sink.aborted = true;
      return false;
    }
    compressor_.compress(ns, me.key_buf);
    if (!visited_.insert(me.key_buf,
                         ShardedVisitedSet::hash_key(me.key_buf))) {
      ++me.stats.states_matched;
      return true;
    }
    ++me.stats.states_stored;
    if (visited_.size() >= opt_.max_states) {
      gov_.truncate(TruncationReason::MaxStates);
      // stored, but not expanded: same as the sequential engine; remembered
      // so the final checkpoint's frontier is exactly where this run stopped
      if (gov_.checkpointing())
        me.overflow.push_back({State(ns), item.depth + 1});
      return true;
    }
    if (item.depth + 1 > static_cast<std::uint32_t>(opt_.max_depth)) {
      gov_.truncate(TruncationReason::MaxDepth);
      if (gov_.checkpointing())
        me.overflow.push_back({State(ns), item.depth + 1});
      return true;
    }
    Item next;
    next.state = ns;  // the one copy a genuinely fresh state costs
    next.depth = item.depth + 1;
    if (opt_.want_trace) {
      next.gid = make_gid(w, me.nodes.size());
      me.nodes.push_back({item.gid, step});
    }
    push(me, std::move(next));
    return true;
  }

  void expand(int w, Worker& me, Item& item) {
    if (gov_.pass(me.tick, WorkerView{*this, me})) {
      // The item was popped but not expanded; requeue it so a final
      // checkpoint's frontier still covers its subtree.
      if (gov_.checkpointing()) push(me, std::move(item));
      return;
    }
    me.stats.max_depth_reached =
        std::max(me.stats.max_depth_reached, static_cast<int>(item.depth));
    // Invariant first: generation has no side effects and the check reads
    // only the state, so the verdict matches the materializing engine's.
    if (auto v = invariant_violation(m_, opt_, item.state)) {
      record_violation(std::move(*v), item.gid, nullptr, item.state);
      return;
    }
    ParSink sink(*this, w, me, item);
    int choice = -1;
    if (opt_.por) {
      // BFS-style ample choice (no cycle proviso): a pure function of the
      // state, so the reduced graph -- and the reached-state count -- does
      // not depend on thread count or interleaving.
      choice = por_choose(*opt_.engine, item.state, nullptr, me.scratch);
      if (choice >= 0) ++me.por_ample;
    }
    por_visit(*opt_.engine, item.state, choice, me.scratch, sink);
    // Zero successors means a terminal state -- unless the pass was cut
    // short by a stop flag, in which case the count is not trustworthy.
    if (sink.produced == 0 && !sink.aborted) {
      if (auto v = terminal_violation(m_, opt_, item.state))
        record_violation(std::move(*v), item.gid, nullptr, item.state);
    }
    // An aborted pass left successors ungenerated: requeue the item so the
    // final checkpoint re-expands it on resume (idempotent -- its explored
    // successors dedup against the visited set).
    if (sink.aborted && gov_.checkpointing()) push(me, std::move(item));
  }

  trace::Trace rebuild_trace(const Win& win) const {
    trace::Trace t;
    if (!opt_.want_trace) return t;
    std::vector<const Step*> rev;
    for (std::uint64_t gid = win.gid; gid != kNoGid;) {
      const Worker& owner = workers_[static_cast<std::size_t>(gid >> 40)];
      const Node& node =
          owner.nodes[static_cast<std::size_t>(gid & ((std::uint64_t{1} << 40) - 1))];
      rev.push_back(&node.in_step);
      gid = node.parent;
    }
    for (auto it = rev.rbegin(); it != rev.rend(); ++it)
      t.steps.push_back({**it, m_.describe_step(**it)});
    if (win.extra_step)
      t.steps.push_back({*win.extra_step, m_.describe_step(*win.extra_step)});
    t.final_state = m_.format_state(win.final_state);
    return t;
  }

  Result finish() {
    // Final checkpoint: all workers joined, so the queues + overflow lists
    // are the exact unexpanded frontier of wherever the run stopped.
    if (gov_.checkpointing() && !winner_) commit_checkpoint();
    Result r;
    if (winner_) {
      r.violation = std::move(winner_->violation);
      r.violation->trace = rebuild_trace(*winner_);
    }
    Stats& st = r.stats;
    st.threads = n_;
    st.states_stored = visited_.size();
    st.states_matched = base_matched_;
    st.transitions = base_transitions_;
    for (Worker& w : workers_) {
      st.states_matched += w.stats.states_matched;
      st.transitions += w.stats.transitions;
      st.max_depth_reached =
          std::max(st.max_depth_reached, w.stats.max_depth_reached);
      st.workers.push_back(w.stats);
    }
    gov_.finish(st, *this);
    if (opt_.obs != nullptr) {
      for (Worker& w : workers_) publish_worker(w);
      gov_.publish(st, &compressor_);
    }
    return r;
  }

  Governor gov_;  // first: its spill pool outlives the stores
  const Machine& m_;
  const Options& opt_;
  const int n_;
  std::deque<Worker> workers_;

  ShardedVisitedSet visited_;
  kernel::StateCompressor compressor_;
  std::atomic<std::int64_t> inflight_{0};

  std::mutex win_mu_;
  std::optional<Win> winner_;

  // -- checkpoint barrier ----------------------------------------------------
  std::atomic<bool> ckpt_request_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  int parked_ = 0;   // guarded by park_mu_
  int active_ = 0;   // guarded by park_mu_; workers retire on exit
  std::uint64_t base_matched_ = 0;  // resume baselines
  std::uint64_t base_transitions_ = 0;
};

}  // namespace

Result run_parallel(const kernel::Machine& m, const Options& opt,
                    int threads) {
  ParallelRun run(m, opt, threads);
  return run.go();
}

Result run_swarm(const kernel::Machine& m, const Options& opt, int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::vector<Result> results(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  {
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      ts.emplace_back([&, w] {
        Options o = opt;
        o.threads = 1;
        // Each worker holds a filter and a stack of its own.
        o.memory_budget_bytes = memory_share(opt.memory_budget_bytes, threads);
        // Worker 0 keeps the canonical order and hash functions, so the
        // sequential bitstate verdict is always among the merged ones.
        const std::uint64_t seed =
            w == 0 ? 0 : avalanche64(0x5eed5eed5eedull + static_cast<std::uint64_t>(w));
        try {
          Result r = run_single(m, o, seed, &stop);
          if (r.violation) stop.store(true, std::memory_order_release);
          results[static_cast<std::size_t>(w)] = std::move(r);
        } catch (...) {
          // A ModelError stops the swarm and reaches the caller's thread.
          errors[static_cast<std::size_t>(w)] = std::current_exception();
          stop.store(true, std::memory_order_release);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Merge: a violation found by any worker is a real counterexample (the
  // first one encountered wins); otherwise the verdict is the union of N
  // probabilistic passes.
  Result merged;
  Stats& st = merged.stats;
  st.threads = threads;
  for (Result& r : results) {
    if (r.violation && !merged.violation)
      merged.violation = std::move(r.violation);
    st.states_stored += r.stats.states_stored;
    st.states_matched += r.stats.states_matched;
    st.transitions += r.stats.transitions;
    st.max_depth_reached =
        std::max(st.max_depth_reached, r.stats.max_depth_reached);
    st.approx_memory_bytes += r.stats.approx_memory_bytes;
    st.store_bytes += r.stats.store_bytes;
    st.workers.push_back({r.stats.states_stored, r.stats.states_matched,
                          r.stats.transitions, r.stats.max_depth_reached,
                          r.stats.seconds});
    // A hard truncation in any worker outranks the ambient bitstate
    // approximation, mirroring the sequential precedence.
    if (r.stats.truncation != TruncationReason::None &&
        r.stats.truncation != TruncationReason::BitstateApprox &&
        st.truncation == TruncationReason::None)
      st.truncation = r.stats.truncation;
  }
  st.complete = false;
  if (st.truncation == TruncationReason::None)
    st.truncation = TruncationReason::BitstateApprox;
  st.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return merged;
}

}  // namespace detail
}  // namespace pnp::explore
