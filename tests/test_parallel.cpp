// Parallel-exploration determinism: the multi-threaded engines must return
// the same verdict as the sequential one at every thread count, and -- for
// complete exact runs -- the same reached-state count, across the deadlock,
// invariant, and LTL suites. Trail contents may differ; verdicts may not.
// Budget.* crosses every budget with every search mode, sequential,
// parallel, swarm and LTL alike.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>

#include "adl/adl.h"
#include "explore/explorer.h"
#include "kernel/machine.h"
#include "ltl/product.h"
#include "model/builder.h"
#include "pml/parser.h"
#include "pnp/pnp.h"

namespace pnp::explore {
namespace {

using namespace model;

const int kThreadCounts[] = {1, 2, 8};

/// Producer/consumer family with a tunable invariant: `slack` >= 0 makes the
/// bound hold, negative slack forces a violation partway through the run.
struct Flow {
  std::unique_ptr<SystemSpec> sys;
  expr::Ref invariant{expr::kNoExpr};

  kernel::Machine machine() const { return kernel::Machine(*sys); }
};

Flow make_flow(int workers, int per, int slack) {
  Flow f;
  f.sys = std::make_unique<SystemSpec>();
  SystemSpec& sys = *f.sys;
  const int ch = sys.add_channel("c", 2, 1);
  const int total = sys.add_global("total");
  for (int w = 0; w < workers; ++w) {
    ProcBuilder p(sys, "W" + std::to_string(w));
    const LVar i = p.local("i");
    const LVar scratch = p.local("s");
    p.finish(seq(do_(
        alt(seq(guard(p.l(i) < p.k(per)),
                assign(scratch, p.l(i) * p.k(3)),
                assign(scratch, p.l(scratch) + p.k(1)),
                send(p.c(Chan{ch}), {p.k(1)}),
                assign(i, p.l(i) + p.k(1)))),
        alt(seq(guard(p.l(i) == p.k(per)), break_())))));
    sys.spawn("w" + std::to_string(w), w, {});
  }
  ProcBuilder q(sys, "Collector");
  const LVar v = q.local("v");
  const LVar n = q.local("n");
  const int want = workers * per;
  q.finish(seq(do_(
      alt(seq(guard(q.l(n) < q.k(want)), recv(q.c(Chan{ch}), {bind(v)}),
              assign(GVar{total}, q.g(GVar{total}) + q.l(v)),
              assign(n, q.l(n) + q.k(1)))),
      alt(seq(guard(q.l(n) == q.k(want)), break_())))));
  sys.spawn("collector", workers, {});
  f.invariant = sys.exprs.binary(expr::Op::Le, sys.exprs.global(total),
                                 sys.exprs.konst(want + slack));
  return f;
}

/// A producer pushing `sent` messages through a capacity-1 channel to a
/// consumer that stops after `taken`: with taken < sent the producer blocks
/// forever mid-body -- a genuine multi-step deadlock.
std::unique_ptr<SystemSpec> make_pipeline(int sent, int taken) {
  auto sys = std::make_unique<SystemSpec>();
  const int ch = sys->add_channel("c", 1, 1);
  ProcBuilder p(*sys, "Producer");
  const LVar i = p.local("i");
  p.finish(seq(do_(
      alt(seq(guard(p.l(i) < p.k(sent)), send(p.c(Chan{ch}), {p.l(i)}),
              assign(i, p.l(i) + p.k(1)))),
      alt(seq(guard(p.l(i) == p.k(sent)), break_())))));
  sys->spawn("producer", 0, {});
  ProcBuilder q(*sys, "Consumer");
  const LVar v = q.local("v");
  const LVar n = q.local("n");
  q.finish(seq(do_(
      alt(seq(guard(q.l(n) < q.k(taken)), recv(q.c(Chan{ch}), {bind(v)}),
              assign(n, q.l(n) + q.k(1)))),
      alt(seq(guard(q.l(n) == q.k(taken)), break_())))));
  sys->spawn("consumer", 1, {});
  return sys;
}

Result explore_at(const kernel::Machine& m, Options opt, int threads) {
  opt.threads = threads;
  return explore(m, opt);
}

// -- invariant suite ----------------------------------------------------------

TEST(ParallelExact, InvariantVerdictAndCountsMatchAcrossThreadCounts) {
  for (const int slack : {0, -1}) {
    const Flow f = make_flow(3, 2, slack);
    const kernel::Machine m = f.machine();
    Options opt;
    opt.invariant = f.invariant;

    const Result seq = explore_at(m, opt, 1);
    EXPECT_EQ(seq.violation.has_value(), slack < 0);
    for (const int t : kThreadCounts) {
      const Result par = explore_at(m, opt, t);
      EXPECT_EQ(par.violation.has_value(), seq.violation.has_value())
          << "threads=" << t << " slack=" << slack;
      if (par.violation && seq.violation) {
        EXPECT_EQ(par.violation->kind, seq.violation->kind);
      }
      if (!seq.violation) {
        // complete exact runs must agree on the reached-state count
        EXPECT_TRUE(par.stats.complete);
        EXPECT_EQ(par.stats.states_stored, seq.stats.states_stored)
            << "threads=" << t;
      }
    }
  }
}

TEST(ParallelExact, PerWorkerCountersSumToMergedTotals) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  const Result r = explore_at(m, opt, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.stats.threads, 4);
  ASSERT_EQ(r.stats.workers.size(), 4u);
  std::uint64_t stored = 0, matched = 0, transitions = 0;
  for (const WorkerStats& w : r.stats.workers) {
    stored += w.states_stored;
    matched += w.states_matched;
    transitions += w.transitions;
  }
  // root is inserted by the seeder, not a worker
  EXPECT_EQ(stored + 1, r.stats.states_stored);
  EXPECT_EQ(matched, r.stats.states_matched);
  EXPECT_EQ(transitions, r.stats.transitions);
}

// -- deadlock suite -----------------------------------------------------------

TEST(ParallelExact, DeadlockVerdictMatchesAcrossThreadCounts) {
  // blocked producer -> deadlock; balanced pipeline -> clean termination
  for (const bool deadlocks : {true, false}) {
    // taken = sent - 2: the producer buffers one message into the cap-1
    // channel after the consumer stops, then blocks on the next forever.
    const auto sys = make_pipeline(3, deadlocks ? 1 : 3);
    const kernel::Machine m(*sys);
    Options opt;
    const Result seq = explore_at(m, opt, 1);
    ASSERT_EQ(seq.violation.has_value(), deadlocks);
    if (deadlocks) {
      EXPECT_EQ(seq.violation->kind, ViolationKind::Deadlock);
    }
    for (const int t : kThreadCounts) {
      const Result par = explore_at(m, opt, t);
      EXPECT_EQ(par.violation.has_value(), deadlocks) << "threads=" << t;
      if (deadlocks) {
        EXPECT_EQ(par.violation->kind, ViolationKind::Deadlock);
        EXPECT_FALSE(par.violation->trace.steps.empty());
        EXPECT_FALSE(par.violation->trace.final_state.empty());
      } else {
        EXPECT_EQ(par.stats.states_stored, seq.stats.states_stored);
      }
    }
  }
}

TEST(ParallelExact, CounterexampleTraceReplaysToViolation) {
  // The parallel trail is rebuilt from per-shard parent edges; replaying it
  // step by step from the initial state must reproduce a real path.
  const auto sys = make_pipeline(3, 1);
  const kernel::Machine m(*sys);
  Options opt;
  const Result r = explore_at(m, opt, 4);
  ASSERT_TRUE(r.violation.has_value());
  kernel::State s = m.initial();
  std::vector<kernel::Succ> succs;
  for (const trace::TraceStep& ts : r.violation->trace.steps) {
    succs.clear();
    m.successors(s, succs);
    bool advanced = false;
    for (kernel::Succ& succ : succs) {
      if (succ.second.pid == ts.step.pid && succ.second.trans == ts.step.trans &&
          succ.second.partner_pid == ts.step.partner_pid) {
        s = succ.first;
        advanced = true;
        break;
      }
    }
    ASSERT_TRUE(advanced) << "trace step not executable: " << ts.description;
  }
  // the final state of the trail is the deadlock state: no successors
  succs.clear();
  m.successors(s, succs);
  EXPECT_TRUE(succs.empty());
  EXPECT_FALSE(m.is_valid_end(s));
}

// -- end-invariant, BFS, POR, budgets -----------------------------------------

TEST(ParallelExact, EndInvariantAndBfsAgreeAcrossThreadCounts) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  SystemSpec& sys = *f.sys;
  Options opt;
  opt.end_invariant = sys.exprs.binary(
      expr::Op::Eq, sys.exprs.global(0), sys.exprs.konst(4));
  const Result seq = explore_at(m, opt, 1);
  for (const int t : kThreadCounts) {
    for (const bool bfs : {false, true}) {
      Options o = opt;
      o.bfs = bfs;
      const Result r = explore_at(m, o, t);
      EXPECT_EQ(r.violation.has_value(), seq.violation.has_value())
          << "threads=" << t << " bfs=" << bfs;
      if (!seq.violation) {
        EXPECT_EQ(r.stats.states_stored, seq.stats.states_stored);
      }
    }
  }
}

TEST(ParallelExact, PorReducedCountsAreThreadCountInvariant) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  opt.por = true;
  // The parallel engine uses the proviso-free (BFS-style) ample rule -- a
  // pure function of the state -- so all parallel runs agree with each
  // other and with sequential BFS+POR.
  Options bfs_por = opt;
  bfs_por.bfs = true;
  const Result reference = explore_at(m, bfs_por, 1);
  ASSERT_TRUE(reference.ok());
  for (const int t : {2, 8}) {
    const Result r = explore_at(m, opt, t);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.stats.states_stored, reference.stats.states_stored)
        << "threads=" << t;
  }
  // and POR still never grows the space
  Options full;
  full.invariant = f.invariant;
  const Result unreduced = explore_at(m, full, 4);
  EXPECT_LE(reference.stats.states_stored, unreduced.stats.states_stored);
}

TEST(ParallelExact, DeadlineTruncationReportsStructuredReason) {
  const Flow f = make_flow(3, 3, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.deadline_seconds = 1e-9;  // expires immediately
  const Result r = explore_at(m, opt, 2);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, TruncationReason::Deadline);
}

TEST(ParallelExact, MaxStatesTruncationIsReported) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.max_states = 50;
  const Result r = explore_at(m, opt, 4);
  if (!r.violation) {
    EXPECT_FALSE(r.stats.complete);
    EXPECT_EQ(r.stats.truncation, TruncationReason::MaxStates);
  }
}

// -- swarm (bitstate) suite ---------------------------------------------------

TEST(Swarm, VerdictMatchesExactOnPassAndFail) {
  for (const int slack : {0, -1}) {
    const Flow f = make_flow(2, 2, slack);
    const kernel::Machine m = f.machine();
    Options opt;
    opt.invariant = f.invariant;
    Options swarm = opt;
    swarm.bitstate = true;
    swarm.bitstate_bytes = 1u << 22;  // roomy filter: collisions ~ 0
    for (const int t : {2, 4}) {
      const Result r = explore_at(m, swarm, t);
      EXPECT_EQ(r.violation.has_value(), slack < 0) << "threads=" << t;
      EXPECT_FALSE(r.stats.complete);
      EXPECT_EQ(r.stats.truncation, TruncationReason::BitstateApprox);
      EXPECT_EQ(r.stats.threads, t);
      EXPECT_EQ(r.stats.workers.size(), static_cast<std::size_t>(t));
    }
  }
}

TEST(Swarm, WorkersExploreIndependentlySeededSearches) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  opt.bitstate = true;
  opt.bitstate_bytes = 1u << 22;
  const Result exact = explore_at(m, opt, 1);
  const Result swarm = explore_at(m, opt, 3);
  // every worker covers (approximately) the whole space on its own filter
  for (const WorkerStats& w : swarm.stats.workers)
    EXPECT_GE(w.states_stored, exact.stats.states_stored * 9 / 10);
  // merged totals are the per-filter sum
  std::uint64_t sum = 0;
  for (const WorkerStats& w : swarm.stats.workers) sum += w.states_stored;
  EXPECT_EQ(swarm.stats.states_stored, sum);
}

TEST(Swarm, InterruptStopsEveryWorker) {
  // An interrupt (SIGINT, a pnpd drain) must stop every worker, not only
  // worker 0: with the flag already set, each stops at its root.
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  const std::atomic<bool> interrupt{true};
  Options opt;
  opt.invariant = f.invariant;
  opt.bitstate = true;
  opt.bitstate_bytes = 1u << 16;
  opt.interrupt = &interrupt;
  const Result r = explore_at(m, opt, 3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.stats.truncation, TruncationReason::Interrupted);
  ASSERT_EQ(r.stats.workers.size(), 3u);
  for (const WorkerStats& w : r.stats.workers) EXPECT_LE(w.states_stored, 1u);
}

TEST(Swarm, SeededWorkersArePinned) {
  // A 4,096-bit filter for 23,364 states, so Bloom collisions make what
  // each worker stores depend on its search order. Pinning every worker's
  // counts pins the seeded orders and hash functions: a change to the
  // shuffle, its per-state seeding, or the replay of the shuffled stream
  // shows up here.
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  struct Want {
    std::uint64_t stored, matched, transitions;
  };
  struct Case {
    bool bfs, por;
    Want workers[3];
  };
  const Case cases[] = {
      {false, false,
       {{2368, 4793, 7160}, {2460, 5716, 8175}, {2376, 5174, 7549}}},
      {false, true, {{762, 144, 905}, {783, 151, 933}, {773, 153, 925}}},
      {true, false,
       {{2742, 7675, 10416}, {2679, 7481, 10159}, {2720, 7605, 10324}}},
      {true, true, {{749, 143, 891}, {769, 152, 920}, {779, 154, 932}}},
  };
  for (const Case& c : cases) {
    Options opt;
    opt.invariant = f.invariant;
    opt.bitstate = true;
    opt.bitstate_bytes = 512;
    opt.bfs = c.bfs;
    opt.por = c.por;
    const Result r = explore_at(m, opt, 3);
    const std::string what = std::string(c.bfs ? "bfs" : "dfs") +
                             (c.por ? "+por" : "");
    ASSERT_TRUE(r.ok()) << what;
    ASSERT_EQ(r.stats.workers.size(), 3u) << what;
    for (std::size_t w = 0; w < 3; ++w) {
      const WorkerStats& got = r.stats.workers[w];
      const Want& want = c.workers[w];
      EXPECT_EQ(got.states_stored, want.stored) << what << " worker " << w;
      EXPECT_EQ(got.states_matched, want.matched) << what << " worker " << w;
      EXPECT_EQ(got.transitions, want.transitions) << what << " worker " << w;
    }
    const auto same = [&](std::size_t a, std::size_t b) {
      const WorkerStats& x = r.stats.workers[a];
      const WorkerStats& y = r.stats.workers[b];
      return x.states_stored == y.states_stored &&
             x.states_matched == y.states_matched &&
             x.transitions == y.transitions;
    };
    EXPECT_FALSE(same(0, 1) && same(1, 2))
        << what << ": every worker searched in the same order";
  }
}

TEST(Swarm, WorkersShareTheMemoryBudget) {
  // Each swarm worker holds a filter of its own, so each is held to an even
  // share of the memory budget, as racing LTL workers are.
  const Flow f = make_flow(3, 2, 0);  // 23,364 states
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  opt.bitstate = true;
  opt.memory_budget_bytes = std::uint64_t{3} << 19;  // 1.5 MiB
  // Either 1 MiB filter fits the budget, the two together do not.
  opt.bitstate_bytes = std::uint64_t{1} << 20;
  const Result over = explore_at(m, opt, 2);
  EXPECT_FALSE(over.stats.complete);
  EXPECT_EQ(over.stats.truncation, TruncationReason::MemoryBudget);
  // Two 256 KiB filters fit their 768 KiB shares.
  opt.bitstate_bytes = std::uint64_t{1} << 18;
  const Result fits = explore_at(m, opt, 2);
  EXPECT_TRUE(fits.ok());
  EXPECT_EQ(fits.stats.truncation, TruncationReason::BitstateApprox);
  EXPECT_LE(fits.stats.approx_memory_bytes, opt.memory_budget_bytes);
}

// -- every budget against every search mode -----------------------------------

// Two relay pipelines of three messages each racing into a shared tally:
// 134,689 states, 10,212 under partial-order reduction -- large enough that
// a 1 us deadline trips at the first budget check (pass 1024).
constexpr const char* kRelayMesh = R"(
chan a1 = [3] of { byte };
chan a2 = [3] of { byte };
chan b1 = [3] of { byte };
chan b2 = [3] of { byte };
byte tally;
active proctype SourceA() {
  byte i = 0;
  do :: i < 3 -> a1!i; i++ :: i >= 3 -> break od
}
active proctype RelayA() { byte v; end: do :: a1?v -> a2!v od }
active proctype SinkA() {
  byte v; byte expect = 0;
  do
  :: expect < 3 -> a2?v; assert(v == expect); expect++; tally++
  :: expect >= 3 -> break
  od
}
active proctype SourceB() {
  byte i = 0;
  do :: i < 3 -> b1!i; i++ :: i >= 3 -> break od
}
active proctype RelayB() { byte v; end: do :: b1?v -> b2!v od }
active proctype SinkB() {
  byte v; byte expect = 0;
  do
  :: expect < 3 -> b2?v; assert(v == expect); expect++; tally++
  :: expect >= 3 -> break
  od
}
)";

TEST(Budget, EveryModeStopsWithItsReason) {
  model::SystemSpec sys = pml::parse(kRelayMesh);
  const expr::Ref low = pml::parse_global_expr(sys, "tally <= 10");
  const kernel::Machine m(sys);
  ltl::PropertyContext props;
  props.add("low", low);

  struct Mode {
    const char* name;
    bool bfs, por, bitstate;
    int threads;
    int ltl;          // 0: safety, 1: G low, 2: G low under weak fairness
    std::size_t ref;  // the mode whose unbounded run bounds this one
  };
  const Mode modes[] = {
      {"dfs", false, false, false, 1, 0, 0},
      {"bfs", true, false, false, 1, 0, 0},
      {"dfs+por", false, true, false, 1, 0, 2},
      {"bfs+por", true, true, false, 1, 0, 3},
      {"2-thread exact", false, false, false, 2, 0, 0},
      // parallel POR takes the BFS (proviso-free) ample sets
      {"2-thread exact+por", false, true, false, 2, 0, 3},
      {"bitstate", false, false, true, 1, 0, 0},
      {"2-worker swarm", false, false, true, 2, 0, 0},
      {"ltl", false, false, false, 1, 1, 8},
      {"fair ltl", false, false, false, 1, 2, 9},
      {"2-worker racing ltl", false, false, false, 2, 1, 8},
  };
  auto run = [&](const Mode& md, const ExecBudget& b) {
    if (md.ltl != 0) {
      ltl::CheckOptions o;
      static_cast<ExecBudget&>(o) = b;
      o.threads = md.threads;
      o.weak_fairness = md.ltl == 2;
      return ltl::check_ltl(m, props, "G low", o).stats;
    }
    Options o;
    o.invariant = low;
    o.max_states = b.max_states;
    o.deadline_seconds = b.deadline_seconds;
    o.memory_budget_bytes = b.memory_budget_bytes;
    o.interrupt = b.interrupt;
    o.bfs = md.bfs;
    o.por = md.por;
    o.bitstate = md.bitstate;
    o.threads = md.threads;
    return explore(m, o).stats;
  };
  std::uint64_t unbounded[std::size(modes)] = {};
  for (std::size_t i = 0; i < std::size(modes); ++i)
    if (modes[i].ref == i) unbounded[i] = run(modes[i], {}).states_stored;

  const std::atomic<bool> interrupt{true};
  struct Cell {
    const char* name;
    TruncationReason why;
    ExecBudget budget;
  };
  Cell cells[4] = {{"max-states", TruncationReason::MaxStates, {}},
                   {"deadline", TruncationReason::Deadline, {}},
                   {"memory", TruncationReason::MemoryBudget, {}},
                   {"interrupt", TruncationReason::Interrupted, {}}};
  cells[0].budget.max_states = 1'000;
  cells[1].budget.deadline_seconds = 1e-6;
  cells[2].budget.memory_budget_bytes = std::uint64_t{64} << 10;
  cells[3].budget.interrupt = &interrupt;
  for (const Mode& md : modes) {
    for (const Cell& c : cells) {
      const Stats st = run(md, c.budget);
      const std::string what = std::string(md.name) + " under " + c.name;
      EXPECT_FALSE(st.complete) << what;
      EXPECT_EQ(st.truncation, c.why) << what;
      EXPECT_LT(st.states_stored * 3, unbounded[md.ref]) << what;
    }
  }
}

// -- LTL suite ----------------------------------------------------------------

TEST(ParallelLtl, VerdictMatchesAcrossThreadCounts) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  ltl::PropertyContext props;
  props.add("bounded", f.invariant);
  props.add("over", f.sys->exprs.binary(expr::Op::Gt, f.sys->exprs.global(0),
                                        f.sys->exprs.konst(100)));
  for (const std::string& formula : {std::string("G bounded"),
                                     std::string("F over")}) {
    ltl::CheckOptions seq_opt;
    const ltl::LtlResult seq = ltl::check_ltl(m, props, formula, seq_opt);
    for (const int t : kThreadCounts) {
      ltl::CheckOptions opt;
      opt.threads = t;
      const ltl::LtlResult r = ltl::check_ltl(m, props, formula, opt);
      EXPECT_EQ(r.holds, seq.holds) << formula << " threads=" << t;
      EXPECT_EQ(r.violation.has_value(), seq.violation.has_value());
    }
  }
}

// -- verifier ladder + resilience stress --------------------------------------

TEST(ParallelVerifier, LadderDegradesToSwarmBitstate) {
  const Flow f = make_flow(3, 3, 0);
  const kernel::Machine m = f.machine();
  VerifyOptions opt;
  opt.threads = 2;
  opt.max_states = 200;  // force exact truncation
  opt.bitstate_bytes = 1u << 22;
  const SafetyOutcome out = check_safety(m, opt);
  ASSERT_TRUE(out.degraded());
  ASSERT_EQ(out.stages.size(), 2u);
  EXPECT_EQ(out.stages[0].name, "exact-parallel");
  EXPECT_EQ(out.stages[1].name, "swarm-bitstate");
  EXPECT_EQ(out.result.stats.threads, 2);
}

TEST(ParallelResilience, FaultSuiteStressUnderFourJobs) {
  // The counting receiver is vulnerable to duplication, the idempotent one
  // tolerates the full suite; concurrent variant verification (4 jobs, one
  // shared ModelGenerator) must reproduce exactly the sequential verdicts.
  const auto arch_text = [](const std::string& update) {
    return "architecture counter {\n"
           "  global received = 0;\n"
           "  component Sender {\n"
           "    behavior { out_data!7,0,0,0,0,0; out_sig?SEND_SUCC,_; }\n"
           "  }\n"
           "  component Receiver {\n"
           "    behavior {\n"
           "      byte v;\n"
           "      do\n"
           "      :: in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
           "         in_data?v,_,_,_,_,_; " + update + "\n"
           "      od\n"
           "    }\n"
           "  }\n"
           "  connector Link : fifo(2) {\n"
           "    sender Sender.out via asyn_blocking;\n"
           "    receiver Receiver.in via blocking;\n"
           "  }\n"
           "}\n";
  };
  for (const bool idempotent : {true, false}) {
    Architecture arch = adl::parse_architecture(
        arch_text(idempotent ? "received = 1" : "received++"));
    const std::vector<FaultSpec> suite = default_fault_suite(arch);
    ASSERT_GE(suite.size(), 5u);

    ResilienceOptions sequential;
    sequential.invariant_text = "received <= 1";
    ResilienceOptions concurrent = sequential;
    concurrent.jobs = 4;

    const ResilienceReport seq = check_resilience(arch, suite, sequential);
    const ResilienceReport par = check_resilience(arch, suite, concurrent);

    ASSERT_EQ(par.faults.size(), seq.faults.size());
    EXPECT_TRUE(par.baseline_passed());
    EXPECT_EQ(par.baseline_passed(), seq.baseline_passed());
    EXPECT_EQ(par.all_tolerated(), seq.all_tolerated());
    // the counting receiver must flunk duplication either way
    if (!idempotent) {
      EXPECT_FALSE(par.all_tolerated());
    }
    for (std::size_t i = 0; i < seq.faults.size(); ++i) {
      EXPECT_EQ(par.faults[i].description, seq.faults[i].description);
      EXPECT_EQ(par.faults[i].tolerated(), seq.faults[i].tolerated())
          << par.faults[i].description;
    }
  }
}

}  // namespace
}  // namespace pnp::explore
