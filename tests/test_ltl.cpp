// LTL engine tests: parser, Büchi translation structure, end-to-end model
// checking (with stutter extension at terminal states) on small hand-built
// systems, pinned product-search results under every engine, and the
// budgets and telemetry of the product search.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "bridge/bridge.h"
#include "kernel/machine.h"
#include "ltl/buchi.h"
#include "ltl/product.h"
#include "model/builder.h"
#include "pml/parser.h"
#include "pnp/pnp.h"
#include "rpc_model.h"
#include "support/hash.h"

namespace pnp::ltl {
namespace {

using namespace model;

// -- parser ---------------------------------------------------------------

class LtlParse : public ::testing::Test {
 protected:
  LtlParse() {
    ctx_.add("p", 0);
    ctx_.add("q", 1);
  }
  std::string roundtrip(const std::string& text) {
    return pool_.to_string(parse_ltl(pool_, ctx_, text), &ctx_);
  }
  FormulaPool pool_;
  PropertyContext ctx_;
};

TEST_F(LtlParse, AtomsAndNegation) {
  EXPECT_EQ(roundtrip("p"), "p");
  EXPECT_EQ(roundtrip("!p"), "!p");
  EXPECT_EQ(roundtrip("!!p"), "p");
  EXPECT_EQ(roundtrip("true"), "true");
}

TEST_F(LtlParse, TemporalSugar) {
  EXPECT_EQ(roundtrip("G p"), "G(p)");
  EXPECT_EQ(roundtrip("[] p"), "G(p)");
  EXPECT_EQ(roundtrip("F p"), "F(p)");
  EXPECT_EQ(roundtrip("<> p"), "F(p)");
  EXPECT_EQ(roundtrip("X p"), "X(p)");
}

TEST_F(LtlParse, PrecedenceBindsUntilTighterThanAnd) {
  // p U q && q U p  ==  (p U q) && (q U p)
  EXPECT_EQ(roundtrip("p U q && q U p"), "((p U q) && (q U p))");
}

TEST_F(LtlParse, ImplicationDesugars) {
  EXPECT_EQ(roundtrip("p -> q"), "(!p || q)");
}

TEST_F(LtlParse, NegationDualizesTemporalOps) {
  EXPECT_EQ(roundtrip("!G p"), "F(!p)");
  EXPECT_EQ(roundtrip("!F p"), "G(!p)");
  EXPECT_EQ(roundtrip("!(p U q)"), "(!p R !q)");
  EXPECT_EQ(roundtrip("!X p"), "X(!p)");
}

TEST_F(LtlParse, UnknownPropositionRaises) {
  EXPECT_THROW(parse_ltl(pool_, ctx_, "G unknown_prop"), ModelError);
}

TEST_F(LtlParse, SyntaxErrorRaises) {
  EXPECT_THROW(parse_ltl(pool_, ctx_, "G (p"), ModelError);
  EXPECT_THROW(parse_ltl(pool_, ctx_, "p U"), ModelError);
  EXPECT_THROW(parse_ltl(pool_, ctx_, "p #"), ModelError);
}

// -- Büchi structure ---------------------------------------------------------

TEST(LtlBuchi, GlobalPHasSingleSelfLoopShape) {
  FormulaPool pool;
  PropertyContext ctx;
  ctx.add("p", 0);
  const FRef f = parse_ltl(pool, ctx, "G p");
  const BuchiAutomaton ba = build_buchi(pool, f, &ctx);
  // G p has no Until subformulas: every state accepting
  EXPECT_EQ(ba.n_acceptance_sets, 0);
  for (const BuchiState& s : ba.states) EXPECT_TRUE(s.accepting);
  // at least one initial state requiring p
  bool found = false;
  for (const BuchiState& s : ba.states)
    if (s.initial)
      for (const Literal& lit : s.label)
        if (lit.prop == 0 && !lit.negated) found = true;
  EXPECT_TRUE(found);
}

TEST(LtlBuchi, FinallyPHasAcceptanceSet) {
  FormulaPool pool;
  PropertyContext ctx;
  ctx.add("p", 0);
  const FRef f = parse_ltl(pool, ctx, "F p");
  const BuchiAutomaton ba = build_buchi(pool, f, &ctx);
  EXPECT_EQ(ba.n_acceptance_sets, 1);
  bool has_accepting = false;
  for (const BuchiState& s : ba.states) has_accepting |= s.accepting;
  EXPECT_TRUE(has_accepting);
}

// -- model checking -----------------------------------------------------------

/// One process setting global x through the given sequence of values, then
/// stopping (stutter extension applies at the end).
struct Lin {
  SystemSpec sys;
  int x;
  std::unique_ptr<kernel::Machine> m;

  explicit Lin(const std::vector<Value>& values, Value init = 0) {
    x = sys.add_global("x", init);
    ProcBuilder p(sys, "P");
    Seq body;
    for (Value v : values) body.push_back(assign(GVar{x}, p.k(v)));
    p.finish(std::move(body));
    sys.spawn("p", 0, {});
    m = std::make_unique<kernel::Machine>(sys);
  }

  PropertyContext props() {
    PropertyContext ctx;
    ctx.add("x0", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                   expr::wrap(sys.exprs, sys.exprs.konst(0)))
                      .ref);
    ctx.add("x1", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                   expr::wrap(sys.exprs, sys.exprs.konst(1)))
                      .ref);
    ctx.add("x2", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                   expr::wrap(sys.exprs, sys.exprs.konst(2)))
                      .ref);
    return ctx;
  }
};

TEST(LtlCheck, GlobalHoldsOnConstantRun) {
  Lin lin({0, 0, 0});
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "G x0").holds);
}

TEST(LtlCheck, GlobalFailsWhenValueChanges) {
  Lin lin({0, 1});
  const LtlResult r = check_ltl(*lin.m, lin.props(), "G x0");
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_FALSE(r.violation->trace.empty());
}

TEST(LtlCheck, FinallyHoldsViaStutterAtTermination) {
  Lin lin({1});
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "F x1").holds);
  // and the terminal value persists
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "F G x1").holds);
}

TEST(LtlCheck, FinallyFailsWhenNeverReached) {
  Lin lin({1, 0});
  EXPECT_FALSE(check_ltl(*lin.m, lin.props(), "F x2").holds);
}

TEST(LtlCheck, UntilSemantics) {
  Lin lin({0, 0, 1});  // x stays 0 until it becomes 1
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "x0 U x1").holds);
  // x0 already holds initially, so ANY formula `phi U x0` holds trivially...
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "x2 U x0").holds);
  // ...but the goal side is not satisfied by the guard side: x1 U x2 needs
  // x2 eventually AND x1 meanwhile; neither happens from the start.
  EXPECT_FALSE(check_ltl(*lin.m, lin.props(), "x1 U x2").holds);
}

TEST(LtlCheck, UntilFailsWhenGuardBreaksBeforeGoal) {
  Lin lin({2, 1});  // x: 0 -> 2 -> 1 ; x0 broken by 2 before 1
  EXPECT_FALSE(check_ltl(*lin.m, lin.props(), "x0 U x1").holds);
}

TEST(LtlCheck, NextStepsThroughAssignments) {
  Lin lin({1, 2});
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "x0 && X (x1 && X x2)").holds);
  EXPECT_FALSE(check_ltl(*lin.m, lin.props(), "X x2").holds);
}

TEST(LtlCheck, WeakUntilAllowsForeverGuard) {
  Lin lin({0, 0});
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "x0 W x1").holds);
  EXPECT_FALSE(check_ltl(*lin.m, lin.props(), "x0 U x1").holds);
}

TEST(LtlCheck, ReleaseSemantics) {
  Lin lin({0, 0});
  // x1 R x0 : x0 must hold forever (x1 never releases) -- true here
  EXPECT_TRUE(check_ltl(*lin.m, lin.props(), "x1 R x0").holds);
  Lin lin2({1});
  // x0 violated at the second state unless released first
  EXPECT_FALSE(check_ltl(*lin2.m, lin2.props(), "x2 R x0").holds);
}

TEST(LtlCheck, ResponsePropertyOnCyclicSystem) {
  // A process cycling x: 0 -> 1 -> 2 -> 0 -> ... forever.
  SystemSpec sys;
  const int x = sys.add_global("x", 0);
  ProcBuilder p(sys, "P");
  p.finish(seq(do_(alt(seq(assign(GVar{x}, p.k(1)), assign(GVar{x}, p.k(2)),
                           assign(GVar{x}, p.k(0)))))));
  sys.spawn("p", 0, {});
  kernel::Machine m(sys);
  PropertyContext ctx;
  ctx.add("x1", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(1)))
                    .ref);
  ctx.add("x2", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(2)))
                    .ref);
  EXPECT_TRUE(check_ltl(m, ctx, "G (x1 -> F x2)").holds);
  EXPECT_TRUE(check_ltl(m, ctx, "G F x1").holds);
  EXPECT_FALSE(check_ltl(m, ctx, "F G x1").holds);
}

TEST(LtlCheck, WeakFairnessDiscardsStarvationCycles) {
  // Two independent processes: A toggles x forever, B sets y once. Under an
  // unfair scheduler B can starve, so F y1 fails; weak fairness forces B to
  // move eventually.
  SystemSpec sys;
  const int x = sys.add_global("x", 0);
  const int y = sys.add_global("y", 0);
  ProcBuilder a(sys, "A");
  a.finish(seq(do_(alt(seq(assign(GVar{x}, a.k(1) - a.g(GVar{x})))))));
  ProcBuilder b(sys, "B");
  b.finish(seq(assign(GVar{y}, b.k(1)), end_label()));
  sys.spawn("a", 0, {});
  sys.spawn("b", 1, {});
  kernel::Machine m(sys);
  PropertyContext ctx;
  ctx.add("y1", (expr::wrap(sys.exprs, sys.exprs.global(y)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(1)))
                    .ref);
  EXPECT_FALSE(check_ltl(m, ctx, "F y1").holds);
  CheckOptions fair;
  fair.weak_fairness = true;
  EXPECT_TRUE(check_ltl(m, ctx, "F y1", fair).holds);
}

TEST(LtlCheck, WeakFairnessStillFindsRealViolations) {
  // x never becomes 2 on any execution: fairness must not mask the
  // violation of F x2.
  SystemSpec sys;
  const int x = sys.add_global("x", 0);
  ProcBuilder a(sys, "A");
  a.finish(seq(do_(alt(seq(assign(GVar{x}, a.k(1) - a.g(GVar{x})))))));
  sys.spawn("a", 0, {});
  kernel::Machine m(sys);
  PropertyContext ctx;
  ctx.add("x2", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(2)))
                    .ref);
  ctx.add("x1", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(1)))
                    .ref);
  CheckOptions fair;
  fair.weak_fairness = true;
  EXPECT_FALSE(check_ltl(m, ctx, "F x2", fair).holds);
  // sanity: a property that does hold under fairness (and even without)
  EXPECT_TRUE(check_ltl(m, ctx, "G F x1", fair).holds);
}

TEST(LtlCheck, WeakFairnessDoesNotAffectBlockedProcesses) {
  // B blocks forever on an empty channel: fairness must not demand that a
  // DISABLED process moves, so A's cycle is still fairly admissible and
  // G !y1 holds.
  SystemSpec sys;
  const int x = sys.add_global("x", 0);
  const int y = sys.add_global("y", 0);
  const int ch = sys.add_channel("c", 1, 1);
  ProcBuilder a(sys, "A");
  a.finish(seq(do_(alt(seq(assign(GVar{x}, a.k(1) - a.g(GVar{x})))))));
  ProcBuilder b(sys, "B");
  const LVar v = b.local("v");
  b.finish(seq(recv(b.c(Chan{ch}), {bind(v)}),  // never satisfiable
               assign(GVar{y}, b.k(1))));
  sys.spawn("a", 0, {});
  sys.spawn("b", 1, {});
  kernel::Machine m(sys);
  PropertyContext ctx;
  ctx.add("y1", (expr::wrap(sys.exprs, sys.exprs.global(y)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(1)))
                    .ref);
  CheckOptions fair;
  fair.weak_fairness = true;
  EXPECT_TRUE(check_ltl(m, ctx, "G !y1", fair).holds);
  // and F y1 is (correctly) violated even under fairness: B is blocked,
  // not starved
  EXPECT_FALSE(check_ltl(m, ctx, "F y1", fair).holds);
}

TEST(LtlCheck, CounterexampleMarksCycle) {
  SystemSpec sys;
  const int x = sys.add_global("x", 0);
  ProcBuilder p(sys, "P");
  p.finish(seq(do_(alt(seq(assign(GVar{x}, p.k(1)), assign(GVar{x}, p.k(0)))))));
  sys.spawn("p", 0, {});
  kernel::Machine m(sys);
  PropertyContext ctx;
  ctx.add("x1", (expr::wrap(sys.exprs, sys.exprs.global(x)) ==
                 expr::wrap(sys.exprs, sys.exprs.konst(1)))
                    .ref);
  const LtlResult r = check_ltl(m, ctx, "F G x1");
  ASSERT_FALSE(r.holds);
  bool has_marker = false;
  for (const auto& step : r.violation->trace.steps)
    if (step.description.find("accepting cycle") != std::string::npos)
      has_marker = true;
  EXPECT_TRUE(has_marker);
}

// -- pinned product-search results -------------------------------------------
//
// Exact (verdict, stored states, transitions) and lasso trails of the nested
// DFS on models covering weak fairness, stutter at termination, a multi-edge
// Buchi automaton and max_states truncation, under every engine. The numbers
// were taken from the original string-keyed search; the product store and
// successor streaming must reproduce them. Transitions are pinned only for
// violation-free searches: a search that stops at a violation never
// generates the remaining candidates of the frames on its stack.

using fixtures::GenModel;
using fixtures::rpc_model;

std::unique_ptr<GenModel> fig13_model(bool buggy) {
  auto g = std::make_unique<GenModel>();
  bridge::BridgeConfig cfg;
  cfg.cars_per_side = 1;
  cfg.batch_n = 1;
  cfg.buggy_async_enter = buggy;
  g->m = std::make_unique<kernel::Machine>(
      g->gen.generate(bridge::make_v1(cfg), {.optimize_connectors = true}));
  g->gen.add_prop("safe", bridge::safety_invariant(g->gen));
  return g;
}

/// A PML model with named propositions given as global expressions.
struct PmlModel {
  SystemSpec sys;
  std::unique_ptr<kernel::Machine> m;
  PropertyContext props;

  PmlModel(const char* text,
           std::initializer_list<std::pair<const char*, const char*>> ps)
      : sys(pml::parse(text)), m(std::make_unique<kernel::Machine>(sys)) {
    for (const auto& [name, expr_text] : ps)
      props.add(name, pml::parse_global_expr(sys, expr_text));
  }
};

// examples/models/client_server.pml: every run terminates, so liveness is
// decided by the stutter extension at the terminal states.
constexpr const char* kClientServer = R"(
  mtype = { REQ, REP };
  chan c = [0] of { mtype, byte };
  byte served;
  proctype Server(chan link) {
    byte v;
    end: do
    :: link?REQ,v -> served++
    od
  }
  proctype Client(chan link; byte id) {
    link!REQ,id
  }
  init {
    run Server(c);
    run Client(c, 1);
    run Client(c, 2)
  }
)";

// Two cycling processes and a terminating one: `G F pa && G F qb` needs a
// Buchi automaton with several edges per state and two acceptance sets.
constexpr const char* kToggles = R"(
  byte a, b, c;
  active proctype P() { do :: a = 1 - a od }
  active proctype Q() { do :: b = (b + 1) % 3 od }
  active proctype R() { do :: c < 4 -> c++ :: c == 4 -> break od }
)";

struct Pin {
  const char* formula;
  bool fair;
  std::uint64_t max_states;  // 0 = the default budget
  bool holds;
  bool complete;
  std::uint64_t states;
  std::uint64_t transitions;  // violation-free searches only
  std::size_t trail_steps;    // violations only
  std::uint64_t trail_digest;
};

std::uint64_t trail_digest(const LtlResult& r) {
  std::string all;
  for (const trace::TraceStep& st : r.violation->trace.steps)
    all += std::to_string(st.step.pid) + "," + std::to_string(st.step.trans) +
           ":" + st.description + "\n";
  all += r.violation->trace.final_state;
  return stable_hash64(all);
}

/// Per-test artifact cache for the aot engine.
class AotCache {
 public:
  AotCache()
      : dir_(std::filesystem::temp_directory_path() /
             (std::string("pnp_ltl_pin_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    std::filesystem::remove_all(dir_);
  }
  ~AotCache() { std::filesystem::remove_all(dir_); }
  std::string str() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

void expect_pinned(const std::string& name, const kernel::Machine& m,
                   const PropertyContext& ctx, const Pin& p) {
  AotCache cache;
  for (const codegen::EngineKind kind :
       {codegen::EngineKind::Interp, codegen::EngineKind::Bytecode,
        codegen::EngineKind::Aot}) {
    CheckOptions o = p.fair ? fair() : CheckOptions{};
    if (p.max_states != 0) o.max_states = p.max_states;
    o.engine = kind;
    o.engine_cache_dir = cache.str();
    const LtlResult r = check_ltl(m, ctx, p.formula, o);
    const std::string what =
        name + " " + p.formula + " / " + codegen::engine_kind_name(kind);
    EXPECT_EQ(r.holds, p.holds) << what;
    EXPECT_EQ(r.stats.complete, p.complete) << what;
    EXPECT_EQ(r.stats.states_stored, p.states) << what;
    if (p.holds) {
      EXPECT_EQ(r.stats.transitions, p.transitions) << what;
      EXPECT_FALSE(r.violation.has_value()) << what;
      continue;
    }
    ASSERT_TRUE(r.violation.has_value()) << what;
    EXPECT_EQ(r.violation->trace.steps.size(), p.trail_steps) << what;
    EXPECT_EQ(trail_digest(r), p.trail_digest) << what;
  }
}

TEST(LtlPinned, WeakFairnessOnRpcPipeline) {
  const auto fair_rpc = rpc_model(/*optimized=*/true);
  expect_pinned("rpc", *fair_rpc->m, fair_rpc->gen.props(),
                {"F c0_done", true, 0, true, true, 128'609, 765'885, 0, 0});
  expect_pinned("rpc", *fair_rpc->m, fair_rpc->gen.props(),
                {"F c0_done", true, 20'000, true, false, 20'066, 122'692, 0, 0});
}

TEST(LtlPinned, UnfairRpcLassoTrail) {
  const auto rpc = rpc_model(/*optimized=*/false);
  expect_pinned("rpc-faithful", *rpc->m, rpc->gen.props(),
                {"F c0_done", false, 0, false, true, 276, 0, 277,
                 0x1956307b98eabcd8ull});
}

TEST(LtlPinned, BridgeSafetyAsLtl) {
  const auto fixed = fig13_model(/*buggy=*/false);
  expect_pinned("fig13", *fixed->m, fixed->gen.props(),
                {"G safe", false, 0, true, true, 28'251, 111'345, 0, 0});
  expect_pinned("fig13", *fixed->m, fixed->gen.props(),
                {"G safe", false, 5'000, true, false, 5'773, 17'461, 0, 0});
  const auto buggy = fig13_model(/*buggy=*/true);
  expect_pinned("fig13-buggy", *buggy->m, buggy->gen.props(),
                {"G safe", false, 0, false, true, 24'937, 0, 22'494,
                 0xcfdd98bb5d669e98ull});
}

TEST(LtlPinned, StutterAtTermination) {
  const PmlModel cs(kClientServer, {{"served", "served == 2"}});
  expect_pinned("client_server", *cs.m, cs.props,
                {"F served", true, 0, true, true, 7, 6, 0, 0});
  expect_pinned("client_server", *cs.m, cs.props,
                {"F served", false, 0, true, true, 7, 12, 0, 0});
  expect_pinned("client_server", *cs.m, cs.props,
                {"F G served", false, 0, true, true, 16, 56, 0, 0});
  expect_pinned("client_server", *cs.m, cs.props,
                {"G !served", false, 0, false, true, 7, 0, 8,
                 0x9b4b4f4828ea1607ull});
}

TEST(LtlPinned, MultiEdgeBuchi) {
  const PmlModel t(kToggles, {{"pa", "a == 1"}, {"qb", "b == 2"}});
  expect_pinned("toggles", *t.m, t.props,
                {"G F pa && G F qb", true, 0, true, true, 396, 1'338, 0, 0});
  expect_pinned("toggles", *t.m, t.props,
                {"G F pa && G F qb", false, 0, false, true, 39, 0, 40,
                 0x4240e3db9a399e80ull});
}

// -- budgets and telemetry ---------------------------------------------------

// The fair RPC product (128,609 states) under each budget, sequential and
// racing: the search stops early and names the budget that stopped it.
void expect_truncated(const CheckOptions& base,
                      explore::TruncationReason why) {
  const auto rpc = rpc_model(/*optimized=*/true);
  for (const int threads : {1, 2}) {
    CheckOptions o = base;
    o.threads = threads;
    const LtlResult r = check_ltl(*rpc->m, rpc->gen.props(), "F c0_done", o);
    EXPECT_FALSE(r.stats.complete) << "threads=" << threads;
    EXPECT_EQ(r.stats.truncation, why) << "threads=" << threads;
    EXPECT_LT(r.stats.states_stored, 128'609u) << "threads=" << threads;
  }
}

TEST(LtlBudget, DeadlineStopsTheProductSearch) {
  CheckOptions o = fair();
  o.deadline_seconds = 1e-9;
  expect_truncated(o, explore::TruncationReason::Deadline);
}

TEST(LtlBudget, MemoryBudgetStopsTheProductSearch) {
  CheckOptions o = fair();
  o.memory_budget_bytes = std::uint64_t{1} << 20;  // a sixth of the search
  expect_truncated(o, explore::TruncationReason::MemoryBudget);
}

TEST(LtlBudget, RacingWorkersShareTheMemoryBudget) {
  // The whole sequential search fits in 8 MiB (about 6.5 MiB); two racing
  // workers, each building its own store, get 4 MiB apiece and stop.
  const auto rpc = rpc_model(/*optimized=*/true);
  CheckOptions o = fair();
  o.memory_budget_bytes = std::uint64_t{8} << 20;
  const LtlResult seq = check_ltl(*rpc->m, rpc->gen.props(), "F c0_done", o);
  ASSERT_TRUE(seq.stats.complete);
  ASSERT_LT(seq.stats.approx_memory_bytes, o.memory_budget_bytes);
  o.threads = 2;
  const LtlResult r = check_ltl(*rpc->m, rpc->gen.props(), "F c0_done", o);
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, explore::TruncationReason::MemoryBudget);
  EXPECT_LT(r.stats.states_stored, seq.stats.states_stored);
  EXPECT_LT(r.stats.approx_memory_bytes, seq.stats.approx_memory_bytes);
}

// A counter that leaves 0 once and then cycles through 1..600.
constexpr const char* kCounter = R"(
  short x;
  active proctype P() { x = 1; do :: x = x % 600 + 1 od }
)";

// A budget that stops the search stops it for good. The automaton of
// `!G F top` has two initial states. The search from the first one stops
// (at its first budget check, pass 1024) inside the accepting branch, with
// accepting states still marked on-stack; a search from the second would
// start an inner search that reaches those marks and reports a cycle that
// does not exist.
TEST(LtlBudget, StoppedSearchStartsNoFurtherOuterSearch) {
  const PmlModel c(kCounter, {{"top", "x == 300"}});
  FormulaPool pool;
  const FRef phi = parse_ltl(pool, c.props, "G F top");
  int initial = 0;
  for (const BuchiState& q :
       build_buchi(pool, pool.negate(phi), &c.props).states)
    initial += q.initial ? 1 : 0;
  ASSERT_GT(initial, 1);
  const LtlResult ref = check_ltl(*c.m, c.props, "G F top");
  ASSERT_TRUE(ref.holds);
  for (const auto why : {explore::TruncationReason::Deadline,
                         explore::TruncationReason::MemoryBudget}) {
    CheckOptions o;
    if (why == explore::TruncationReason::Deadline)
      o.deadline_seconds = 1e-9;
    else
      // Half the complete search's footprint: the stack is near its full
      // depth by pass 1024, so the first check already trips.
      o.memory_budget_bytes = ref.stats.approx_memory_bytes / 2;
    const LtlResult r = check_ltl(*c.m, c.props, "G F top", o);
    const std::string what = explore::truncation_reason_name(why);
    EXPECT_TRUE(r.holds) << what;
    EXPECT_FALSE(r.violation.has_value()) << what;
    EXPECT_FALSE(r.stats.complete) << what;
    EXPECT_EQ(r.stats.truncation, why) << what;
    EXPECT_LT(r.stats.states_stored, ref.stats.states_stored) << what;
  }
}

TEST(LtlBudget, InterruptStopsTheProductSearch) {
  const std::atomic<bool> interrupt{true};
  CheckOptions o = fair();
  o.interrupt = &interrupt;
  expect_truncated(o, explore::TruncationReason::Interrupted);
}

TEST(LtlObs, CountersAndGaugesMatchTheCheck) {
  // Under weak fairness the inner searches revisit most of the product;
  // the stored-state counter counts product states once, as the check does.
  const auto rpc = rpc_model(/*optimized=*/true);
  obs::Observer ob;
  CheckOptions o = fair();
  o.obs = &ob;
  const LtlResult r = check_ltl(*rpc->m, rpc->gen.props(), "F c0_done", o);
  ASSERT_TRUE(r.holds);
  EXPECT_EQ(ob.recorder().total(obs::Counter::StatesStored),
            r.stats.states_stored);
  EXPECT_EQ(ob.recorder().total(obs::Counter::Transitions),
            r.stats.transitions);
  EXPECT_GT(r.stats.store_bytes, 0u);
  EXPECT_GE(r.stats.approx_memory_bytes, r.stats.store_bytes);
  EXPECT_EQ(ob.recorder().gauge(obs::Gauge::StoreBytes), r.stats.store_bytes);
  EXPECT_GT(ob.recorder().gauge(obs::Gauge::CompressorBytes), 0u);
  EXPECT_GT(ob.recorder().gauge(obs::Gauge::InternedComponents), 0u);
  EXPECT_GT(ob.recorder().gauge(obs::Gauge::FrontierBytes), 0u);
  EXPECT_GT(r.stats.approx_memory_bytes, r.stats.store_bytes);
  // The safety searches report their frontier's peak too, with no budget
  // set: sequential and on two threads.
  for (const int threads : {1, 2}) {
    obs::Observer sob;
    explore::Options so;
    so.check_deadlock = false;  // the server never terminates
    so.threads = threads;
    so.obs = &sob;
    const explore::Result sr = explore::explore(*rpc->m, so);
    ASSERT_TRUE(sr.ok()) << "threads=" << threads;
    EXPECT_GT(sob.recorder().gauge(obs::Gauge::FrontierBytes), 0u)
        << "threads=" << threads;
    EXPECT_GT(sr.stats.approx_memory_bytes, sr.stats.store_bytes)
        << "threads=" << threads;
  }
}

TEST(LtlObs, LedgerCountsEachCheckOnce) {
  const auto rpc = rpc_model(/*optimized=*/true);
  RunConfig cfg;
  cfg.heartbeat = false;
  cfg.check_deadlock = false;  // the server never terminates
  cfg.ltl = {"F c0_done"};
  cfg.props = {{"c0_done", "c0_done == 1"}};
  cfg.ltl_weak_fairness = true;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pnp_ltl_ledger_counts";
  std::filesystem::remove_all(dir);
  cfg.ledger_dir = dir.string();
  Session session(cfg);
  const RunReport rep = session.verify_machine(
      *rpc->m, "rpc", [&](const std::string& text) {
        return rpc->gen.parse_expr_text(text).ref;
      });
  ASSERT_EQ(rep.checks.size(), 2u);
  ASSERT_EQ(rep.checks[1].kind, "ltl");
  EXPECT_EQ(rep.checks[1].states_stored, 128'609u);
  std::ifstream in(rep.ledger_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // the run's stored-state counter is the sum over its checks
  const std::uint64_t total =
      rep.checks[0].states_stored + rep.checks[1].states_stored;
  EXPECT_NE(line.find("\"states_stored\":" + std::to_string(total)),
            std::string::npos)
      << line;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pnp::ltl
