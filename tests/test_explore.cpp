// Exploration-engine tests beyond the kernel basics: POR soundness
// (property-parameterized equivalence against full search), bitstate mode,
// BFS/DFS agreement, and stats plausibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "codegen/engine.h"
#include "explore/explorer.h"
#include "kernel/machine.h"
#include "model/builder.h"
#include "pml/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PNP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PNP_TEST_SANITIZED 1
#endif
#endif

namespace pnp::explore {
namespace {

using namespace model;

/// A family of small systems indexed by a scenario id; each mixes local
/// computation (POR fodder) with channel communication and a safety
/// property that either holds or fails depending on the scenario.
struct Scenario {
  std::unique_ptr<SystemSpec> sys;
  expr::Ref invariant{expr::kNoExpr};
  bool expect_violation{false};

  kernel::Machine machine() const { return kernel::Machine(*sys); }
};

Scenario make_scenario(int id) {
  Scenario sc;
  sc.sys = std::make_unique<SystemSpec>();
  SystemSpec& sys = *sc.sys;
  const int ch = sys.add_channel("c", 2, 1);
  const int total = sys.add_global("total");

  const int workers = 2 + (id % 2);  // 2 or 3 producers
  const int per = 2;
  for (int w = 0; w < workers; ++w) {
    ProcBuilder p(sys, "W" + std::to_string(w));
    const LVar i = p.local("i");
    const LVar scratch = p.local("s");
    p.finish(seq(do_(
        alt(seq(guard(p.l(i) < p.k(per)),
                // local busywork: POR can commute these
                assign(scratch, p.l(i) * p.k(3)),
                assign(scratch, p.l(scratch) + p.k(1)),
                send(p.c(Chan{ch}), {p.k(1)}),
                assign(i, p.l(i) + p.k(1)))),
        alt(seq(guard(p.l(i) == p.k(per)), break_())))));
    sys.spawn("w" + std::to_string(w), static_cast<int>(w), {});
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
  sys.spawn("collector", static_cast<int>(workers), {});

  // invariant: total never exceeds the number of sent messages; scenario
  // ids >= 2 use a deliberately-too-tight bound to force a violation.
  const expr::Ref bound =
      sys.exprs.konst(id >= 2 ? want - 1 : want);
  sc.invariant = sys.exprs.binary(expr::Op::Le, sys.exprs.global(total), bound);
  sc.expect_violation = id >= 2;
  return sc;
}

class PorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PorEquivalence, PorPreservesVerdictAndNeverGrowsStateSpace) {
  const Scenario sc = make_scenario(GetParam());
  const kernel::Machine m = sc.machine();

  Options full;
  full.invariant = sc.invariant;
  Options por = full;
  por.por = true;

  const Result r_full = explore(m, full);
  const Result r_por = explore(m, por);

  EXPECT_EQ(r_full.violation.has_value(), sc.expect_violation);
  EXPECT_EQ(r_full.violation.has_value(), r_por.violation.has_value());
  if (r_full.violation && r_por.violation) {
    EXPECT_EQ(r_full.violation->kind, r_por.violation->kind);
  }
  EXPECT_LE(r_por.stats.states_stored, r_full.stats.states_stored);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PorEquivalence, ::testing::Range(0, 4));

TEST(Explore, PorActuallyReducesOnLocalHeavyModel) {
  const Scenario sc = make_scenario(1);
  const kernel::Machine m = sc.machine();
  Options full;
  Options por;
  por.por = true;
  const Result r_full = explore(m, full);
  const Result r_por = explore(m, por);
  EXPECT_LT(r_por.stats.states_stored, r_full.stats.states_stored);
}

TEST(Explore, BitstateVisitsSameOrderOfMagnitude) {
  const Scenario sc = make_scenario(0);
  const kernel::Machine m = sc.machine();
  Options exact;
  const Result r_exact = explore(m, exact);

  Options bs;
  bs.bitstate = true;
  bs.bitstate_bytes = 1u << 22;
  const Result r_bs = explore(m, bs);
  EXPECT_FALSE(r_bs.stats.complete);  // bitstate is approximate by contract
  // with a roomy filter nearly all states are distinguished
  EXPECT_GE(r_bs.stats.states_stored, r_exact.stats.states_stored * 9 / 10);
  EXPECT_LE(r_bs.stats.states_stored, r_exact.stats.states_stored);
}

/// This process's resident set (VmRSS) in bytes; 0 where /proc is absent.
std::uint64_t resident_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  return 0;
}

/// Forwards to `inner` and samples the resident set on every visit, so a
/// test sees memory a search holds only while it runs.
class RssSampler final : public codegen::Engine {
 public:
  explicit RssSampler(const codegen::Engine& inner)
      : Engine(inner.machine()), inner_(inner) {}

  codegen::EngineKind kind() const override { return inner_.kind(); }
  void visit_successors(const kernel::State& s, kernel::SuccScratch& scratch,
                        kernel::SuccSink& sink, std::uint32_t skip,
                        std::uint64_t* resume) const override {
    peak = std::max(peak, resident_bytes());
    inner_.visit_successors(s, scratch, sink, skip, resume);
  }
  bool visit_successors_of(const kernel::State& s, int pid,
                           kernel::SuccScratch& scratch,
                           kernel::SuccSink& sink,
                           std::uint32_t skip) const override {
    peak = std::max(peak, resident_bytes());
    return inner_.visit_successors_of(s, pid, scratch, sink, skip);
  }

  mutable std::uint64_t peak = 0;

 private:
  const codegen::Engine& inner_;
};

TEST(Explore, BitstateFilterCostsOnlyThePagesItTouches) {
#ifdef PNP_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory blurs the resident set";
#endif
  // The ladder's bitstate rung takes a 64 MiB filter when no budget sizes
  // it; a search that stops after 20 states must not pay for all of it.
  model::SystemSpec sys = pml::parse(R"(
    chan box = [2] of { byte };
    byte received;
    active proctype Producer() {
      byte i = 1;
      do
      :: i <= 3 -> box!i; i++
      :: i > 3 -> break
      od
    }
    active proctype Consumer() {
      byte j = 1;
      byte v;
      do
      :: j <= 3 -> box?v; assert(v == j); received++; j++
      :: j > 3 -> break
      od
    }
  )");
  const kernel::Machine m(sys);
  const auto interp = codegen::make_engine(m, {});
  RssSampler sampler(*interp);
  Options o;
  o.bitstate = true;
  o.bitstate_bytes = std::uint64_t{64} << 20;
  o.max_states = 20;
  o.engine = &sampler;
  const std::uint64_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  const Result r = explore(m, o);
  EXPECT_GE(r.stats.states_stored, 20u);
  EXPECT_LT(std::max(sampler.peak, before) - before, std::uint64_t{4} << 20)
      << "resident before " << before << " B, peak during the search "
      << sampler.peak << " B";
}

TEST(Explore, ZeroByteBitstateFilterIsAModelError) {
  // insert() takes its bit indices modulo the filter's size in bits, so a
  // 0-byte filter died of SIGFPE at the first insert, alone or in a swarm.
  model::SystemSpec sys =
      pml::parse("byte x; active proctype P() { x < 3 -> x++ }");
  const kernel::Machine m(sys);
  for (const int threads : {1, 2}) {
    Options o;
    o.bitstate = true;
    o.bitstate_bytes = 0;
    o.threads = threads;
    EXPECT_THROW(explore(m, o), ModelError) << "threads=" << threads;
  }
}

TEST(Explore, BfsAndDfsAgreeOnVerdict) {
  for (int id = 0; id < 4; ++id) {
    const Scenario sc = make_scenario(id);
    const kernel::Machine m = sc.machine();
    Options dfs;
    dfs.invariant = sc.invariant;
    Options bfs = dfs;
    bfs.bfs = true;
    const Result r_dfs = explore(m, dfs);
    const Result r_bfs = explore(m, bfs);
    EXPECT_EQ(r_dfs.violation.has_value(), r_bfs.violation.has_value())
        << "scenario " << id;
    if (r_dfs.violation && r_bfs.violation) {
      // BFS counterexamples are shortest; DFS ones are at least as long
      EXPECT_LE(r_bfs.violation->trace.size(), r_dfs.violation->trace.size());
    }
    // both enumerate the same reachable set when no violation interrupts
    if (!r_dfs.violation) {
      EXPECT_EQ(r_dfs.stats.states_stored, r_bfs.stats.states_stored);
    }
  }
}

TEST(Explore, WantTraceFalseOmitsTraceButKeepsVerdict) {
  const Scenario sc = make_scenario(2);
  const kernel::Machine m = sc.machine();
  Options opt;
  opt.invariant = sc.invariant;
  opt.want_trace = false;
  const Result r = explore(m, opt);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_TRUE(r.violation->trace.empty());
}

TEST(Explore, StatsArePlausible) {
  const Scenario sc = make_scenario(0);
  const kernel::Machine m = sc.machine();
  const Result r = explore(m, {});
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.stats.states_stored, 10u);
  EXPECT_GE(r.stats.transitions, r.stats.states_stored - 1);
  EXPECT_GT(r.stats.max_depth_reached, 2);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_GE(r.stats.seconds, 0.0);
}

}  // namespace
}  // namespace pnp::explore
