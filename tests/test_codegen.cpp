// Differential engine-equivalence tests for the codegen subsystem.
//
// The compiled engines (threaded bytecode, AOT .so) promise observable
// equivalence with the kernel interpreter -- byte-identical successor
// streams, Step metadata, undo coverage, verdicts, state counts, and
// counterexample trails (the contract at the top of codegen/engine.h).
// An engine only generates successors; the search's compressor keys them
// from the undo log whatever the engine, so undo coverage is part of the
// promise. Seven layers check it:
//   (1) successor-level: full emission streams (state bytes, atomic holder,
//       step fields, undo coverage) compared emit by emit against the
//       interpreter, over BFS-sampled reachable states and random walks, on
//       the paper's fig13/fig14 bridges and the fault-injection blocks;
//   (2) the native skip + resume-token seam: engine-side suppression must
//       equal sink-side filtering for every prefix length, and a simulated
//       pass loop must re-stream the exact reference sequence -- on the
//       zoo and on a model of the rendezvous shapes where the compiled
//       engines' static partner index could part from the scan;
//   (3) search-level: verdicts, stored/matched/transition counts at thread
//       counts 1/2/8, bounded (truncation-order-sensitive) runs, violation
//       trails, and interp<->bytecode checkpoint portability;
//   (4) the fallback ladder: no-toolchain and failing-compiler AOT degrade
//       to bytecode (noted), or raise ModelError under strict; cache hits
//       are content-addressed, and concurrent cold builds of one machine
//       all load the one published module;
//   (5) and (6) the engine-backed POR and LTL product searches;
//   (7) a layout past 64 COLLAPSE regions, whose dirty bits alias, stores
//       the same states under every engine.
//
// AOT cases self-skip when the host has no working toolchain, which keeps
// the CI no-toolchain lane meaningful (it still runs every fallback test).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adl/adl.h"
#include "bridge/bridge.h"
#include "codegen/aot.h"
#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "explore/por.h"
#include "kernel/machine.h"
#include "kernel/state.h"
#include "ltl/product.h"
#include "pml/parser.h"
#include "pnp/generator.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp {
namespace {

namespace fs = std::filesystem;
using kernel::Machine;
using kernel::State;
using kernel::Step;

class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* ti =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("pnp_codegen_" + std::to_string(::getpid()) + "_" +
             std::string(ti->test_suite_name()) + "_" + std::string(ti->name()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// -- model zoo ---------------------------------------------------------------

/// Heap-allocated and handled by pointer: the machine points into the
/// generator's SystemSpec, so a TestModel must never move once generated.
struct TestModel {
  ModelGenerator gen;
  std::unique_ptr<Machine> m;
  expr::Ref invariant{expr::kNoExpr};
  std::string name;
};

std::unique_ptr<TestModel> make_fig13(bool buggy = false) {
  auto tp = std::make_unique<TestModel>();
  TestModel& t = *tp;
  t.name = buggy ? "fig13-buggy" : "fig13";
  bridge::BridgeConfig cfg;
  cfg.cars_per_side = 1;
  cfg.batch_n = 1;
  cfg.buggy_async_enter = buggy;
  t.m = std::make_unique<Machine>(
      t.gen.generate(bridge::make_v1(cfg), {.optimize_connectors = true}));
  t.invariant = bridge::safety_invariant(t.gen).ref;
  return tp;
}

std::unique_ptr<TestModel> make_fig14() {
  auto tp = std::make_unique<TestModel>();
  TestModel& t = *tp;
  t.name = "fig14";
  bridge::BridgeConfig cfg;
  cfg.cars_per_side = 1;
  cfg.batch_n = 1;
  cfg.enter_queue_capacity = 1;
  t.m = std::make_unique<Machine>(
      t.gen.generate(bridge::make_v2(cfg), {.optimize_connectors = false}));
  t.invariant = bridge::safety_invariant(t.gen).ref;
  return tp;
}

/// The resilience suite's counter, wired through a fault connector block
/// (duplicating / reordering / lossy fifo): rendezvous handshakes, lossy
/// channel semantics, and the fault blocks' extra interleavings all flow
/// through the engines here.
std::unique_ptr<TestModel> make_fault_counter(
    const std::string& channel, const std::string& update = "received++") {
  auto tp = std::make_unique<TestModel>();
  TestModel& t = *tp;
  t.name = "counter-" + channel;
  const std::string src =
      "architecture counter {\n"
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
      "  connector Link : " + channel + " {\n"
      "    sender Sender.out via asyn_blocking;\n"
      "    receiver Receiver.in via blocking;\n"
      "  }\n"
      "}\n";
  Architecture arch = adl::parse_architecture(src);
  t.m = std::make_unique<Machine>(t.gen.generate(arch));
  t.invariant = t.gen.parse_expr_text("received <= 1").ref;
  return tp;
}

std::vector<std::unique_ptr<TestModel>> model_zoo() {
  std::vector<std::unique_ptr<TestModel>> zoo;
  zoo.push_back(make_fig13());
  zoo.push_back(make_fig14());
  zoo.push_back(make_fault_counter("duplicating_fifo(2)"));
  zoo.push_back(make_fault_counter("reordering_fifo(2)"));
  zoo.push_back(make_fault_counter("lossy_fifo(2)"));
  return zoo;
}

// -- engine construction -----------------------------------------------------

std::unique_ptr<codegen::Engine> make_interp(const Machine& m) {
  return codegen::make_engine(m, {});
}

std::unique_ptr<codegen::Engine> make_bytecode(const Machine& m) {
  codegen::EngineOptions o;
  o.kind = codegen::EngineKind::Bytecode;
  return codegen::make_engine(m, o);
}

/// Builds the AOT engine, or null when the host toolchain cannot produce it
/// (the caller GTEST_SKIPs; the fallback itself has dedicated tests).
std::unique_ptr<codegen::Engine> try_aot(const Machine& m,
                                         const std::string& cache_dir) {
  codegen::EngineOptions o;
  o.kind = codegen::EngineKind::Aot;
  o.cache_dir = cache_dir;
  std::string note;
  auto e = codegen::make_engine(m, o, &note);
  if (e == nullptr || e->kind() != codegen::EngineKind::Aot) return nullptr;
  return e;
}

#define SKIP_WITHOUT_AOT(eng) \
  if ((eng) == nullptr) GTEST_SKIP() << "no host toolchain for the aot engine"

/// File names in `dir`, sorted.
std::vector<std::string> dir_entries(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& ent : fs::directory_iterator(dir))
    out.push_back(ent.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

/// True when every child this process started has been reaped.
bool no_children_left() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) < 0 && errno == ECHILD;
}

// -- emission capture --------------------------------------------------------

/// Everything one emit exposes to the search: successor bytes, atomic
/// holder, step metadata, and the undo log's write coverage. The undo pairs
/// are compared as slot->previous-value maps: the engine contract requires
/// coverage of every written slot, not a particular log order.
struct Emission {
  std::vector<expr::Value> mem;
  int atomic_pid;
  int pid, trans, partner_pid, partner_trans;
  int kind, chan;
  bool assert_failed;
  std::vector<expr::Value> msg;
  std::vector<std::pair<int, expr::Value>> undo;

  bool operator==(const Emission&) const = default;
};

std::string to_string(const Emission& e) {
  std::string s = "pid=" + std::to_string(e.pid) +
                  " trans=" + std::to_string(e.trans) +
                  " partner=" + std::to_string(e.partner_pid) + "/" +
                  std::to_string(e.partner_trans) +
                  " kind=" + std::to_string(e.kind) +
                  " chan=" + std::to_string(e.chan) +
                  " assert=" + std::to_string(e.assert_failed) +
                  " atomic=" + std::to_string(e.atomic_pid) + " mem=[";
  for (expr::Value v : e.mem) s += std::to_string(v) + ",";
  s += "] undo=[";
  for (auto [slot, old] : e.undo)
    s += std::to_string(slot) + ":" + std::to_string(old) + ",";
  return s + "]";
}

class Recorder final : public kernel::SuccSink {
 public:
  Recorder(const kernel::SuccScratch& scr, int stop_after = -1)
      : scr_(scr), stop_after_(stop_after) {}

  bool on_successor(const State& ns, const Step& st) override {
    Emission e;
    e.mem.assign(ns.mem.begin(), ns.mem.end());
    e.atomic_pid = ns.atomic_pid;
    e.pid = st.pid;
    e.trans = st.trans;
    e.partner_pid = st.partner_pid;
    e.partner_trans = st.partner_trans;
    e.kind = static_cast<int>(st.event.kind);
    e.chan = st.event.chan;
    e.assert_failed = st.assert_failed;
    e.msg = st.event.msg;
    e.undo.assign(scr_.undo.begin(), scr_.undo.end());
    std::sort(e.undo.begin(), e.undo.end());
    e.undo.erase(std::unique(e.undo.begin(), e.undo.end()), e.undo.end());
    out.push_back(std::move(e));
    return stop_after_ < 0 || static_cast<int>(out.size()) < stop_after_;
  }

  std::vector<Emission> out;

 private:
  const kernel::SuccScratch& scr_;
  int stop_after_;
};

std::vector<Emission> interp_emissions(const Machine& m, const State& s) {
  kernel::SuccScratch scr;
  Recorder rec(scr);
  m.visit_successors(s, scr, rec);
  return std::move(rec.out);
}

std::vector<Emission> engine_emissions(const codegen::Engine& e,
                                       const State& s, std::uint32_t skip = 0,
                                       std::uint64_t* resume = nullptr) {
  kernel::SuccScratch scr;
  Recorder rec(scr);
  e.visit_successors(s, scr, rec, skip, resume);
  return std::move(rec.out);
}

void expect_same_stream(const std::vector<Emission>& ref,
                        const std::vector<Emission>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << what << " emit " << i << "\n  interp: "
                              << to_string(ref[i]) << "\n  engine: "
                              << to_string(got[i]);
}

/// Collects up to `limit` distinct reachable states, breadth-first, so the
/// differential sweep exercises deep states (full channels, atomic holders)
/// and not just the initial neighborhood.
std::vector<State> reachable_states(const Machine& m, std::size_t limit) {
  std::vector<State> out;
  std::vector<std::string> seen;
  std::vector<kernel::Succ> succs;
  out.push_back(m.initial());
  for (std::size_t i = 0; i < out.size() && out.size() < limit; ++i) {
    succs.clear();
    m.successors(out[i], succs);
    for (auto& [ns, st] : succs) {
      std::string key;
      kernel::encode_key_into(ns, key);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      out.push_back(ns);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

// -- (1) successor-level differential sweeps ---------------------------------

TEST(EngineDiff, SuccessorStreamsMatchInterpEverywhere) {
  TempDir cache;
  for (const auto& tp : model_zoo()) {
    const TestModel& t = *tp;
    const auto interp = make_interp(*t.m);
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    const std::vector<State> states = reachable_states(*t.m, 400);
    ASSERT_GT(states.size(), 10u) << t.name;
    for (const State& s : states) {
      const std::vector<Emission> ref = interp_emissions(*t.m, s);
      expect_same_stream(ref, engine_emissions(*interp, s), t.name + "/interp");
      expect_same_stream(ref, engine_emissions(*bc, s), t.name + "/bytecode");
      if (aot)
        expect_same_stream(ref, engine_emissions(*aot, s), t.name + "/aot");
    }
  }
}

TEST(EngineDiff, RandomWalksMatch) {
  TempDir cache;
  for (const auto& tp : model_zoo()) {
    const TestModel& t = *tp;
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      std::mt19937 rng(seed);
      State s = t.m->initial();
      for (int depth = 0; depth < 120; ++depth) {
        const std::vector<Emission> ref = interp_emissions(*t.m, s);
        expect_same_stream(ref, engine_emissions(*bc, s),
                           t.name + "/bytecode walk");
        if (aot)
          expect_same_stream(ref, engine_emissions(*aot, s),
                             t.name + "/aot walk");
        if (ref.empty()) break;
        const Emission& pick = ref[rng() % ref.size()];
        if (pick.assert_failed) break;
        s.mem.assign(pick.mem.begin(), pick.mem.end());
        s.atomic_pid = pick.atomic_pid;
      }
    }
  }
}

TEST(EngineDiff, VisitSuccessorsOfMatchesPerProcess) {
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto interp = make_interp(*t.m);
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  for (const State& s : reachable_states(*t.m, 200)) {
    for (int pid = 0; pid < t.m->n_processes(); ++pid) {
      kernel::SuccScratch scr;
      Recorder ref_rec(scr);
      const bool ref_any = t.m->visit_successors_of(s, pid, scr, ref_rec);
      kernel::SuccScratch scr1;
      Recorder interp_rec(scr1);
      ASSERT_EQ(ref_any, interp->visit_successors_of(s, pid, scr1, interp_rec));
      expect_same_stream(ref_rec.out, interp_rec.out, "interp visit_of");
      kernel::SuccScratch scr2;
      Recorder bc_rec(scr2);
      ASSERT_EQ(ref_any, bc->visit_successors_of(s, pid, scr2, bc_rec));
      expect_same_stream(ref_rec.out, bc_rec.out, "bytecode visit_of");
      if (aot) {
        kernel::SuccScratch scr3;
        Recorder aot_rec(scr3);
        ASSERT_EQ(ref_any, aot->visit_successors_of(s, pid, scr3, aot_rec));
        expect_same_stream(ref_rec.out, aot_rec.out, "aot visit_of");
      }
    }
  }
}

// -- (2) the native skip + resume-token seam ---------------------------------

TEST(EngineDiff, NativeSkipEqualsSinkSideFiltering) {
  TempDir cache;
  for (const auto& tp : model_zoo()) {
    const TestModel& t = *tp;
    const auto interp = make_interp(*t.m);
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    for (const State& s : reachable_states(*t.m, 60)) {
      const std::vector<Emission> ref = interp_emissions(*t.m, s);
      for (std::uint32_t k = 0; k <= ref.size() + 1; ++k) {
        const std::vector<Emission> want(
            ref.begin() + std::min<std::size_t>(k, ref.size()), ref.end());
        expect_same_stream(want, engine_emissions(*interp, s, k),
                           t.name + "/interp skip=" + std::to_string(k));
        expect_same_stream(want, engine_emissions(*bc, s, k),
                           t.name + "/bytecode skip=" + std::to_string(k));
        if (aot)
          expect_same_stream(want, engine_emissions(*aot, s, k),
                             t.name + "/aot skip=" + std::to_string(k));
      }
    }
  }
}

/// Mirrors the DFS pass loop exactly: visit with skip = handled count and a
/// threaded resume token, stopping at the first surfaced candidate each
/// pass. The concatenation of the surfaced candidates must reproduce the
/// full reference stream -- each exactly once, in order.
void check_pass_loop(const codegen::Engine& e, const Machine& m,
                     const State& s, const std::string& what) {
  const std::vector<Emission> ref = interp_emissions(m, s);
  std::vector<Emission> seen;
  std::uint64_t tok = 0;
  for (std::size_t pass = 0; pass <= ref.size() + 1; ++pass) {
    kernel::SuccScratch scr;
    Recorder rec(scr, /*stop_after=*/1);
    e.visit_successors(s, scr, rec,
                       static_cast<std::uint32_t>(seen.size()), &tok);
    if (rec.out.empty()) break;
    seen.push_back(std::move(rec.out.front()));
  }
  expect_same_stream(ref, seen, what);
}

TEST(EngineDiff, ResumeTokenPassLoopReproducesStream) {
  TempDir cache;
  for (const auto& tp : model_zoo()) {
    const TestModel& t = *tp;
    const auto interp = make_interp(*t.m);
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    for (const State& s : reachable_states(*t.m, 80)) {
      check_pass_loop(*interp, *t.m, s, t.name + "/interp pass loop");
      check_pass_loop(*bc, *t.m, s, t.name + "/bytecode pass loop");
      if (aot) check_pass_loop(*aot, *t.m, s, t.name + "/aot pass loop");
      // The interpreter has no resume token: it clears the one a stopped
      // bytecode pass left for this state.
      std::uint64_t tok = 0;
      {
        kernel::SuccScratch scr;
        Recorder first(scr, /*stop_after=*/1);
        bc->visit_successors(s, scr, first, 0, &tok);
      }
      engine_emissions(*interp, s, 1, &tok);
      EXPECT_EQ(tok, 0u) << t.name << "/interp resume token";
    }
  }
}

/// Rendezvous shapes where the compiled engines' static partner index
/// (codegen/rendezvous.h) could part from the interpreter's scan of every
/// process: Dyn receives on a channel held in a local (r, then s, then the
/// buffered q), so the index lists it under every rendezvous channel and
/// resolves it at run time; Pick has two receives on r at one pc, told apart
/// by their match constants, beside an else; Both sends and receives on s at
/// one pc, so a send must skip its own receive.
constexpr const char* kRendezvousShapes = R"(
chan r = [0] of { byte };
chan s = [0] of { byte };
chan q = [1] of { byte };
byte got;
byte idle;

active proctype Send() {
  byte i = 0;
  do
  :: i < 2 -> r!1; i++
  :: i < 2 -> r!2; i++
  :: i < 2 -> s!4; i++
  :: i < 2 -> q!5; i++
  :: i >= 2 -> break
  od
}

active proctype Dyn() {
  byte c = 0;
  end: do
  :: c?_ -> c = (c + 1) % 3
  od
}

active proctype Pick() {
  end: do
  :: r?1 -> got = 1
  :: r?2 -> got = 2
  :: else -> idle = 1
  od
}

active proctype Both() {
  byte v;
  end: do
  :: s!3
  :: s?v -> got = v
  od
}
)";

TEST(EngineDiff, RendezvousPartnerIndexMatchesTheScan) {
  model::SystemSpec sys = pml::parse(kRendezvousShapes);
  const Machine m(sys);
  const auto bc = make_bytecode(m);
  const std::vector<State> states = reachable_states(m, 2000);
  ASSERT_LT(states.size(), 2000u) << "the sweep must cover the whole space";
  // Every partner shape must actually fire: a handshake to each receiver.
  std::vector<int> partners(static_cast<std::size_t>(m.n_processes()), 0);
  for (const State& s : states) {
    const std::vector<Emission> ref = interp_emissions(m, s);
    expect_same_stream(ref, engine_emissions(*bc, s), "bytecode");
    for (std::uint32_t k = 1; k <= ref.size(); ++k)
      expect_same_stream(
          std::vector<Emission>(ref.begin() + k, ref.end()),
          engine_emissions(*bc, s, k), "bytecode skip=" + std::to_string(k));
    check_pass_loop(*bc, m, s, "bytecode pass loop");
    for (const Emission& e : ref)
      if (e.partner_pid >= 0)
        ++partners[static_cast<std::size_t>(e.partner_pid)];
  }
  EXPECT_EQ(partners[0], 0);  // Send only sends
  for (int pid = 1; pid < m.n_processes(); ++pid)
    EXPECT_GT(partners[static_cast<std::size_t>(pid)], 0) << "pid " << pid;

  // The emitter cannot fold Dyn's channel, so aot falls back to bytecode
  // (before any toolchain is consulted) and reaches the same verdict.
  std::string why;
  EXPECT_TRUE(codegen::emit_aot_units(m, "digest", 1, &why).empty());
  EXPECT_NE(why.find("state-dependent channel id"), std::string::npos) << why;
  TempDir cache;
  codegen::EngineOptions o;
  o.kind = codegen::EngineKind::Aot;
  o.cache_dir = cache.str();
  std::string note;
  const auto aot = codegen::make_engine(m, o, &note);
  EXPECT_EQ(aot->kind(), codegen::EngineKind::Bytecode) << note;
  explore::Options eo;
  const explore::Result ref = explore::explore(m, eo);
  eo.engine = aot.get();
  const explore::Result got = explore::explore(m, eo);
  EXPECT_EQ(got.ok(), ref.ok());
  EXPECT_TRUE(got.stats.complete);
  EXPECT_EQ(got.stats.states_stored, ref.stats.states_stored);
  EXPECT_EQ(got.stats.states_matched, ref.stats.states_matched);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
}

// -- (3) search-level equivalence --------------------------------------------

explore::Result run_explore(const TestModel& t, const codegen::Engine* eng,
                            int threads, std::uint64_t max_states = 0,
                            bool want_trace = false) {
  explore::Options o;
  o.invariant = t.invariant;
  o.invariant_name = "safety";
  o.want_trace = want_trace;
  o.threads = threads;
  o.engine = eng;
  if (max_states > 0) o.max_states = max_states;
  return explore::explore(*t.m, o);
}

TEST(EngineExplore, Fig13FullSpaceAllEnginesAllThreadCounts) {
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  const explore::Result ref = run_explore(t, nullptr, 1);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.stats.complete);
  ASSERT_GT(ref.stats.states_stored, 10000u);
  for (const int threads : {1, 2, 8}) {
    for (const codegen::Engine* eng :
         {static_cast<const codegen::Engine*>(bc.get()),
         static_cast<const codegen::Engine*>(aot.get())}) {
      if (eng == nullptr) continue;
      const explore::Result r = run_explore(t, eng, threads);
      const std::string what = std::string(
          codegen::engine_kind_name(eng->kind())) +
          " threads=" + std::to_string(threads);
      EXPECT_TRUE(r.ok()) << what;
      EXPECT_TRUE(r.stats.complete) << what;
      EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
      EXPECT_EQ(r.stats.states_matched, ref.stats.states_matched) << what;
      EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << what;
    }
  }
}

TEST(EngineExplore, Fig14BoundedTruncationMatches) {
  // A bounded run's totals depend on the exact traversal order, so equal
  // counts here pin the engines to the interpreter's candidate order, not
  // just its candidate sets.
  TempDir cache;
  const auto tp = make_fig14();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  const std::uint64_t bound = 60'000;
  const explore::Result ref = run_explore(t, nullptr, 1, bound);
  ASSERT_TRUE(ref.ok());
  ASSERT_FALSE(ref.stats.complete);
  ASSERT_EQ(ref.stats.truncation, explore::TruncationReason::MaxStates);
  for (const codegen::Engine* eng :
       {static_cast<const codegen::Engine*>(bc.get()),
         static_cast<const codegen::Engine*>(aot.get())}) {
    if (eng == nullptr) continue;
    const explore::Result r = run_explore(t, eng, 1, bound);
    const std::string what = codegen::engine_kind_name(eng->kind());
    EXPECT_EQ(r.stats.truncation, explore::TruncationReason::MaxStates)
        << what;
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
    EXPECT_EQ(r.stats.states_matched, ref.stats.states_matched) << what;
  }
}

TEST(EngineExplore, ViolationTrailsMatch) {
  TempDir cache;
  // the buggy bridge (race on async enter) and the counting receiver
  // behind a duplicating fifo both produce invariant violations
  std::vector<std::unique_ptr<TestModel>> models;
  models.push_back(make_fig13(/*buggy=*/true));
  models.push_back(make_fault_counter("duplicating_fifo(2)"));
  for (const auto& tp : models) {
    const TestModel& t = *tp;
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    const explore::Result ref =
        run_explore(t, nullptr, 1, 0, /*want_trace=*/true);
    ASSERT_TRUE(ref.violation.has_value()) << t.name;
    for (const codegen::Engine* eng :
         {static_cast<const codegen::Engine*>(bc.get()),
         static_cast<const codegen::Engine*>(aot.get())}) {
      if (eng == nullptr) continue;
      const explore::Result r = run_explore(t, eng, 1, 0, true);
      const std::string what =
          t.name + "/" + codegen::engine_kind_name(eng->kind());
      ASSERT_TRUE(r.violation.has_value()) << what;
      EXPECT_EQ(r.violation->kind, ref.violation->kind) << what;
      const auto& rs = ref.violation->trace.steps;
      const auto& gs = r.violation->trace.steps;
      ASSERT_EQ(rs.size(), gs.size()) << what;
      for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].step.pid, gs[i].step.pid) << what << " step " << i;
        EXPECT_EQ(rs[i].step.trans, gs[i].step.trans) << what << " step " << i;
      }
      EXPECT_EQ(ref.violation->trace.final_state, r.violation->trace.final_state)
          << what;
    }
  }
}

TEST(EngineCheckpoint, PortableBetweenInterpAndBytecode) {
  // Checkpoints are raw state arrays -- engine-independent by design
  // (RunConfig::digest() excludes the engine for the same reason). Cut a
  // run under one engine, resume under the other, in both directions.
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const explore::Result ref = run_explore(t, nullptr, 1);
  ASSERT_TRUE(ref.stats.complete);
  struct Leg {
    const codegen::Engine* cut;
    const codegen::Engine* resume;
    const char* what;
  };
  for (const Leg leg : {Leg{nullptr, bc.get(), "interp->bytecode"},
                        Leg{bc.get(), nullptr, "bytecode->interp"}}) {
    TempDir dir;
    const std::string path = (dir.path() / "cut.pnp.ckpt").string();
    explore::Options base;
    base.invariant = t.invariant;
    base.invariant_name = "safety";
    base.checkpoint_path = path;
    base.config_digest = "codegen-portability";
    explore::Options cut = base;
    cut.engine = leg.cut;
    cut.max_states = 4000;
    const explore::Result first = explore::explore(*t.m, cut);
    ASSERT_FALSE(first.stats.complete) << leg.what;
    const explore::Checkpoint c = explore::read_checkpoint(path);
    explore::Options ro = base;
    ro.engine = leg.resume;
    ro.resume_from = &c;
    const explore::Result r = explore::explore(*t.m, ro);
    EXPECT_TRUE(r.ok()) << leg.what;
    EXPECT_TRUE(r.stats.resumed) << leg.what;
    EXPECT_TRUE(r.stats.complete) << leg.what;
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << leg.what;
  }
}

// -- (4) fallback ladder + artifact cache ------------------------------------

TEST(EngineFallback, MissingToolchainFallsBackToBytecode) {
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  codegen::EngineOptions o;
  o.kind = codegen::EngineKind::Aot;
  o.cache_dir = cache.str();
  o.cxx = "/nonexistent/pnp-no-such-compiler";
  std::string note;
  const auto e = codegen::make_engine(*t.m, o, &note);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), codegen::EngineKind::Bytecode);
  EXPECT_NE(note.find("using bytecode"), std::string::npos) << note;
  // the fallback engine is still a correct engine
  const State init = t.m->initial();
  expect_same_stream(interp_emissions(*t.m, init), engine_emissions(*e, init),
                     "fallback bytecode");
}

TEST(EngineFallback, StrictModeRaisesModelError) {
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  codegen::EngineOptions o;
  o.kind = codegen::EngineKind::Aot;
  o.cache_dir = cache.str();
  o.cxx = "/nonexistent/pnp-no-such-compiler";
  o.strict = true;
  EXPECT_THROW(codegen::make_engine(*t.m, o), ModelError);
}

TEST(EngineFallback, FailingCompilerFallsBackAndKeepsOnlyTheLog) {
  // A compiler that starts but exits nonzero, on a machine whose processes
  // span several units (given 2+ hardware threads): every compile is
  // reaped, the build directory goes, and only the compile log stays,
  // named in the fallback note or the strict-mode error.
  if (!fs::exists("/bin/false")) GTEST_SKIP() << "no /bin/false";
  TempDir cache;
  const auto tp = make_fig14();
  const TestModel& t = *tp;
  for (const bool strict : {false, true}) {
    const fs::path dir = cache.path() / (strict ? "strict" : "fallback");
    codegen::EngineOptions o;
    o.kind = codegen::EngineKind::Aot;
    o.cache_dir = dir.string();
    o.cxx = "/bin/false";
    o.strict = strict;
    std::string note;
    if (strict) {
      try {
        (void)codegen::make_engine(*t.m, o);
        ADD_FAILURE() << "strict build did not raise ModelError";
      } catch (const ModelError& e) {
        note = e.what();
      }
    } else {
      const auto e = codegen::make_engine(*t.m, o, &note);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->kind(), codegen::EngineKind::Bytecode);
      EXPECT_NE(note.find("using bytecode"), std::string::npos) << note;
    }
    const std::vector<std::string> left = dir_entries(dir);
    ASSERT_EQ(left.size(), 1u) << ::testing::PrintToString(left);
    EXPECT_EQ(fs::path(left[0]).extension(), ".log") << left[0];
    EXPECT_NE(note.find((dir / left[0]).string()), std::string::npos)
        << note;
    EXPECT_TRUE(no_children_left());
  }
}

TEST(EngineCache, ProcessesSpreadOverParallelUnits) {
  // Unit 0 carries the entry point; every expand function is defined in
  // exactly one unit; the unit count is min(max_units, processes).
  const auto tp = make_fig14();
  const Machine& m = *tp->m;
  ASSERT_GE(m.n_processes(), 4);
  for (const int max_units : {1, 2, 4, 1000}) {
    std::string why;
    const std::vector<std::string> units =
        codegen::emit_aot_units(m, "digest", max_units, &why);
    ASSERT_EQ(units.size(), static_cast<std::size_t>(
                                std::min(max_units, m.n_processes())))
        << why;
    for (std::size_t u = 0; u < units.size(); ++u)
      EXPECT_EQ(units[u].find("pnp_aot_module()") != std::string::npos,
                u == 0)
          << "unit " << u;
    for (int pid = 0; pid < m.n_processes(); ++pid) {
      const std::string def = "\nu32 expand_p" + std::to_string(pid) + "(";
      int defs = 0;
      for (const std::string& src : units)
        defs += src.find(def) != std::string::npos ? 1 : 0;
      EXPECT_EQ(defs, 1) << "pid " << pid << " max_units " << max_units;
    }
  }
}

TEST(EngineCache, ConcurrentColdBuildsAllLoadAot) {
  // Threads of one process building one machine into a fresh cache (two
  // pnpd workers, say) must each load the aot module: every build works in
  // its own directory, so none renames or dlopens another's files.
  TempDir cache;
  const auto tp = make_fig14();
  const TestModel& t = *tp;
  SKIP_WITHOUT_AOT(try_aot(*t.m, (cache.path() / "probe").string()));
  const fs::path dir = cache.path() / "shared";
  fs::create_directories(dir);
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<codegen::Engine>> engines(kThreads);
  std::vector<std::string> notes(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      codegen::EngineOptions o;
      o.kind = codegen::EngineKind::Aot;
      o.cache_dir = dir.string();
      const std::size_t k = static_cast<std::size_t>(i);
      start.arrive_and_wait();
      try {
        engines[k] = codegen::make_engine(*t.m, o, &notes[k]);
      } catch (const std::exception& e) {  // reported below as a null engine
        notes[k] = e.what();
      }
    });
  for (std::thread& th : threads) th.join();
  const std::vector<State> states = reachable_states(*t.m, 40);
  for (int i = 0; i < kThreads; ++i) {
    const auto& e = engines[static_cast<std::size_t>(i)];
    ASSERT_NE(e, nullptr) << notes[static_cast<std::size_t>(i)];
    EXPECT_EQ(e->kind(), codegen::EngineKind::Aot)
        << "thread " << i << ": " << notes[static_cast<std::size_t>(i)];
    for (const State& s : states)
      expect_same_stream(interp_emissions(*t.m, s), engine_emissions(*e, s),
                         "thread " + std::to_string(i));
  }
  const std::vector<std::string> left = dir_entries(dir);
  ASSERT_EQ(left.size(), 1u) << ::testing::PrintToString(left);
  EXPECT_EQ(fs::path(left[0]).extension(), ".so") << left[0];
}

TEST(EngineCache, SecondBuildIsAContentAddressedHit) {
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto first = try_aot(*t.m, cache.str());
  SKIP_WITHOUT_AOT(first);
  const auto count_so = [&] {
    std::size_t n = 0;
    for (const auto& ent : fs::directory_iterator(cache.path()))
      if (ent.path().extension() == ".so") ++n;
    return n;
  };
  ASSERT_EQ(count_so(), 1u);
  // same machine -> same digest -> the exact artifact is reused
  const auto second = try_aot(*t.m, cache.str());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(count_so(), 1u);
  // a semantically different machine gets its own artifact
  const auto other = make_fault_counter("duplicating_fifo(2)");
  const auto third = try_aot(*other->m, cache.str());
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(count_so(), 2u);
}

TEST(EngineCache, MachineDigestIsStableAcrossRegeneration) {
  // Two independent generations of the same architecture must agree (the
  // digest keys the shared artifact cache across processes and runs), and
  // distinct machines must not.
  const auto a = make_fig13();
  const auto b = make_fig13();
  EXPECT_EQ(codegen::machine_digest(*a->m), codegen::machine_digest(*b->m));
  const auto c = make_fig14();
  EXPECT_NE(codegen::machine_digest(*a->m), codegen::machine_digest(*c->m));
}

// -- (5) engine-backed POR ---------------------------------------------------

/// The ample rule evaluated directly on the kernel's per-process streams:
/// the first process whose successors exist and are all purely-local steps,
/// or -1 (always -1 inside an atomic region).
int reference_ample(const Machine& m, const State& s) {
  if (s.atomic_pid >= 0) return -1;
  for (int pid = 0; pid < m.n_processes(); ++pid) {
    kernel::SuccScratch scr;
    Recorder rec(scr);
    m.visit_successors_of(s, pid, scr, rec);
    const auto& trans = m.proc_of(pid).trans;
    if (!rec.out.empty() &&
        std::all_of(rec.out.begin(), rec.out.end(), [&](const Emission& e) {
          return e.partner_pid < 0 &&
                 trans[static_cast<std::size_t>(e.trans)].local_only;
        }))
      return pid;
  }
  return -1;
}

TEST(EnginePor, AmpleChoicesMatchInterpOnReachableSample) {
  // The ample decision is a conjunction over the streamed successors of each
  // candidate process, so byte-identical streams must give the identical
  // choice (pid or -1) in every reachable state.
  TempDir cache;
  std::vector<std::unique_ptr<TestModel>> models;
  models.push_back(make_fig13());
  models.push_back(make_fault_counter("duplicating_fifo(2)"));
  for (const auto& tp : models) {
    const TestModel& t = *tp;
    const auto interp = make_interp(*t.m);
    const auto bc = make_bytecode(*t.m);
    const auto aot = try_aot(*t.m, cache.str());
    const std::vector<State> sample = reachable_states(*t.m, 1500);
    for (const codegen::Engine* eng :
         {static_cast<const codegen::Engine*>(interp.get()),
          static_cast<const codegen::Engine*>(bc.get()),
          static_cast<const codegen::Engine*>(aot.get())}) {
      if (eng == nullptr) continue;
      const std::string what =
          t.name + "/" + codegen::engine_kind_name(eng->kind());
      kernel::SuccScratch scr_e;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const int want = reference_ample(*t.m, sample[i]);
        const int got = explore::por_choose(*eng, sample[i], nullptr, scr_e);
        ASSERT_EQ(want, got) << what << " state " << i;
      }
    }
  }
}

TEST(EnginePor, ReducedSearchTotalsMatchAtAllThreadCounts) {
  // Full POR runs: the reduced graph (and therefore every count) must be
  // engine-independent at each thread count. The reference is the interp
  // POR run at the SAME thread count -- sequential POR applies the C3
  // stack proviso while parallel POR is proviso-free, so the reduced
  // graphs legitimately differ across thread counts, never across engines.
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  for (const int threads : {1, 2, 8}) {
    explore::Options base;
    base.invariant = t.invariant;
    base.invariant_name = "safety";
    base.por = true;
    base.threads = threads;
    const explore::Result ref = explore::explore(*t.m, base);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref.stats.complete);
    for (const codegen::Engine* eng :
         {static_cast<const codegen::Engine*>(bc.get()),
          static_cast<const codegen::Engine*>(aot.get())}) {
      if (eng == nullptr) continue;
      explore::Options o = base;
      o.engine = eng;
      const explore::Result r = explore::explore(*t.m, o);
      const std::string what = std::string(
          codegen::engine_kind_name(eng->kind())) +
          " threads=" + std::to_string(threads);
      EXPECT_TRUE(r.ok()) << what;
      EXPECT_TRUE(r.stats.complete) << what;
      EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
      EXPECT_EQ(r.stats.states_matched, ref.stats.states_matched) << what;
      EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << what;
    }
  }
}

TEST(EnginePor, BfsReducedSearchMatches) {
  // BFS chooses and expands each state once (no cycle proviso).
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  explore::Options base;
  base.invariant = t.invariant;
  base.invariant_name = "safety";
  base.por = true;
  base.bfs = true;
  const explore::Result ref = explore::explore(*t.m, base);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.stats.complete);
  for (const codegen::Engine* eng :
       {static_cast<const codegen::Engine*>(bc.get()),
        static_cast<const codegen::Engine*>(aot.get())}) {
    if (eng == nullptr) continue;
    explore::Options o = base;
    o.engine = eng;
    const explore::Result r = explore::explore(*t.m, o);
    const std::string what = codegen::engine_kind_name(eng->kind());
    EXPECT_TRUE(r.ok()) << what;
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
    EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << what;
  }
}

// -- (6) engine-backed LTL product search ------------------------------------

TEST(EngineLtl, ProductSearchAndTrailsMatchAcrossEnginesAndThreads) {
  // System-side successor generation through the engine must leave the
  // nested-DFS product search observably unchanged: verdict, stored /
  // transition counts and the lasso trail at threads=1 (fully
  // deterministic), verdict at threads 2/8 (racing workers -- whichever
  // finishes is authoritative, but the winner's identity is timing
  // dependent, so counts are not comparable).
  TempDir cache;
  struct Case {
    std::unique_ptr<TestModel> t;
    bool holds;
  };
  std::vector<Case> cases;
  cases.push_back({make_fig13(), true});
  cases.push_back({make_fig13(/*buggy=*/true), false});
  for (Case& c : cases) {
    TestModel& t = *c.t;
    t.gen.add_prop("safe", bridge::safety_invariant(t.gen));
    const bool have_aot = try_aot(*t.m, cache.str()) != nullptr;
    ltl::CheckOptions base;
    base.engine_cache_dir = cache.str();
    const ltl::LtlResult ref = ltl::check_ltl(*t.m, t.gen.props(), "G safe",
                                              base);
    ASSERT_EQ(ref.holds, c.holds) << t.name;
    for (const codegen::EngineKind kind :
         {codegen::EngineKind::Bytecode, codegen::EngineKind::Aot}) {
      if (kind == codegen::EngineKind::Aot && !have_aot) continue;
      const std::string what =
          t.name + "/" + codegen::engine_kind_name(kind);
      ltl::CheckOptions o = base;
      o.engine = kind;
      const ltl::LtlResult r = ltl::check_ltl(*t.m, t.gen.props(), "G safe",
                                              o);
      EXPECT_EQ(r.holds, ref.holds) << what;
      EXPECT_EQ(r.engine_requested, kind) << what;
      EXPECT_EQ(r.engine_actual, kind) << what;
      EXPECT_EQ(r.buchi_states, ref.buchi_states) << what;
      EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
      EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << what;
      ASSERT_EQ(r.violation.has_value(), ref.violation.has_value()) << what;
      if (ref.violation.has_value()) {
        const auto& rs = ref.violation->trace.steps;
        const auto& gs = r.violation->trace.steps;
        ASSERT_EQ(rs.size(), gs.size()) << what;
        for (std::size_t i = 0; i < rs.size(); ++i) {
          EXPECT_EQ(rs[i].step.pid, gs[i].step.pid) << what << " step " << i;
          EXPECT_EQ(rs[i].step.trans, gs[i].step.trans)
              << what << " step " << i;
        }
      }
      for (const int threads : {2, 8}) {
        ltl::CheckOptions ro = o;
        ro.threads = threads;
        const ltl::LtlResult rr =
            ltl::check_ltl(*t.m, t.gen.props(), "G safe", ro);
        EXPECT_EQ(rr.holds, ref.holds)
            << what << " threads=" << threads;
        EXPECT_EQ(rr.engine_actual, kind) << what << " threads=" << threads;
      }
    }
  }
}

// -- (7) layouts past 64 regions ---------------------------------------------

TEST(EngineWideLayout, EveryEngineStoresTheSameStatesPast64Regions) {
  // 72 COLLAPSE regions: the compressor's dirty mask puts region k on bit
  // k mod 64, so its delta step re-interns aliased clean regions (which get
  // back the ids they have). Every engine must still store the 141 states.
  // The AOT engine is built strict: only a host without a toolchain skips.
  model::SystemSpec sys = pml::parse(
      "byte turn; chan q = [1] of { byte };\n"
      "active [70] proctype P() { turn == _pid -> turn++ }\n");
  const Machine m(sys);
  ASSERT_EQ(m.layout().regions().size(), 72u);
  TempDir cache;
  codegen::EngineOptions ao;
  ao.kind = codegen::EngineKind::Aot;
  ao.cache_dir = cache.str();
  ao.strict = true;
  std::unique_ptr<codegen::Engine> aot;
  try {
    aot = codegen::make_engine(m, ao);
  } catch (const ModelError& e) {
    if (codegen::describe_engines(cache.str()).find("[probe ok]") !=
        std::string::npos)
      FAIL() << "strict aot build failed with a working toolchain: "
             << e.what();
  }
  const auto interp = make_interp(m);
  const auto bc = make_bytecode(m);
  for (const codegen::Engine* eng : {interp.get(), bc.get(), aot.get()}) {
    if (eng == nullptr) continue;
    explore::Options o;
    o.engine = eng;
    const explore::Result r = explore::explore(m, o);
    const char* what = codegen::engine_kind_name(eng->kind());
    EXPECT_TRUE(r.ok()) << what;
    EXPECT_TRUE(r.stats.complete) << what;
    EXPECT_EQ(r.stats.states_stored, 141u) << what;
  }
  SKIP_WITHOUT_AOT(aot);
}

TEST(EngineCheckpoint, BfsCutPortableAcrossEnginesWithDeltaEncode) {
  // POR-less BFS cut under one engine, resumed under another: the resumed
  // leg re-interns restored raw states, then delta-compresses the resuming
  // engine's successors from their undo logs, so equal final counts
  // certify both engines' undo coverage against the interpreter's.
  TempDir cache;
  const auto tp = make_fig13();
  const TestModel& t = *tp;
  const auto bc = make_bytecode(*t.m);
  const auto aot = try_aot(*t.m, cache.str());
  explore::Options full;
  full.invariant = t.invariant;
  full.invariant_name = "safety";
  full.bfs = true;
  const explore::Result ref = explore::explore(*t.m, full);
  ASSERT_TRUE(ref.stats.complete);
  struct Leg {
    const codegen::Engine* cut;
    const codegen::Engine* resume;
    std::string what;
  };
  std::vector<Leg> legs = {{nullptr, bc.get(), "interp->bytecode"},
                           {bc.get(), nullptr, "bytecode->interp"}};
  if (aot != nullptr) {
    legs.push_back({aot.get(), nullptr, "aot->interp"});
    legs.push_back({bc.get(), aot.get(), "bytecode->aot"});
  }
  for (const Leg& leg : legs) {
    TempDir dir;
    const std::string path = (dir.path() / "cut.pnp.ckpt").string();
    explore::Options base = full;
    base.checkpoint_path = path;
    base.config_digest = "codegen-bfs-portability";
    explore::Options cut = base;
    cut.engine = leg.cut;
    cut.max_states = 4000;
    const explore::Result first = explore::explore(*t.m, cut);
    ASSERT_FALSE(first.stats.complete) << leg.what;
    const explore::Checkpoint c = explore::read_checkpoint(path);
    explore::Options ro = base;
    ro.engine = leg.resume;
    ro.resume_from = &c;
    const explore::Result r = explore::explore(*t.m, ro);
    EXPECT_TRUE(r.ok()) << leg.what;
    EXPECT_TRUE(r.stats.resumed) << leg.what;
    EXPECT_TRUE(r.stats.complete) << leg.what;
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << leg.what;
  }
}

}  // namespace
}  // namespace pnp
