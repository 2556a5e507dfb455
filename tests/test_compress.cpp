// COLLAPSE compression + flat visited-store tests.
//
// Three layers: (1) unit tests for the KeyArena / FlatKeySet storage and
// the StateCompressor (round-trip exactness and injectivity over reachable
// AND adversarially random states -- injectivity is the property that lets
// the exact visited set key on compressed bytes); (2) concurrency: the
// lock-striped compressor must stay exact under parallel interning;
// (3) store equivalence: the rewritten engines must reproduce the
// copy-based engine's verdicts and stats on the paper's bridge models --
// bit-identical at thread count 1 (checked against an in-test replica of
// the historical frame-by-frame DFS) and count-identical at 2 and 8.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bridge/bridge.h"
#include "explore/explorer.h"
#include "explore/flat_store.h"
#include "explore/visited.h"
#include "kernel/compress.h"
#include "kernel/machine.h"
#include "ltl/product.h"
#include "pml/parser.h"
#include "pnp/generator.h"
#include "support/hash.h"

namespace pnp {
namespace {

using kernel::Machine;
using kernel::State;
using kernel::StateCompressor;

// -- model helpers -----------------------------------------------------------

struct BridgeModel {
  pnp::ModelGenerator gen;
  std::unique_ptr<Machine> m;
  expr::Ref invariant{expr::kNoExpr};
};

BridgeModel make_bridge(bool v2) {
  BridgeModel b;
  bridge::BridgeConfig cfg;
  cfg.cars_per_side = 1;
  cfg.batch_n = 1;
  if (v2) cfg.enter_queue_capacity = 1;
  Architecture arch = v2 ? bridge::make_v2(cfg) : bridge::make_v1(cfg);
  b.m = std::make_unique<Machine>(
      b.gen.generate(arch, {.optimize_connectors = !v2}));
  b.invariant = bridge::safety_invariant(b.gen).ref;
  return b;
}

/// A layout past 64 COLLAPSE regions (72).
constexpr const char* kWideLayout = R"(
byte turn;
chan q = [1] of { byte };
active [70] proctype P() { turn == _pid -> turn++ }
)";

/// Collects up to `limit` distinct reachable states, breadth-first.
std::vector<State> reachable_states(const Machine& m, std::size_t limit) {
  std::vector<State> out;
  std::unordered_set<std::string> seen;
  std::vector<kernel::Succ> succs;
  out.push_back(m.initial());
  seen.insert(kernel::encode_key(out.back()));
  for (std::size_t head = 0; head < out.size() && out.size() < limit; ++head) {
    succs.clear();
    m.successors(out[head], succs);
    for (kernel::Succ& sc : succs) {
      if (out.size() >= limit) break;
      if (seen.insert(kernel::encode_key(sc.first)).second)
        out.push_back(std::move(sc.first));
    }
  }
  return out;
}

void expect_round_trip(StateCompressor& c, const std::vector<State>& states) {
  std::map<std::vector<std::uint8_t>, std::string> by_key;
  std::vector<std::uint8_t> key;
  for (const State& s : states) {
    c.compress(s, key);
    const State back = c.decompress(key);
    EXPECT_EQ(back.mem, s.mem);
    EXPECT_EQ(back.atomic_pid, s.atomic_pid);
    // injectivity: one compressed key never names two distinct states
    const std::string enc = kernel::encode_key(s);
    auto [it, fresh] = by_key.emplace(key, enc);
    if (!fresh) {
      EXPECT_EQ(it->second, enc);
    }
  }
}

// -- compressor --------------------------------------------------------------

TEST(Compress, RoundTripReachableStates) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const std::vector<State> states = reachable_states(*b.m, 5000);
  ASSERT_GT(states.size(), 1000u);
  StateCompressor c(b.m->layout());
  expect_round_trip(c, states);
  EXPECT_GT(c.n_regions(), 1);
  EXPECT_GT(c.components(), 0u);
  EXPECT_GT(c.approx_bytes(), 0u);
}

TEST(Compress, RoundTripRandomStates) {
  // Adversarial slot values (full Value range, including negatives and the
  // multi-byte encode_key escape range) and every atomic_pid, none of which
  // a reachable-state walk would cover.
  const BridgeModel b = make_bridge(/*v2=*/false);
  const kernel::Layout& lay = b.m->layout();
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<kernel::Value> val(
      std::numeric_limits<kernel::Value>::min(),
      std::numeric_limits<kernel::Value>::max());
  std::vector<State> states;
  for (int i = 0; i < 2000; ++i) {
    State s;
    s.mem.resize(static_cast<std::size_t>(lay.size()));
    for (kernel::Value& v : s.mem) v = val(rng);
    s.atomic_pid = static_cast<int>(rng() % 5) - 1;
    states.push_back(std::move(s));
  }
  StateCompressor c(lay);
  expect_round_trip(c, states);
}

namespace {

/// Checks, for every successor streamed out of the kernel, that
/// compress_delta() fed by the real undo log produces byte-identical keys to
/// a from-scratch compress() -- the property FlatRun's visited inserts rely
/// on. Also BFS-extends the frontier so deltas chain across generations.
struct DeltaCheckSink final : kernel::SuccSink {
  StateCompressor& c;
  kernel::SuccScratch& scratch;
  const std::vector<std::uint32_t>& parent_ids;
  std::vector<std::pair<State, std::vector<std::uint32_t>>>& frontier;
  std::unordered_set<std::string>& seen;
  std::size_t& checked;

  std::vector<std::uint8_t> delta_key, full_key;
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> hashes;

  DeltaCheckSink(StateCompressor& c, kernel::SuccScratch& scratch,
                 const std::vector<std::uint32_t>& parent_ids,
                 std::vector<std::pair<State, std::vector<std::uint32_t>>>& f,
                 std::unordered_set<std::string>& seen, std::size_t& checked)
      : c(c), scratch(scratch), parent_ids(parent_ids), frontier(f),
        seen(seen), checked(checked),
        ids(static_cast<std::size_t>(c.n_regions())),
        hashes(static_cast<std::size_t>(c.n_regions())) {}

  bool on_successor(const State& ns, const kernel::Step&) override {
    c.compress_delta(ns, parent_ids.data(), scratch.undo, hashes.data(),
                     delta_key, ids.data());
    c.compress(ns, full_key);
    EXPECT_EQ(delta_key, full_key);
    ++checked;
    if (frontier.size() < 4000 && seen.insert(kernel::encode_key(ns)).second)
      frontier.emplace_back(ns, ids);
    return true;
  }
};

/// Runs DeltaCheckSink over `m`'s reachable states, breadth-first; returns
/// the successors checked and sets `*explored` to the states expanded.
std::size_t check_deltas(const Machine& m, std::size_t* explored) {
  StateCompressor c(m.layout());
  std::vector<std::pair<State, std::vector<std::uint32_t>>> frontier;
  std::unordered_set<std::string> seen;
  std::size_t checked = 0;

  std::vector<std::uint8_t> root_key;
  std::vector<std::uint32_t> root_ids(static_cast<std::size_t>(c.n_regions()));
  State root = m.initial();
  c.compress_full(root, root_key, root_ids.data());
  seen.insert(kernel::encode_key(root));
  frontier.emplace_back(std::move(root), std::move(root_ids));

  kernel::SuccScratch scratch;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    // Copy out: the sink may grow `frontier`, invalidating references.
    const State parent = frontier[head].first;
    const std::vector<std::uint32_t> parent_ids = frontier[head].second;
    DeltaCheckSink sink(c, scratch, parent_ids, frontier, seen, checked);
    m.visit_successors(parent, scratch, sink);
  }
  *explored = frontier.size();
  return checked;
}

}  // namespace

TEST(Compress, DeltaMatchesFullOnRealSuccessors) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  std::size_t explored = 0;
  EXPECT_GT(check_deltas(*b.m, &explored), 5000u);
  EXPECT_GT(explored, 1000u);

  // 72 regions (globals, 70 frames, one queue): region k shares dirty bit
  // k mod 64 with region k + 64. Every step writes the globals (region 0),
  // so it also re-interns process 63's frame (region 64), clean or not, and
  // a step of process 0 (region 1) re-interns process 64's (region 65).
  model::SystemSpec sys = pml::parse(kWideLayout);
  const Machine wide(sys);
  ASSERT_EQ(wide.layout().regions().size(), 72u);
  EXPECT_EQ(check_deltas(wide, &explored), 140u);
  EXPECT_EQ(explored, 141u);
}

TEST(Compress, ConcurrentInterningStaysExact) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const std::vector<State> states = reachable_states(*b.m, 2000);
  StateCompressor c(b.m->layout(), /*stripes=*/16);
  // 4 workers intern an interleaved mix of shared and private states.
  std::vector<std::vector<std::vector<std::uint8_t>>> keys(4);
  {
    std::vector<std::thread> ts;
    for (int w = 0; w < 4; ++w) {
      ts.emplace_back([&, w] {
        std::vector<std::uint8_t> key;
        for (std::size_t i = 0; i < states.size(); ++i) {
          if (i % 2 == 0 && static_cast<int>(i % 4) != w) continue;
          c.compress(states[i], key);
          keys[static_cast<std::size_t>(w)].push_back(key);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  // Every key decompresses to a state whose re-compression is identical,
  // and distinct states got distinct keys across all workers.
  std::set<std::vector<std::uint8_t>> distinct;
  std::vector<std::uint8_t> rekey;
  for (const auto& worker : keys)
    for (const auto& key : worker) {
      const State s = c.decompress(key);
      c.compress(s, rekey);
      EXPECT_EQ(rekey, key);
      distinct.insert(key);
    }
  EXPECT_EQ(distinct.size(), states.size());
}

// -- flat stores -------------------------------------------------------------

std::vector<std::uint8_t> random_key(std::mt19937_64& rng) {
  std::vector<std::uint8_t> key(rng() % 300);
  for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng());
  return key;
}

TEST(FlatStore, KeyArenaRoundTripsAcrossSlabs) {
  explore::KeyArena arena;
  std::mt19937_64 rng(11);
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> recs;
  recs.emplace_back(arena.append({}), std::vector<std::uint8_t>{});
  const std::uint64_t slab = arena.bytes();  // the first append opens one
  ASSERT_GT(slab, 0u);
  // Random keys (empty ones included) until the records fill 3 slabs.
  while (arena.bytes() < 3 * slab) {
    std::vector<std::uint8_t> key = random_key(rng);
    recs.emplace_back(arena.append(key), std::move(key));
  }
  std::set<std::uint64_t> slabs_used;
  for (const auto& [off, key] : recs) {
    EXPECT_TRUE(arena.equals(off, key));
    const auto rec = arena.at(off);
    EXPECT_EQ(std::vector<std::uint8_t>(rec.begin(), rec.end()), key);
    slabs_used.insert(off / slab);
  }
  EXPECT_GE(slabs_used.size(), 3u);
}

TEST(FlatStore, FlatKeySetMatchesReferenceSet) {
  explore::FlatKeySet set;  // starts at its minimum, must grow many times
  std::set<std::vector<std::uint8_t>> ref;
  std::mt19937_64 rng(13);
  for (int i = 0; i < 50000; ++i) {
    // draw from a narrow space so duplicates actually occur
    std::vector<std::uint8_t> key((rng() % 6) + 1);
    for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng() % 8);
    const bool fresh_ref = ref.insert(key).second;
    const bool fresh = set.insert(key, hash_bytes(key));
    EXPECT_EQ(fresh, fresh_ref);
  }
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_GT(set.approx_bytes(), 0u);
}

// The first 2 MiB of offsets are doubling heap chunks, later ones whole
// slabs: records and mark pointers must not notice either seam.
TEST(FlatStore, KeyArenaRecordsStayValidAcrossTheFirstSlab) {
  explore::KeyArena arena;
  std::mt19937_64 rng(19);
  struct Rec {
    std::uint32_t off;
    std::vector<std::uint8_t> key;
    std::uint8_t* mark;
  };
  std::vector<Rec> recs;
  recs.push_back({arena.append({}, /*marked=*/true), {}, nullptr});
  // a first record costs a small chunk, not a slab
  EXPECT_LT(arena.bytes(), std::uint64_t{4} << 10);
  std::uint64_t appended = 3;
  // up to the second whole slab: both seams, chunk->slab and slab->slab
  while (arena.bytes() < 3 * explore::KeyArena::kSlabBytes) {
    std::vector<std::uint8_t> key = random_key(rng);
    appended += key.size() + 3;
    recs.push_back({arena.append(key, /*marked=*/true), std::move(key),
                    nullptr});
    // chunks double, so the arena holds at most about twice what was
    // appended (plus chunk tails too short for the next record)
    EXPECT_LE(arena.bytes(), 2 * appended + (std::uint64_t{16} << 10));
  }
  // Mark pointers are taken early and written late: no record moved.
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].mark = arena.mark(recs[i].off);
    EXPECT_EQ(*recs[i].mark, 0u);
    *recs[i].mark = static_cast<std::uint8_t>(i * 7 + 1);
  }
  bool below = false;
  bool above = false;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    below |= r.off < explore::KeyArena::kSlabBytes;
    above |= r.off >= explore::KeyArena::kSlabBytes;
    EXPECT_TRUE(arena.equals(r.off, r.key));
    const auto rec = arena.at(r.off);
    ASSERT_EQ(std::vector<std::uint8_t>(rec.begin(), rec.end()), r.key);
    EXPECT_EQ(arena.mark(r.off), r.mark);
    EXPECT_EQ(*r.mark, static_cast<std::uint8_t>(i * 7 + 1));
  }
  EXPECT_TRUE(below);
  EXPECT_TRUE(above);
  EXPECT_EQ(arena.resident_bytes(), arena.bytes());
}

// examples/models/producer_consumer.pml with eight messages over a
// three-slot channel: 436 states, the size of a typical design-loop check.
constexpr const char* kProducerConsumer8 = R"(
  chan box = [3] of { byte };
  byte received;
  active proctype Producer() {
    byte i = 1;
    do
    :: i <= 8 -> box!i; i++
    :: i > 8 -> break
    od
  }
  active proctype Consumer() {
    byte j = 1;
    byte v;
    do
    :: j <= 8 -> box?v; assert(v == j); received++; j++
    :: j > 8 -> break
    od
  }
)";

// Stores are sized by the states they hold: a search of a few hundred
// states reports kilobytes -- sequential, parallel (64 shards, 16 intern
// stripes) and the LTL product alike -- where fixed pre-sizes made every
// such search hold megabytes before its first state.
TEST(FlatStore, SmallSearchesHoldSmallStores) {
  model::SystemSpec sys = pml::parse(kProducerConsumer8);
  const expr::Ref invariant = pml::parse_global_expr(sys, "received <= 8");
  ltl::PropertyContext props;
  props.add("done", pml::parse_global_expr(sys, "received == 8"));
  const Machine m(sys);
  auto bound = [](std::uint64_t states) {
    return (std::uint64_t{64} << 10) + 64 * states;
  };
  for (const int threads : {1, 2}) {
    explore::Options o;
    o.threads = threads;
    o.invariant = invariant;
    const explore::Result r = explore::explore(m, o);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.stats.complete);
    EXPECT_EQ(r.stats.states_stored, 436u) << "threads=" << threads;
    EXPECT_GT(r.stats.store_bytes, 0u) << "threads=" << threads;
    EXPECT_LT(r.stats.store_bytes, bound(r.stats.states_stored))
        << "threads=" << threads;
  }
  const ltl::LtlResult r = ltl::check_ltl(m, props, "G (done -> G done)");
  ASSERT_TRUE(r.holds);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_GT(r.stats.states_stored, 436u);
  EXPECT_GT(r.stats.store_bytes, 0u);
  EXPECT_LT(r.stats.store_bytes, bound(r.stats.states_stored));
}

// -- store equivalence -------------------------------------------------------

/// In-test replica of the historical copy-based DFS engine (frame stack,
/// one successor at a time, full successor lists): the reference for
/// stored/matched/transitions, including under max_states truncation,
/// where the totals depend on the traversal order.
struct OracleStats {
  std::uint64_t stored = 0;
  std::uint64_t matched = 0;
  std::uint64_t transitions = 0;
};

OracleStats oracle_dfs(const Machine& m, std::uint64_t max_states) {
  OracleStats st;
  struct Frame {
    State state;
    std::vector<kernel::Succ> succs;
    std::size_t next = 0;
    bool generated = false;
  };
  std::unordered_set<std::string> visited;
  std::vector<Frame> stack;
  stack.push_back({m.initial(), {}, 0, false});
  visited.insert(kernel::encode_key(stack.back().state));
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.generated) {
      f.generated = true;
      m.successors(f.state, f.succs);
      st.transitions += f.succs.size();
    }
    if (f.next >= f.succs.size()) {
      stack.pop_back();
      continue;
    }
    kernel::Succ& sc = f.succs[f.next++];
    if (!visited.insert(kernel::encode_key(sc.first)).second) {
      ++st.matched;
      continue;
    }
    if (visited.size() >= max_states) continue;  // stored, not expanded
    stack.push_back({std::move(sc.first), {}, 0, false});
  }
  st.stored = visited.size();
  return st;
}

explore::Result run_bridge(const BridgeModel& b, int threads, bool por,
                           bool bitstate, std::uint64_t max_states = 0) {
  explore::Options opt;
  opt.invariant = b.invariant;
  opt.invariant_name = "safety";
  opt.want_trace = false;
  opt.threads = threads;
  opt.por = por;
  opt.bitstate = bitstate;
  if (max_states > 0) opt.max_states = max_states;
  return explore::explore(*b.m, opt);
}

TEST(StoreEquivalence, Fig13FullSpaceAllThreadCounts) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const OracleStats oracle = oracle_dfs(*b.m, ~std::uint64_t{0});
  ASSERT_GT(oracle.stored, 10000u);

  const explore::Result seq = run_bridge(b, 1, false, false);
  EXPECT_TRUE(seq.ok());
  EXPECT_TRUE(seq.stats.complete);
  // thread count 1: bit-identical to the historical engine, all stats
  EXPECT_EQ(seq.stats.states_stored, oracle.stored);
  EXPECT_EQ(seq.stats.states_matched, oracle.matched);
  EXPECT_EQ(seq.stats.transitions, oracle.transitions);
  EXPECT_GT(seq.stats.store_bytes, 0u);

  for (const int t : {2, 8}) {
    const explore::Result r = run_bridge(b, t, false, false);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.complete);
    EXPECT_EQ(r.stats.states_stored, oracle.stored) << "threads=" << t;
    EXPECT_EQ(r.stats.states_matched, oracle.matched) << "threads=" << t;
    EXPECT_EQ(r.stats.transitions, oracle.transitions) << "threads=" << t;
  }
}

TEST(StoreEquivalence, Fig13PartialOrderReduction) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  // Sequential POR uses the cycle proviso, the parallel engine the
  // proviso-free choice, so the two reduced graphs differ; verdicts and
  // cross-thread parallel counts may not.
  const explore::Result seq = run_bridge(b, 1, true, false);
  EXPECT_TRUE(seq.ok());
  EXPECT_TRUE(seq.stats.complete);
  const explore::Result p2 = run_bridge(b, 2, true, false);
  const explore::Result p8 = run_bridge(b, 8, true, false);
  EXPECT_TRUE(p2.ok());
  EXPECT_TRUE(p8.ok());
  EXPECT_EQ(p2.stats.states_stored, p8.stats.states_stored);
  EXPECT_EQ(p2.stats.states_matched, p8.stats.states_matched);
  EXPECT_EQ(p2.stats.transitions, p8.stats.transitions);
}

TEST(StoreEquivalence, Fig13BitstateMatchesExact) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const explore::Result exact = run_bridge(b, 1, false, false);
  const explore::Result bits = run_bridge(b, 1, false, true);
  EXPECT_TRUE(bits.ok());
  // 28k states in a 2^24-byte double-bit filter: collision-free in
  // practice, so the stored count must match the exact engine's.
  EXPECT_EQ(bits.stats.states_stored, exact.stats.states_stored);
  EXPECT_FALSE(bits.stats.complete);
  EXPECT_EQ(bits.stats.truncation, explore::TruncationReason::BitstateApprox);
}

TEST(StoreEquivalence, Fig14BoundedSearchMatchesOracle) {
  // The v2 bridge's full interleaving space is ~20M states, so the oracle
  // equivalence runs under a max_states bound -- which makes the totals
  // traversal-order-dependent and therefore a sharper test of the streaming
  // engine's pass structure.
  const BridgeModel b = make_bridge(/*v2=*/true);
  const std::uint64_t bound = 150000;
  const OracleStats oracle = oracle_dfs(*b.m, bound);
  // fresh states found after the bound trips are still stored (just not
  // expanded), so the final count sits at or slightly above the bound
  EXPECT_GE(oracle.stored, bound);

  const explore::Result seq = run_bridge(b, 1, false, false, bound);
  EXPECT_TRUE(seq.ok());
  EXPECT_FALSE(seq.stats.complete);
  EXPECT_EQ(seq.stats.truncation, explore::TruncationReason::MaxStates);
  EXPECT_EQ(seq.stats.states_stored, oracle.stored);
  EXPECT_EQ(seq.stats.states_matched, oracle.matched);
  EXPECT_EQ(seq.stats.transitions, oracle.transitions);

  for (const int t : {2, 8}) {
    const explore::Result r = run_bridge(b, t, false, false, bound);
    EXPECT_TRUE(r.ok()) << "threads=" << t;
    EXPECT_FALSE(r.stats.complete) << "threads=" << t;
    EXPECT_GE(r.stats.states_stored, bound) << "threads=" << t;
  }
}

}  // namespace
}  // namespace pnp
