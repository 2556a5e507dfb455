// Reduction subsystem tests: stable cache-key hashing (pinned digests),
// per-process LTS extraction, minimization soundness (minimized verdicts
// match unminimized ones exactly, with a measured state-count reduction),
// the content-addressed verification cache (repeat runs hit 100%, a
// connector swap dirties only its own slice), and the GenStats reuse
// accounting across a plug-and-play swap iteration.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "pnp/pnp.h"
#include "reduce/cache.h"
#include "reduce/lts.h"
#include "reduce/minimize.h"
#include "reduce/reduce.h"
#include "support/hash.h"

namespace pnp {
namespace {

using namespace model;

// -- stable hashing ------------------------------------------------------------
// These digests are the persisted cache-key format: they must be identical
// on every platform, compiler, and endianness. If this test ever needs
// updating, every persisted cache is invalid and reduce::kCacheFormatVersion
// must be bumped.

TEST(StableHash, PinnedDigests) {
  EXPECT_EQ(stable_hash64(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(stable_hash64("pnp"), 0x0828b2bb83c8da48ull);
  EXPECT_EQ(stable_hash64("connector Link kind=fifo cap=2\n"),
            0x483f9a74090be8fbull);
  EXPECT_EQ(stable_hash64("port-protocol deadlock freedom v1"),
            0x32a30681906253c4ull);
}

TEST(StableHash, DigestFormatIsStable) {
  reduce::ObligationKey key;
  key.kind = "safety";
  key.slice_hash = 1;
  key.property_hash = 0xabc;
  key.options_hash = 0xefd01f60ba992926ull;
  EXPECT_EQ(key.digest(),
            "safety:0000000000000001-0000000000000abc-efd01f60ba992926");
}

// -- example architectures -----------------------------------------------------

// Test-sized instances of the examples/ designs: same structure and port
// configurations, fewer messages (the full examples are bench-sized).
constexpr Value kTopicTemp = 1;
constexpr Value kTopicPressure = 2;
constexpr int kEvents = 1;

ComponentModelFn sensor(Value topic) {
  return [topic](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint out = ctx.port("pub");
    const LVar i = b.local("i", 1);
    iface::SendMeta meta;
    meta.tag = topic;
    return seq(do_(alt(seq(guard(b.l(i) <= b.k(kEvents)),
                           iface::send_msg(b, out, b.l(i), meta),
                           assign(i, b.l(i) + b.k(1)))),
                   alt(seq(guard(b.l(i) > b.k(kEvents)), break_()))),
               end_label());
  };
}

ComponentModelFn logger(int expected) {
  return [expected](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint in = ctx.port("sub");
    const GVar seen = ctx.global("logged");
    const LVar v = b.local("v");
    const LVar st = b.local("st");
    iface::RecvMeta meta;
    meta.status_out = &st;
    return seq(
        do_(alt(seq(end_label(), guard(ctx.g("logged") < b.k(expected)),
                    iface::recv_msg(b, in, v, meta),
                    if_(alt(seq(guard(b.l(st) == b.k(RECV_SUCC)),
                                assign(seen, ctx.g("logged") + b.k(1)))),
                        alt_else(seq(skip()))))),
            alt(seq(guard(ctx.g("logged") >= b.k(expected)), break_()))),
        end_label());
  };
}

ComponentModelFn alarm() {
  return [](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint in = ctx.port("sub");
    const GVar fired = ctx.global("alarms");
    const LVar v = b.local("v");
    const LVar j = b.local("j", 1);
    iface::RecvMeta meta;
    meta.tag = kTopicPressure;
    return seq(do_(alt(seq(guard(b.l(j) <= b.k(kEvents)),
                           iface::recv_msg(b, in, v, meta),
                           assign(fired, ctx.g("alarms") + b.k(1)),
                           assign(j, b.l(j) + b.k(1)))),
                   alt(seq(guard(b.l(j) > b.k(kEvents)), break_()))),
               end_label());
  };
}

/// The examples/publish_subscribe.cpp design, verbatim.
Architecture pubsub() {
  Architecture arch("pubsub");
  arch.add_global("logged", 0);
  arch.add_global("alarms", 0);
  const int temp = arch.add_component("TempSensor", sensor(kTopicTemp));
  const int pres =
      arch.add_component("PressureSensor", sensor(kTopicPressure));
  const int log = arch.add_component("Logger", logger(2 * kEvents));
  const int alrm = arch.add_component("Alarm", alarm());
  patterns::publish_subscribe(
      arch, "Bus", /*queue_capacity=*/4,
      {{temp, "pub", SendPortKind::AsynBlocking},
       {pres, "pub", SendPortKind::AsynBlocking}},
      {{log, "sub", RecvPortKind::Nonblocking, {}},
       {alrm, "sub", RecvPortKind::Blocking,
        {.remove = true, .selective = true}}});
  return arch;
}

constexpr int kCalls = 1;

ComponentModelFn client(int first_arg, const char* done_global) {
  return [first_arg, done_global](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint call = ctx.port("call");
    const PortEndpoint reply = ctx.port("reply");
    const GVar done = ctx.global(done_global);
    const LVar i = b.local("i", 0);
    const LVar r = b.local("r");
    return seq(
        do_(alt(seq(guard(b.l(i) < b.k(kCalls)),
                    iface::send_msg(b, call, b.l(i) + b.k(first_arg)),
                    iface::recv_msg(b, reply, r),
                    assert_(b.l(r) == (b.l(i) + b.k(first_arg)) * b.k(2),
                            "server doubles its argument"),
                    assign(i, b.l(i) + b.k(1)))),
            alt(seq(guard(b.l(i) == b.k(kCalls)), break_()))),
        assign(done, b.k(1)), end_label());
  };
}

ComponentModelFn server() {
  return [](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint rx = ctx.port("rx");
    const PortEndpoint tx0 = ctx.port("tx0");
    const PortEndpoint tx1 = ctx.port("tx1");
    const LVar v = b.local("v");
    return seq(do_(alt(seq(
        end_label(), iface::recv_msg(b, rx, v),
        if_(alt(seq(guard(b.l(v) < b.k(100)),
                    iface::send_msg(b, tx0, b.l(v) * b.k(2)))),
            alt_else(seq(iface::send_msg(b, tx1, b.l(v) * b.k(2)))))))));
  };
}

/// The examples/rpc_pipeline.cpp design, verbatim.
Architecture rpc() {
  Architecture arch("rpc");
  arch.add_global("c0_done", 0);
  arch.add_global("c1_done", 0);
  const int c0 = arch.add_component("Client0", client(1, "c0_done"));
  const int c1 = arch.add_component("Client1", client(100, "c1_done"));
  const int srv = arch.add_component("Server", server());
  const int req = arch.add_connector("Calls", {ChannelKind::Fifo, 2});
  arch.attach_sender(c0, "call", req, SendPortKind::SynBlocking);
  arch.attach_sender(c1, "call", req, SendPortKind::SynBlocking);
  arch.attach_receiver(srv, "rx", req, RecvPortKind::Blocking);
  patterns::point_to_point(arch, srv, "tx0", c0, "reply", "Reply0",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  patterns::point_to_point(arch, srv, "tx1", c1, "reply", "Reply1",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  return arch;
}

// -- LTS extraction ------------------------------------------------------------

TEST(Lts, ExtractsReachableLocationsAndClassifiesActions) {
  Architecture arch = rpc();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  bool saw_visible = false, saw_internal = false;
  for (const compile::CompiledProc& p : m.compiled()) {
    const reduce::Lts lts = reduce::extract_lts(m.spec(), p);
    EXPECT_GT(lts.n_states, 0) << p.name;
    EXPECT_LE(lts.n_states, p.n_pcs) << p.name;
    EXPECT_GE(lts.init, 0);
    for (std::size_t a = 0; a < lts.actions.size(); ++a) {
      (lts.action_visible[a] ? saw_visible : saw_internal) = true;
      EXPECT_FALSE(lts.actions[a].empty());
    }
  }
  EXPECT_TRUE(saw_visible);
  EXPECT_TRUE(saw_internal);
}

TEST(Lts, CanonicalActionsAreIdenticalForIdenticalTransitions) {
  // The same proctype compiled twice into one spec yields byte-identical
  // canonical actions -- the property the partition refinement keys on.
  Architecture arch = pubsub();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  const compile::CompiledProc& p = m.compiled().front();
  const reduce::Lts a = reduce::extract_lts(m.spec(), p);
  const reduce::Lts b = reduce::extract_lts(m.spec(), p);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.n_states, b.n_states);
}

// -- minimization soundness ----------------------------------------------------

VerifyOptions with_minimize(MinimizeMode mode) {
  VerifyOptions opt;
  opt.max_states = 2'000'000;
  opt.minimize = mode;
  return opt;
}

TEST(Minimize, PubSubVerdictsMatchUnminimized) {
  Architecture arch = pubsub();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  const expr::Ex inv = gen.gx("logged") <= gen.kx(2 * kEvents) &&
                       gen.gx("alarms") <= gen.kx(kEvents);
  const expr::Ex endinv = gen.gx("logged") == gen.kx(2 * kEvents) &&
                          gen.gx("alarms") == gen.kx(kEvents);
  for (const MinimizeMode mode :
       {MinimizeMode::Strong, MinimizeMode::Weak}) {
    const SafetyOutcome full = check_safety(m, with_minimize(MinimizeMode::Off));
    const SafetyOutcome red = check_safety(m, with_minimize(mode));
    EXPECT_EQ(full.passed(), red.passed()) << to_string(mode);
    EXPECT_TRUE(red.reduction.has_value());
    const SafetyOutcome inv_full =
        check_invariant(m, inv, "bounded", with_minimize(MinimizeMode::Off));
    const SafetyOutcome inv_red =
        check_invariant(m, inv, "bounded", with_minimize(mode));
    EXPECT_EQ(inv_full.passed(), inv_red.passed()) << to_string(mode);
    const SafetyOutcome end_full = check_end_invariant(
        m, endinv, "delivered", with_minimize(MinimizeMode::Off));
    const SafetyOutcome end_red =
        check_end_invariant(m, endinv, "delivered", with_minimize(mode));
    EXPECT_EQ(end_full.passed(), end_red.passed()) << to_string(mode);
  }
}

TEST(Minimize, RpcVerdictsMatchIncludingFailures) {
  Architecture arch = rpc();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  // Passing and failing invariants must both be preserved.
  const SafetyOutcome ok_full = check_invariant(
      m, gen.gx("c0_done") <= gen.kx(1), "ok", with_minimize(MinimizeMode::Off));
  const SafetyOutcome bad_full =
      check_invariant(m, gen.gx("c0_done") == gen.kx(1), "bad",
                      with_minimize(MinimizeMode::Off));
  ASSERT_TRUE(ok_full.passed());
  ASSERT_FALSE(bad_full.passed());
  for (const MinimizeMode mode :
       {MinimizeMode::Strong, MinimizeMode::Weak}) {
    EXPECT_TRUE(check_invariant(m, gen.gx("c0_done") <= gen.kx(1), "ok",
                                with_minimize(mode))
                    .passed());
    const SafetyOutcome bad = check_invariant(
        m, gen.gx("c0_done") == gen.kx(1), "bad", with_minimize(mode));
    EXPECT_FALSE(bad.passed());
    // the violation (here: in the initial state) must still be reported
    ASSERT_TRUE(bad.result.violation.has_value());
  }
}

TEST(Minimize, LtlVerdictsMatchOnStrongQuotient) {
  Architecture arch = rpc();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  gen.add_prop("c0_done", gen.gx("c0_done") == gen.kx(1));
  // Refutable without fairness: the polling receive port can starve the
  // client forever. The strong quotient must refute it too.
  const LtlOutcome full = check_ltl_formula(m, gen.props(), "F c0_done");
  const reduce::ReducedMachine strong(m, reduce::Equivalence::Strong);
  const LtlOutcome red =
      check_ltl_formula(strong.machine(), gen.props(), "F c0_done");
  EXPECT_EQ(full.passed(), red.passed());
  ASSERT_FALSE(red.passed());
  ASSERT_TRUE(red.result.violation.has_value());
}

TEST(Minimize, GlobalStateCountReductionAboveThreshold) {
  // The acceptance bar: > 1.5x fewer stored states on at least one of the
  // two example designs, with identical verdicts (checked above).
  double best = 0.0;
  for (Architecture arch : {pubsub(), rpc()}) {
    ModelGenerator gen;
    const kernel::Machine m = gen.generate(arch);
    const SafetyOutcome full =
        check_safety(m, with_minimize(MinimizeMode::Off));
    const SafetyOutcome red = check_safety(m, with_minimize(MinimizeMode::Weak));
    ASSERT_TRUE(full.result.stats.complete);
    ASSERT_TRUE(red.result.stats.complete);
    const double ratio =
        static_cast<double>(full.result.stats.states_stored) /
        static_cast<double>(red.result.stats.states_stored);
    std::printf("[ reduce   ] %s: %llu -> %llu states (%.2fx)\n",
                arch.name().c_str(),
                static_cast<unsigned long long>(full.result.stats.states_stored),
                static_cast<unsigned long long>(red.result.stats.states_stored),
                ratio);
    best = std::max(best, ratio);
  }
  EXPECT_GT(best, 1.5);
}

TEST(Minimize, StageNamesGainMinimizedPrefix) {
  Architecture arch = rpc();
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  const SafetyOutcome red = check_safety(m, with_minimize(MinimizeMode::Weak));
  ASSERT_FALSE(red.stages.empty());
  EXPECT_EQ(red.stages.front().name, "minimized-exact");
  EXPECT_NE(red.report().find("minimization"), std::string::npos);
}

// -- verification cache --------------------------------------------------------

class CacheDir {
 public:
  explicit CacheDir(const std::string& leaf)
      : path_((std::filesystem::temp_directory_path() / leaf).string()) {
    std::filesystem::remove_all(path_);
  }
  ~CacheDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SuiteOptions rpc_suite(const std::string& cache_dir) {
  SuiteOptions opts;
  opts.verify.max_states = 2'000'000;
  opts.verify.minimize = MinimizeMode::Weak;
  opts.invariant_text = "c0_done <= 1";
  opts.end_invariant_text = "c0_done == 1 && c1_done == 1";
  opts.cache_dir = cache_dir;
  return opts;
}

TEST(Cache, UnchangedDesignRepeatRunHitsEveryObligation) {
  CacheDir dir("pnp_test_cache_repeat");
  Architecture arch = rpc();
  const SuiteReport first = verify_obligations(arch, rpc_suite(dir.path()));
  EXPECT_TRUE(first.all_passed()) << first.report();
  EXPECT_EQ(first.cache_hits(), 0);
  EXPECT_GT(first.recomputed(), 0);
  // 3 connectors + safety + invariant + end-invariant
  EXPECT_EQ(first.obligations.size(), 6u);

  const SuiteReport second = verify_obligations(arch, rpc_suite(dir.path()));
  EXPECT_TRUE(second.all_passed());
  EXPECT_EQ(second.recomputed(), 0) << second.report();  // 100% hits
  EXPECT_EQ(second.cache_hits(),
            static_cast<int>(second.obligations.size()));
  // cached entries keep the original verdict metadata
  for (const ObligationResult& o : second.obligations) {
    EXPECT_TRUE(o.from_cache);
    EXPECT_GT(o.states_stored, 0u) << o.kind << " " << o.label;
  }
}

TEST(Cache, ConnectorSwapReverifiesOnlyDirtiedSlice) {
  CacheDir dir("pnp_test_cache_swap");
  Architecture arch = rpc();
  const SuiteReport before = verify_obligations(arch, rpc_suite(dir.path()));
  ASSERT_TRUE(before.all_passed()) << before.report();

  // The paper's iterate step: swap one connector's channel kind. Only the
  // swapped connector's protocol obligation and the global obligations
  // (whose slice is the whole design) may recompute.
  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::Fifo, 2});
  const SuiteReport after = verify_obligations(arch, rpc_suite(dir.path()));
  EXPECT_TRUE(after.all_passed()) << after.report();
  for (const ObligationResult& o : after.obligations) {
    if (o.kind == "connector-protocol") {
      EXPECT_EQ(o.from_cache, o.label != "Reply1")
          << o.label << " " << after.report();
    } else {
      EXPECT_FALSE(o.from_cache) << o.kind;  // global slice changed
    }
  }
  EXPECT_EQ(after.cache_hits(), 2);   // Calls + Reply0
  EXPECT_EQ(after.recomputed(), 4);  // Reply1 protocol + 3 globals

  // Swapping back restores the original digests: everything hits again.
  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::SingleSlot, 1});
  const SuiteReport restored = verify_obligations(arch, rpc_suite(dir.path()));
  EXPECT_EQ(restored.recomputed(), 0) << restored.report();
}

/// The cache file's identity: a rewrite (temp file + rename) gives it a
/// new inode even when the bytes and the clock tick happen to match.
struct FileStamp {
  ino_t inode;
  std::int64_t mtime_ns;
  bool operator==(const FileStamp&) const = default;
};

FileStamp stamp(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {st.st_ino, static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                         1'000'000'000 + st.st_mtim.tv_nsec};
}

TEST(Cache, AllHitVerifyLeavesTheFileUntouched) {
  CacheDir dir("pnp_test_cache_untouched");
  RunConfig cfg;
  cfg.max_states = 2'000'000;
  cfg.minimize = MinimizeMode::Weak;
  cfg.invariant_text = "c0_done <= 1";
  cfg.end_invariant_text = "c0_done == 1 && c1_done == 1";
  cfg.cache_dir = dir.path();
  cfg.heartbeat = false;
  Session session(cfg);
  Architecture arch = rpc();
  const RunReport cold = session.verify(arch);
  ASSERT_TRUE(cold.passed) << cold.report();
  ASSERT_EQ(cold.cache_hits(), 0);
  const std::string file = dir.path() + "/obligations.json";
  const FileStamp written = stamp(file);

  // Long enough for a rewrite to move the mtime on any common filesystem.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const RunReport warm = session.verify(arch);
  EXPECT_EQ(warm.recomputed(), 0) << warm.report();
  EXPECT_EQ(stamp(file), written);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));

  // A verify that records a verdict still replaces the file.
  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::Fifo, 2});
  const RunReport swapped = session.verify(arch);
  ASSERT_GT(swapped.recomputed(), 0);
  EXPECT_NE(stamp(file).inode, written.inode);
  reduce::VerificationCache reload(dir.path());
  EXPECT_EQ(reload.size(), 6u + 4u);  // the swap added 4 obligations
}

RunConfig rpc_session(const std::string& cache_dir) {
  RunConfig cfg;
  cfg.max_states = 2'000'000;
  cfg.minimize = MinimizeMode::Weak;
  cfg.invariant_text = "c0_done <= 1";
  cfg.end_invariant_text = "c0_done == 1 && c1_done == 1";
  cfg.cache_dir = cache_dir;
  cfg.heartbeat = false;
  return cfg;
}

TEST(Cache, ResidentCacheIsNotReloadedForItsOwnFlushes) {
  CacheDir dir("pnp_test_cache_resident_own");
  Session session(rpc_session(dir.path()));
  EXPECT_EQ(session.verdict_cache(), nullptr);
  Architecture arch = rpc();
  const RunReport cold = session.verify(arch);
  ASSERT_TRUE(cold.passed) << cold.report();
  ASSERT_EQ(cold.cache_hits(), 0);
  const reduce::VerificationCache* cache = session.verdict_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->loads(), 1);
  EXPECT_EQ(cache->size(), 6u);

  // The cold run's flush, a warm run, and a swap that records and flushes
  // again: the file is only ever this session's own, so it is read once.
  const RunReport warm = session.verify(arch);
  EXPECT_EQ(warm.recomputed(), 0) << warm.report();
  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::Fifo, 2});
  const RunReport swapped = session.verify(arch);
  EXPECT_EQ(swapped.recomputed(), 4) << swapped.report();
  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::SingleSlot, 1});
  const RunReport back = session.verify(arch);
  EXPECT_EQ(back.recomputed(), 0) << back.report();
  EXPECT_EQ(session.verdict_cache(), cache);
  EXPECT_EQ(cache->loads(), 1);
  EXPECT_EQ(cache->size(), 10u);

  // A new cache_dir is a new, cold cache.
  CacheDir next("pnp_test_cache_resident_next");
  session.config().cache_dir = next.path();
  const RunReport fresh = session.verify(arch);
  EXPECT_EQ(fresh.cache_hits(), 0) << fresh.report();
  EXPECT_EQ(session.verdict_cache()->loads(), 1);
  EXPECT_EQ(session.verdict_cache()->size(), 6u);
}

TEST(Cache, ResidentCacheSeesEntriesOtherWritersAdd) {
  CacheDir dir("pnp_test_cache_resident_others");
  Session first(rpc_session(dir.path()));
  const Architecture arch = rpc();
  ASSERT_EQ(first.verify(arch).cache_hits(), 0);

  // A second Session on the same directory verifies a swapped design ...
  Architecture swapped = rpc();
  swapped.set_channel(swapped.find_connector("Reply1"), {ChannelKind::Fifo, 2});
  Session second(rpc_session(dir.path()));
  ASSERT_EQ(second.verify(swapped).recomputed(), 4);
  // ... and the first session's next verify answers it from the cache.
  const RunReport replay = first.verify(swapped);
  EXPECT_EQ(replay.recomputed(), 0) << replay.report();
  EXPECT_EQ(first.verdict_cache()->loads(), 2);

  // So are the verdicts a bare VerificationCache commits (verify_obligations
  // without a Session opens one on the directory).
  Architecture third = rpc();
  third.set_channel(third.find_connector("Reply0"), {ChannelKind::Fifo, 2});
  ASSERT_EQ(verify_obligations(third, rpc_suite(dir.path())).recomputed(), 4);
  const RunReport replay3 = first.verify(third);
  EXPECT_EQ(replay3.recomputed(), 0) << replay3.report();
  EXPECT_EQ(first.verdict_cache()->loads(), 3);
  EXPECT_EQ(first.verdict_cache()->size(), 6u + 4u + 4u);

  // A replaced file that no longer holds a verdict is a miss again.
  std::filesystem::remove(dir.path() + "/obligations.json");
  const RunReport gone = first.verify(arch);
  EXPECT_EQ(gone.cache_hits(), 0) << gone.report();
  EXPECT_EQ(first.verdict_cache()->loads(), 4);
}

// pnpd workers share one cache: records, lookups and flushes race on the
// entries and on the dirty state that decides whether a flush writes.
// Run under TSan by scripts/check.sh --tsan.
TEST(Cache, ConcurrentRecordLookupFlushKeepsEveryEntry) {
  CacheDir dir("pnp_test_cache_concurrent");
  constexpr int kThreads = 4;
  constexpr int kKeys = 50;
  auto key_of = [](int t, int i) {
    reduce::ObligationKey k;
    k.kind = "safety";
    k.label = "t" + std::to_string(t);
    k.slice_hash = static_cast<std::uint64_t>(t);
    k.property_hash = static_cast<std::uint64_t>(i);
    return k;
  };
  {
    reduce::VerificationCache cache(dir.path());
    std::vector<std::thread> crew;
    for (int t = 0; t < kThreads; ++t)
      crew.emplace_back([&, t] {
        for (int i = 0; i < kKeys; ++i) {
          const reduce::ObligationKey k = key_of(t, i);
          cache.record(k, {"", "", "", true, "exact",
                           static_cast<std::uint64_t>(i), 0.0});
          // re-recording an equal verdict is not a change
          cache.record(k, {"", "", "", true, "exact",
                           static_cast<std::uint64_t>(i), 0.0});
          EXPECT_TRUE(cache.lookup(k).has_value());
          EXPECT_FALSE(cache.lookup(key_of(t + kThreads, i)).has_value());
          if (i % 10 == 0) EXPECT_TRUE(cache.flush());
        }
      });
    for (std::thread& th : crew) th.join();
    EXPECT_TRUE(cache.flush());
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads * kKeys));
    EXPECT_EQ(cache.hits(), kThreads * kKeys);
    EXPECT_EQ(cache.misses(), kThreads * kKeys);
  }
  reduce::VerificationCache reload(dir.path());
  ASSERT_EQ(reload.size(), static_cast<std::size_t>(kThreads * kKeys));
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kKeys; ++i) {
      const auto hit = reload.lookup(key_of(t, i));
      ASSERT_TRUE(hit.has_value()) << t << "/" << i;
      EXPECT_EQ(hit->states_stored, static_cast<std::uint64_t>(i));
    }
}

TEST(Cache, OptionsChangeMissesCache) {
  CacheDir dir("pnp_test_cache_opts");
  Architecture arch = rpc();
  verify_obligations(arch, rpc_suite(dir.path()));
  SuiteOptions changed = rpc_suite(dir.path());
  changed.verify.max_states = 1'000'000;  // different bound, different key
  const SuiteReport rerun = verify_obligations(arch, changed);
  EXPECT_EQ(rerun.cache_hits(), 0);
}

TEST(Cache, InconclusivePassIsNotCached) {
  CacheDir dir("pnp_test_cache_inconclusive");
  Architecture arch = rpc();
  // A violation and complete exact passes are conclusive: a repeat run
  // answers every obligation from the cache.
  SuiteOptions conclusive = rpc_suite(dir.path());
  conclusive.invariant_text = "c0_done == 0";  // client 0 finishes
  const SuiteReport failed = verify_obligations(arch, conclusive);
  ASSERT_FALSE(failed.all_passed()) << failed.report();
  const SuiteReport replay = verify_obligations(arch, conclusive);
  EXPECT_EQ(replay.recomputed(), 0) << replay.report();
  // Passes of searches truncated at 20 states prove nothing (the bitstate
  // rung answered them): a repeat run verifies them again.
  SuiteOptions truncated = rpc_suite(dir.path());
  truncated.verify.max_states = 20;
  const SuiteReport cut = verify_obligations(arch, truncated);
  const SuiteReport again = verify_obligations(arch, truncated);
  ASSERT_EQ(again.obligations.size(), cut.obligations.size());
  int inconclusive = 0;
  for (std::size_t i = 0; i < cut.obligations.size(); ++i) {
    const ObligationResult& o = cut.obligations[i];
    const bool proven =
        !o.passed || o.stage.find("bitstate") == std::string::npos;
    inconclusive += proven ? 0 : 1;
    EXPECT_EQ(again.obligations[i].from_cache, proven)
        << o.kind << " " << o.label << " " << o.stage;
  }
  EXPECT_GT(inconclusive, 0) << cut.report();
}

TEST(Cache, DisabledCacheStillVerifiesEverything) {
  Architecture arch = rpc();
  SuiteOptions opts = rpc_suite("");
  const SuiteReport rep = verify_obligations(arch, opts);
  EXPECT_TRUE(rep.all_passed());
  EXPECT_EQ(rep.cache_hits(), 0);
  EXPECT_EQ(rep.recomputed(), static_cast<int>(rep.obligations.size()));
}

TEST(Cache, PersistedFileRoundTrips) {
  CacheDir dir("pnp_test_cache_roundtrip");
  reduce::ObligationKey key;
  key.kind = "safety";
  key.label = "with \"quotes\" and\nnewline";
  key.slice_hash = 7;
  {
    reduce::VerificationCache cache(dir.path());
    cache.record(key, {"", "", "", true, "exact", 1234, 0.5});
    cache.flush();
  }
  reduce::VerificationCache reload(dir.path());
  const auto hit = reload.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->passed);
  EXPECT_EQ(hit->stage, "exact");
  EXPECT_EQ(hit->states_stored, 1234u);
  EXPECT_EQ(hit->label, key.label);
  EXPECT_EQ(reload.hits(), 1);
  EXPECT_EQ(reload.misses(), 0);
}

// -- GenStats reuse accounting across a swap iteration -------------------------

TEST(GenStats, ComponentModelsReusedAcrossChannelSwap) {
  Architecture arch = rpc();
  ModelGenerator gen;
  const kernel::Machine before = gen.generate(arch);
  const GenStats first = gen.last_stats();
  EXPECT_EQ(first.component_models_built, 3);
  EXPECT_EQ(first.component_models_reused, 0);

  // Record each component's proctype and the identity of its compiled body
  // (the Stmt nodes live in the append-only spec, so reuse means pointer
  // equality, not just equal indices).
  auto proctype_of = [&](const std::string& name) {
    for (const ProcessInst& p : gen.spec().processes)
      if (p.name == name) return p.proctype;
    ADD_FAILURE() << "no process named " << name;
    return -1;
  };
  const int c0_pt = proctype_of("Client0");
  const Stmt* c0_body =
      gen.spec().proctypes[static_cast<std::size_t>(c0_pt)].body.front().get();

  arch.set_channel(arch.find_connector("Reply1"), {ChannelKind::Fifo, 2});
  const kernel::Machine after = gen.generate(arch);
  const GenStats second = gen.last_stats();

  // All three component models are reused untouched...
  EXPECT_EQ(second.component_models_built, 0);
  EXPECT_EQ(second.component_models_reused, 3);
  // ...as pointer-identical proctypes,
  EXPECT_EQ(proctype_of("Client0"), c0_pt);
  EXPECT_EQ(
      gen.spec().proctypes[static_cast<std::size_t>(c0_pt)].body.front().get(),
      c0_body);
  // ...and the unchanged ports/channels come from the block cache too.
  EXPECT_GT(second.block_models_reused, 0);
  EXPECT_GT(second.channels_reused, 0);
  // The cumulative counters aggregate both iterations.
  EXPECT_EQ(gen.total_stats().component_models_built, 3);
  EXPECT_EQ(gen.total_stats().component_models_reused, 3);
}

// -- slice texts ---------------------------------------------------------------

TEST(SliceText, ConnectorSliceIsLocal) {
  Architecture arch = rpc();
  const int calls = arch.find_connector("Calls");
  const int reply1 = arch.find_connector("Reply1");
  const std::string calls_before = connector_slice_text(arch, calls);
  const std::string arch_before = architecture_slice_text(arch);
  arch.set_channel(reply1, {ChannelKind::Fifo, 2});
  // the edited connector's slice and the whole-design slice change...
  EXPECT_NE(connector_slice_text(arch, reply1),
            architecture_slice_text(arch));
  EXPECT_NE(architecture_slice_text(arch), arch_before);
  // ...but the untouched connector's slice is byte-identical
  EXPECT_EQ(connector_slice_text(arch, calls), calls_before);
}

TEST(SliceText, BehaviorFingerprintEntersTheGlobalSlice) {
  Architecture arch = rpc();
  const std::string before = architecture_slice_text(arch);
  arch.set_behavior_fingerprint(arch.find_component("Server"),
                                "deadbeefdeadbeef");
  EXPECT_NE(architecture_slice_text(arch), before);
}

}  // namespace
}  // namespace pnp
