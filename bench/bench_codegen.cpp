// Successor-engine throughput: the compiled engines (bytecode, aot) vs the
// interpreter on the fig13 bridge -- the same instance as bench_parallel's
// bridge_exact rows, so speedups are directly comparable to the committed
// baseline. Doubles as an end-to-end equivalence check: every engine must
// store exactly the same number of states at every thread count, and every
// run must reach the same verdict.
//
//   bench_codegen [--quick] [--json]
//
// --quick shrinks the instance for CI smoke runs; --json emits rows
// ({bench, threads, states, states_per_sec, wall_seconds, bytes_per_state,
// and for the compiled engines speedup_vs_interp}) consumed by
// scripts/bench.sh, which gates the aot speedup ratio, bytes/state, and the
// compile-time budget against the committed baseline. Speedups are measured
// within one process on one machine (machine-normalized): the ratio, not
// the absolute states/sec, is what the gate holds steady across runner
// generations.
//
// Beyond the plain reachability sweep, the codegen_por_* rows time the
// POR-reduced search (engine-backed ample probe + chosen-pid expansion) and
// the codegen_ltl_* rows time the LTL product search (engine-backed system
// side, interpreted Buchi stepping) -- the two hot loops the engines
// compile end to end. Each lane's speedup is against its own interp row.
//
// The codegen_compile row times the cold emit + host-compile + dlopen path
// and the warm content-addressed cache hit; the artifact cache directory is
// wiped first, so "cold" is honest.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bridge/bridge.h"
#include "codegen/engine.h"
#include "common.h"
#include "explore/explorer.h"
#include "ltl/product.h"
#include "obs/obs.h"

using namespace pnp;
using namespace pnp::benchutil;
using namespace pnp::bridge;

namespace {

struct Row {
  std::string bench;
  int threads{1};
  std::uint64_t states{0};
  double wall{0.0};
  double speedup{0.0};  // vs the interp row of the same lane; 0 = n/a
  double bytes_per_state{0.0};  // visited-store footprint; 0 = not tracked

  double states_per_sec() const {
    return static_cast<double>(states) / std::max(wall, 1e-9);
  }
};

explore::Result run(const kernel::Machine& m, expr::Ref inv, int threads,
                    const codegen::Engine* engine, bool por = false) {
  explore::Options opt;
  opt.want_trace = false;
  opt.invariant = inv;
  opt.invariant_name = "safety";
  opt.threads = threads;
  opt.engine = engine;
  opt.por = por;
  return explore::explore(m, opt);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--json") == 0) json = true;
    else {
      std::fprintf(stderr, "usage: bench_codegen [--quick] [--json]\n");
      return 2;
    }
  }

  BridgeConfig cfg;
  cfg.cars_per_side = quick ? 1 : 2;
  cfg.batch_n = 1;
  ModelGenerator gen;
  Architecture arch = make_v1(cfg);
  const kernel::Machine m = gen.generate(arch, {.optimize_connectors = true});
  const expr::Ref inv = safety_invariant(gen).ref;

  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::temp_directory_path() / "pnp_bench_codegen";
  std::error_code ec;
  fs::remove_all(cache_dir, ec);

  // Cold + warm engine construction. The bench requires a host toolchain
  // (strict: no silent bytecode fallback -- a fallback would make the "aot"
  // rows a lie); the dedicated no-toolchain CI job covers graceful
  // degradation instead.
  obs::Observer ob;
  codegen::EngineOptions ecfg;
  ecfg.kind = codegen::EngineKind::Aot;
  ecfg.cache_dir = cache_dir.string();
  ecfg.strict = true;
  ecfg.obs = &ob;
  using Clock = std::chrono::steady_clock;
  double compile_cold_ms = 0.0, compile_warm_ms = 0.0;
  std::unique_ptr<codegen::Engine> aot;
  try {
    const auto t0 = Clock::now();
    aot = codegen::make_engine(m, ecfg);
    const auto t1 = Clock::now();
    std::unique_ptr<codegen::Engine> warm = codegen::make_engine(m, ecfg);
    const auto t2 = Clock::now();
    compile_cold_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    compile_warm_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
  } catch (const ModelError& e) {
    std::fprintf(stderr, "bench_codegen: %s\n", e.what());
    return 2;
  }
  const bool cache_hit =
      ob.recorder().total(obs::Counter::CodegenCompiles) == 1 &&
      ob.recorder().total(obs::Counter::CodegenCacheHits) == 1;
  codegen::EngineOptions bcfg;
  bcfg.kind = codegen::EngineKind::Bytecode;
  const std::unique_ptr<codegen::Engine> bytecode =
      codegen::make_engine(m, bcfg);

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep{1};
  if (hw >= 2) sweep.push_back(2);
  if (hw > 2) sweep.push_back(hw);

  struct EngineRow {
    const char* name;
    const codegen::Engine* engine;
  };
  const EngineRow engines[] = {{"codegen_interp", nullptr},
                               {"codegen_bytecode", bytecode.get()},
                               {"codegen_aot", aot.get()}};

  std::vector<Row> rows;
  bool ok = true;
  std::uint64_t ref_states = 0;  // interp at threads=1: everyone must match
  const int timing_reps = quick ? 3 : 1;
  std::vector<double> interp_wall(sweep.size(), 0.0);
  for (const EngineRow& e : engines) {
    for (std::size_t si = 0; si < sweep.size(); ++si) {
      const int t = sweep[si];
      explore::Result r;
      for (int rep = 0; rep < timing_reps; ++rep) {
        explore::Result attempt = run(m, inv, t, e.engine);
        ok = ok && attempt.ok() && attempt.stats.complete;
        if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
          r = std::move(attempt);
      }
      if (ref_states == 0) ref_states = r.stats.states_stored;
      else ok = ok && r.stats.states_stored == ref_states;
      Row row{e.name, t, r.stats.states_stored, r.stats.seconds, 0.0,
              r.stats.store_bytes_per_state()};
      if (e.engine == nullptr) interp_wall[si] = r.stats.seconds;
      else if (interp_wall[si] > 0.0)
        row.speedup = interp_wall[si] / std::max(r.stats.seconds, 1e-9);
      rows.push_back(row);
    }
  }

  // POR lane: the engine-backed ample probe + chosen-pid expansion. The
  // reduced graph is engine-independent (identical successor streams give
  // identical ample sets), so the lane doubles as an equivalence check of
  // its own reference state count.
  {
    double por_interp_wall = 0.0;
    std::uint64_t por_ref_states = 0;
    const char* names[] = {"codegen_por_interp", "codegen_por_bytecode",
                           "codegen_por_aot"};
    const codegen::Engine* por_engines[] = {nullptr, bytecode.get(),
                                            aot.get()};
    for (int i = 0; i < 3; ++i) {
      explore::Result r;
      for (int rep = 0; rep < timing_reps; ++rep) {
        explore::Result attempt = run(m, inv, 1, por_engines[i], /*por=*/true);
        ok = ok && attempt.ok() && attempt.stats.complete;
        if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
          r = std::move(attempt);
      }
      if (por_ref_states == 0) por_ref_states = r.stats.states_stored;
      else ok = ok && r.stats.states_stored == por_ref_states;
      Row row{names[i], 1, r.stats.states_stored, r.stats.seconds, 0.0,
              r.stats.store_bytes_per_state()};
      if (i == 0) por_interp_wall = r.stats.seconds;
      else row.speedup = por_interp_wall / std::max(r.stats.seconds, 1e-9);
      rows.push_back(row);
    }
  }

  // LTL lane: nested-DFS product search with engine-backed system-side
  // successor generation (Buchi stepping stays interpreted). The lane runs
  // the cache-resident 1-car instance in BOTH modes, so its rows compare
  // across baselines; DRAM-bound products are measured end to end by the
  // wfbench ltl_check workload. "G safe" holds, so every run covers the
  // full product.
  {
    BridgeConfig lcfg = cfg;
    lcfg.cars_per_side = 1;
    ModelGenerator lgen;
    Architecture larch = make_v1(lcfg);
    const kernel::Machine lm =
        lgen.generate(larch, {.optimize_connectors = true});
    lgen.add_prop("safe", safety_invariant(lgen));
    double ltl_interp_wall = 0.0;
    std::uint64_t ltl_ref_states = 0;
    const char* names[] = {"codegen_ltl_interp", "codegen_ltl_bytecode",
                           "codegen_ltl_aot"};
    const codegen::EngineKind kinds[] = {codegen::EngineKind::Interp,
                                         codegen::EngineKind::Bytecode,
                                         codegen::EngineKind::Aot};
    for (int i = 0; i < 3; ++i) {
      ltl::CheckOptions copt;
      copt.want_trace = false;
      copt.engine = kinds[i];
      copt.engine_cache_dir = cache_dir.string();
      // The product fits in cache, so each run is short; best-of-9 pins the
      // clean minimum even right after the DRAM-heavy sweep lanes above.
      ltl::LtlResult r;
      for (int rep = 0; rep < 9; ++rep) {
        ltl::LtlResult attempt =
            ltl::check_ltl(lm, lgen.props(), "G safe", copt);
        ok = ok && attempt.holds && attempt.stats.complete &&
             attempt.engine_actual == kinds[i];
        if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
          r = std::move(attempt);
      }
      if (ltl_ref_states == 0) ltl_ref_states = r.stats.states_stored;
      else ok = ok && r.stats.states_stored == ltl_ref_states;
      Row row{names[i], 1, r.stats.states_stored, r.stats.seconds, 0.0,
              r.stats.store_bytes_per_state()};
      if (i == 0) ltl_interp_wall = r.stats.seconds;
      else row.speedup = ltl_interp_wall / std::max(r.stats.seconds, 1e-9);
      rows.push_back(row);
    }
  }
  fs::remove_all(cache_dir, ec);

  if (json) {
    std::printf("[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("  {\"bench\": \"%s\", \"threads\": %d, \"states\": %llu, "
                  "\"states_per_sec\": %.1f, \"wall_seconds\": %.6f",
                  r.bench.c_str(), r.threads,
                  static_cast<unsigned long long>(r.states),
                  r.states_per_sec(), r.wall);
      if (r.bytes_per_state > 0.0)
        std::printf(", \"bytes_per_state\": %.1f", r.bytes_per_state);
      if (r.speedup > 0.0)
        std::printf(", \"speedup_vs_interp\": %.3f", r.speedup);
      std::printf("}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ,{\"bench\": \"codegen_compile\", \"cold_ms\": %.1f, "
                "\"warm_ms\": %.1f, \"cache_hit\": %s}\n",
                compile_cold_ms, compile_warm_ms,
                cache_hit ? "true" : "false");
    std::printf("]\n");
    return ok ? 0 : 1;
  }

  std::printf("successor-engine throughput (v1 bridge, %d car(s)/side, "
              "optimized blocks)\n\n",
              cfg.cars_per_side);
  print_header({"bench", "threads", "states", "states/sec", "speedup",
                "bytes/st", "time"},
               {21, 9, 12, 14, 10, 10, 12});
  for (const Row& r : rows) {
    print_cell(r.bench, 21);
    print_cell(std::to_string(r.threads), 9);
    print_cell(std::to_string(r.states), 12);
    print_cell(std::to_string(static_cast<long long>(r.states_per_sec())),
               14);
    char buf[32];
    std::snprintf(buf, sizeof buf, r.speedup > 0.0 ? "%.2fx" : "-",
                  r.speedup);
    print_cell(buf, 10);
    std::snprintf(buf, sizeof buf, r.bytes_per_state > 0.0 ? "%.1f" : "-",
                  r.bytes_per_state);
    print_cell(buf, 10);
    print_cell(fmt_ms(r.wall) + " ms", 12);
    std::printf("\n");
  }
  std::printf("\naot artifact: cold compile %.1f ms, warm cache hit %.1f ms "
              "(%s)\n",
              compile_cold_ms, compile_warm_ms,
              cache_hit ? "content-addressed hit" : "CACHE MISS");
  std::printf("engines stored identical state counts at every thread count: "
              "%s\n",
              verdict(ok && cache_hit).c_str());
  return ok && cache_hit ? 0 : 1;
}
