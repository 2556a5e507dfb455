// pnp::Session -- the unified run facade over the verification stack.
//
// Historically every entry point grew its own option struct (VerifyOptions,
// SuiteOptions, ResilienceOptions, ltl::CheckOptions) and its own report
// type, and every frontend (pnpv, the examples) re-plumbed budgets,
// generator reuse and property texts by hand. A Session owns the four
// things a design-iterate-verify loop actually shares across runs:
//
//   * one RunConfig  -- the single source of truth for budgets, search
//     shape, properties and observability destinations. The old option
//     structs remain the engine-facing ABI but are now derived views
//     (RunConfig::verify_options() etc.), so a flag lands in exactly one
//     place.
//   * one ModelGenerator -- component/block models survive plug-and-play
//     edits between runs, exactly as the paper's iteration loop assumes.
//   * one obs::Observer -- counters, phase timers, the TTY heartbeat and
//     the JSONL run ledger (see obs/obs.h) are attached once and every
//     run on the session is recorded through them. Its footprint stays
//     flat however many runs the session makes.
//   * one resident verdict cache -- RunConfig::cache_dir's file is read
//     once and kept loaded between verifies, re-read only when the
//     directory changes or another writer replaces the file.
//
// Each verify* call returns a RunReport: a flat list of RunChecks that
// subsumes the SafetyOutcome / SuiteReport / ResilienceReport stats
// duplication -- one shape to render, whatever kind of run produced it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "pnp/exec_budget.h"
#include "pnp/generator.h"
#include "pnp/verifier.h"

namespace pnp {

/// Everything one verification run needs, in one struct. Budget fields
/// (max_states, deadline_seconds, memory_budget_bytes, threads) are
/// inherited from ExecBudget -- the same definition VerifyOptions and
/// ltl::CheckOptions consume.
struct RunConfig : ExecBudget {
  // -- search shape (see VerifyOptions for the fine print) --
  bool check_deadlock = true;
  bool por = false;
  bool bfs = false;
  bool degrade = true;
  std::uint64_t bitstate_bytes = std::uint64_t{1} << 26;
  MinimizeMode minimize = MinimizeMode::Off;
  GenOptions gen{};
  /// Successor-generation engine: bytecode (the default: threaded
  /// interpreter, always available), interp (the reference interpreter the
  /// library option structs default to), or aot (per-model compiled .so,
  /// cached under cache_dir, falling back to bytecode without a host
  /// toolchain). Deliberately excluded from digest(): engines are verdict-
  /// and state-count-equivalent by construction, so checkpoints and cached
  /// verdicts written under one engine stay valid under another.
  codegen::EngineKind engine = codegen::EngineKind::Bytecode;

  // -- properties (texts; each frontend resolves them in its own scope) --
  std::string invariant_text;
  std::string end_invariant_text;
  std::vector<std::pair<std::string, std::string>> props;
  std::vector<std::string> ltl;
  bool ltl_weak_fairness = false;
  bool connector_protocols = true;

  // -- persistence + observability --
  /// Verdict cache; empty = recompute everything. A Session keeps it loaded
  /// between verifies and re-reads it only when this changes or another
  /// writer replaces the file (VerificationCache::refresh).
  std::string cache_dir;
  /// Caller-owned verdict cache taking precedence over cache_dir (see
  /// SuiteOptions::cache): pnpd points every worker's session here so the
  /// whole pool shares one store. Not owned; excluded from digest() like
  /// cache_dir -- where a verdict is remembered cannot change it.
  reduce::VerificationCache* shared_cache = nullptr;
  std::string ledger_dir;  // JSONL run ledger + trail files; empty = off
  bool heartbeat = true;   // TTY progress ticker (auto-suppressed when
                           // stderr is not a terminal)
  bool heartbeat_force = false;  // emit the ticker even when not a TTY
  double heartbeat_seconds = 1.0;

  /// Thin engine-facing views. The returned structs carry no Observer --
  /// Session fills that in; standalone callers may too.
  VerifyOptions verify_options() const;
  SuiteOptions suite_options() const;
  /// Resilience fans threads out across fault variants (jobs = threads,
  /// each variant's own search sequential): the variants are many and
  /// small, so variant-level parallelism is the useful axis.
  ResilienceOptions resilience_options() const;
  ltl::CheckOptions ltl_options() const;

  /// Stable hex digest of every field that can change a verdict or its
  /// confidence (budgets, search shape, property texts; NOT threads or the
  /// observability destinations). This is the "config" field of the run
  /// ledger, so runs can be grouped/diffed by effective configuration.
  std::string digest() const;
};

/// One check inside a run: a connector-protocol obligation, a global
/// safety/invariant/LTL property, a fault variant, or the fault-free
/// baseline. The flat shape every former report type maps onto.
struct RunCheck {
  std::string kind;   // "connector-protocol"|"safety"|"invariant"|
                      // "end-invariant"|"ltl"|"baseline"|"fault"
  std::string label;  // connector / property text / fault description
  bool passed = false;
  bool from_cache = false;
  std::string stage;  // ladder stage that produced the verdict
  std::uint64_t states_stored = 0;
  double seconds = 0.0;
  /// Full sub-report (stats, degradation stages, counterexample trace).
  /// Empty for cache hits -- the cache stores verdicts, not traces.
  std::string detail;
  /// Resolved successor backend ("interp"/"bytecode"/"aot"; empty for
  /// cache hits, where no search ran) and the fallback note when the
  /// resolution differs from the request.
  std::string engine;
  std::string engine_note;
};

struct RunReport {
  std::string subject;        // architecture or model name
  std::string mode;           // "suite" | "resilience" | "machine"
  std::string config_digest;  // RunConfig::digest() at run time
  bool passed = true;
  double seconds = 0.0;  // wall time of the whole run
  std::vector<RunCheck> checks;
  GenStats gen_stats;  // generation cost attributable to this run
  std::optional<reduce::ReductionStats> reduction;
  std::string ledger_path;  // set when the session writes a ledger
  std::string trail_path;   // first counterexample trail file written

  int cache_hits() const;
  int recomputed() const;
  /// Human-readable rendering: one verdict line per check, failure details
  /// inline, generation + cache summary at the bottom.
  std::string report() const;
};

class Session {
 public:
  /// Sinks (heartbeat, ledger) are attached lazily on the first run, from
  /// the config as it stands then; budgets and properties may be edited
  /// between runs via config().
  explicit Session(RunConfig cfg = {});

  RunConfig& config() { return cfg_; }
  const RunConfig& config() const { return cfg_; }

  /// The session-owned generator: share it to keep component/block model
  /// reuse across plug-and-play edits (every verify* call on this session
  /// already does).
  ModelGenerator& generator() { return gen_; }
  obs::Observer& observer() { return obs_; }

  /// Path of the JSONL ledger, once a run has been recorded to one.
  const std::string& ledger_path() const { return ledger_path_; }

  /// The verdict cache kept loaded for config().cache_dir between verifies
  /// (null until a verify() used one; a shared_cache is never loaded here).
  const reduce::VerificationCache* verdict_cache() const {
    return cache_.get();
  }

  /// Record runs through a caller-constructed ledger sink instead of
  /// opening one from config().ledger_dir. pnpd uses this to point every
  /// worker session at the daemon's shared ledger file (each worker gets
  /// its own sink instance -- record assembly is per-run state -- opened
  /// with torn-tail recovery disabled; the daemon repairs the file once at
  /// startup). Must be called before the first verify* call.
  void attach_ledger(std::shared_ptr<obs::LedgerSink> sink);

  /// Cancellation hook: `flag` (not owned, may be null) is polled by the
  /// engines; when it becomes true the current run parks exactly like a
  /// pnpv SIGINT -- final checkpoint if configured, clean ledger record
  /// stamped "interrupted", partial RunReport returned. pnpd points this at
  /// the per-job cancel flag so a client disconnect aborts the job.
  void set_interrupt(const std::atomic<bool>* flag) { cfg_.interrupt = flag; }

  /// True when opening the ledger truncated a torn (crash-partial) final
  /// line left by a process that died mid-append -- surfaced so frontends
  /// can tell the user the previous run's record was lost.
  bool ledger_recovered_torn() const {
    return ledger_sink_ != nullptr && ledger_sink_->recovered_torn_line();
  }

  /// Verify `arch` as an obligation suite: per-connector protocol
  /// obligations plus the global properties from the config, consulting
  /// the verdict cache when cache_dir is set.
  RunReport verify(const Architecture& arch);

  /// What a source text is: an ADL architecture or a PML model. Auto sniffs
  /// from the subject's file suffix (.arch/.pml), falling back to the first
  /// keyword in the text ("architecture" before "proctype" reads as ADL).
  enum class SourceKind : std::uint8_t { Auto, Arch, Pml };

  /// Job-granular entry point: parse `text` (ADL or PML per `kind`) and
  /// verify it under this session's config -- one call from source to
  /// RunReport, the unit of work a pnpd job maps onto. ADL sources run the
  /// obligation suite (or the resilience suite when `resilience` is set);
  /// PML sources run the combined machine check, resolving the config's
  /// property texts in the model's scope. Parse errors raise ModelError.
  RunReport verify_source(std::string subject, const std::string& text,
                          SourceKind kind = SourceKind::Auto,
                          bool resilience = false);

  /// Verify `arch` under injected faults (empty = default_fault_suite),
  /// plus the fault-free baseline.
  RunReport verify_resilience(const Architecture& arch,
                              std::vector<FaultSpec> faults = {});

  /// Resolves invariant/proposition texts from the config into expression
  /// refs in the subject machine's scope (pml::parse_global_expr for .pml
  /// models, ModelGenerator::parse_expr_text for generated ones).
  using ExprParser = std::function<expr::Ref(const std::string&)>;

  /// Verify a raw machine (the .pml frontend): one combined safety ladder
  /// (assertions, deadlock, invariant, end-invariant in a single pass)
  /// plus each LTL formula from the config.
  RunReport verify_machine(const kernel::Machine& m, std::string subject,
                           const ExprParser& parse_expr);

  /// verify() / verify_machine(), but re-entering an interrupted run: each
  /// exact search loads its pnp.ckpt.v1 snapshot from cfg_.checkpoint_dir
  /// (per-section checksums and the RunConfig digest are validated; a
  /// corrupted snapshot or an edited config is a ModelError, never a
  /// silent fresh start) and continues from the saved frontier. When no
  /// snapshot exists yet this is exactly a fresh verify, so supervisors
  /// can call resume() unconditionally. Requires cfg_.checkpoint_dir.
  RunReport resume(const Architecture& arch);
  RunReport resume_machine(const kernel::Machine& m, std::string subject,
                           const ExprParser& parse_expr);

 private:
  void ensure_sinks();
  /// The cache for this verify: the caller's shared_cache, else the
  /// resident cache of cfg_.cache_dir (loaded or refreshed), else null.
  reduce::VerificationCache* verdict_cache_for_run();
  RunReport begin_run(const std::string& subject, const char* mode);
  /// Seals the report (verdict, wall time), writes trail files for failed
  /// checks, and emits RunFinished (which flushes the ledger record).
  void finish_run(RunReport& rep,
                  std::chrono::steady_clock::time_point started);

  RunConfig cfg_;
  ModelGenerator gen_;
  obs::Observer obs_;
  bool sinks_ready_ = false;
  std::string ledger_path_;
  std::shared_ptr<obs::LedgerSink> ledger_sink_;
  std::unique_ptr<reduce::VerificationCache> cache_;
  std::string cache_dir_;  // the directory cache_ was loaded from
  int runs_ = 0;  // per-session run ordinal, names trail files
};

}  // namespace pnp
