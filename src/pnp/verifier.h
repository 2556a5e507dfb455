// Design-time verification facade: safety (assertions, deadlock, state
// invariants) and LTL checking over a generated model, with human-readable
// reports for the design-iterate-verify loop of the paper's section 4.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "codegen/engine.h"
#include "explore/explorer.h"
#include "ltl/product.h"
#include "obs/obs.h"
#include "pnp/exec_budget.h"
#include "pnp/generator.h"
#include "reduce/cache.h"
#include "reduce/reduce.h"

namespace pnp {

/// Per-process minimization applied before exploration (src/reduce). Off =
/// the historical search. Strong = strong-bisimulation quotient, sound for
/// every obligation including LTL. Weak = strong quotient plus contraction
/// of deterministic internal skip steps -- a coarser (or equal) quotient
/// that preserves assertions, deadlock, state/end invariants and crash
/// reachability, but NOT stutter-sensitive LTL; LTL checks therefore always
/// use Strong, whichever mode was requested (see DESIGN.md section 10).
enum class MinimizeMode : std::uint8_t { Off, Strong, Weak };

const char* to_string(MinimizeMode m);

/// Budget fields (max_states, deadline_seconds, memory_budget_bytes,
/// threads) are inherited from ExecBudget -- the single definition shared
/// with ltl::CheckOptions and Session's RunConfig. The historical spellings
/// (`opt.max_states`, `opt.threads`, ...) still work; they are now the
/// deprecated aliases for the inherited members. With threads > 1 the exact
/// rung uses the sharded-visited-set parallel engine and the bitstate rung
/// becomes a swarm of independently seeded searches (stage names change to
/// "exact-parallel" / "swarm-bitstate" accordingly).
struct VerifyOptions : ExecBudget {
  bool check_deadlock = true;
  bool por = false;
  bool bfs = false;  // shortest counterexamples
  /// Degradation ladder: when the exact search is truncated (by max_states,
  /// the deadline, or the memory budget) without finding a violation, retry
  /// with bitstate hashing and a widened filter so the caller still gets
  /// high-coverage approximate answers instead of a silent partial result.
  bool degrade = true;
  /// Bloom-filter size for the bitstate fallback stage. Under a memory
  /// budget the stage gets at most half of what the budget leaves, split
  /// across swarm workers, so the filter never outgrows the budget.
  std::uint64_t bitstate_bytes = std::uint64_t{1} << 26;
  /// Minimize every proctype (ladder stage names gain a "minimized-"
  /// prefix, e.g. "minimized-exact"). The composed machine then explores
  /// the product of the quotient automata; verdicts are unchanged (see
  /// MinimizeMode for the soundness fine print).
  MinimizeMode minimize = MinimizeMode::Off;
  /// Observability context (counters, phase events, heartbeat/ledger
  /// sinks); null = no telemetry, zero overhead. Not part of the verdict
  /// cache key (see ObligationKey): telemetry cannot change a verdict.
  obs::Observer* obs = nullptr;
  /// Precomputed configuration digest used to address checkpoints
  /// (pnp::Session passes RunConfig::digest()); empty = the ladder derives
  /// one from the verdict-relevant budget fields. Either way the property
  /// name is folded in, so two obligations never share a checkpoint.
  std::string config_digest;
  /// Successor-generation engine for the ladder's searches (see
  /// src/codegen/engine.h). Engines are verdict-, state-count- and
  /// successor-order-equivalent to the interpreter by construction (the
  /// equivalence suite enforces it), so this is NOT part of any verdict
  /// cache key, config digest, or checkpoint identity: a checkpoint written
  /// under one engine resumes under another. Aot silently falls back to
  /// Bytecode when no host toolchain is available -- except on resume,
  /// where the fallback is an error (see run_ladder): a resumed search must
  /// never be silently reinterpreted under a different engine than asked.
  codegen::EngineKind engine = codegen::EngineKind::Interp;
  /// Directory for compiled AOT artifacts (content-addressed .so
  /// modules, keyed by the machine digest); empty = a shared directory under
  /// the system temp dir. pnp::Session points this at RunConfig::cache_dir,
  /// so verdicts and artifacts share one `--cache-dir`.
  std::string engine_cache_dir;
};

/// Convenience for the common "just bound the search" call sites:
/// designated initializers cannot reach into the ExecBudget base, so
/// `check_safety(m, bounded(5'000'000))` replaces the historical
/// `{.max_states = 5'000'000}` spelling.
inline VerifyOptions bounded(std::uint64_t max_states) {
  VerifyOptions v;
  v.max_states = max_states;
  return v;
}

/// One rung of the verification degradation ladder.
struct VerifyStage {
  std::string name;  // "exact"/"exact-parallel" or "bitstate"/"swarm-bitstate"
  explore::Stats stats;
};

struct SafetyOutcome {
  std::string property_name;
  /// Result of the final stage that ran (the authoritative verdict: a
  /// violation found by any stage is real; bitstate can only miss states).
  explore::Result result;
  /// Every stage that ran, in order (one entry unless the ladder fired).
  std::vector<VerifyStage> stages;
  /// Per-process reduction statistics when a minimized rung ran.
  std::optional<reduce::ReductionStats> reduction;
  /// Requested vs. resolved successor backend plus the fallback reason when
  /// they differ (e.g. "aot unavailable (no toolchain); using bytecode").
  /// Purely informational -- engines never change verdicts -- which is why
  /// this lives in the outcome and NOT in any cache key or digest.
  codegen::EngineKind engine_requested{codegen::EngineKind::Interp};
  codegen::EngineKind engine_actual{codegen::EngineKind::Interp};
  std::string engine_note;

  bool passed() const { return result.ok(); }
  /// True when the exact search was truncated and the bitstate rung ran.
  bool degraded() const { return stages.size() > 1; }
  /// Multi-line report: verdict, state counts, degradation stages, and the
  /// counterexample trace when the property failed.
  std::string report() const;
};

/// Checks assertions + absence of invalid end states.
SafetyOutcome check_safety(const kernel::Machine& m, VerifyOptions opt = {});

/// Additionally checks that `invariant` holds in every reachable state.
SafetyOutcome check_invariant(const kernel::Machine& m, expr::Ex invariant,
                              std::string name, VerifyOptions opt = {});

/// Checks that every TERMINAL state satisfies `inv` ("when the system
/// finishes, X has happened") -- the fairness-free way to state many
/// progress claims.
SafetyOutcome check_end_invariant(const kernel::Machine& m, expr::Ex inv,
                                  std::string name, VerifyOptions opt = {});

/// Optional invariants for check_machine(); kNoExpr skips either one.
struct SafetyProps {
  expr::Ref invariant = expr::kNoExpr;  // over globals/channels
  std::string invariant_name;
  expr::Ref end_invariant = expr::kNoExpr;  // over terminal states only
  std::string end_invariant_name;
};

/// Combined single-pass check used by pnp::Session and pnpv for raw
/// machines: assertions, invalid-end-state detection (per
/// opt.check_deadlock), and the optional invariants of `props`, all in ONE
/// ladder run -- one exploration instead of three. With no invariants this
/// is exactly check_safety().
SafetyOutcome check_machine(const kernel::Machine& m,
                            const SafetyProps& props = {},
                            VerifyOptions opt = {});

struct LtlOutcome {
  ltl::LtlResult result;

  bool passed() const { return result.holds; }
  /// The stage that answered, `[minimized-]ltl-product[-spill]`: the
  /// product search, on the strong quotient when `minimized`, whose stores
  /// went to disk when it spilled.
  std::string stage(bool minimized) const;
  std::string report() const;
};

/// Checks the LTL formula text (propositions from `props`) on `m`.
/// Set `opt.weak_fairness` for liveness properties that only hold under
/// fair scheduling.
LtlOutcome check_ltl_formula(const kernel::Machine& m,
                             const ltl::PropertyContext& props,
                             const std::string& formula,
                             ltl::CheckOptions opt = {});

// -- cached obligation-suite verification --------------------------------------
// Decomposes "verify this design" into content-addressed obligations (see
// reduce/cache.h): one local port-protocol obligation per connector, whose
// cache key covers only that connector's slice of the design, plus the
// global obligations (safety, invariants, LTL), keyed by the whole design.
// With a cache directory set, a re-run of an unchanged design answers every
// obligation from the cache, and a plug-and-play connector swap re-verifies
// only the swapped connector's protocol obligation and the globals.

struct SuiteOptions {
  VerifyOptions verify{};
  GenOptions gen{};
  /// State invariant over the architecture's globals/channels (PML
  /// expression text); empty = skip.
  std::string invariant_text;
  /// Invariant required only of terminal states; empty = skip.
  std::string end_invariant_text;
  /// Named propositions (name, PML expression) for the LTL formulas.
  std::vector<std::pair<std::string, std::string>> props;
  /// LTL formulas over `props`. Checked with Strong minimization whenever
  /// `verify.minimize` is not Off (Weak is unsound for LTL).
  std::vector<std::string> ltl;
  bool ltl_weak_fairness{false};
  /// Verify each connector's port protocol in isolation on a small driver
  /// harness (these are the obligations that survive unrelated edits).
  bool connector_protocols{true};
  /// Verdict cache directory; empty = verify everything, cache nothing.
  std::string cache_dir;
  /// Caller-owned cache instance, taking precedence over cache_dir. This is
  /// how pnpd shares ONE persistent VerificationCache across its whole
  /// worker pool (the instance is thread-safe, see reduce/cache.h): every
  /// job's suite consults and fills the same store, so two clients
  /// submitting the same design pay for its obligations once. Not owned.
  reduce::VerificationCache* cache = nullptr;
};

struct ObligationResult {
  std::string kind;    // "connector-protocol"|"safety"|"invariant"|...
  std::string label;   // connector name / property text
  std::string digest;  // content address (reduce::ObligationKey::digest)
  bool passed{false};
  bool from_cache{false};
  std::string stage;  // ladder stage that produced the verdict
  std::uint64_t states_stored{0};
  double seconds{0.0};  // original verification cost (even on a hit)
  /// Full per-obligation report; only populated when verified this run
  /// (the cache stores verdicts, not counterexamples).
  std::string detail;
  /// Resolved successor backend name ("interp"/"bytecode"/"aot") and the
  /// fallback note when it differs from the request. Empty on cache hits
  /// (the cache stores verdicts; the engine cannot change them).
  std::string engine;
  std::string engine_note;
};

struct SuiteReport {
  std::string architecture;
  std::vector<ObligationResult> obligations;
  GenStats gen_stats;
  /// Reduction achieved on the global safety obligation, when a minimized
  /// rung actually ran this invocation.
  std::optional<reduce::ReductionStats> reduction;

  int cache_hits() const;
  int recomputed() const;
  bool all_passed() const;
  std::string report() const;
};

/// Verifies every obligation of `arch`, consulting/filling the verdict
/// cache when `opts.cache_dir` is set. Pass `gen` to reuse a caller-owned
/// ModelGenerator across suites (pnp::Session does; component and block
/// models survive plug-and-play swaps); null uses a private one.
SuiteReport verify_obligations(const Architecture& arch,
                               const SuiteOptions& opts = {},
                               ModelGenerator* gen = nullptr);

// -- resilience checking -------------------------------------------------------
// Verifies an architecture under injected connector/component faults (the
// fault-injection building blocks of blocks.h) and reports which faults the
// design tolerates. The faults are plug-and-play edits: component models
// are never touched, exactly like the paper's design-iteration loop.

enum class FaultKind : std::uint8_t {
  MessageLoss,         // channel may drop any message (DroppingFifo)
  MessageDuplication,  // channel may deliver a message twice (DuplicatingFifo)
  MessageReorder,      // channel dequeues in any order (ReorderingFifo)
  SendTimeout,         // send port gives up after bounded retries (TimeoutRetry)
  CrashRestart,        // component process may crash and restart from scratch
};

const char* to_string(FaultKind k);

struct FaultSpec {
  FaultKind kind{FaultKind::MessageLoss};
  /// Connector name for the channel faults, component name for
  /// CrashRestart, "component.port" for SendTimeout.
  std::string target;
  /// CrashRestart: max crashes (default 1). SendTimeout: retry bound
  /// (default 2). Ignored by the channel faults.
  int budget{0};
};

struct ResilienceOptions {
  VerifyOptions verify{};
  /// Optional state invariant (a PML expression over the architecture's
  /// globals and channels) checked under every fault model; empty =
  /// assertions + deadlock only.
  std::string invariant_text;
  /// Also verify the fault-free architecture (recommended: a fault outcome
  /// is only meaningful if the baseline passes).
  bool include_baseline{true};
  GenOptions gen{};
  /// Fault variants verified concurrently: 1 = sequential, 0 = hardware
  /// concurrency. Generation stays sequential on the shared ModelGenerator
  /// (preserving the build-once/reuse accounting); each variant is then
  /// verified on its own snapshot, so verdicts are identical to a
  /// sequential run at any job count.
  int jobs{1};
};

struct FaultOutcome {
  FaultSpec fault;
  std::string description;  // human-readable, e.g. "message loss on 'Link'"
  SafetyOutcome outcome;

  bool tolerated() const { return outcome.passed(); }
};

struct ResilienceReport {
  std::string architecture;
  std::optional<SafetyOutcome> baseline;
  std::vector<FaultOutcome> faults;
  /// Aggregate generation stats across all fault variants -- shows the
  /// plug-and-play reuse (component models are generated once).
  GenStats gen_stats;

  bool baseline_passed() const { return !baseline || baseline->passed(); }
  bool all_tolerated() const;
  std::string report() const;
};

/// The standard fault suite: loss + duplication + reorder per connector,
/// a SendTimeout per sender attachment, and a single-crash fault per
/// component. Event-pool connectors are skipped (their per-subscriber
/// queues are inherently lossy, and the pool never rejects a publish).
std::vector<FaultSpec> default_fault_suite(const Architecture& arch);

/// Verifies `arch` under each fault model in `faults`, plus the fault-free
/// baseline. All variants share one ModelGenerator, so unchanged component
/// and block models are built exactly once across the whole suite. Pass
/// `gen` to share a caller-owned generator (pnp::Session); null uses a
/// private one.
ResilienceReport check_resilience(const Architecture& arch,
                                  const std::vector<FaultSpec>& faults,
                                  ResilienceOptions opts = {},
                                  ModelGenerator* gen = nullptr);

}  // namespace pnp
