// LTL model checking: product of the system with the Büchi automaton of the
// negated formula, searched for accepting cycles with the CVWY nested DFS.
#pragma once

#include <optional>
#include <string>

#include "codegen/engine.h"
#include "explore/explorer.h"
#include "kernel/machine.h"
#include "ltl/buchi.h"
#include "obs/obs.h"
#include "pnp/exec_budget.h"

namespace pnp::ltl {

/// Budgets come from the shared pnp::ExecBudget base, and the product
/// search runs under the safety searches' explore::Governor: max_states,
/// the deadline, the memory budget (product store + intern tables + DFS
/// stack) and `interrupt` stop it with complete = false and the matching
/// TruncationReason, and with `spill_dir` set the store and intern pools
/// spill to disk at 80% of the memory budget and the search goes on
/// exactly (Stats::spilled). threads enables racing nested-DFS workers,
/// each on an even share of the memory budget: each explores the same
/// product in an independently permuted order with its own exact store,
/// so the first to finish is authoritative (a violation is a real lasso;
/// a complete violation-free search proves the property) and cancels the
/// rest. 1 = the sequential search, 0 = hardware concurrency.
struct CheckOptions : ExecBudget {
  bool want_trace = true;
  /// Enforce weak process fairness (SPIN's -f): only consider executions
  /// where every continuously-enabled process eventually moves. Implemented
  /// with the Choueka copy construction, multiplying the product by
  /// (#processes + 2) -- use on small systems or be patient.
  bool weak_fairness = false;
  /// Observability context; null = no telemetry.
  obs::Observer* obs = nullptr;
  /// Compiled successor backend for the system side of the product search;
  /// Buchi stepping and proposition evaluation stay interpreted (they are
  /// cold). The engine is built once per check and shared by all racing
  /// workers (engines are immutable after construction and thread-safe
  /// through caller-owned scratch). `aot` falls back to `bytecode` when no
  /// toolchain is available; the resolution is recorded in LtlResult.
  codegen::EngineKind engine = codegen::EngineKind::Interp;
  /// Artifact cache directory for AOT engines (codegen::EngineOptions).
  std::string engine_cache_dir;
};

/// Designated initializers cannot reach into the ExecBudget base, so these
/// replace the historical `{.weak_fairness = true}` / `{.max_states = N}`
/// spellings at call sites.
inline CheckOptions fair() {
  CheckOptions c;
  c.weak_fairness = true;
  return c;
}
inline CheckOptions bounded(std::uint64_t max_states) {
  CheckOptions c;
  c.max_states = max_states;
  return c;
}

struct LtlResult {
  bool holds{false};  // true = property verified on all executions
  explore::Stats stats;
  /// Present when !holds: the lasso-shaped counterexample (prefix followed
  /// by a marked accepting cycle).
  std::optional<explore::Violation> violation;
  std::size_t buchi_states{0};
  std::string formula_text;
  /// Requested vs. resolved successor backend for the system side, plus the
  /// fallback explanation when they differ (e.g. "aot unavailable (no
  /// toolchain); using bytecode"). Engines never affect verdicts or trails.
  codegen::EngineKind engine_requested{codegen::EngineKind::Interp};
  codegen::EngineKind engine_actual{codegen::EngineKind::Interp};
  std::string engine_note;
};

/// Checks that `m` satisfies `phi` (passed positively; negation, automaton
/// construction, and the product search happen inside). Finite executions
/// are stutter-extended: a state without successors behaves as if it looped
/// on itself, so properties like `G p` are correctly falsified at
/// terminal states.
LtlResult check_ltl(const kernel::Machine& m, FormulaPool& pool,
                    const PropertyContext& ctx, FRef phi,
                    const CheckOptions& opt = {});

/// Convenience overload: parses `formula` against `ctx`.
LtlResult check_ltl(const kernel::Machine& m, const PropertyContext& ctx,
                    const std::string& formula, const CheckOptions& opt = {});

}  // namespace pnp::ltl
