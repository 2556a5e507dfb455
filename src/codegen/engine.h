// Successor-generation engines: the one seam every search generates
// successors through. An engine only generates successors; storing them
// (COLLAPSE delta keys from the undo log, the visited probe) is the
// search's, the same code under every engine.
//
// The kernel interprets the compiled CFG on every transition; InterpEngine
// (EngineKind::Interp) puts that interpreter behind the seam unchanged. The
// compiled engines are ahead-of-time specializations of it for ONE machine
// (SPIN's pan.c idea): guard and effect evaluation, channel operations, and
// the undo-logged scratch mutation are compiled down before the search
// starts.
//
// Equivalence contract (what every engine must guarantee, and what
// tests/test_codegen.cpp checks differentially against
// Machine::visit_successors, the reference):
//   * successors are byte-identical States emitted in the identical order;
//   * Step fields (pid/trans/partner/event/assert_failed) match;
//   * scratch.undo holds (slot, previous value) pairs covering every slot
//     the step wrote, valid DURING the sink callback (the explorer's
//     COLLAPSE delta compression reads it there), and the scratch state is
//     reverted after the sink returns;
//   * scratch.state.atomic_pid is the successor's atomic holder per emit;
//   * division/modulo by zero raises the interpreter's exact ModelError.
//
// Engines never change verdicts, state counts, or trails -- which is why
// RunConfig::digest() excludes the engine choice and checkpoints written
// under one engine resume cleanly under another (states are raw value
// arrays; see the portability tests in test_codegen.cpp).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/machine.h"

namespace pnp::obs {
class Observer;
}

namespace pnp::codegen {

enum class EngineKind : std::uint8_t {
  Interp,    // the kernel interpreter behind the seam (InterpEngine)
  Bytecode,  // threaded-bytecode expression programs + table-driven driver
  Aot,       // generated C++ translation unit, compiled and dlopen'd
};

const char* engine_kind_name(EngineKind k);

/// Parses "interp" / "bytecode" / "aot"; returns false on anything else.
bool parse_engine_kind(std::string_view text, EngineKind* out);

/// A compiled successor generator over one machine. Thread-safe: the
/// compiled tables are immutable, and all per-call state lives in the
/// caller's scratch (parallel workers share one engine).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual EngineKind kind() const = 0;
  const kernel::Machine& machine() const { return *m_; }

  /// Drop-in for Machine::visit_successors (same streaming contract).
  ///
  /// `skip` suppresses the first `skip` candidates without surfacing them:
  /// they are enumerated (so candidate indices and any/else bookkeeping are
  /// unchanged) but not mutated into successors or passed to the sink. The
  /// pass-based DFS revisits a frame once per child and re-streams the
  /// frame's candidates each time; candidates below the frame's resume
  /// point were paying full mutate/emit/revert just to be dropped by the
  /// sink -- on the bridge benchmark that is ~73% extra generated
  /// successors. The interpreter has no native skip: InterpEngine drops the
  /// first `skip` candidates at the sink instead.
  ///
  /// `resume` is an optional in/out fast-forward token. On entry, a token
  /// written by the previous visit of the SAME state lets the engine start
  /// its sweep at the process where the previous visit stopped, instead of
  /// re-evaluating (and suppressing) every earlier process's guards; 0
  /// means sweep from the start. On return, the engine stores its new stop
  /// position (or 0 when it has nothing to offer). Tokens are a pure
  /// optimization: a process's candidates and any/else flags depend only on
  /// the state, never on other processes' sweeps, so jumping is observably
  /// identical to suppressing -- and an engine may ignore the token
  /// entirely (InterpEngine only clears it). Callers must pass a token only
  /// with the state that produced it and a `skip` >= the token's candidate
  /// base.
  virtual void visit_successors(const kernel::State& s,
                                kernel::SuccScratch& scratch,
                                kernel::SuccSink& sink,
                                std::uint32_t skip = 0,
                                std::uint64_t* resume = nullptr) const = 0;

  /// Drop-in for Machine::visit_successors_of, with the same native `skip`
  /// semantics as visit_successors: the pass-based DFS re-streams a POR
  /// frame's chosen-pid candidates once per child, and candidates below the
  /// frame's resume point are suppressed without mutate/emit/revert. No
  /// resume token: a single process's sweep has no earlier processes to
  /// fast-forward past (the full-expansion overload above carries the
  /// token for choice-less frames).
  virtual bool visit_successors_of(const kernel::State& s, int pid,
                                   kernel::SuccScratch& scratch,
                                   kernel::SuccSink& sink,
                                   std::uint32_t skip = 0) const = 0;

  /// Resume-token encoding shared by the engines: the stopped-at process
  /// and the number of candidates enumerated before that process began.
  static std::uint64_t encode_resume(int pid, std::uint32_t base) {
    return ((static_cast<std::uint64_t>(pid) + 1) << 32) | base;
  }
  /// Returns the token's process, or -1 for the empty token.
  static int resume_pid(std::uint64_t tok) {
    return static_cast<int>(tok >> 32) - 1;
  }
  static std::uint32_t resume_base(std::uint64_t tok) {
    return static_cast<std::uint32_t>(tok);
  }

 protected:
  explicit Engine(const kernel::Machine& m) : m_(&m) {}
  const kernel::Machine* m_;
};

struct EngineOptions {
  EngineKind kind = EngineKind::Interp;
  /// AOT artifact cache directory; content-addressed .so modules land
  /// here. Empty uses a per-user directory under the system temp dir.
  std::string cache_dir;
  /// Host C++ compiler for the AOT backend. Empty consults $PNP_AOT_CXX,
  /// then falls back to the compiler this library was built with / c++.
  std::string cxx;
  /// When true, a failure to produce the requested engine raises ModelError
  /// instead of falling back down the ladder (used when resuming a
  /// checkpoint with --engine aot: the user asked for a specific engine and
  /// silently reinterpreting would belie the request).
  bool strict = false;
  /// Compile-phase events and counters (CodegenCompiles / CodegenCacheHits /
  /// CodegenFallbacks) land here when set.
  obs::Observer* obs = nullptr;
};

/// Builds the requested engine over `m` (which must outlive the engine).
///
/// Fallback ladder: `aot` falls back to `bytecode` when no host toolchain
/// is available, compilation fails, or the machine uses a construct the
/// emitter does not specialize (dynamic channel-id expressions); `bytecode`
/// and `interp` always succeed, so the result is never null. With
/// opt.strict, any fallback raises ModelError instead. When `note` is
/// non-null it receives a one-line explanation of any fallback taken.
std::unique_ptr<Engine> make_engine(const kernel::Machine& m,
                                    const EngineOptions& opt,
                                    std::string* note = nullptr);

/// Content digest of everything that determines a machine's successor
/// semantics: layout, channel shapes, compiled transition tables (with
/// expressions serialized structurally), and per-process spawn arguments.
/// This -- not the RunConfig digest, which identifies a verification job
/// rather than a machine -- addresses the AOT artifact cache: two runs over
/// the same block library reuse one compiled .so regardless of budgets or
/// properties.
std::string machine_digest(const kernel::Machine& m);

}  // namespace pnp::codegen
