// Machine: a compiled system ready for execution -- owns the compiled
// proctypes and produces initial states and successors with full Promela
// interleaving semantics (rendezvous handshakes, buffered channels, `else`,
// atomic regions, sorted sends, random/copy receives).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "compile/compiler.h"
#include "kernel/state.h"
#include "model/system.h"

namespace pnp::kernel {

/// What a single interleaving step did, for traces and MSC rendering.
struct StepEvent {
  enum class Kind : std::uint8_t { Local, Send, Recv, Handshake };
  Kind kind{Kind::Local};
  int chan{-1};
  std::vector<Value> msg;  // message moved by this step, if any
};

struct Step {
  int pid{-1};
  int trans{-1};           // index into the executing proc's transition list
  int partner_pid{-1};     // rendezvous receiver, if any
  int partner_trans{-1};
  StepEvent event;
  bool assert_failed{false};
};

using Succ = std::pair<State, Step>;

/// Receives successors one at a time during streaming generation. `ns` and
/// `step` live in the caller's SuccScratch and are valid only for the
/// duration of the call -- copy them to keep them. Return false to abort
/// generation early (remaining candidates are skipped).
class SuccSink {
 public:
  virtual bool on_successor(const State& ns, const Step& step) = 0;

 protected:
  ~SuccSink() = default;
};

/// Copies every successor it is handed into `out` (the vector-building
/// API on top of the streaming one).
class CollectSink final : public SuccSink {
 public:
  explicit CollectSink(std::vector<Succ>& out) : out_(out) {}
  bool on_successor(const State& ns, const Step& step) override {
    out_.emplace_back(ns, step);
    return true;
  }

 private:
  std::vector<Succ>& out_;
};

/// Per-caller scratch for mutate-and-revert successor generation: one State
/// buffer plus an undo log, so producing a successor costs only the slots
/// the step touches instead of a full state-vector copy. Reuse one instance
/// across visit_successors() calls to keep buffer capacity warm. The fields
/// are internal to the kernel successor generator.
struct SuccScratch {
  State state;
  std::vector<std::pair<int, Value>> undo;  // (slot, previous value)
  Step step;  // reused so event.msg keeps its capacity
};

class Machine {
 public:
  /// Compiles `sys`; the spec must outlive the machine.
  explicit Machine(const model::SystemSpec& sys);

  /// Uses `precompiled` proctypes (index-aligned with sys.proctypes)
  /// instead of recompiling; used by the incremental model generator.
  Machine(const model::SystemSpec& sys,
          std::vector<compile::CompiledProc> precompiled);

  /// Drop-in proctype substitution: a machine over the same spec (and the
  /// same processes, channels, and globals) whose control flow comes from
  /// `procs` instead of this machine's CFGs. Validates the substitution
  /// contract -- identical frame layout and parameter count per proctype,
  /// entry/transition pcs in range, adjacency consistent -- so a malformed
  /// replacement (e.g. a buggy minimizer) fails loudly here instead of
  /// corrupting the search. Used by reduce::ReducedMachine to re-inject
  /// bisimulation-quotient automata.
  Machine substitute(std::vector<compile::CompiledProc> procs) const;

  const model::SystemSpec& spec() const { return *sys_; }
  const Layout& layout() const { return layout_; }
  const std::vector<compile::CompiledProc>& compiled() const { return procs_; }
  int n_processes() const { return static_cast<int>(sys_->processes.size()); }
  const compile::CompiledProc& proc_of(int pid) const;
  const std::string& proc_name(int pid) const;

  State initial() const;

  /// Appends all successors of `s` to `out`. A successor whose Step has
  /// `assert_failed` set represents an assertion violation discovered while
  /// executing that step.
  void successors(const State& s, std::vector<Succ>& out) const;

  /// Streaming variant: each successor is materialized in `scratch` by
  /// mutate-and-revert and handed to `sink` in exactly the order
  /// successors() would append it. The sink may abort early by returning
  /// false. `s` must not alias `scratch.state`. Searches reach this through
  /// codegen::Engine; it stays the reference the engines are tested
  /// against.
  void visit_successors(const State& s, SuccScratch& scratch,
                        SuccSink& sink) const;

  /// Streams the successors produced by process `pid` only (used by POR and
  /// the atomic rule); returns true if at least one successor was produced
  /// (even if the sink then aborted).
  bool visit_successors_of(const State& s, int pid, SuccScratch& scratch,
                           SuccSink& sink) const;

  /// True if every process sits at a valid end-state pc (and, per Promela's
  /// strict -q interpretation, which we adopt, all buffered channels are
  /// empty is NOT required).
  bool is_valid_end(const State& s) const;

  /// Evaluates a closed expression (globals + channels only) on `s`.
  Value eval_global(expr::Ref e, const State& s) const;

  std::string describe_step(const Step& step) const;
  std::string format_state(const State& s) const;

 private:
  friend class SuccGen;
  const model::SystemSpec* sys_;
  std::vector<compile::CompiledProc> procs_;
  Layout layout_;
};

}  // namespace pnp::kernel
