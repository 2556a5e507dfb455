#include "explore/por.h"

#include "codegen/engine.h"

namespace pnp::explore {

namespace {

/// Streams one process's successors and decides whether it qualifies as an
/// ample candidate: every successor must be a purely-local step, and (when
/// the C3 proviso applies) none may land back on the DFS stack. Aborts the
/// generation pass at the first disqualifying successor -- the decision is
/// a conjunction over all successors, so early exit cannot change it.
class AmpleProbe final : public kernel::SuccSink {
 public:
  AmpleProbe(const kernel::Machine& m, int pid, const OnStackFn* on_stack)
      : cp_(m.proc_of(pid)), on_stack_(on_stack) {}

  bool on_successor(const kernel::State& ns,
                    const kernel::Step& step) override {
    produced_ = true;
    if (step.partner_pid >= 0 ||
        !cp_.trans[static_cast<std::size_t>(step.trans)].local_only) {
      ok_ = false;
      return false;
    }
    if (on_stack_ && (*on_stack_)(ns)) {
      ok_ = false;  // C3: would close a cycle on the stack
      return false;
    }
    return true;
  }

  bool candidate() const { return produced_ && ok_; }

 private:
  const compile::CompiledProc& cp_;
  const OnStackFn* on_stack_;
  bool produced_ = false;
  bool ok_ = true;
};

}  // namespace

int por_choose(const codegen::Engine& engine, const kernel::State& s,
               const OnStackFn* on_stack, kernel::SuccScratch& scratch) {
  // Atomic regions already restrict interleaving; let the machine handle them.
  if (s.atomic_pid >= 0) return -1;
  const kernel::Machine& m = engine.machine();
  for (int pid = 0; pid < m.n_processes(); ++pid) {
    AmpleProbe probe(m, pid, on_stack);
    engine.visit_successors_of(s, pid, scratch, probe);
    if (probe.candidate()) return pid;
  }
  return -1;
}

void por_visit(const codegen::Engine& engine, const kernel::State& s,
               int choice, kernel::SuccScratch& scratch,
               kernel::SuccSink& sink, std::uint32_t skip,
               std::uint64_t* resume) {
  if (choice < 0)
    engine.visit_successors(s, scratch, sink, skip, resume);
  else
    engine.visit_successors_of(s, choice, scratch, sink, skip);
}

}  // namespace pnp::explore
