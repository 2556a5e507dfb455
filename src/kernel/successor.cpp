#include <algorithm>
#include <sstream>

#include "kernel/machine.h"
#include "support/panic.h"

namespace pnp::kernel {

namespace {

using compile::CompiledProc;
using compile::OpKind;
using compile::Transition;
using model::RecvArg;
using model::RecvArgKind;

class ChanView final : public expr::ChannelView {
 public:
  ChanView(const Layout& lay, const State& s) : lay_(lay), s_(s) {}

  int chan_len(int chan) const override { return lay_.chan_len(s_, chan); }
  int chan_capacity(int chan) const override {
    return lay_.chan_capacity(chan);
  }

 private:
  const Layout& lay_;
  const State& s_;
};

}  // namespace

Machine::Machine(const model::SystemSpec& sys)
    : sys_(&sys), procs_(compile::compile(sys)), layout_(sys) {}

Machine::Machine(const model::SystemSpec& sys,
                 std::vector<compile::CompiledProc> precompiled)
    : sys_(&sys), procs_(std::move(precompiled)), layout_(sys) {
  PNP_CHECK(procs_.size() == sys.proctypes.size(),
            "precompiled proctype count mismatch");
}

Machine Machine::substitute(std::vector<compile::CompiledProc> procs) const {
  PNP_CHECK(procs.size() == procs_.size(),
            "substitute: proctype count mismatch");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const CompiledProc& orig = procs_[i];
    const CompiledProc& sub = procs[i];
    // The state layout is sized from the ORIGINAL compilation: a
    // substitute may only reshape control flow, never the frame.
    PNP_CHECK(sub.n_params == orig.n_params &&
                  sub.frame_size == orig.frame_size &&
                  sub.frame_init == orig.frame_init,
              "substitute: frame layout changed for proctype " + orig.name);
    PNP_CHECK(sub.entry >= 0 && sub.entry < sub.n_pcs,
              "substitute: entry pc out of range for proctype " + orig.name);
    const std::size_t n_pcs = static_cast<std::size_t>(sub.n_pcs);
    PNP_CHECK(sub.atomic_at.size() == n_pcs && sub.valid_end.size() == n_pcs &&
                  sub.out.size() == n_pcs,
              "substitute: per-pc tables mis-sized for proctype " + orig.name);
    for (const compile::Transition& t : sub.trans)
      PNP_CHECK(t.src >= 0 && t.src < sub.n_pcs && t.dst >= 0 &&
                    t.dst < sub.n_pcs,
                "substitute: transition pc out of range for proctype " +
                    orig.name);
    for (std::size_t pc = 0; pc < n_pcs; ++pc)
      for (int ti : sub.out[pc])
        PNP_CHECK(ti >= 0 && ti < static_cast<int>(sub.trans.size()) &&
                      sub.trans[static_cast<std::size_t>(ti)].src ==
                          static_cast<int>(pc),
                  "substitute: adjacency inconsistent for proctype " +
                      orig.name);
  }
  return Machine(*sys_, std::move(procs));
}

const CompiledProc& Machine::proc_of(int pid) const {
  const model::ProcessInst& inst =
      sys_->processes[static_cast<std::size_t>(pid)];
  return procs_[static_cast<std::size_t>(inst.proctype)];
}

const std::string& Machine::proc_name(int pid) const {
  return sys_->processes[static_cast<std::size_t>(pid)].name;
}

State Machine::initial() const {
  State s = layout_.initial(*sys_);
  for (int pid = 0; pid < n_processes(); ++pid) {
    const CompiledProc& cp = proc_of(pid);
    layout_.set_pc(s, pid, cp.entry);
    // parameters are immutable and live in the instance table; only the
    // mutable locals occupy state slots
    for (std::size_t i = static_cast<std::size_t>(cp.n_params);
         i < cp.frame_init.size(); ++i)
      layout_.set_frame_slot(s, pid, static_cast<int>(i), cp.frame_init[i]);
  }
  return s;
}

namespace {

/// One successor-generation pass over a single state.
///
/// Successors are produced by mutate-and-revert: every candidate step is
/// applied to the shared scratch state while an undo log records each
/// (slot, previous value) pair it touches; after the sink has seen the
/// successor the log is replayed in reverse. A step touches a handful of
/// slots, so this replaces the historical full state-vector copy per
/// candidate with work proportional to the step itself. All guard and
/// field evaluation reads the ORIGINAL state `s_` (never the scratch), so
/// the emitted successors are byte-identical to the copy-based ones, in
/// the same order.
class SuccGen {
 public:
  SuccGen(const Machine& m, const State& s, SuccScratch& scratch,
          SuccSink& sink)
      : m_(m),
        sys_(m.spec()),
        lay_(m.layout()),
        s_(s),
        view_(lay_, s),
        scratch_(scratch),
        sink_(sink) {
    scratch_.state.mem.assign(s.mem.begin(), s.mem.end());
    scratch_.state.atomic_pid = s.atomic_pid;
    scratch_.undo.clear();
  }

  /// Expands one process; returns true if it produced any successor.
  bool expand(int pid) {
    const CompiledProc& cp = m_.proc_of(pid);
    const int pc = lay_.pc(s_, pid);
    const std::vector<int>& cands = cp.out[static_cast<std::size_t>(pc)];
    bool any = false;
    // Else suppression must ignore injected crash transitions: a crash is a
    // fault the modeled program cannot observe, so it must not change which
    // program branches are enabled.
    bool any_program = false;
    int else_ti = -1;
    for (int ti : cands) {
      if (stopped_) return any;
      const Transition& t = cp.trans[static_cast<std::size_t>(ti)];
      if (t.op == OpKind::Else) {
        else_ti = ti;
        continue;
      }
      if (try_exec(pid, ti, t)) {
        any = true;
        if (t.op != OpKind::Crash) any_program = true;
      }
    }
    if (!stopped_ && !any_program && else_ti >= 0) {
      emit_local(pid, else_ti, cp.trans[static_cast<std::size_t>(else_ti)]);
      any = true;
    }
    return any;
  }

  /// True once the sink aborted; remaining candidates are skipped.
  bool stopped() const { return stopped_; }

 private:
  expr::EvalEnv env(int pid) const {
    const std::vector<Value>& args =
        sys_.processes[static_cast<std::size_t>(pid)].args;
    return expr::EvalEnv{lay_.globals(s_), lay_.locals(s_, pid),
                         {args.data(), args.size()},
                         &view_,
                         static_cast<Value>(pid)};
  }

  int next_atomic(int pid, int dst, int partner_pid = -1,
                  int partner_dst = -1) const {
    if (m_.proc_of(pid).atomic_at[static_cast<std::size_t>(dst)]) return pid;
    if (partner_pid >= 0 &&
        m_.proc_of(partner_pid).atomic_at[static_cast<std::size_t>(partner_dst)])
      return partner_pid;
    return -1;
  }

  // -- scratch mutation with undo logging ------------------------------------
  State& ns() { return scratch_.state; }

  void save(int idx) {
    scratch_.undo.emplace_back(idx, ns().mem[static_cast<std::size_t>(idx)]);
  }
  void mut_slot(int idx, Value v) {
    save(idx);
    ns().mem[static_cast<std::size_t>(idx)] = v;
  }
  void mut_pc(int pid, int pc) { mut_slot(lay_.pc_slot(pid), pc); }
  void mut_frame(int pid, int slot, Value v) {
    mut_slot(lay_.frame_slot(pid, slot), v);
  }
  void mut_global(int slot, Value v) { mut_slot(slot, v); }
  /// Snapshots channel `c`'s whole region before a push/erase mutates it;
  /// capacities are small, so this stays cheap and covers every shift
  /// pattern (sorted insert, erase compaction) without per-case analysis.
  void save_chan(int c) {
    const auto [begin, count] = lay_.chan_region(c);
    for (int i = 0; i < count; ++i) save(begin + i);
  }

  void finish_mut(int pid, const Transition& t) {
    mut_pc(pid, t.dst);
    ns().atomic_pid = next_atomic(pid, t.dst);
  }

  void revert() {
    for (std::size_t i = scratch_.undo.size(); i-- > 0;)
      ns().mem[static_cast<std::size_t>(scratch_.undo[i].first)] =
          scratch_.undo[i].second;
    scratch_.undo.clear();
    ns().atomic_pid = s_.atomic_pid;
#ifndef NDEBUG
    // A missed undo entry would silently corrupt every later successor of
    // this state; the whole test suite runs with this net in place.
    PNP_CHECK(ns().mem == s_.mem, "successor scratch revert mismatch");
#endif
  }

  /// Hands the mutated scratch to the sink as one successor, then reverts.
  /// Returns false when the sink aborted generation.
  bool emit(int pid, int ti, bool assert_failed = false,
            StepEvent::Kind kind = StepEvent::Kind::Local, int chan = -1,
            const Value* fields = nullptr, int arity = 0, int partner_pid = -1,
            int partner_trans = -1) {
    Step& st = scratch_.step;
    st.pid = pid;
    st.trans = ti;
    st.partner_pid = partner_pid;
    st.partner_trans = partner_trans;
    st.assert_failed = assert_failed;
    st.event.kind = kind;
    st.event.chan = chan;
    if (fields)
      st.event.msg.assign(fields, fields + arity);
    else
      st.event.msg.clear();
    const bool keep_going = sink_.on_successor(ns(), st);
    revert();
    if (!keep_going) stopped_ = true;
    return keep_going;
  }

  bool emit_local(int pid, int ti, const Transition& t,
                  const model::Lhs* assign_to = nullptr, Value assign_val = 0,
                  bool assert_failed = false) {
    if (assign_to) {
      if (assign_to->kind == model::LhsKind::Local)
        mut_frame(pid, assign_to->slot, assign_val);
      else
        mut_global(assign_to->slot, assign_val);
    }
    finish_mut(pid, t);
    return emit(pid, ti, assert_failed);
  }

  bool match_pattern(const std::vector<RecvArg>& args, const Value* fields,
                     const expr::EvalEnv& receiver_env) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].kind == RecvArgKind::Match &&
          sys_.exprs.eval(args[i].match, receiver_env) !=
              fields[i])
        return false;
    }
    return true;
  }

  void bind_pattern(int pid, const std::vector<RecvArg>& args,
                    const Value* fields) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].kind != RecvArgKind::Bind) continue;
      const model::Lhs& lhs = args[i].lhs;
      if (lhs.kind == model::LhsKind::Local)
        mut_frame(pid, lhs.slot, fields[i]);
      else
        mut_global(lhs.slot, fields[i]);
    }
  }

  int resolve_chan(expr::Ref chan_expr, const expr::EvalEnv& e) const {
    const Value id = sys_.exprs.eval(chan_expr, e);
    PNP_CHECK(id >= 0 && id < static_cast<Value>(sys_.channels.size()),
              "send/recv on invalid channel id " + std::to_string(id));
    return static_cast<int>(id);
  }

  bool try_exec(int pid, int ti, const Transition& t) {
    const expr::EvalEnv e = env(pid);
    switch (t.op) {
      case OpKind::Noop:
        emit_local(pid, ti, t);
        return true;
      case OpKind::Guard: {
        if (sys_.exprs.eval(t.expr, e) == 0) return false;
        emit_local(pid, ti, t);
        return true;
      }
      case OpKind::Assign: {
        const Value v = sys_.exprs.eval(t.expr, e);
        emit_local(pid, ti, t, &t.lhs, v);
        return true;
      }
      case OpKind::Assert: {
        const bool ok = sys_.exprs.eval(t.expr, e) != 0;
        emit_local(pid, ti, t, nullptr, 0, /*assert_failed=*/!ok);
        return true;
      }
      case OpKind::Send:
        return exec_send(pid, ti, t, e);
      case OpKind::Recv:
        return exec_recv(pid, ti, t, e);
      case OpKind::Crash:
        return exec_crash(pid, ti, t);
      case OpKind::Else:
        return false;  // handled by caller
    }
    return false;
  }

  /// Crash-restart fault: while the budget local is positive, the process
  /// may lose its control point and volatile locals and resume from entry.
  /// The budget itself survives the crash (it counts injected faults, it is
  /// not program state).
  bool exec_crash(int pid, int ti, const Transition& t) {
    const CompiledProc& cp = m_.proc_of(pid);
    const int np = cp.n_params;
    const Value budget =
        lay_.locals(s_, pid)[static_cast<std::size_t>(t.lhs.slot - np)];
    if (budget <= 0) return false;
    for (std::size_t i = static_cast<std::size_t>(np); i < cp.frame_init.size();
         ++i)
      mut_frame(pid, static_cast<int>(i), cp.frame_init[i]);
    mut_frame(pid, t.lhs.slot, budget - 1);
    finish_mut(pid, t);
    emit(pid, ti);
    return true;
  }

  bool exec_send(int pid, int ti, const Transition& t,
                 const expr::EvalEnv& e) {
    const int chan = resolve_chan(t.chan, e);
    const int arity = lay_.chan_arity(chan);
    PNP_CHECK(static_cast<int>(t.fields.size()) == arity,
              "send arity mismatch on channel " +
                  sys_.channels[static_cast<std::size_t>(chan)].name);
    Value fields[16];
    PNP_CHECK(arity <= 16, "channel arity > 16 unsupported");
    for (int i = 0; i < arity; ++i)
      fields[i] =
          sys_.exprs.eval(t.fields[static_cast<std::size_t>(i)], e);

    if (lay_.chan_capacity(chan) == 0)
      return exec_rendezvous(pid, ti, t, chan, fields, arity);

    const bool full = lay_.chan_len(s_, chan) >= lay_.chan_capacity(chan);
    if (full && !lay_.chan_lossy(chan)) return false;

    if (!full) {
      save_chan(chan);
      if (t.sorted)
        lay_.chan_push_sorted(ns(), chan, fields);
      else
        lay_.chan_push(ns(), chan, fields);
    }
    // else: lossy channel drops the message silently.
    finish_mut(pid, t);
    emit(pid, ti, false, StepEvent::Kind::Send, chan, fields, arity);
    return true;
  }

  bool exec_rendezvous(int pid, int ti, const Transition& t, int chan,
                       const Value* fields, int arity) {
    bool any = false;
    for (int pid2 = 0; pid2 < m_.n_processes(); ++pid2) {
      if (pid2 == pid) continue;
      const CompiledProc& cp2 = m_.proc_of(pid2);
      const int pc2 = lay_.pc(s_, pid2);
      const expr::EvalEnv e2 = env(pid2);
      for (int ti2 : cp2.out[static_cast<std::size_t>(pc2)]) {
        const Transition& t2 = cp2.trans[static_cast<std::size_t>(ti2)];
        if (t2.op != OpKind::Recv) continue;
        if (resolve_chan(t2.chan, e2) != chan) continue;
        PNP_CHECK(static_cast<int>(t2.args.size()) == arity,
                  "rendezvous pattern arity mismatch");
        if (!match_pattern(t2.args, fields, e2)) continue;

        bind_pattern(pid2, t2.args, fields);
        mut_pc(pid, t.dst);
        mut_pc(pid2, t2.dst);
        ns().atomic_pid = next_atomic(pid, t.dst, pid2, t2.dst);
        any = true;
        if (!emit(pid, ti, false, StepEvent::Kind::Handshake, chan, fields,
                  arity, pid2, ti2))
          return any;
      }
    }
    return any;
  }

  bool exec_recv(int pid, int ti, const Transition& t,
                 const expr::EvalEnv& e) {
    const int chan = resolve_chan(t.chan, e);
    if (lay_.chan_capacity(chan) == 0) return false;  // rendezvous: passive
    const int arity = lay_.chan_arity(chan);
    PNP_CHECK(static_cast<int>(t.args.size()) == arity,
              "recv arity mismatch on channel " +
                  sys_.channels[static_cast<std::size_t>(chan)].name);

    const int len = lay_.chan_len(s_, chan);
    if (len == 0) return false;

    if (t.unordered) return exec_recv_unordered(pid, ti, t, e, chan, arity, len);

    int idx = -1;
    if (t.random) {
      for (int i = 0; i < len; ++i) {
        if (match_pattern(t.args, lay_.chan_msg(s_, chan, i), e)) {
          idx = i;
          break;
        }
      }
    } else if (match_pattern(t.args, lay_.chan_msg(s_, chan, 0), e)) {
      idx = 0;
    }
    if (idx < 0) return false;

    Value fields[16];
    std::copy_n(lay_.chan_msg(s_, chan, idx), arity, fields);
    bind_pattern(pid, t.args, fields);
    if (!t.copy) {
      save_chan(chan);
      lay_.chan_erase(ns(), chan, idx);
    }
    finish_mut(pid, t);
    emit(pid, ti, false, StepEvent::Kind::Recv, chan, fields, arity);
    return true;
  }

  /// Bag-semantics receive: one successor per matching buffer index, so the
  /// dequeue order is nondeterministic (models reordering connectors).
  bool exec_recv_unordered(int pid, int ti, const Transition& t,
                           const expr::EvalEnv& e, int chan, int arity,
                           int len) {
    bool any = false;
    for (int i = 0; i < len; ++i) {
      const Value* msg = lay_.chan_msg(s_, chan, i);
      if (!match_pattern(t.args, msg, e)) continue;
      // Removing either of two equal adjacent messages yields the same
      // queue; skip the duplicate successor.
      if (i > 0 && std::equal(msg, msg + arity, lay_.chan_msg(s_, chan, i - 1)))
        continue;
      Value fields[16];
      std::copy_n(msg, arity, fields);
      bind_pattern(pid, t.args, fields);
      if (!t.copy) {
        save_chan(chan);
        lay_.chan_erase(ns(), chan, i);
      }
      finish_mut(pid, t);
      any = true;
      if (!emit(pid, ti, false, StepEvent::Kind::Recv, chan, fields, arity))
        return any;
    }
    return any;
  }

  const Machine& m_;
  const model::SystemSpec& sys_;
  const Layout& lay_;
  const State& s_;
  ChanView view_;
  SuccScratch& scratch_;
  SuccSink& sink_;
  bool stopped_ = false;
};

}  // namespace

bool Machine::visit_successors_of(const State& s, int pid,
                                  SuccScratch& scratch, SuccSink& sink) const {
  SuccGen gen(*this, s, scratch, sink);
  return gen.expand(pid);
}

void Machine::visit_successors(const State& s, SuccScratch& scratch,
                               SuccSink& sink) const {
  if (s.atomic_pid >= 0) {
    // The atomic holder keeps exclusive control while it can move;
    // atomicity is lost (full interleaving resumes) when it blocks.
    SuccGen gen(*this, s, scratch, sink);
    if (gen.expand(s.atomic_pid)) return;
  }
  SuccGen gen(*this, s, scratch, sink);
  for (int pid = 0; pid < n_processes(); ++pid) {
    gen.expand(pid);
    if (gen.stopped()) return;
  }
}

void Machine::successors(const State& s, std::vector<Succ>& out) const {
  CollectSink sink(out);
  SuccScratch scratch;
  visit_successors(s, scratch, sink);
}

bool Machine::is_valid_end(const State& s) const {
  for (int pid = 0; pid < n_processes(); ++pid) {
    const compile::CompiledProc& cp = proc_of(pid);
    if (!cp.valid_end[static_cast<std::size_t>(layout_.pc(s, pid))])
      return false;
  }
  return true;
}

Value Machine::eval_global(expr::Ref e, const State& s) const {
  ChanView view(layout_, s);
  expr::EvalEnv env{layout_.globals(s), {}, {}, &view, -1};
  return sys_->exprs.eval(e, env);
}

std::string Machine::describe_step(const Step& step) const {
  if (step.pid < 0) return "<none>";
  const compile::CompiledProc& cp = proc_of(step.pid);
  std::string out = proc_name(step.pid) + ": " +
                    compile::describe(*sys_, cp,
                                      cp.trans[static_cast<std::size_t>(step.trans)]);
  if (step.partner_pid >= 0) {
    const compile::CompiledProc& cp2 = proc_of(step.partner_pid);
    out += "  <handshake> " + proc_name(step.partner_pid) + ": " +
           compile::describe(
               *sys_, cp2,
               cp2.trans[static_cast<std::size_t>(step.partner_trans)]);
  }
  if (step.assert_failed) out += "  [ASSERTION FAILED]";
  return out;
}

std::string Machine::format_state(const State& s) const {
  std::ostringstream os;
  os << "globals:";
  for (std::size_t i = 0; i < sys_->globals.size(); ++i)
    os << " " << sys_->globals[i].name << "="
       << layout_.global(s, static_cast<int>(i));
  os << "\nprocs:";
  for (int pid = 0; pid < n_processes(); ++pid)
    os << " " << proc_name(pid) << "@" << layout_.pc(s, pid);
  os << "\nchans:";
  for (std::size_t c = 0; c < sys_->channels.size(); ++c) {
    const int ci = static_cast<int>(c);
    if (layout_.chan_capacity(ci) == 0) continue;  // rendezvous: never holds
    os << " " << sys_->channels[c].name << "=[";
    const int len = layout_.chan_len(s, ci);
    for (int i = 0; i < len; ++i) {
      if (i) os << " ";
      os << "(";
      const Value* msg = layout_.chan_msg(s, ci, i);
      for (int f = 0; f < layout_.chan_arity(ci); ++f) {
        if (f) os << ",";
        os << msg[f];
      }
      os << ")";
    }
    os << "]";
  }
  if (s.atomic_pid >= 0) os << "\natomic: " << proc_name(s.atomic_pid);
  return os.str();
}

}  // namespace pnp::kernel
