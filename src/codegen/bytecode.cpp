// Bytecode successor engine.
//
// Per machine, every (process instance, transition) pair is lowered once:
//   * spawn parameters and SelfPid are constant-folded away (fold.h), which
//     resolves channel-id expressions -- and therefore channel base slot,
//     capacity, arity and lossiness -- to constants for the typical model;
//   * guard / rhs / field / match expressions become flat stack programs
//     over ABSOLUTE state-vector slots (no spans, no per-eval bounds
//     checks, no recursion), dispatched with computed goto where available;
//   * Lhs targets, pc slots and crash-budget slots become absolute slots;
//   * a rendezvous send walks the static partner index (rendezvous.h)
//     instead of scanning every process for a receive on its channel.
//
// The transition-level driver (BcGen) mirrors kernel/successor.cpp's
// SuccGen line for line -- same candidate order, same undo-log entries in
// the same order, same Step fields -- so the emitted successor stream is
// byte-identical to the interpreter's (tests/test_codegen.cpp holds the
// two against each other frame by frame).
#include "codegen/bytecode.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "codegen/fold.h"
#include "codegen/rendezvous.h"
#include "compile/compiler.h"
#include "support/panic.h"

namespace pnp::codegen {

namespace {

using compile::CompiledProc;
using compile::OpKind;
using compile::Transition;
using expr::Value;
using kernel::Layout;
using kernel::State;
using kernel::StepEvent;
using kernel::SuccScratch;
using kernel::SuccSink;
using model::LhsKind;
using model::RecvArgKind;

// ---------------------------------------------------------------------------
// Expression programs
// ---------------------------------------------------------------------------

enum class BOp : std::uint8_t {
  PushC,   // push a
  Load,    // push mem[a]
  Neg,     // top = -top
  Not,     // top = (top == 0)
  BoolOp,  // top = (top != 0)
  Add, Sub, Mul,
  Div, Mod,  // stack [.., divisor, dividend]; divisor checked nonzero
  Eq, Ne, Lt, Le, Gt, Ge,
  AndJz,   // pop v; if v == 0 { push 0; jump a }  (short-circuit &&)
  OrJnz,   // pop v; if v != 0 { push 1; jump a }  (short-circuit ||)
  JzPop,   // pop v; if v == 0 jump a              (Cond)
  Jmp,     // jump a
  LenC,    // push mem[a]                          (buffered chan len slot)
  FullC,   // push mem[a] >= b                     (b = capacity)
  EmptyC,  // push mem[a] == 0
  LenD, FullD, EmptyD,  // dynamic channel id on the stack
  Ret,     // return top
};

struct Instr {
  BOp op{BOp::Ret};
  std::int32_t a{0};
  std::int32_t b{0};
};

/// A compiled expression: a constant, or a program in the engine's code
/// pool (BcTables::code), whose jump targets are relative to its start.
struct ExprProg {
  std::int32_t code{-1};  // start in the code pool; -1 for a constant
  bool is_const{false};
  Value const_val{0};
};

struct ChanInfo {
  int base{-1};  // -1 for rendezvous
  int capacity{0};
  int arity{1};
  bool lossy{false};
};

constexpr int kStackMax = 128;

Value vm_run(const Instr* ip, const Value* mem, const ChanInfo* chans) {
  Value stack[kStackMax];
  Value* sp = stack;
  const Instr* base = ip;

#if defined(__GNUC__) || defined(__clang__)
  static const void* kTable[] = {
      &&L_PushC, &&L_Load, &&L_Neg, &&L_Not, &&L_BoolOp,
      &&L_Add,   &&L_Sub,  &&L_Mul, &&L_Div, &&L_Mod,
      &&L_Eq,    &&L_Ne,   &&L_Lt,  &&L_Le,  &&L_Gt,  &&L_Ge,
      &&L_AndJz, &&L_OrJnz, &&L_JzPop, &&L_Jmp,
      &&L_LenC,  &&L_FullC, &&L_EmptyC,
      &&L_LenD,  &&L_FullD, &&L_EmptyD,
      &&L_Ret,
  };
#define PNP_DISPATCH goto* kTable[static_cast<unsigned>(ip->op)]
#define PNP_CASE(name) L_##name:
#define PNP_NEXT   \
  do {             \
    ++ip;          \
    PNP_DISPATCH;  \
  } while (0)
  PNP_DISPATCH;
#else
  for (;;) switch (ip->op) {
#define PNP_DISPATCH continue
#define PNP_CASE(name) case BOp::name:
#define PNP_NEXT   \
  do {             \
    ++ip;          \
    continue;      \
  } while (0)
#endif

  PNP_CASE(PushC) { *sp++ = ip->a; } PNP_NEXT;
  PNP_CASE(Load) { *sp++ = mem[ip->a]; } PNP_NEXT;
  PNP_CASE(Neg) { sp[-1] = -sp[-1]; } PNP_NEXT;
  PNP_CASE(Not) { sp[-1] = sp[-1] == 0 ? 1 : 0; } PNP_NEXT;
  PNP_CASE(BoolOp) { sp[-1] = sp[-1] != 0 ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Add) { --sp; sp[-1] = sp[-1] + sp[0]; } PNP_NEXT;
  PNP_CASE(Sub) { --sp; sp[-1] = sp[-1] - sp[0]; } PNP_NEXT;
  PNP_CASE(Mul) { --sp; sp[-1] = sp[-1] * sp[0]; } PNP_NEXT;
  PNP_CASE(Div) {
    // stack holds [divisor, dividend] (divisor evaluated first, like the
    // tree interpreter)
    const Value a = *--sp;
    const Value d = sp[-1];
    PNP_CHECK(d != 0, "division by zero in model expression");
    sp[-1] = a / d;
  } PNP_NEXT;
  PNP_CASE(Mod) {
    const Value a = *--sp;
    const Value d = sp[-1];
    PNP_CHECK(d != 0, "modulo by zero in model expression");
    sp[-1] = a % d;
  } PNP_NEXT;
  PNP_CASE(Eq) { --sp; sp[-1] = sp[-1] == sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Ne) { --sp; sp[-1] = sp[-1] != sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Lt) { --sp; sp[-1] = sp[-1] < sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Le) { --sp; sp[-1] = sp[-1] <= sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Gt) { --sp; sp[-1] = sp[-1] > sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(Ge) { --sp; sp[-1] = sp[-1] >= sp[0] ? 1 : 0; } PNP_NEXT;
  PNP_CASE(AndJz) {
    const Value v = *--sp;
    if (v == 0) {
      *sp++ = 0;
      ip = base + ip->a;
      PNP_DISPATCH;
    }
  } PNP_NEXT;
  PNP_CASE(OrJnz) {
    const Value v = *--sp;
    if (v != 0) {
      *sp++ = 1;
      ip = base + ip->a;
      PNP_DISPATCH;
    }
  } PNP_NEXT;
  PNP_CASE(JzPop) {
    if (*--sp == 0) {
      ip = base + ip->a;
      PNP_DISPATCH;
    }
  } PNP_NEXT;
  PNP_CASE(Jmp) {
    ip = base + ip->a;
    PNP_DISPATCH;
  }
  PNP_CASE(LenC) { *sp++ = mem[ip->a]; } PNP_NEXT;
  PNP_CASE(FullC) { *sp++ = mem[ip->a] >= ip->b ? 1 : 0; } PNP_NEXT;
  PNP_CASE(EmptyC) { *sp++ = mem[ip->a] == 0 ? 1 : 0; } PNP_NEXT;
  PNP_CASE(LenD) {
    const ChanInfo& ch = chans[sp[-1]];
    sp[-1] = ch.base < 0 ? 0 : mem[ch.base];
  } PNP_NEXT;
  PNP_CASE(FullD) {
    const ChanInfo& ch = chans[sp[-1]];
    sp[-1] = (ch.base < 0 ? 0 : mem[ch.base]) >= ch.capacity ? 1 : 0;
  } PNP_NEXT;
  PNP_CASE(EmptyD) {
    const ChanInfo& ch = chans[sp[-1]];
    sp[-1] = (ch.base < 0 ? 0 : mem[ch.base]) == 0 ? 1 : 0;
  } PNP_NEXT;
  PNP_CASE(Ret) { return sp[-1]; }

#if !defined(__GNUC__) && !defined(__clang__)
  }
#endif
#undef PNP_CASE
#undef PNP_NEXT
#ifdef PNP_DISPATCH
#undef PNP_DISPATCH
#endif
}

/// Lowers one pid's expressions into the engine's code pool: absolute
/// slots, folded params/SelfPid. One pool per engine keeps the build to a
/// handful of allocations -- every obligation and fault variant builds one.
class ExprCompiler {
 public:
  ExprCompiler(const expr::Pool& pool, std::span<const Value> params,
               Value self_pid, int locals_base,
               const std::vector<ChanInfo>& chans, std::vector<Instr>& code)
      : pool_(pool),
        params_(params),
        self_(self_pid),
        locals_base_(locals_base),
        chans_(chans),
        code_(code) {}

  ExprProg compile(expr::Ref r) {
    ExprProg p;
    if (r == expr::kNoExpr) return p;
    if (auto c = fold_const(pool_, r, params_, self_)) {
      p.is_const = true;
      p.const_val = *c;
      return p;
    }
    depth_ = 0;
    max_depth_ = 0;
    start_ = code_.size();
    emit(r);
    code_.push_back({BOp::Ret, 0, 0});
    PNP_CHECK(max_depth_ <= kStackMax,
              "model expression nests deeper than the bytecode value stack");
    p.code = static_cast<std::int32_t>(start_);
    return p;
  }

  /// Folded channel id, or nullopt when it depends on mutable state.
  std::optional<Value> fold(expr::Ref r) const {
    return fold_const(pool_, r, params_, self_);
  }

 private:
  void push_depth(int n = 1) {
    depth_ += n;
    max_depth_ = std::max(max_depth_, depth_);
  }

  /// The next instruction's offset from the current program's start.
  std::int32_t here() const {
    return static_cast<std::int32_t>(code_.size() - start_);
  }

  void emit(expr::Ref r) {
    if (auto c = fold_const(pool_, r, params_, self_)) {
      code_.push_back({BOp::PushC, *c, 0});
      push_depth();
      return;
    }
    const expr::Node& n = pool_.at(r);
    using expr::Op;
    switch (n.op) {
      case Op::Const:
      case Op::SelfPid:
        return;  // unreachable: always folds
      case Op::Global:
        code_.push_back({BOp::Load, n.imm, 0});
        push_depth();
        return;
      case Op::Local: {
        // slot < params.size() always folded above; what's left is mutable
        code_.push_back(
            {BOp::Load,
             locals_base_ + n.imm - static_cast<std::int32_t>(params_.size()),
             0});
        push_depth();
        return;
      }
      case Op::Neg:
        emit(n.a);
        code_.push_back({BOp::Neg, 0, 0});
        return;
      case Op::Not:
        emit(n.a);
        code_.push_back({BOp::Not, 0, 0});
        return;
      case Op::Add: case Op::Sub: case Op::Mul:
      case Op::Eq: case Op::Ne: case Op::Lt:
      case Op::Le: case Op::Gt: case Op::Ge: {
        emit(n.a);
        emit(n.b);
        BOp op = BOp::Add;
        switch (n.op) {
          case Op::Add: op = BOp::Add; break;
          case Op::Sub: op = BOp::Sub; break;
          case Op::Mul: op = BOp::Mul; break;
          case Op::Eq: op = BOp::Eq; break;
          case Op::Ne: op = BOp::Ne; break;
          case Op::Lt: op = BOp::Lt; break;
          case Op::Le: op = BOp::Le; break;
          case Op::Gt: op = BOp::Gt; break;
          default: op = BOp::Ge; break;
        }
        code_.push_back({op, 0, 0});
        --depth_;
        return;
      }
      case Op::Div:
      case Op::Mod:
        // divisor first, then dividend: the tree interpreter evaluates and
        // checks the divisor before touching the dividend
        emit(n.b);
        emit(n.a);
        code_.push_back({n.op == Op::Div ? BOp::Div : BOp::Mod, 0, 0});
        --depth_;
        return;
      case Op::And: {
        emit(n.a);
        const std::size_t jz = code_.size();
        code_.push_back({BOp::AndJz, 0, 0});
        --depth_;
        emit(n.b);
        code_.push_back({BOp::BoolOp, 0, 0});
        code_[jz].a = here();
        return;
      }
      case Op::Or: {
        emit(n.a);
        const std::size_t jnz = code_.size();
        code_.push_back({BOp::OrJnz, 0, 0});
        --depth_;
        emit(n.b);
        code_.push_back({BOp::BoolOp, 0, 0});
        code_[jnz].a = here();
        return;
      }
      case Op::Cond: {
        emit(n.a);
        const std::size_t jz = code_.size();
        code_.push_back({BOp::JzPop, 0, 0});
        --depth_;
        emit(n.b);
        const std::size_t jmp = code_.size();
        code_.push_back({BOp::Jmp, 0, 0});
        code_[jz].a = here();
        --depth_;  // only one branch's value is live at runtime
        emit(n.c);
        code_[jmp].a = here();
        return;
      }
      case Op::ChanLen:
      case Op::ChanFull:
      case Op::ChanEmpty: {
        if (auto c = fold(n.a)) {
          PNP_CHECK(*c >= 0 && static_cast<std::size_t>(*c) < chans_.size(),
                    "channel query on invalid channel id " +
                        std::to_string(*c));
          const ChanInfo& ch = chans_[static_cast<std::size_t>(*c)];
          if (ch.base < 0) {
            // rendezvous: len 0, full (0 >= 0), empty -- all constants
            code_.push_back({BOp::PushC, n.op == Op::ChanLen ? 0 : 1, 0});
          } else if (n.op == Op::ChanLen) {
            code_.push_back({BOp::LenC, ch.base, 0});
          } else if (n.op == Op::ChanFull) {
            code_.push_back({BOp::FullC, ch.base, ch.capacity});
          } else {
            code_.push_back({BOp::EmptyC, ch.base, 0});
          }
          push_depth();
          return;
        }
        emit(n.a);
        code_.push_back({n.op == Op::ChanLen
                             ? BOp::LenD
                             : (n.op == Op::ChanFull ? BOp::FullD
                                                     : BOp::EmptyD),
                         0, 0});
        return;
      }
    }
  }

  const expr::Pool& pool_;
  std::span<const Value> params_;
  Value self_;
  int locals_base_;
  const std::vector<ChanInfo>& chans_;
  std::vector<Instr>& code_;
  std::size_t start_{0};  // the current program's start in code_
  int depth_{0};
  int max_depth_{0};
};

// ---------------------------------------------------------------------------
// Lowered transition tables
// ---------------------------------------------------------------------------

struct BcRecvArg {
  RecvArgKind kind{RecvArgKind::Wildcard};
  int abs_slot{-1};  // Bind target
  ExprProg match;
};

struct BcTrans {
  OpKind op{OpKind::Noop};
  int dst{0};
  bool dst_atomic{false};
  ExprProg expr;       // Guard / Assert / Assign rhs
  int lhs_abs{-1};     // Assign target
  int chan_const{-1};  // resolved channel id, or -1 when dynamic
  ExprProg chan_prog;
  int fields{0};       // send: first field program in BcTables::fields
  int n_fields{0};
  int args{0};         // recv: first pattern in BcTables::args
  int n_args{0};
  bool sorted{false};
  bool random{false};
  bool copy{false};
  bool unordered{false};
  int crash_budget_abs{-1};
  int crash_budget_slot{-1};  // frame slot index (params included)
};

struct BcPid {
  const CompiledProc* cp{nullptr};
  int pc_slot{0};
  int frame_base{0};  // absolute slot of mutable local 0
  int n_params{0};
  int trans{0};  // first transition in BcTables::trans (cp->trans order)
};

/// One engine's tables. Per-transition parts live in shared pools, indexed
/// from BcPid / BcTrans, so a build allocates a handful of vectors rather
/// than a few per transition.
struct BcTables {
  explicit BcTables(const kernel::Machine& m)
      : spec(&m.spec()), lay(&m.layout()), rendezvous(m) {}

  const model::SystemSpec* spec;
  const Layout* lay;
  std::vector<BcPid> pids;
  std::vector<BcTrans> trans;
  std::vector<ExprProg> fields;
  std::vector<BcRecvArg> args;
  std::vector<Instr> code;
  std::vector<ChanInfo> chans;
  RendezvousIndex rendezvous;
};

int resolve_lhs(const model::Lhs& lhs, const Layout& lay, int pid) {
  if (lhs.kind == LhsKind::Global) return lhs.slot;
  return lay.frame_slot(pid, lhs.slot);  // checks the immutable-param rule
}

BcTables build_tables(const kernel::Machine& m) {
  const model::SystemSpec& sys = m.spec();
  const Layout& lay = m.layout();
  BcTables tb(m);

  tb.chans.reserve(sys.channels.size());
  for (std::size_t c = 0; c < sys.channels.size(); ++c) {
    const int ci = static_cast<int>(c);
    ChanInfo info;
    info.capacity = lay.chan_capacity(ci);
    info.arity = lay.chan_arity(ci);
    info.lossy = lay.chan_lossy(ci);
    info.base = lay.chan_region(ci).first;
    tb.chans.push_back(info);
  }

  std::size_t n_trans = 0, n_fields = 0, n_args = 0;
  for (int pid = 0; pid < m.n_processes(); ++pid) {
    const CompiledProc& cp = m.proc_of(pid);
    n_trans += cp.trans.size();
    for (const Transition& t : cp.trans) {
      n_fields += t.fields.size();
      n_args += t.args.size();
    }
  }
  tb.pids.reserve(sys.processes.size());
  tb.trans.reserve(n_trans);
  tb.fields.reserve(n_fields);
  tb.args.reserve(n_args);
  tb.code.reserve(4 * n_trans);

  for (int pid = 0; pid < m.n_processes(); ++pid) {
    const CompiledProc& cp = m.proc_of(pid);
    const std::vector<Value>& args = sys.processes[static_cast<std::size_t>(pid)].args;
    BcPid P;
    P.cp = &cp;
    P.pc_slot = lay.pc_slot(pid);
    P.frame_base = P.pc_slot + 1;
    P.n_params = cp.n_params;
    P.trans = static_cast<int>(tb.trans.size());
    ExprCompiler ec(sys.exprs, {args.data(), args.size()},
                    static_cast<Value>(pid), P.frame_base, tb.chans, tb.code);

    for (const Transition& t : cp.trans) {
      BcTrans bt;
      bt.op = t.op;
      bt.dst = t.dst;
      bt.dst_atomic = cp.atomic_at[static_cast<std::size_t>(t.dst)];
      switch (t.op) {
        case OpKind::Noop:
        case OpKind::Else:
          break;
        case OpKind::Guard:
          bt.expr = ec.compile(t.expr);
          break;
        case OpKind::Assign:
          bt.expr = ec.compile(t.expr);
          bt.lhs_abs = resolve_lhs(t.lhs, lay, pid);
          break;
        case OpKind::Assert:
          bt.expr = ec.compile(t.expr);
          break;
        case OpKind::Crash:
          bt.crash_budget_slot = t.lhs.slot;
          bt.crash_budget_abs = lay.frame_slot(pid, t.lhs.slot);
          break;
        case OpKind::Send:
        case OpKind::Recv: {
          if (auto c = ec.fold(t.chan)) {
            PNP_CHECK(*c >= 0 &&
                          *c < static_cast<Value>(sys.channels.size()),
                      "send/recv on invalid channel id " + std::to_string(*c));
            bt.chan_const = static_cast<int>(*c);
          } else {
            bt.chan_prog = ec.compile(t.chan);
          }
          if (t.op == OpKind::Send) {
            bt.sorted = t.sorted;
            bt.fields = static_cast<int>(tb.fields.size());
            bt.n_fields = static_cast<int>(t.fields.size());
            for (expr::Ref f : t.fields) tb.fields.push_back(ec.compile(f));
          } else {
            bt.random = t.random;
            bt.copy = t.copy;
            bt.unordered = t.unordered;
            bt.args = static_cast<int>(tb.args.size());
            bt.n_args = static_cast<int>(t.args.size());
            for (const model::RecvArg& a : t.args) {
              BcRecvArg ba;
              ba.kind = a.kind;
              if (a.kind == RecvArgKind::Bind)
                ba.abs_slot = resolve_lhs(a.lhs, lay, pid);
              else if (a.kind == RecvArgKind::Match)
                ba.match = ec.compile(a.match);
              tb.args.push_back(ba);
            }
          }
          break;
        }
      }
      tb.trans.push_back(bt);
    }
    tb.pids.push_back(P);
  }
  return tb;
}

// ---------------------------------------------------------------------------
// The driver: SuccGen over lowered tables
// ---------------------------------------------------------------------------

class BcGen {
 public:
  BcGen(const BcTables& tb, const State& s, SuccScratch& scratch,
        SuccSink& sink, std::uint32_t skip = 0, std::uint32_t cand0 = 0)
      : tb_(tb), s_(s), scratch_(scratch), sink_(sink), skip_(skip),
        cand_(cand0) {
    scratch_.state.mem.assign(s.mem.begin(), s.mem.end());
    scratch_.state.atomic_pid = s.atomic_pid;
    scratch_.undo.clear();
  }

  bool expand(int pid) {
    const BcPid& P = tb_.pids[static_cast<std::size_t>(pid)];
    const int pc = s_.mem[static_cast<std::size_t>(P.pc_slot)];
    const std::vector<int>& cands = P.cp->out[static_cast<std::size_t>(pc)];
    bool any = false;
    bool any_program = false;
    int else_ti = -1;
    for (int ti : cands) {
      if (stopped_) return any;
      const BcTrans& t = trans_of(P, ti);
      if (t.op == OpKind::Else) {
        else_ti = ti;
        continue;
      }
      if (try_exec(pid, P, ti, t)) {
        any = true;
        if (t.op != OpKind::Crash) any_program = true;
      }
    }
    if (!stopped_ && !any_program && else_ti >= 0) {
      finish_mut(pid, P, trans_of(P, else_ti));
      emit(pid, else_ti);
      any = true;
    }
    return any;
  }

  bool stopped() const { return stopped_; }
  std::uint32_t remaining_skip() const { return skip_; }

  /// Marks the start of a process's sweep; pid_base() is then the absolute
  /// candidate index at which that sweep began (the resume token payload).
  void begin_pid() { pid_base_ = cand_; }
  std::uint32_t pid_base() const { return pid_base_; }

 private:
  Value eval(const ExprProg& p) const {
    if (p.is_const) return p.const_val;
    return vm_run(tb_.code.data() + p.code, s_.mem.data(), tb_.chans.data());
  }

  const BcTrans& trans_of(const BcPid& P, int ti) const {
    return tb_.trans[static_cast<std::size_t>(P.trans + ti)];
  }
  std::span<const ExprProg> fields_of(const BcTrans& t) const {
    return {tb_.fields.data() + t.fields,
            static_cast<std::size_t>(t.n_fields)};
  }
  std::span<const BcRecvArg> args_of(const BcTrans& t) const {
    return {tb_.args.data() + t.args, static_cast<std::size_t>(t.n_args)};
  }

  State& ns() { return scratch_.state; }

  void save(int idx) {
    scratch_.undo.emplace_back(idx, ns().mem[static_cast<std::size_t>(idx)]);
  }
  void mut_slot(int idx, Value v) {
    save(idx);
    ns().mem[static_cast<std::size_t>(idx)] = v;
  }
  void save_chan(int c) {
    const auto [begin, count] = tb_.lay->chan_region(c);
    for (int i = 0; i < count; ++i) save(begin + i);
  }

  void finish_mut(int pid, const BcPid& P, const BcTrans& t) {
    mut_slot(P.pc_slot, t.dst);
    ns().atomic_pid = t.dst_atomic ? pid : -1;
  }

  void revert() {
    for (std::size_t i = scratch_.undo.size(); i-- > 0;)
      ns().mem[static_cast<std::size_t>(scratch_.undo[i].first)] =
          scratch_.undo[i].second;
    scratch_.undo.clear();
    ns().atomic_pid = s_.atomic_pid;
#ifndef NDEBUG
    PNP_CHECK(ns().mem == s_.mem, "bytecode successor scratch revert mismatch");
#endif
  }

  bool emit(int pid, int ti, bool assert_failed = false,
            StepEvent::Kind kind = StepEvent::Kind::Local, int chan = -1,
            const Value* fields = nullptr, int arity = 0, int partner_pid = -1,
            int partner_trans = -1) {
    ++cand_;  // every candidate counts, surfaced or suppressed
    if (skip_ > 0) {  // suppressed candidate: keep indices, drop the surface
      --skip_;
      revert();
      return true;
    }
    kernel::Step& st = scratch_.step;
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

  bool match_pattern(std::span<const BcRecvArg> args,
                     const Value* fields) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].kind == RecvArgKind::Match &&
          eval(args[i].match) != fields[i])
        return false;
    }
    return true;
  }

  void bind_pattern(std::span<const BcRecvArg> args, const Value* fields) {
    for (std::size_t i = 0; i < args.size(); ++i)
      if (args[i].kind == RecvArgKind::Bind)
        mut_slot(args[i].abs_slot, fields[i]);
  }

  int resolve_chan(const BcTrans& t) const {
    if (t.chan_const >= 0) return t.chan_const;
    const Value id = eval(t.chan_prog);
    PNP_CHECK(id >= 0 && id < static_cast<Value>(tb_.chans.size()),
              "send/recv on invalid channel id " + std::to_string(id));
    return static_cast<int>(id);
  }

  bool try_exec(int pid, const BcPid& P, int ti, const BcTrans& t) {
    switch (t.op) {
      case OpKind::Noop:
        finish_mut(pid, P, t);
        emit(pid, ti);
        return true;
      case OpKind::Guard:
        if (eval(t.expr) == 0) return false;
        finish_mut(pid, P, t);
        emit(pid, ti);
        return true;
      case OpKind::Assign: {
        const Value v = eval(t.expr);
        mut_slot(t.lhs_abs, v);
        finish_mut(pid, P, t);
        emit(pid, ti);
        return true;
      }
      case OpKind::Assert: {
        const bool ok = eval(t.expr) != 0;
        finish_mut(pid, P, t);
        emit(pid, ti, /*assert_failed=*/!ok);
        return true;
      }
      case OpKind::Send:
        return exec_send(pid, P, ti, t);
      case OpKind::Recv:
        return exec_recv(pid, P, ti, t);
      case OpKind::Crash:
        return exec_crash(pid, P, ti, t);
      case OpKind::Else:
        return false;
    }
    return false;
  }

  bool exec_crash(int pid, const BcPid& P, int ti, const BcTrans& t) {
    const Value budget = s_.mem[static_cast<std::size_t>(t.crash_budget_abs)];
    if (budget <= 0) return false;
    const std::vector<Value>& init = P.cp->frame_init;
    for (std::size_t i = static_cast<std::size_t>(P.n_params); i < init.size();
         ++i)
      mut_slot(P.frame_base + static_cast<int>(i) - P.n_params, init[i]);
    mut_slot(t.crash_budget_abs, budget - 1);
    finish_mut(pid, P, t);
    emit(pid, ti);
    return true;
  }

  bool exec_send(int pid, const BcPid& P, int ti, const BcTrans& t) {
    const int chan = resolve_chan(t);
    const ChanInfo& ch = tb_.chans[static_cast<std::size_t>(chan)];
    const int arity = ch.arity;
    PNP_CHECK(t.n_fields == arity,
              "send arity mismatch on channel " +
                  tb_.spec->channels[static_cast<std::size_t>(chan)].name);
    Value fields[16];
    PNP_CHECK(arity <= 16, "channel arity > 16 unsupported");
    const std::span<const ExprProg> progs = fields_of(t);
    for (int i = 0; i < arity; ++i)
      fields[i] = eval(progs[static_cast<std::size_t>(i)]);

    if (ch.capacity == 0) return exec_rendezvous(pid, P, ti, t, chan, fields, arity);

    const int len = s_.mem[static_cast<std::size_t>(ch.base)];
    const bool full = len >= ch.capacity;
    if (full && !ch.lossy) return false;

    if (!full) {
      save_chan(chan);
      if (t.sorted)
        tb_.lay->chan_push_sorted(ns(), chan, fields);
      else
        tb_.lay->chan_push(ns(), chan, fields);
    }
    // else: lossy channel drops the message silently.
    finish_mut(pid, P, t);
    emit(pid, ti, false, StepEvent::Kind::Send, chan, fields, arity);
    return true;
  }

  bool exec_rendezvous(int pid, const BcPid& P, int ti, const BcTrans& t,
                       int chan, const Value* fields, int arity) {
    bool any = false;
    const RendezvousIndex& rx = tb_.rendezvous;
    for (const int pid2 : rx.receivers(chan)) {
      if (pid2 == pid) continue;
      const BcPid& P2 = tb_.pids[static_cast<std::size_t>(pid2)];
      const int pc2 = s_.mem[static_cast<std::size_t>(P2.pc_slot)];
      for (const int ti2 : rx.receives(pid2, pc2)) {
        const BcTrans& t2 = trans_of(P2, ti2);
        if (resolve_chan(t2) != chan) continue;
        PNP_CHECK(t2.n_args == arity, "rendezvous pattern arity mismatch");
        const std::span<const BcRecvArg> args2 = args_of(t2);
        if (!match_pattern(args2, fields)) continue;

        bind_pattern(args2, fields);
        mut_slot(P.pc_slot, t.dst);
        mut_slot(P2.pc_slot, t2.dst);
        ns().atomic_pid =
            t.dst_atomic ? pid : (t2.dst_atomic ? pid2 : -1);
        any = true;
        if (!emit(pid, ti, false, StepEvent::Kind::Handshake, chan, fields,
                  arity, pid2, ti2))
          return any;
      }
    }
    return any;
  }

  bool exec_recv(int pid, const BcPid& P, int ti, const BcTrans& t) {
    const int chan = resolve_chan(t);
    const ChanInfo& ch = tb_.chans[static_cast<std::size_t>(chan)];
    if (ch.capacity == 0) return false;  // rendezvous: passive side
    const int arity = ch.arity;
    PNP_CHECK(t.n_args == arity,
              "recv arity mismatch on channel " +
                  tb_.spec->channels[static_cast<std::size_t>(chan)].name);

    const int len = s_.mem[static_cast<std::size_t>(ch.base)];
    if (len == 0) return false;

    if (t.unordered)
      return exec_recv_unordered(pid, P, ti, t, ch, chan, arity, len);

    const Value* buf = s_.mem.data() + ch.base + 1;
    const std::span<const BcRecvArg> args = args_of(t);
    int idx = -1;
    if (t.random) {
      for (int i = 0; i < len; ++i) {
        if (match_pattern(args, buf + static_cast<std::size_t>(i) * arity)) {
          idx = i;
          break;
        }
      }
    } else if (match_pattern(args, buf)) {
      idx = 0;
    }
    if (idx < 0) return false;

    Value fields[16];
    std::copy_n(buf + static_cast<std::size_t>(idx) * arity, arity, fields);
    bind_pattern(args, fields);
    if (!t.copy) {
      save_chan(chan);
      tb_.lay->chan_erase(ns(), chan, idx);
    }
    finish_mut(pid, P, t);
    emit(pid, ti, false, StepEvent::Kind::Recv, chan, fields, arity);
    return true;
  }

  bool exec_recv_unordered(int pid, const BcPid& P, int ti, const BcTrans& t,
                           const ChanInfo& ch, int chan, int arity, int len) {
    bool any = false;
    const Value* buf = s_.mem.data() + ch.base + 1;
    const std::span<const BcRecvArg> args = args_of(t);
    for (int i = 0; i < len; ++i) {
      const Value* msg = buf + static_cast<std::size_t>(i) * arity;
      if (!match_pattern(args, msg)) continue;
      if (i > 0 && std::equal(msg, msg + arity, msg - arity)) continue;
      Value fields[16];
      std::copy_n(msg, arity, fields);
      bind_pattern(args, fields);
      if (!t.copy) {
        save_chan(chan);
        tb_.lay->chan_erase(ns(), chan, i);
      }
      finish_mut(pid, P, t);
      any = true;
      if (!emit(pid, ti, false, StepEvent::Kind::Recv, chan, fields, arity))
        return any;
    }
    return any;
  }

  const BcTables& tb_;
  const State& s_;
  SuccScratch& scratch_;
  SuccSink& sink_;
  std::uint32_t skip_ = 0;
  std::uint32_t cand_ = 0;      // candidates enumerated so far (absolute)
  std::uint32_t pid_base_ = 0;  // cand_ when the current pid's sweep began
  bool stopped_ = false;
};

class BytecodeEngine final : public Engine {
 public:
  explicit BytecodeEngine(const kernel::Machine& m)
      : Engine(m), tb_(build_tables(m)) {}

  EngineKind kind() const override { return EngineKind::Bytecode; }

  void visit_successors(const State& s, SuccScratch& scratch, SuccSink& sink,
                        std::uint32_t skip,
                        std::uint64_t* resume) const override {
    const int n = static_cast<int>(tb_.pids.size());
    int start = 0;
    std::uint32_t base = 0;
    if (resume != nullptr) {
      // Honor the previous visit's stop position: processes before it
      // contributed exactly `base` candidates, all covered by `skip`, so
      // their guard sweeps can be skipped outright. Atomic states keep the
      // plain path (their sweep is a single process anyway).
      const int tp = resume_pid(*resume);
      const std::uint32_t tb = resume_base(*resume);
      if (tp >= 0 && tp < n && tb <= skip && s.atomic_pid < 0) {
        start = tp;
        base = tb;
      }
      *resume = 0;
    }
    if (s.atomic_pid >= 0) {
      BcGen gen(tb_, s, scratch, sink, skip);
      if (gen.expand(s.atomic_pid)) return;
      skip = gen.remaining_skip();
    }
    BcGen gen(tb_, s, scratch, sink, skip - base, base);
    for (int pid = start; pid < n; ++pid) {
      gen.begin_pid();
      gen.expand(pid);
      if (gen.stopped()) {
        if (resume != nullptr) *resume = encode_resume(pid, gen.pid_base());
        return;
      }
    }
  }

  bool visit_successors_of(const State& s, int pid, SuccScratch& scratch,
                           SuccSink& sink, std::uint32_t skip) const override {
    BcGen gen(tb_, s, scratch, sink, skip);
    return gen.expand(pid);
  }

 private:
  BcTables tb_;
};

}  // namespace

std::unique_ptr<Engine> make_bytecode_engine(const kernel::Machine& m) {
  return std::make_unique<BytecodeEngine>(m);
}

}  // namespace pnp::codegen
