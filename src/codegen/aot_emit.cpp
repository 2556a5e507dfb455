// Emitter: one machine -> standalone C++ translation units that together
// implement the pnp_aot_module_v1 ABI (aot_abi.h).
//
// The generated module is the interpreter partially evaluated for this
// machine (SPIN's pan.c idea):
//   * one `expand_pN` function per process instance, a switch over that
//     process's pc with straight-line code per candidate transition, in
//     the interpreter's candidate order;
//   * spawn parameters and SelfPid folded into the code, which folds
//     channel-id expressions -- and so channel base/capacity/arity/lossy
//     and rendezvous partner sets (rendezvous.h, the index the bytecode
//     engine walks at run time) -- to compile-time constants;
//   * expressions emitted as native C++ (short-circuit && / || match the
//     tree-walker; Div/Mod pin divisor-first evaluation and keep the
//     runtime trap);
//   * undo logging identical to SuccGen's, entry for entry (whole-channel
//     region snapshots, unconditional frame resets on crash), so COLLAPSE
//     delta compression and the differential tests see the same log.
//
// The module is split so the host can compile it in parallel. Unit 0, the
// dispatch unit, holds the entry point, visit_all/visit_of/expand_pid and
// do_emit; the expand_pN functions are bin-packed by emitted size over at
// most `max_units` units (and at most one per process). Cross-unit
// functions have hidden visibility, so the linked .so still exports only
// the entry point. do_emit -- skip check, step fill, host callback, revert
// loop -- is one out-of-line function rather than code copied into every
// candidate: that copy was most of the module's size and compile time.
// The module only generates successors: the host compresses them (COLLAPSE
// delta keys from the undo log), so nothing here mirrors host hashing.
//
// Single-buffer soundness: within one candidate every read (guards, send
// fields, recv matches, partner pcs) happens before the first write, and
// the buffer is reverted after each emit -- so mutating the scratch the
// reads come from cannot change any evaluated value.
#include "codegen/aot.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "codegen/aot_abi.h"
#include "codegen/fold.h"
#include "codegen/rendezvous.h"
#include "compile/compiler.h"

namespace pnp::codegen {

namespace {

using compile::CompiledProc;
using compile::OpKind;
using compile::Transition;
using expr::Value;
using model::RecvArgKind;

// Keep textually in sync with aot_abi.h (see the rules there).
constexpr const char* kAbiText = R"(#include <cstdint>

extern "C" {

struct pnp_aot_step {
  std::int32_t pid;
  std::int32_t trans;
  std::int32_t partner_pid;
  std::int32_t partner_trans;
  std::int32_t kind;
  std::int32_t chan;
  std::int32_t assert_failed;
  std::int32_t msg_len;
  const std::int32_t* msg;
};

struct pnp_aot_ctx {
  std::int32_t* mem;
  std::int32_t* undo_slot;
  std::int32_t* undo_val;
  std::int32_t undo_len;
  std::int32_t atomic_pid;
  std::int32_t src_atomic;
  std::int32_t skip;
  std::int32_t start_pid;
  std::int32_t stop_pid;
  std::int32_t cand;
  std::int32_t pid_base;
  void* host;
  std::int32_t (*emit)(pnp_aot_ctx*, const pnp_aot_step*);
  void (*trap)(pnp_aot_ctx*, const char*);
};

struct pnp_aot_module_v1 {
  std::int32_t abi_version;
  std::int32_t state_size;
  const char* source_digest;
  std::uint32_t (*visit_all)(pnp_aot_ctx*);
  std::uint32_t (*visit_of)(pnp_aot_ctx*, std::int32_t pid);
};

}  // extern "C"
)";

constexpr const char* kRuntimeText = R"(
namespace {

using i32 = std::int32_t;
using u32 = std::uint32_t;

inline void u_set(pnp_aot_ctx* c, i32 slot, i32 v) {
  c->undo_slot[c->undo_len] = slot;
  c->undo_val[c->undo_len] = c->mem[slot];
  ++c->undo_len;
  c->mem[slot] = v;
}

inline void u_save(pnp_aot_ctx* c, i32 slot) {
  c->undo_slot[c->undo_len] = slot;
  c->undo_val[c->undo_len] = c->mem[slot];
  ++c->undo_len;
}

[[noreturn]] inline void trap(pnp_aot_ctx* c, const char* msg) {
  c->trap(c, msg);
  __builtin_unreachable();
}

inline void chan_save(pnp_aot_ctx* c, i32 base, i32 count) {
  for (i32 i = 0; i < count; ++i) u_save(c, base + i);
}

inline void chan_push(pnp_aot_ctx* c, i32 base, i32 arity, const i32* f) {
  i32* m = c->mem;
  const i32 len = m[base];
  i32* dst = m + base + 1 + len * arity;
  for (i32 j = 0; j < arity; ++j) dst[j] = f[j];
  m[base] = len + 1;
}

inline void chan_push_sorted(pnp_aot_ctx* c, i32 base, i32 arity,
                             const i32* f) {
  i32* m = c->mem;
  const i32 len = m[base];
  i32* buf = m + base + 1;
  i32 pos = 0;
  while (pos < len) {
    const i32* q = buf + pos * arity;
    bool greater = false;
    for (i32 j = 0; j < arity; ++j) {
      if (q[j] != f[j]) {
        greater = q[j] > f[j];
        break;
      }
    }
    if (greater) break;
    ++pos;
  }
  for (i32 j = len * arity - 1; j >= pos * arity; --j) buf[j + arity] = buf[j];
  for (i32 j = 0; j < arity; ++j) buf[pos * arity + j] = f[j];
  m[base] = len + 1;
}

inline void chan_erase(pnp_aot_ctx* c, i32 base, i32 arity, i32 idx) {
  i32* m = c->mem;
  const i32 len = m[base];
  i32* buf = m + base + 1;
  for (i32 j = idx * arity; j < (len - 1) * arity; ++j) buf[j] = buf[j + arity];
  for (i32 j = (len - 1) * arity; j < len * arity; ++j) buf[j] = 0;
  m[base] = len - 1;
}

inline bool msg_eq(const i32* a, const i32* b, i32 arity) {
  for (i32 j = 0; j < arity; ++j)
    if (a[j] != b[j]) return false;
  return true;
}

}  // namespace
)";

// Dispatch unit only: the revert loop and the out-of-line do_emit that
// every candidate in every unit calls.
constexpr const char* kDispatchText = R"(
namespace {

inline void revert(pnp_aot_ctx* c) {
  for (i32 i = c->undo_len; i-- > 0;) c->mem[c->undo_slot[i]] = c->undo_val[i];
  c->undo_len = 0;
  c->atomic_pid = c->src_atomic;
}

}  // namespace

namespace pnp_gen {

i32 do_emit(pnp_aot_ctx* c, i32 pid, i32 trans, i32 kind, i32 chan,
            const i32* msg, i32 msg_len, i32 assert_failed, i32 partner_pid,
            i32 partner_trans) {
  ++c->cand;          // every candidate counts, surfaced or suppressed
  if (c->skip > 0) {  // suppressed candidate: keep indices, drop the surface
    --c->skip;
    revert(c);
    return 1;
  }
  pnp_aot_step st;
  st.pid = pid;
  st.trans = trans;
  st.partner_pid = partner_pid;
  st.partner_trans = partner_trans;
  st.kind = kind;
  st.chan = chan;
  st.assert_failed = assert_failed;
  st.msg_len = msg_len;
  st.msg = msg;
  const i32 keep = c->emit(c, &st);
  revert(c);
  return keep;
}

}  // namespace pnp_gen
)";

struct ChanStatic {
  int base{-1};
  int capacity{0};
  int arity{1};
  bool lossy{false};
  std::string name;
};

/// Signals "this machine can't be specialized"; caught at the
/// emit_aot_units top level and turned into the empty + why return.
struct Unsupported {
  std::string why;
};

std::string num(long long v) { return std::to_string(v); }

/// Per-pid expression -> C++ text, with params/SelfPid folded.
class CxxExpr {
 public:
  CxxExpr(const expr::Pool& pool, std::span<const Value> params, Value self,
          int frame_base, int n_params, const std::vector<ChanStatic>& chans)
      : pool_(pool),
        params_(params),
        self_(self),
        frame_base_(frame_base),
        n_params_(n_params),
        chans_(chans) {}

  std::string operator()(expr::Ref r) const { return emit(r); }

  std::optional<Value> fold(expr::Ref r) const {
    return fold_const(pool_, r, params_, self_);
  }

  /// Absolute slot of frame slot `slot` (params + locals).
  int frame_abs(int slot) const { return frame_base_ + slot - n_params_; }

 private:
  std::string emit(expr::Ref r) const {
    if (auto c = fold(r)) return num(*c);
    const expr::Node& n = pool_.at(r);
    using expr::Op;
    switch (n.op) {
      case Op::Const:
      case Op::SelfPid:
        return num(0);  // unreachable: always folds
      case Op::Global:
        return "m[" + num(n.imm) + "]";
      case Op::Local:
        return "m[" + num(frame_abs(n.imm)) + "]";
      case Op::Neg:
        return "(-" + emit(n.a) + ")";
      case Op::Not:
        return "(" + emit(n.a) + " == 0 ? 1 : 0)";
      case Op::Add:
        return "(" + emit(n.a) + " + " + emit(n.b) + ")";
      case Op::Sub:
        return "(" + emit(n.a) + " - " + emit(n.b) + ")";
      case Op::Mul:
        return "(" + emit(n.a) + " * " + emit(n.b) + ")";
      case Op::Div:
      case Op::Mod: {
        // divisor evaluated and checked first, like the tree interpreter
        const char* sym = n.op == Op::Div ? "/" : "%";
        const char* msg = n.op == Op::Div
                              ? "division by zero in model expression"
                              : "modulo by zero in model expression";
        return std::string("([&]() -> i32 { const i32 d_ = ") + emit(n.b) +
               "; if (d_ == 0) trap(c, \"" + msg + "\"); return " + emit(n.a) +
               " " + sym + " d_; }())";
      }
      case Op::And:
        return "(((" + emit(n.a) + ") != 0 && (" + emit(n.b) +
               ") != 0) ? 1 : 0)";
      case Op::Or:
        return "(((" + emit(n.a) + ") != 0 || (" + emit(n.b) +
               ") != 0) ? 1 : 0)";
      case Op::Eq:
        return "(" + emit(n.a) + " == " + emit(n.b) + " ? 1 : 0)";
      case Op::Ne:
        return "(" + emit(n.a) + " != " + emit(n.b) + " ? 1 : 0)";
      case Op::Lt:
        return "(" + emit(n.a) + " < " + emit(n.b) + " ? 1 : 0)";
      case Op::Le:
        return "(" + emit(n.a) + " <= " + emit(n.b) + " ? 1 : 0)";
      case Op::Gt:
        return "(" + emit(n.a) + " > " + emit(n.b) + " ? 1 : 0)";
      case Op::Ge:
        return "(" + emit(n.a) + " >= " + emit(n.b) + " ? 1 : 0)";
      case Op::Cond:
        return "((" + emit(n.a) + ") != 0 ? " + emit(n.b) + " : " +
               emit(n.c) + ")";
      case Op::ChanLen:
      case Op::ChanFull:
      case Op::ChanEmpty: {
        const auto id = fold(n.a);
        if (!id)
          throw Unsupported{"channel query with state-dependent channel id"};
        if (*id < 0 || static_cast<std::size_t>(*id) >= chans_.size())
          throw Unsupported{"channel query on out-of-range channel id " +
                            num(*id)};
        const ChanStatic& ch = chans_[static_cast<std::size_t>(*id)];
        if (ch.base < 0) {
          // rendezvous: len 0, full (0 >= 0), empty -- all constants
          return num(n.op == Op::ChanLen ? 0 : 1);
        }
        if (n.op == Op::ChanLen) return "m[" + num(ch.base) + "]";
        if (n.op == Op::ChanFull)
          return "(m[" + num(ch.base) + "] >= " + num(ch.capacity) +
                 " ? 1 : 0)";
        return "(m[" + num(ch.base) + "] == 0 ? 1 : 0)";
      }
    }
    return num(0);
  }

  const expr::Pool& pool_;
  std::span<const Value> params_;
  Value self_;
  int frame_base_;
  int n_params_;
  const std::vector<ChanStatic>& chans_;
};

/// Longest-first bin packing of the expand functions into `units` units:
/// each function, largest first, goes to the unit with the least code so
/// far, and unit 0 starts with `head` bytes of dispatch code. Emitted size
/// stands in for compile time.
std::vector<std::size_t> pack_units(const std::vector<std::string>& fns,
                                    std::size_t head, std::size_t units) {
  std::vector<std::size_t> order(fns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fns[a].size() > fns[b].size();
                   });
  std::vector<std::size_t> load(units, 0), unit_of(fns.size(), 0);
  load[0] = head;
  for (std::size_t f : order) {
    const std::size_t u = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    unit_of[f] = u;
    load[u] += fns[f].size();
  }
  return unit_of;
}

class Emitter {
 public:
  Emitter(const kernel::Machine& m, const std::string& digest)
      : m_(m), sys_(m.spec()), lay_(m.layout()), digest_(digest), rx_(m) {
    const std::size_t n_chans = sys_.channels.size();
    chans_.reserve(n_chans);
    for (std::size_t c = 0; c < n_chans; ++c) {
      const int ci = static_cast<int>(c);
      ChanStatic ch;
      ch.base = lay_.chan_region(ci).first;
      ch.capacity = lay_.chan_capacity(ci);
      ch.arity = lay_.chan_arity(ci);
      ch.lossy = lay_.chan_lossy(ci);
      ch.name = sys_.channels[c].name;
      chans_.push_back(std::move(ch));
    }
    for (int pid = 0; pid < m_.n_processes(); ++pid) {
      const std::vector<Value>& args =
          sys_.processes[static_cast<std::size_t>(pid)].args;
      ex_.emplace_back(sys_.exprs, std::span<const Value>{args.data(),
                                                          args.size()},
                       static_cast<Value>(pid), lay_.pc_slot(pid) + 1,
                       m_.proc_of(pid).n_params, chans_);
    }
  }

  std::vector<std::string> run(int max_units) {
    const int n = m_.n_processes();
    std::vector<std::string> expand;
    for (int pid = 0; pid < n; ++pid) {
      emit_expand(pid);
      expand.push_back(std::exchange(out_, {}));
    }
    emit_entry();
    std::vector<std::string> body(
        static_cast<std::size_t>(std::clamp(max_units, 1, std::max(n, 1))));
    body[0] = std::exchange(out_, {});
    const std::vector<std::size_t> unit_of =
        pack_units(expand, body[0].size(), body.size());
    for (std::size_t pid = 0; pid < expand.size(); ++pid)
      body[unit_of[pid]] += expand[pid];

    emit_decls();
    const std::string decls = std::exchange(out_, {});
    std::vector<std::string> units;
    for (std::size_t u = 0; u < body.size(); ++u) {
      std::string src = "// Generated successor module, unit " +
                        std::to_string(u) + " of " +
                        std::to_string(body.size()) +
                        "; do not edit. digest " + digest_ + "\n";
      src += kAbiText;
      src += kRuntimeText;
      src += decls;
      if (u == 0) src += kDispatchText;
      src += "\nnamespace pnp_gen {\n\n";
      src += body[u];
      src += "}  // namespace pnp_gen\n";
      if (u == 0) src += module_entry();
      units.push_back(std::move(src));
    }
    return units;
  }

 private:
  void line(const std::string& s) {
    out_.append(static_cast<std::size_t>(indent_) * 2, ' ');
    out_ += s;
    out_ += '\n';
  }
  void open(const std::string& s) {
    line(s);
    ++indent_;
  }
  void close(const std::string& s = "}") {
    --indent_;
    line(s);
  }

  /// `c->trap(...)` arm for conditions the interpreter checks at runtime:
  /// the generated code must fail when (and only when) the transition is
  /// actually reached, with the interpreter's exact message.
  void emit_trap(const std::string& msg) {
    line("trap(c, \"" + msg + "\");");
  }

  /// pc-slot update + atomic handover + emit + stop handling, shared by
  /// every single-emit transition arm. `extra` is "" or the message args.
  void emit_step_tail(int pid, int ti, const Transition& t, int kind,
                      int chan, const std::string& msg_ptr, int msg_len,
                      const std::string& assert_failed, bool is_program) {
    const CompiledProc& cp = m_.proc_of(pid);
    line("u_set(c, " + num(lay_.pc_slot(pid)) + ", " + num(t.dst) + ");");
    const bool at = cp.atomic_at[static_cast<std::size_t>(t.dst)];
    line("c->atomic_pid = " + num(at ? pid : -1) + ";");
    line("if (!do_emit(c, " + num(pid) + ", " + num(ti) + ", " + num(kind) +
         ", " + num(chan) + ", " + msg_ptr + ", " + num(msg_len) + ", " +
         assert_failed + ", -1, -1)) return any | 3u;");
    line("any = 1u;");
    if (is_program) line("any_program = 1u;");
  }

  /// The functions called across units, declared in every unit. Hidden:
  /// the linked module exports only pnp_aot_module, and the calls between
  /// units bind directly instead of through the PLT.
  void emit_decls() {
    out_ += "\nnamespace pnp_gen {\n\n";
    line("[[gnu::visibility(\"hidden\"), gnu::noinline]] i32 do_emit(");
    line("    pnp_aot_ctx* c, i32 pid, i32 trans, i32 kind, i32 chan, "
         "const i32* msg,");
    line("    i32 msg_len, i32 assert_failed, i32 partner_pid, "
         "i32 partner_trans);");
    for (int pid = 0; pid < m_.n_processes(); ++pid)
      line("[[gnu::visibility(\"hidden\")]] u32 expand_p" + num(pid) +
           "(pnp_aot_ctx* c);");
    out_ += "\n}  // namespace pnp_gen\n";
  }

  void emit_expand(int pid) {
    const CompiledProc& cp = m_.proc_of(pid);
    const CxxExpr& ex = ex_[static_cast<std::size_t>(pid)];
    open("u32 expand_p" + num(pid) + "(pnp_aot_ctx* c) {");
    line("i32* const m = c->mem;");
    line("(void)m;");
    line("u32 any = 0;");
    line("u32 any_program = 0;");
    line("(void)any_program;");
    open("switch (m[" + num(lay_.pc_slot(pid)) + "]) {");
    for (int pc = 0; pc < cp.n_pcs; ++pc) {
      const std::vector<int>& cands = cp.out[static_cast<std::size_t>(pc)];
      if (cands.empty()) continue;
      open("case " + num(pc) + ": {");
      int else_ti = -1;
      for (int ti : cands) {
        const Transition& t = cp.trans[static_cast<std::size_t>(ti)];
        if (t.op == OpKind::Else) {
          else_ti = ti;  // last Else wins, like the interpreter's loop
          continue;
        }
        emit_trans(pid, ti, t, ex);
      }
      if (else_ti >= 0) {
        const Transition& t = cp.trans[static_cast<std::size_t>(else_ti)];
        line("// else");
        open("if (!any_program) {");
        emit_step_tail(pid, else_ti, t, 0, -1, "nullptr", 0, "0", false);
        close();
      }
      line("break;");
      close();
    }
    line("default: break;");
    close();  // switch
    line("return any;");
    close();  // function
    out_ += "\n";
  }

  void emit_trans(int pid, int ti, const Transition& t, const CxxExpr& ex) {
    line("// t" + num(ti) + " " + op_name(t.op));
    switch (t.op) {
      case OpKind::Noop:
        open("{");
        emit_step_tail(pid, ti, t, 0, -1, "nullptr", 0, "0", true);
        close();
        break;
      case OpKind::Guard:
        open("if ((" + ex(t.expr) + ") != 0) {");
        emit_step_tail(pid, ti, t, 0, -1, "nullptr", 0, "0", true);
        close();
        break;
      case OpKind::Assign: {
        open("{");
        line("const i32 v_ = " + ex(t.expr) + ";");
        const int abs = t.lhs.kind == model::LhsKind::Global
                            ? t.lhs.slot
                            : lay_.frame_slot(pid, t.lhs.slot);
        line("u_set(c, " + num(abs) + ", v_);");
        emit_step_tail(pid, ti, t, 0, -1, "nullptr", 0, "0", true);
        close();
        break;
      }
      case OpKind::Assert:
        open("{");
        line("const i32 ok_ = " + ex(t.expr) + ";");
        emit_step_tail(pid, ti, t, 0, -1, "nullptr", 0, "ok_ == 0 ? 1 : 0",
                       true);
        close();
        break;
      case OpKind::Crash:
        emit_crash(pid, ti, t, ex);
        break;
      case OpKind::Send:
        emit_send(pid, ti, t, ex);
        break;
      case OpKind::Recv:
        emit_recv(pid, ti, t, ex);
        break;
      case OpKind::Else:
        break;  // handled by caller
    }
  }

  void emit_crash(int pid, int ti, const Transition& t, const CxxExpr& ex) {
    const CompiledProc& cp = m_.proc_of(pid);
    const int budget_abs = ex.frame_abs(t.lhs.slot);
    open("{");
    line("const i32 budget_ = m[" + num(budget_abs) + "];");
    open("if (budget_ > 0) {");
    // unconditional resets, one undo entry per mutable local (interpreter
    // parity: mut_frame always logs, even when the value is unchanged)
    for (std::size_t i = static_cast<std::size_t>(cp.n_params);
         i < cp.frame_init.size(); ++i)
      line("u_set(c, " + num(ex.frame_abs(static_cast<int>(i))) + ", " +
           num(cp.frame_init[i]) + ");");
    line("u_set(c, " + num(budget_abs) + ", budget_ - 1);");
    emit_step_tail(pid, ti, t, 0, -1, "nullptr", 0, "0",
                   /*is_program=*/false);
    close();
    close();
  }

  int chan_of(const Transition& t, const CxxExpr& ex, const char* what) {
    const auto id = ex.fold(t.chan);
    if (!id)
      throw Unsupported{std::string(what) +
                        " with state-dependent channel id"};
    return static_cast<int>(*id);
  }

  void emit_send(int pid, int ti, const Transition& t, const CxxExpr& ex) {
    const int chan = chan_of(t, ex, "send");
    if (chan < 0 || static_cast<std::size_t>(chan) >= chans_.size()) {
      emit_trap("send/recv on invalid channel id " + num(chan));
      return;
    }
    const ChanStatic& ch = chans_[static_cast<std::size_t>(chan)];
    if (static_cast<int>(t.fields.size()) != ch.arity) {
      emit_trap("send arity mismatch on channel " + ch.name);
      return;
    }
    if (ch.arity > 16) {
      emit_trap("channel arity > 16 unsupported");
      return;
    }
    open("{");
    line("i32 f_[" + num(ch.arity) + "];");
    for (int i = 0; i < ch.arity; ++i)
      line("f_[" + num(i) + "] = " +
           ex(t.fields[static_cast<std::size_t>(i)]) + ";");
    if (ch.capacity == 0) {
      emit_rendezvous(pid, ti, t, chan, ch);
      close();
      return;
    }
    const int region = 1 + ch.capacity * ch.arity;
    line("const i32 len_ = m[" + num(ch.base) + "];");
    open("if (len_ < " + num(ch.capacity) + ") {");
    line("chan_save(c, " + num(ch.base) + ", " + num(region) + ");");
    line(std::string(t.sorted ? "chan_push_sorted" : "chan_push") + "(c, " +
         num(ch.base) + ", " + num(ch.arity) + ", f_);");
    emit_step_tail(pid, ti, t, 1, chan, "f_", ch.arity, "0", true);
    if (ch.lossy) {
      close("} else {");
      ++indent_;
      line("// lossy channel drops the message silently");
      emit_step_tail(pid, ti, t, 1, chan, "f_", ch.arity, "0", true);
      close();
    } else {
      close();
    }
    close();
  }

  void emit_rendezvous(int pid, int ti, const Transition& t, int chan,
                       const ChanStatic& ch) {
    const CompiledProc& cp = m_.proc_of(pid);
    const bool at = cp.atomic_at[static_cast<std::size_t>(t.dst)];
    for (const int pid2 : rx_.receivers(chan)) {
      if (pid2 == pid) continue;
      const CompiledProc& cp2 = m_.proc_of(pid2);
      const CxxExpr& ex2 = ex_[static_cast<std::size_t>(pid2)];
      // collect (pc2 -> matching recv transitions on this channel)
      bool opened = false;
      for (int pc2 = 0; pc2 < cp2.n_pcs; ++pc2) {
        std::vector<int> hits;
        for (const int ti2 : rx_.receives(pid2, pc2)) {
          const Transition& t2 = cp2.trans[static_cast<std::size_t>(ti2)];
          const auto id2 = ex2.fold(t2.chan);
          if (!id2)
            throw Unsupported{"recv with state-dependent channel id"};
          if (static_cast<int>(*id2) == chan) hits.push_back(ti2);
        }
        if (hits.empty()) continue;
        if (!opened) {
          line("// partner pid " + num(pid2));
          open("switch (m[" + num(lay_.pc_slot(pid2)) + "]) {");
          opened = true;
        }
        open("case " + num(pc2) + ": {");
        for (int ti2 : hits) {
          const Transition& t2 = cp2.trans[static_cast<std::size_t>(ti2)];
          if (static_cast<int>(t2.args.size()) != ch.arity) {
            emit_trap("rendezvous pattern arity mismatch");
            continue;
          }
          std::string cond;
          for (std::size_t i = 0; i < t2.args.size(); ++i) {
            if (t2.args[i].kind != RecvArgKind::Match) continue;
            if (!cond.empty()) cond += " && ";
            cond += "(" + ex2(t2.args[i].match) + ") == f_[" + num(i) + "]";
          }
          open(cond.empty() ? "{" : "if (" + cond + ") {");
          for (std::size_t i = 0; i < t2.args.size(); ++i) {
            if (t2.args[i].kind != RecvArgKind::Bind) continue;
            const model::Lhs& lhs = t2.args[i].lhs;
            const int abs = lhs.kind == model::LhsKind::Global
                                ? lhs.slot
                                : lay_.frame_slot(pid2, lhs.slot);
            line("u_set(c, " + num(abs) + ", f_[" + num(i) + "]);");
          }
          line("u_set(c, " + num(lay_.pc_slot(pid)) + ", " + num(t.dst) +
               ");");
          line("u_set(c, " + num(lay_.pc_slot(pid2)) + ", " + num(t2.dst) +
               ");");
          const bool at2 = cp2.atomic_at[static_cast<std::size_t>(t2.dst)];
          const int na = at ? pid : (at2 ? pid2 : -1);
          line("c->atomic_pid = " + num(na) + ";");
          line("any = 1u;");
          line("any_program = 1u;");
          line("if (!do_emit(c, " + num(pid) + ", " + num(ti) + ", 3, " +
               num(chan) + ", f_, " + num(ch.arity) + ", 0, " + num(pid2) +
               ", " + num(ti2) + ")) return any | 2u;");
          close();
        }
        line("break;");
        close();
      }
      if (opened) {
        line("default: break;");
        close();  // switch
      }
    }
  }

  void emit_recv(int pid, int ti, const Transition& t, const CxxExpr& ex) {
    const int chan = chan_of(t, ex, "recv");
    if (chan < 0 || static_cast<std::size_t>(chan) >= chans_.size()) {
      emit_trap("send/recv on invalid channel id " + num(chan));
      return;
    }
    const ChanStatic& ch = chans_[static_cast<std::size_t>(chan)];
    if (ch.capacity == 0) return;  // rendezvous: passive side, no code
    if (static_cast<int>(t.args.size()) != ch.arity) {
      emit_trap("recv arity mismatch on channel " + ch.name);
      return;
    }
    const int region = 1 + ch.capacity * ch.arity;

    // match condition over a message pointer expression `q_`
    auto match_cond = [&]() {
      std::string cond;
      for (std::size_t i = 0; i < t.args.size(); ++i) {
        if (t.args[i].kind != RecvArgKind::Match) continue;
        if (!cond.empty()) cond += " && ";
        cond += "(" + ex(t.args[i].match) + ") == q_[" + num(i) + "]";
      }
      return cond;
    };
    auto emit_binds = [&]() {
      for (std::size_t i = 0; i < t.args.size(); ++i) {
        if (t.args[i].kind != RecvArgKind::Bind) continue;
        const model::Lhs& lhs = t.args[i].lhs;
        const int abs = lhs.kind == model::LhsKind::Global
                            ? lhs.slot
                            : lay_.frame_slot(pid, lhs.slot);
        line("u_set(c, " + num(abs) + ", f_[" + num(i) + "]);");
      }
    };
    auto emit_copy_fields = [&]() {
      line("i32 f_[" + num(ch.arity) + "];");
      line("for (i32 j_ = 0; j_ < " + num(ch.arity) +
           "; ++j_) f_[j_] = q_[j_];");
    };

    open("{");
    line("const i32 len_ = m[" + num(ch.base) + "];");
    open("if (len_ > 0) {");
    line("const i32* const buf_ = m + " + num(ch.base + 1) + ";");

    if (t.unordered) {
      open("for (i32 i_ = 0; i_ < len_; ++i_) {");
      line("const i32* const q_ = buf_ + i_ * " + num(ch.arity) + ";");
      const std::string cond = match_cond();
      if (!cond.empty()) line("if (!(" + cond + ")) continue;");
      line("if (i_ > 0 && msg_eq(q_, q_ - " + num(ch.arity) + ", " +
           num(ch.arity) + ")) continue;");
      emit_copy_fields();
      emit_binds();
      if (!t.copy) {
        line("chan_save(c, " + num(ch.base) + ", " + num(region) + ");");
        line("chan_erase(c, " + num(ch.base) + ", " + num(ch.arity) +
             ", i_);");
      }
      line("u_set(c, " + num(lay_.pc_slot(pid)) + ", " + num(t.dst) + ");");
      const bool at =
          m_.proc_of(pid).atomic_at[static_cast<std::size_t>(t.dst)];
      line("c->atomic_pid = " + num(at ? pid : -1) + ";");
      line("any = 1u;");
      line("any_program = 1u;");
      line("if (!do_emit(c, " + num(pid) + ", " + num(ti) + ", 2, " +
           num(chan) + ", f_, " + num(ch.arity) +
           ", 0, -1, -1)) return any | 2u;");
      close();  // for
    } else if (t.random) {
      line("i32 idx_ = -1;");
      open("for (i32 i_ = 0; i_ < len_; ++i_) {");
      line("const i32* const q_ = buf_ + i_ * " + num(ch.arity) + ";");
      const std::string cond = match_cond();
      line(cond.empty() ? "{ idx_ = i_; break; }"
                        : "if (" + cond + ") { idx_ = i_; break; }");
      close();
      open("if (idx_ >= 0) {");
      line("const i32* const q_ = buf_ + idx_ * " + num(ch.arity) + ";");
      emit_copy_fields();
      emit_binds();
      if (!t.copy) {
        line("chan_save(c, " + num(ch.base) + ", " + num(region) + ");");
        line("chan_erase(c, " + num(ch.base) + ", " + num(ch.arity) +
             ", idx_);");
      }
      emit_step_tail(pid, ti, t, 2, chan, "f_", ch.arity, "0", true);
      close();
    } else {
      line("const i32* const q_ = buf_;");
      const std::string cond = match_cond();
      open(cond.empty() ? "{" : "if (" + cond + ") {");
      emit_copy_fields();
      emit_binds();
      if (!t.copy) {
        line("chan_save(c, " + num(ch.base) + ", " + num(region) + ");");
        line("chan_erase(c, " + num(ch.base) + ", " + num(ch.arity) +
             ", 0);");
      }
      emit_step_tail(pid, ti, t, 2, chan, "f_", ch.arity, "0", true);
      close();
    }

    close();  // if len
    close();  // block
  }

  void emit_entry() {
    const int n = m_.n_processes();
    open("static u32 expand_pid(pnp_aot_ctx* c, i32 pid) {");
    open("switch (pid) {");
    for (int pid = 0; pid < n; ++pid)
      line("case " + num(pid) + ": return expand_p" + num(pid) + "(c);");
    line("default: return 0;");
    close();
    close();
    out_ += "\n";
    // The host only passes start_pid >= 0 for non-atomic source states, so
    // the resumed sweep never needs the atomic pre-pass. On a sink stop,
    // stop_pid/pid_base already name the interrupted process.
    open("static u32 visit_all(pnp_aot_ctx* c) {");
    open("if (c->src_atomic >= 0) {");
    line("const u32 r = expand_pid(c, c->src_atomic);");
    line("if (r & 1u) return r;");
    close();
    line("u32 acc = 0;");
    open("switch (c->start_pid < 0 ? 0 : c->start_pid) {");
    for (int pid = 0; pid < n; ++pid) {
      open("case " + num(pid) + ": {");
      line("c->stop_pid = " + num(pid) + ";");
      line("c->pid_base = c->cand;");
      line("const u32 r = expand_p" + num(pid) + "(c);");
      line("acc |= r;");
      line("if (r & 2u) return acc;");
      close();
      if (pid + 1 < n) line("[[fallthrough]];");
    }
    close();
    line("c->stop_pid = -1;  // ran to completion: nothing to resume");
    line("return acc;");
    close();
    out_ += "\n";
    line("static u32 visit_of(pnp_aot_ctx* c, i32 pid) { return "
         "expand_pid(c, pid); }");
    out_ += "\n";
    line("static const char kDigest[] = \"" + digest_ + "\";");
    out_ += "\n";
  }

  /// The one exported symbol, after unit 0's pnp_gen namespace.
  std::string module_entry() const {
    return "\nextern \"C\" pnp_aot_module_v1* pnp_aot_module() {\n"
           "  static pnp_aot_module_v1 mod = {" +
           num(kAotAbiVersion) + ", " + num(lay_.size()) +
           ", pnp_gen::kDigest, &pnp_gen::visit_all, &pnp_gen::visit_of};\n"
           "  return &mod;\n}\n";
  }

  static const char* op_name(OpKind op) {
    switch (op) {
      case OpKind::Noop: return "noop";
      case OpKind::Guard: return "guard";
      case OpKind::Else: return "else";
      case OpKind::Assign: return "assign";
      case OpKind::Send: return "send";
      case OpKind::Recv: return "recv";
      case OpKind::Assert: return "assert";
      case OpKind::Crash: return "crash";
    }
    return "?";
  }

  const kernel::Machine& m_;
  const model::SystemSpec& sys_;
  const kernel::Layout& lay_;
  std::string digest_;
  RendezvousIndex rx_;
  std::vector<ChanStatic> chans_;
  std::vector<CxxExpr> ex_;
  std::string out_;
  int indent_{0};
};

}  // namespace

std::vector<std::string> emit_aot_units(const kernel::Machine& m,
                                        const std::string& digest,
                                        int max_units, std::string* why) {
  try {
    return Emitter(m, digest).run(max_units);
  } catch (const Unsupported& u) {
    if (why) *why = u.why;
    return {};
  }
}

}  // namespace pnp::codegen
