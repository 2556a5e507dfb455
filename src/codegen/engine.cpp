#include "codegen/engine.h"

#include <cstdio>
#include <string>

#include "codegen/aot.h"
#include "codegen/bytecode.h"
#include "obs/obs.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp::codegen {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::Interp: return "interp";
    case EngineKind::Bytecode: return "bytecode";
    case EngineKind::Aot: return "aot";
  }
  return "?";
}

bool parse_engine_kind(std::string_view text, EngineKind* out) {
  if (text == "interp") {
    *out = EngineKind::Interp;
  } else if (text == "bytecode") {
    *out = EngineKind::Bytecode;
  } else if (text == "aot") {
    *out = EngineKind::Aot;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Forwards candidates to `inner` after dropping the first `skip`.
class SkipSink final : public kernel::SuccSink {
 public:
  SkipSink(kernel::SuccSink& inner, std::uint32_t skip)
      : inner_(inner), skip_(skip) {}

  bool on_successor(const kernel::State& ns,
                    const kernel::Step& step) override {
    if (skip_ > 0) {
      --skip_;
      return true;
    }
    return inner_.on_successor(ns, step);
  }

 private:
  kernel::SuccSink& inner_;
  std::uint32_t skip_;
};

/// The kernel interpreter behind the seam. It has no native skip, so
/// skipped candidates are still mutated and emitted, then dropped at the
/// sink; it has no resume token (it clears the caller's).
class InterpEngine final : public Engine {
 public:
  explicit InterpEngine(const kernel::Machine& m) : Engine(m) {}

  EngineKind kind() const override { return EngineKind::Interp; }

  void visit_successors(const kernel::State& s, kernel::SuccScratch& scratch,
                        kernel::SuccSink& sink, std::uint32_t skip,
                        std::uint64_t* resume) const override {
    if (resume != nullptr) *resume = 0;
    if (skip == 0) {
      m_->visit_successors(s, scratch, sink);
      return;
    }
    SkipSink rest(sink, skip);
    m_->visit_successors(s, scratch, rest);
  }

  bool visit_successors_of(const kernel::State& s, int pid,
                           kernel::SuccScratch& scratch,
                           kernel::SuccSink& sink,
                           std::uint32_t skip) const override {
    if (skip == 0) return m_->visit_successors_of(s, pid, scratch, sink);
    SkipSink rest(sink, skip);
    return m_->visit_successors_of(s, pid, scratch, rest);
  }
};

void dump_expr(const expr::Pool& pool, expr::Ref r, std::string& out) {
  if (r == expr::kNoExpr) {
    out += "~";
    return;
  }
  const expr::Node& n = pool.at(r);
  out += "(";
  out += std::to_string(static_cast<int>(n.op));
  out += " ";
  out += std::to_string(n.imm);
  out += " ";
  dump_expr(pool, n.a, out);
  dump_expr(pool, n.b, out);
  dump_expr(pool, n.c, out);
  out += ")";
}

void dump_lhs(const model::Lhs& lhs, std::string& out) {
  out += lhs.kind == model::LhsKind::Global ? "g" : "l";
  out += std::to_string(lhs.slot);
}

}  // namespace

std::string machine_digest(const kernel::Machine& m) {
  // Canonical structural dump of everything that determines successor
  // semantics. Names are deliberately excluded (renaming a channel must not
  // invalidate cached artifacts); expression trees are serialized inline so
  // intern-pool numbering cannot leak into the digest.
  const model::SystemSpec& sys = m.spec();
  const expr::Pool& pool = sys.exprs;
  std::string d = "pnp-machine-v1\n";
  d += "layout " + std::to_string(m.layout().size()) + "\n";
  d += "globals";
  for (const auto& g : sys.globals) d += " " + std::to_string(g.init);
  d += "\n";
  for (std::size_t c = 0; c < sys.channels.size(); ++c) {
    const model::ChannelDecl& ch = sys.channels[c];
    d += "chan " + std::to_string(ch.capacity) + " " +
         std::to_string(ch.arity) + (ch.lossy ? " lossy" : "") + "\n";
  }
  for (int pid = 0; pid < m.n_processes(); ++pid) {
    const compile::CompiledProc& cp = m.proc_of(pid);
    const model::ProcessInst& inst =
        sys.processes[static_cast<std::size_t>(pid)];
    d += "proc entry=" + std::to_string(cp.entry) +
         " pcs=" + std::to_string(cp.n_pcs) + " args";
    for (expr::Value a : inst.args) d += " " + std::to_string(a);
    d += " init";
    for (expr::Value v : cp.frame_init) d += " " + std::to_string(v);
    d += " flags ";
    for (int pc = 0; pc < cp.n_pcs; ++pc) {
      d += cp.atomic_at[static_cast<std::size_t>(pc)] ? 'a' : '.';
      d += cp.valid_end[static_cast<std::size_t>(pc)] ? 'e' : '.';
    }
    d += "\n";
    for (int pc = 0; pc < cp.n_pcs; ++pc) {
      d += " out";
      for (int ti : cp.out[static_cast<std::size_t>(pc)])
        d += " " + std::to_string(ti);
      d += "\n";
    }
    for (const compile::Transition& t : cp.trans) {
      d += " t " + std::to_string(t.src) + ">" + std::to_string(t.dst) + " " +
           std::to_string(static_cast<int>(t.op)) + " ";
      dump_expr(pool, t.expr, d);
      dump_lhs(t.lhs, d);
      dump_expr(pool, t.chan, d);
      for (expr::Ref f : t.fields) dump_expr(pool, f, d);
      if (t.sorted) d += " sorted";
      if (t.random) d += " random";
      if (t.copy) d += " copy";
      if (t.unordered) d += " unordered";
      for (const model::RecvArg& a : t.args) {
        switch (a.kind) {
          case model::RecvArgKind::Bind:
            d += " b";
            dump_lhs(a.lhs, d);
            break;
          case model::RecvArgKind::Match:
            d += " m";
            dump_expr(pool, a.match, d);
            break;
          case model::RecvArgKind::Wildcard:
            d += " w";
            break;
        }
      }
      d += "\n";
    }
  }
  return std::string("m") +
         [&] {
           char buf[17];
           std::snprintf(buf, sizeof buf, "%016llx",
                         static_cast<unsigned long long>(stable_hash64(d)));
           return std::string(buf);
         }();
}

std::unique_ptr<Engine> make_engine(const kernel::Machine& m,
                                    const EngineOptions& opt,
                                    std::string* note) {
  switch (opt.kind) {
    case EngineKind::Interp:
      break;
    case EngineKind::Bytecode:
      return make_bytecode_engine(m);
    case EngineKind::Aot: {
      std::string why;
      if (auto e = make_aot_engine(m, opt, &why)) return e;
      if (opt.strict)
        raise_model_error("aot engine unavailable: " + why);
      if (opt.obs)
        opt.obs->recorder().add(obs::Counter::CodegenFallbacks, 1);
      if (note) *note = "aot unavailable (" + why + "); using bytecode";
      return make_bytecode_engine(m);
    }
  }
  return std::make_unique<InterpEngine>(m);
}

}  // namespace pnp::codegen
