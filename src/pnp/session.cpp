#include "pnp/session.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adl/adl.h"
#include "pml/parser.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

RunCheck to_check(const char* kind, std::string label,
                  const SafetyOutcome& o) {
  RunCheck c;
  c.kind = kind;
  c.label = std::move(label);
  c.passed = o.passed();
  c.stage = o.stages.empty() ? std::string() : o.stages.back().name;
  c.states_stored = o.result.stats.states_stored;
  c.seconds = o.result.stats.seconds;
  c.detail = o.report();
  c.engine = codegen::engine_kind_name(o.engine_actual);
  c.engine_note = o.engine_note;
  return c;
}

/// Records a check the verifier did not already announce (resilience and
/// raw-machine runs; verify_obligations emits its own ObligationFinished
/// events). The ledger's checks[] array is built from these.
void note_check(obs::Observer& ob, const RunCheck& c) {
  ob.recorder().add(obs::Counter::ObligationsVerified, 1);
  obs::Event e;
  e.kind = obs::EventKind::ObligationFinished;
  e.label = c.label;
  e.passed = c.passed;
  e.states = c.states_stored;
  e.seconds = c.seconds;
  e.attrs.emplace_back("kind", c.kind);
  e.attrs.emplace_back("stage", c.stage);
  ob.emit(e);
}

}  // namespace

// -- RunConfig views ----------------------------------------------------------

VerifyOptions RunConfig::verify_options() const {
  VerifyOptions v;
  static_cast<ExecBudget&>(v) = *this;
  v.check_deadlock = check_deadlock;
  v.por = por;
  v.bfs = bfs;
  v.degrade = degrade;
  v.bitstate_bytes = bitstate_bytes;
  v.minimize = minimize;
  v.engine = engine;
  // Compiled AOT artifacts live next to the verdict cache: both are
  // content-addressed, so one --cache-dir serves both stores.
  v.engine_cache_dir = cache_dir;
  // Checkpoints written through a Session are addressed by the RunConfig
  // digest, so resume() can reject a snapshot from an edited config.
  v.config_digest = digest();
  return v;
}

SuiteOptions RunConfig::suite_options() const {
  SuiteOptions s;
  s.verify = verify_options();
  s.gen = gen;
  s.invariant_text = invariant_text;
  s.end_invariant_text = end_invariant_text;
  s.props = props;
  s.ltl = ltl;
  s.ltl_weak_fairness = ltl_weak_fairness;
  s.connector_protocols = connector_protocols;
  s.cache_dir = cache_dir;
  s.cache = shared_cache;
  return s;
}

ResilienceOptions RunConfig::resilience_options() const {
  ResilienceOptions r;
  r.verify = verify_options();
  r.verify.threads = 1;  // parallelism goes to the variant axis instead
  r.jobs = threads;
  r.invariant_text = invariant_text;
  r.gen = gen;
  return r;
}

ltl::CheckOptions RunConfig::ltl_options() const {
  ltl::CheckOptions c;
  static_cast<ExecBudget&>(c) = *this;
  c.weak_fairness = ltl_weak_fairness;
  c.engine = engine;
  c.engine_cache_dir = cache_dir;
  return c;
}

std::string RunConfig::digest() const {
  // Canonical text of the verdict-relevant fields, in a fixed order.
  // threads, the successor engine and the observability fields are
  // deliberately excluded: they cannot change a verdict (see options_text
  // in verifier.cpp). Keeping `engine` out is what makes checkpoints
  // portable across engines -- an interp snapshot resumes under bytecode
  // and vice versa, which test_codegen asserts.
  std::ostringstream os;
  os << "max_states=" << max_states << ";deadline=" << deadline_seconds
     << ";mem=" << memory_budget_bytes << ";deadlock=" << check_deadlock
     << ";por=" << por << ";bfs=" << bfs << ";degrade=" << degrade
     << ";bitstate=" << bitstate_bytes << ";minimize=" << to_string(minimize)
     << ";optimize=" << gen.optimize_connectors
     << ";inv=" << invariant_text << ";endinv=" << end_invariant_text
     << ";fair=" << ltl_weak_fairness << ";protocols=" << connector_protocols;
  for (const auto& [name, text] : props) os << ";prop:" << name << "=" << text;
  for (const std::string& f : ltl) os << ";ltl:" << f;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, stable_hash64(os.str()));
  return buf;
}

// -- RunReport ----------------------------------------------------------------

int RunReport::cache_hits() const {
  int n = 0;
  for (const RunCheck& c : checks) n += c.from_cache ? 1 : 0;
  return n;
}

int RunReport::recomputed() const {
  return static_cast<int>(checks.size()) - cache_hits();
}

std::string RunReport::report() const {
  std::ostringstream os;
  os << "== " << subject << " [" << mode << "] config " << config_digest
     << " ==\n";
  if (reduction) os << reduction->summary() << "\n";
  int failed = 0;
  for (const RunCheck& c : checks) {
    os << "[" << (c.passed ? "PASS" : "FAIL") << "] " << c.kind << ": "
       << c.label << "  (";
    if (!c.stage.empty()) os << "stage " << c.stage << ", ";
    os << c.states_stored << " states, " << c.seconds * 1e3 << " ms";
    if (c.from_cache) os << ", cached";
    os << ")\n";
    if (!c.passed) {
      ++failed;
      if (!c.detail.empty()) os << c.detail;
    }
  }
  os << "generation: " << gen_stats.summary() << "\n";
  os << "verdict: " << (passed ? "PASS" : "FAIL") << " -- " << checks.size()
     << " checks, " << cache_hits() << " from cache, " << failed
     << " failed, " << seconds << " s\n";
  if (!ledger_path.empty()) os << "ledger: " << ledger_path << "\n";
  if (!trail_path.empty()) os << "trail: " << trail_path << "\n";
  return os.str();
}

// -- Session ------------------------------------------------------------------

Session::Session(RunConfig cfg) : cfg_(std::move(cfg)) {}

void Session::ensure_sinks() {
  if (sinks_ready_) return;
  sinks_ready_ = true;
  obs_.set_heartbeat_interval(cfg_.heartbeat_seconds);
  if (cfg_.heartbeat || cfg_.heartbeat_force)
    obs_.add_sink(
        std::make_shared<obs::HeartbeatSink>(stderr, cfg_.heartbeat_force));
  if (!cfg_.ledger_dir.empty() && ledger_sink_ == nullptr) {
    auto ledger = std::make_shared<obs::LedgerSink>(cfg_.ledger_dir);
    ledger_path_ = ledger->path();
    ledger_sink_ = ledger;
    obs_.add_sink(std::move(ledger));
  }
}

void Session::attach_ledger(std::shared_ptr<obs::LedgerSink> sink) {
  PNP_CHECK(sink != nullptr, "Session::attach_ledger: null sink");
  PNP_CHECK(ledger_sink_ == nullptr,
            "Session::attach_ledger: a ledger sink is already attached");
  ledger_path_ = sink->path();
  ledger_sink_ = sink;
  // Trail files for failed checks land next to the ledger (finish_run
  // consults cfg_.ledger_dir), wherever the sink was pointed.
  cfg_.ledger_dir = sink->dir();
  obs_.add_sink(std::move(sink));
}

reduce::VerificationCache* Session::verdict_cache_for_run() {
  if (cfg_.shared_cache != nullptr) return cfg_.shared_cache;
  if (cfg_.cache_dir.empty()) return nullptr;
  // A new directory loads its own file, so a fresh one is a cold cache.
  if (cache_ == nullptr || cache_dir_ != cfg_.cache_dir) {
    cache_ = std::make_unique<reduce::VerificationCache>(cfg_.cache_dir);
    cache_dir_ = cfg_.cache_dir;
  } else {
    cache_->refresh();
  }
  return cache_.get();
}

RunReport Session::begin_run(const std::string& subject, const char* mode) {
  ++runs_;
  RunReport rep;
  rep.subject = subject;
  rep.mode = mode;
  rep.config_digest = cfg_.digest();
  obs_.run_started(subject, rep.config_digest, {{"mode", mode}});
  return rep;
}

void Session::finish_run(RunReport& rep, Clock::time_point started) {
  rep.passed = true;
  for (const RunCheck& c : rep.checks) rep.passed = rep.passed && c.passed;
  rep.seconds = seconds_since(started);
  rep.ledger_path = ledger_path_;
  // Counterexamples outlive the terminal scrollback: every failed check's
  // full report lands in a trail file next to the ledger, and the first
  // one becomes the record's "trail" pointer.
  if (!cfg_.ledger_dir.empty()) {
    int k = 0;
    for (const RunCheck& c : rep.checks) {
      if (c.passed || c.detail.empty()) continue;
      const std::string name =
          "trail-" + std::to_string(runs_) + "-" + std::to_string(k++) + ".txt";
      const std::string path =
          (std::filesystem::path(cfg_.ledger_dir) / name).string();
      std::ofstream out(path);
      if (!out) continue;  // a full disk must not turn a verdict into a crash
      out << rep.subject << ": " << c.kind << ": " << c.label << "\n"
          << c.detail;
      if (rep.trail_path.empty()) rep.trail_path = path;
    }
  }
  std::vector<std::pair<std::string, std::string>> attrs;
  attrs.emplace_back("mode", rep.mode);
  if (!rep.trail_path.empty()) attrs.emplace_back("trail", rep.trail_path);
  // Resolved successor engine for the whole run: the request comes from the
  // config, the resolution from the first check that actually ran a search
  // (engines resolve identically within a run -- one toolchain, one cache).
  // A cache-hit-only run resolves nothing and honestly reports the request.
  {
    attrs.emplace_back("engine.requested",
                       codegen::engine_kind_name(cfg_.engine));
    std::string actual = codegen::engine_kind_name(cfg_.engine);
    std::string note;
    for (const RunCheck& c : rep.checks)
      if (!c.engine.empty()) {
        actual = c.engine;
        note = c.engine_note;
        break;
      }
    attrs.emplace_back("engine.actual", actual);
    if (!note.empty()) attrs.emplace_back("engine.note", note);
  }
  // A SIGINT/SIGTERM stop still lands a clean RunFinished record, marked
  // so ledger consumers can tell "stopped on purpose" from "verdict".
  if (cfg_.interrupt != nullptr &&
      cfg_.interrupt->load(std::memory_order_relaxed))
    attrs.emplace_back("interrupted", "true");
  obs_.run_finished(rep.passed, rep.seconds, std::move(attrs));
}

RunReport Session::verify(const Architecture& arch) {
  ensure_sinks();
  const Clock::time_point t0 = Clock::now();
  RunReport rep = begin_run(arch.name(), "suite");
  SuiteOptions sopt = cfg_.suite_options();
  sopt.verify.obs = &obs_;
  sopt.cache = verdict_cache_for_run();
  const SuiteReport s = verify_obligations(arch, sopt, &gen_);
  rep.gen_stats = s.gen_stats;
  rep.reduction = s.reduction;
  rep.checks.reserve(s.obligations.size());
  for (const ObligationResult& o : s.obligations)
    rep.checks.push_back(RunCheck{o.kind, o.label, o.passed, o.from_cache,
                                  o.stage, o.states_stored, o.seconds,
                                  o.detail, o.engine, o.engine_note});
  finish_run(rep, t0);
  return rep;
}

RunReport Session::verify_resilience(const Architecture& arch,
                                     std::vector<FaultSpec> faults) {
  ensure_sinks();
  const Clock::time_point t0 = Clock::now();
  RunReport rep = begin_run(arch.name(), "resilience");
  if (faults.empty()) faults = default_fault_suite(arch);
  ResilienceOptions ropt = cfg_.resilience_options();
  ropt.verify.obs = &obs_;
  const ResilienceReport r = check_resilience(arch, faults, ropt, &gen_);
  rep.gen_stats = r.gen_stats;
  if (r.baseline)
    rep.checks.push_back(to_check("baseline", "fault-free", *r.baseline));
  for (const FaultOutcome& f : r.faults)
    rep.checks.push_back(to_check("fault", f.description, f.outcome));
  for (const RunCheck& c : rep.checks) note_check(obs_, c);
  finish_run(rep, t0);
  return rep;
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

RunReport Session::verify_source(std::string subject, const std::string& text,
                                 SourceKind kind, bool resilience) {
  if (kind == SourceKind::Auto) {
    if (ends_with(subject, ".arch")) {
      kind = SourceKind::Arch;
    } else if (ends_with(subject, ".pml")) {
      kind = SourceKind::Pml;
    } else {
      // First keyword wins: ADL sources open with "architecture NAME {",
      // PML sources declare proctypes. Ambiguous text parses as PML.
      const std::size_t a = text.find("architecture");
      const std::size_t p = text.find("proctype");
      kind = a != std::string::npos && (p == std::string::npos || a < p)
                 ? SourceKind::Arch
                 : SourceKind::Pml;
    }
  }
  if (kind == SourceKind::Arch) {
    const Architecture arch = adl::parse_architecture(text);
    return resilience ? verify_resilience(arch) : verify(arch);
  }
  PNP_CHECK(!resilience, "verify_source: resilience applies to ADL "
                         "architectures only (subject '" + subject + "')");
  model::SystemSpec sys = pml::parse(text);
  const kernel::Machine m(sys);
  return verify_machine(m, std::move(subject), [&sys](const std::string& t) {
    return pml::parse_global_expr(sys, t);
  });
}

RunReport Session::resume(const Architecture& arch) {
  PNP_CHECK(!cfg_.checkpoint_dir.empty(),
            "Session::resume: config().checkpoint_dir is not set");
  cfg_.resume = true;
  RunReport rep = verify(arch);
  cfg_.resume = false;
  return rep;
}

RunReport Session::resume_machine(const kernel::Machine& m,
                                  std::string subject,
                                  const ExprParser& parse_expr) {
  PNP_CHECK(!cfg_.checkpoint_dir.empty(),
            "Session::resume_machine: config().checkpoint_dir is not set");
  cfg_.resume = true;
  RunReport rep = verify_machine(m, std::move(subject), parse_expr);
  cfg_.resume = false;
  return rep;
}

RunReport Session::verify_machine(const kernel::Machine& m,
                                  std::string subject,
                                  const ExprParser& parse_expr) {
  ensure_sinks();
  const Clock::time_point t0 = Clock::now();
  RunReport rep = begin_run(subject, "machine");

  VerifyOptions vopt = cfg_.verify_options();
  vopt.obs = &obs_;
  SafetyProps sp;
  if (!cfg_.invariant_text.empty()) {
    sp.invariant = parse_expr(cfg_.invariant_text);
    sp.invariant_name = cfg_.invariant_text;
  }
  if (!cfg_.end_invariant_text.empty()) {
    sp.end_invariant = parse_expr(cfg_.end_invariant_text);
    sp.end_invariant_name = cfg_.end_invariant_text;
  }
  const SafetyOutcome safety = check_machine(m, sp, vopt);
  rep.reduction = safety.reduction;
  {
    RunCheck c = to_check("safety", safety.property_name, safety);
    note_check(obs_, c);
    rep.checks.push_back(std::move(c));
  }

  if (!cfg_.ltl.empty()) {
    // LTL always uses the strong quotient (weak tau-contraction is not
    // stutter-sound); the quotient shares m's SystemSpec, so the property
    // refs parsed below carry over unchanged.
    const kernel::Machine* lm = &m;
    std::optional<reduce::ReducedMachine> red;
    if (cfg_.minimize != MinimizeMode::Off) {
      red.emplace(m, reduce::Equivalence::Strong);
      lm = &red->machine();
    }
    ltl::PropertyContext props;
    for (const auto& [name, text] : cfg_.props) props.add(name, parse_expr(text));
    ltl::CheckOptions copt = cfg_.ltl_options();
    copt.obs = &obs_;
    for (const std::string& formula : cfg_.ltl) {
      const LtlOutcome lo = check_ltl_formula(*lm, props, formula, copt);
      RunCheck c;
      c.kind = "ltl";
      c.label = formula;
      c.passed = lo.passed();
      c.stage = lo.stage(red.has_value());
      c.states_stored = lo.result.stats.states_stored;
      c.seconds = lo.result.stats.seconds;
      c.detail = lo.report();
      c.engine = codegen::engine_kind_name(lo.result.engine_actual);
      c.engine_note = lo.result.engine_note;
      note_check(obs_, c);
      rep.checks.push_back(std::move(c));
    }
  }
  finish_run(rep, t0);
  return rep;
}

}  // namespace pnp
