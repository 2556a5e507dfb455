// pnpv: command-line verifier for PML models and ADL architectures.
//
//   pnpv MODEL.pml [options]       verify a Promela-subset model
//   pnpv DESIGN.arch [options]     verify a PnP architecture description
//
// Run `pnpv --help` for the full option list -- it is generated from the
// same flag registry that parses the command line and the PNPV_* environment
// variables, so the three can never drift apart. Every verification option
// lands in one pnp::RunConfig field and both file kinds are driven through
// one pnp::Session, which also provides the TTY heartbeat (--heartbeat /
// --no-heartbeat) and the JSONL run ledger (--ledger DIR).
//
// Exit code: 0 if every requested check passed, 1 otherwise, 2 on usage or
// model errors.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adl/adl.h"
#include "codegen/aot.h"
#include "pml/parser.h"
#include "pnp/pnp.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/panic.h"

namespace {

using namespace pnp;

/// SIGINT/SIGTERM request a graceful stop: the engines park, write a final
/// checkpoint (when --checkpoint-dir is set) and the run ledger still gets
/// its clean RunFinished record. A second signal force-exits.
std::atomic<bool> g_interrupt{false};

extern "C" void on_interrupt(int) {
  if (g_interrupt.exchange(true)) std::_Exit(130);  // second signal: give up
}

/// In --serve mode SIGINT/SIGTERM initiate the graceful drain instead
/// (request_stop() is async-signal-safe); a second signal force-exits.
std::atomic<serve::Server*> g_server{nullptr};

extern "C" void on_serve_signal(int) {
  serve::Server* s = g_server.exchange(nullptr);
  if (s == nullptr) std::_Exit(130);  // second signal: give up
  s->request_stop();
}

struct Args {
  RunConfig cfg;
  std::string model_path;
  bool dot = false;
  bool resilience = false;
  std::vector<FaultSpec> fault_list;
  int simulate = 0;
  std::uint64_t seed = 1;
  bool msc = false;
  bool verbose = false;      // print per-check engine resolution
  bool engine_list = false;  // --engine list: backend diagnostic, no model
  // -- daemon / client mode (see serve/server.h) --
  bool serve = false;
  bool submit = false;
  std::string socket_path;
  int port = -1;
  int workers = 2;
  std::uint64_t server_memory = std::uint64_t{4} << 30;
  std::uint64_t job_memory = std::uint64_t{256} << 20;
};

[[noreturn]] void usage(const std::string& msg);

std::uint64_t parse_u64(const std::string& v, const char* flag) {
  try {
    return std::stoull(v);
  } catch (...) {
    usage(std::string(flag) + " needs a non-negative integer, got '" + v + "'");
  }
}

/// Byte sizes with optional K/M/G suffix (binary units): "512M", "2G", "64".
std::uint64_t parse_bytes(const std::string& v, const char* flag) {
  std::size_t end = 0;
  std::uint64_t n = 0;
  try {
    n = std::stoull(v, &end);
  } catch (...) {
    usage(std::string(flag) + " needs SIZE[K|M|G], got '" + v + "'");
  }
  std::uint64_t mult = 1;
  if (end < v.size()) {
    const std::string suffix = v.substr(end);
    if (suffix == "K" || suffix == "k") mult = std::uint64_t{1} << 10;
    else if (suffix == "M" || suffix == "m") mult = std::uint64_t{1} << 20;
    else if (suffix == "G" || suffix == "g") mult = std::uint64_t{1} << 30;
    else usage(std::string(flag) + ": unknown size suffix '" + suffix + "'");
  }
  return n * mult;
}

FaultSpec parse_fault(const std::string& v) {
  const std::size_t c1 = v.find(':');
  if (c1 == std::string::npos) usage("--fault needs KIND:TARGET[:BUDGET]");
  const std::string kind = v.substr(0, c1);
  std::string rest = v.substr(c1 + 1);
  FaultSpec f;
  const std::size_t c2 = rest.rfind(':');
  if (c2 != std::string::npos &&
      rest.find_first_not_of("0123456789", c2 + 1) == std::string::npos &&
      c2 + 1 < rest.size()) {
    f.budget = std::stoi(rest.substr(c2 + 1));
    rest = rest.substr(0, c2);
  }
  f.target = rest;
  if (kind == "loss") f.kind = FaultKind::MessageLoss;
  else if (kind == "duplication") f.kind = FaultKind::MessageDuplication;
  else if (kind == "reorder") f.kind = FaultKind::MessageReorder;
  else if (kind == "timeout") f.kind = FaultKind::SendTimeout;
  else if (kind == "crash") f.kind = FaultKind::CrashRestart;
  else usage("unknown fault kind '" + kind + "'");
  return f;
}

// -- the flag registry --------------------------------------------------------
// One row per option: long name, PNPV_* environment variable (applied before
// the command line, so flags override the environment), value placeholder
// (nullptr = boolean), optional-value whitelist, help text, and the single
// RunConfig/Args field it sets. --help is generated from this table.

struct FlagDef {
  const char* name;    // long option, without the leading "--"
  const char* env;     // environment variable; nullptr = CLI only
  const char* arg;     // value placeholder; nullptr = boolean flag
  const char* accepts; // optional trailing value: space-separated whitelist
  const char* help;
  void (*apply)(Args&, const std::string&);  // booleans receive ""
};

const FlagDef kFlags[] = {
    {"invariant", "PNPV_INVARIANT", "EXPR", nullptr,
     "check EXPR (over globals) in every state",
     [](Args& a, const std::string& v) { a.cfg.invariant_text = v; }},
    {"end-invariant", "PNPV_END_INVARIANT", "EXPR", nullptr,
     "check EXPR in every terminal state",
     [](Args& a, const std::string& v) { a.cfg.end_invariant_text = v; }},
    {"prop", nullptr, "NAME=EXPR", nullptr,
     "define an LTL proposition (repeatable)",
     [](Args& a, const std::string& v) {
       const std::size_t eq = v.find('=');
       if (eq == std::string::npos) usage("--prop needs NAME=EXPR");
       a.cfg.props.emplace_back(v.substr(0, eq), v.substr(eq + 1));
     }},
    {"ltl", nullptr, "FORMULA", nullptr,
     "check an LTL formula (repeatable; uses --prop)",
     [](Args& a, const std::string& v) { a.cfg.ltl.push_back(v); }},
    {"fair", "PNPV_FAIR", nullptr, nullptr,
     "enforce weak process fairness for --ltl",
     [](Args& a, const std::string&) { a.cfg.ltl_weak_fairness = true; }},
    {"no-deadlock-check", nullptr, nullptr, nullptr,
     "skip invalid-end-state detection",
     [](Args& a, const std::string&) { a.cfg.check_deadlock = false; }},
    {"por", "PNPV_POR", nullptr, nullptr, "partial-order reduction",
     [](Args& a, const std::string&) { a.cfg.por = true; }},
    {"bfs", "PNPV_BFS", nullptr, nullptr,
     "breadth-first (shortest counterexamples)",
     [](Args& a, const std::string&) { a.cfg.bfs = true; }},
    {"threads", "PNPV_THREADS", "N", nullptr,
     "exploration threads (1 = sequential, 0 = hardware concurrency); "
     "verdicts are thread-count independent",
     [](Args& a, const std::string& v) {
       a.cfg.threads = std::atoi(v.c_str());
       if (a.cfg.threads < 0) usage("--threads must be >= 0");
     }},
    {"max-states", "PNPV_MAX_STATES", "N", nullptr,
     "search bound (default 20000000)",
     [](Args& a, const std::string& v) {
       a.cfg.max_states = parse_u64(v, "--max-states");
     }},
    {"deadline", "PNPV_DEADLINE", "S", nullptr,
     "wall-clock budget in seconds (partial result + truncation reason when "
     "exceeded)",
     [](Args& a, const std::string& v) {
       a.cfg.deadline_seconds = std::atof(v.c_str());
     }},
    {"memory", "PNPV_MEMORY", "SIZE[K|M|G]", nullptr,
     "approximate memory budget for the search, in bytes",
     [](Args& a, const std::string& v) {
       a.cfg.memory_budget_bytes = parse_bytes(v, "--memory");
     }},
    {"memory-mb", nullptr, "N", nullptr,
     "deprecated alias for --memory NM (mebibytes, converted once here)",
     [](Args& a, const std::string& v) {
       a.cfg.memory_budget_bytes =
           parse_u64(v, "--memory-mb") * (std::uint64_t{1} << 20);
     }},
    {"optimize", "PNPV_OPTIMIZE", nullptr, nullptr,
     "(.arch) substitute optimized connector models",
     [](Args& a, const std::string&) { a.cfg.gen.optimize_connectors = true; }},
    {"minimize", "PNPV_MINIMIZE", nullptr, "weak strong",
     "quotient every proctype by bisimulation before exploring (default "
     "weak; LTL always uses the strong quotient)",
     [](Args& a, const std::string& v) {
       a.cfg.minimize =
           v == "strong" ? MinimizeMode::Strong : MinimizeMode::Weak;
     }},
    {"engine", "PNPV_ENGINE", "KIND", nullptr,
     "successor engine: bytecode (default; threaded interpreter over "
     "per-process tables, always available), interp (the reference "
     "interpreter) or aot (per-model compiled .so, cached under "
     "--cache-dir; falls back to bytecode when no host toolchain is "
     "present, except with --resume, where the fallback is an error). "
     "Verdicts and state counts are engine-independent. "
     "'--engine list' prints the backend diagnostic and exits",
     [](Args& a, const std::string& v) {
       if (v == "list") {
         a.engine_list = true;
         return;
       }
       if (!codegen::parse_engine_kind(v, &a.cfg.engine))
         usage("--engine must be interp, bytecode, aot or list (got '" + v +
               "')");
     }},
    {"verbose", "PNPV_VERBOSE", nullptr, nullptr,
     "also print the resolved successor engine per check (requested vs. "
     "actual backend, with the fallback reason when they differ)",
     [](Args& a, const std::string&) { a.verbose = true; }},
    {"no-protocols", nullptr, nullptr, nullptr,
     "(.arch) skip the per-connector port-protocol obligations",
     [](Args& a, const std::string&) { a.cfg.connector_protocols = false; }},
    {"cache-dir", "PNPV_CACHE_DIR", "DIR", nullptr,
     "persist obligation verdicts (.arch) and --engine aot compiled "
     "artifacts under DIR: re-runs of an unchanged design answer from the "
     "cache, a connector swap re-verifies only the dirtied slice",
     [](Args& a, const std::string& v) { a.cfg.cache_dir = v; }},
    {"spill-dir", "PNPV_SPILL_DIR", "DIR", nullptr,
     "back the visited/intern stores with mmap'd files under DIR when the "
     "--memory budget is hit: safety and LTL searches stay exact (stages "
     "'exact-spill', 'ltl-product-spill') instead of truncating and "
     "degrading to bitstate",
     [](Args& a, const std::string& v) { a.cfg.spill_dir = v; }},
    {"checkpoint-dir", "PNPV_CHECKPOINT_DIR", "DIR", nullptr,
     "write atomically-committed pnp.ckpt.v1 snapshots under DIR: a final "
     "one on SIGINT/SIGTERM or when the search ends, periodic ones with "
     "--checkpoint-every; continue later with --resume",
     [](Args& a, const std::string& v) { a.cfg.checkpoint_dir = v; }},
    {"checkpoint-every", "PNPV_CHECKPOINT_EVERY", "N", nullptr,
     "also checkpoint every N newly stored states (0 = final snapshot only)",
     [](Args& a, const std::string& v) {
       a.cfg.checkpoint_every = parse_u64(v, "--checkpoint-every");
     }},
    {"resume", "PNPV_RESUME", nullptr, nullptr,
     "resume from the matching snapshot in --checkpoint-dir (checksums and "
     "config digest validated); fresh start when none exists yet",
     [](Args& a, const std::string&) { a.cfg.resume = true; }},
    {"ledger", "PNPV_LEDGER", "DIR", nullptr,
     "append one JSONL record per run to DIR/ledger.jsonl (schema "
     "pnp.run.v1: config digest, per-phase metrics, verdict, trail pointer)",
     [](Args& a, const std::string& v) { a.cfg.ledger_dir = v; }},
    {"heartbeat", "PNPV_HEARTBEAT", nullptr, nullptr,
     "progress ticker on stderr even when it is not a terminal",
     [](Args& a, const std::string&) { a.cfg.heartbeat_force = true; }},
    {"no-heartbeat", nullptr, nullptr, nullptr,
     "disable the progress ticker entirely",
     [](Args& a, const std::string&) { a.cfg.heartbeat = false; }},
    {"resilience", nullptr, nullptr, nullptr,
     "(.arch) verify under the default fault suite (loss/duplication/"
     "reorder per connector, send timeouts, single crash-restarts); exit 0 "
     "iff every fault is tolerated",
     [](Args& a, const std::string&) { a.resilience = true; }},
    {"fault", nullptr, "K:TARGET[:N]", nullptr,
     "(.arch, repeatable) replace the default fault suite; K is loss, "
     "duplication, reorder, timeout (TARGET comp.port) or crash (TARGET "
     "component); N = retry/crash budget",
     [](Args& a, const std::string& v) {
       a.fault_list.push_back(parse_fault(v));
       a.resilience = true;
     }},
    {"dot", nullptr, nullptr, nullptr,
     "(.arch) print the Graphviz rendering and exit",
     [](Args& a, const std::string&) { a.dot = true; }},
    {"simulate", nullptr, "N", nullptr,
     "print an N-step random simulation instead of verifying",
     [](Args& a, const std::string& v) { a.simulate = std::atoi(v.c_str()); }},
    {"seed", nullptr, "N", nullptr, "simulation seed (default 1)",
     [](Args& a, const std::string& v) { a.seed = parse_u64(v, "--seed"); }},
    {"msc", nullptr, nullptr, nullptr,
     "render the simulation as a message sequence chart",
     [](Args& a, const std::string&) { a.msc = true; }},
    {"serve", nullptr, nullptr, nullptr,
     "run as a verification daemon (pnpd): accept pnp.job.v1 jobs on "
     "--socket, share one verdict cache and run ledger across all workers",
     [](Args& a, const std::string&) { a.serve = true; }},
    {"submit", nullptr, nullptr, nullptr,
     "send the model to a running daemon (--socket or --port) instead of "
     "verifying locally; exit code matches a local run",
     [](Args& a, const std::string&) { a.submit = true; }},
    {"socket", "PNPV_SOCKET", "PATH", nullptr,
     "Unix domain socket the daemon listens on / the client connects to",
     [](Args& a, const std::string& v) { a.socket_path = v; }},
    {"port", "PNPV_PORT", "N", nullptr,
     "(--serve) also listen on 127.0.0.1:N (0 = pick an ephemeral port); "
     "(--submit) connect over TCP instead of the socket",
     [](Args& a, const std::string& v) { a.port = std::atoi(v.c_str()); }},
    {"workers", "PNPV_WORKERS", "N", nullptr,
     "(--serve) verification worker threads (default 2)",
     [](Args& a, const std::string& v) {
       a.workers = std::atoi(v.c_str());
       if (a.workers < 1) usage("--workers must be >= 1");
     }},
    {"server-memory", nullptr, "SIZE[K|M|G]", nullptr,
     "(--serve) aggregate admission budget across queued + running jobs "
     "(default 4G; jobs over it are rejected with a reason)",
     [](Args& a, const std::string& v) {
       a.server_memory = parse_bytes(v, "--server-memory");
     }},
    {"job-memory", nullptr, "SIZE[K|M|G]", nullptr,
     "(--serve) memory charge and enforced budget for jobs that do not "
     "bring their own --memory (default 256M)",
     [](Args& a, const std::string& v) {
       a.job_memory = parse_bytes(v, "--job-memory");
     }},
};

void print_help(std::FILE* out) {
  std::fprintf(out,
               "usage: pnpv MODEL.pml|DESIGN.arch [options]\n\n"
               "Every option can also be set through the environment "
               "variable listed\nwith it (flags override the environment).\n"
               "\noptions:\n");
  for (const FlagDef& f : kFlags) {
    std::string left = std::string("  --") + f.name;
    if (f.arg != nullptr) left += std::string(" ") + f.arg;
    if (f.accepts != nullptr) left += std::string(" [") + f.accepts + "]";
    if (f.env != nullptr) left += std::string("  (") + f.env + ")";
    std::fprintf(out, "%-34s %s\n", left.c_str(), f.help);
  }
  std::fprintf(out, "  --help%28s print this help and exit\n", "");
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "pnpv: %s\n", msg.c_str());
  print_help(stderr);
  std::exit(2);
}

const FlagDef* find_flag(const std::string& name) {
  for (const FlagDef& f : kFlags)
    if (name == f.name) return &f;
  return nullptr;
}

Args parse_args(int argc, char** argv) {
  Args a;
  // environment first, so explicit flags win
  for (const FlagDef& f : kFlags) {
    if (f.env == nullptr) continue;
    const char* v = std::getenv(f.env);
    if (v == nullptr || *v == '\0') continue;
    f.apply(a, f.arg != nullptr || f.accepts != nullptr ? v : "");
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) == 0) {
      const FlagDef* f = find_flag(arg.substr(2));
      if (f == nullptr) usage("unknown option " + arg);
      std::string value;
      if (f->arg != nullptr) {
        if (i + 1 >= argc) usage("missing value for " + arg);
        value = argv[++i];
      } else if (f->accepts != nullptr && i + 1 < argc) {
        // optional trailing value, consumed only when whitelisted
        const std::string next = argv[i + 1];
        std::istringstream ws(f->accepts);
        std::string w;
        while (ws >> w)
          if (w == next) {
            value = argv[++i];
            break;
          }
      }
      f->apply(a, value);
    } else if (a.model_path.empty()) {
      a.model_path = arg;
    } else {
      usage("more than one model file given");
    }
  }
  if (a.model_path.empty() && !a.serve && !a.engine_list)
    usage("no model file given");
  return a;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "pnpv: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int simulate(const Args& args, const kernel::Machine& m) {
  sim::Simulator s(m, args.seed);
  const std::size_t steps =
      s.run_random(static_cast<std::size_t>(args.simulate));
  if (args.msc) {
    std::printf("%s", trace::render_msc(m, s.history()).c_str());
  } else {
    for (std::size_t i = 0; i < s.history().size(); ++i)
      std::printf("%4zu. %s\n", i + 1, m.describe_step(s.history()[i]).c_str());
  }
  std::printf("-- %zu steps; final state:\n%s\n", steps,
              m.format_state(s.state()).c_str());
  return 0;
}

int run_serve(const Args& args) {
  if (args.socket_path.empty()) usage("--serve needs --socket PATH");
  serve::ServerOptions o;
  o.socket_path = args.socket_path;
  o.tcp_port = args.port;
  o.workers = args.workers;
  o.memory_budget = args.server_memory;
  o.default_job_memory = args.job_memory;
  // --ledger doubles as the daemon state directory: the shared run ledger,
  // the verdict cache and drain checkpoints all live under it.
  o.state_dir = args.cfg.ledger_dir.empty() ? "pnpd-state" : args.cfg.ledger_dir;

  serve::Server server(o);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "pnpd: %s\n", err.c_str());
    return 2;
  }
  g_server.store(&server);
  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  std::fprintf(stderr, "pnpd: listening on %s", args.socket_path.c_str());
  if (server.tcp_port() >= 0)
    std::fprintf(stderr, " and 127.0.0.1:%d", server.tcp_port());
  std::fprintf(stderr, " (%d workers, state in %s)\n", args.workers,
               o.state_dir.c_str());
  if (server.ledger_recovered_torn())
    std::fprintf(stderr,
                 "pnpd: note: recovered a torn final record in %s "
                 "(a previous process died mid-append)\n",
                 server.ledger_path().c_str());
  server.run();
  g_server.store(nullptr);
  const serve::ServerStats st = server.stats();
  std::fprintf(stderr,
               "pnpd: drained -- %llu connections, %llu accepted, %llu "
               "completed, %llu interrupted, %llu rejected, %llu protocol "
               "errors\n",
               static_cast<unsigned long long>(st.connections),
               static_cast<unsigned long long>(st.accepted),
               static_cast<unsigned long long>(st.completed),
               static_cast<unsigned long long>(st.interrupted),
               static_cast<unsigned long long>(st.rejected),
               static_cast<unsigned long long>(st.protocol_errors));
  return 0;
}

int run_submit(const Args& args) {
  if (args.socket_path.empty() && args.port < 0)
    usage("--submit needs --socket PATH or --port N");
  serve::Client client;
  std::string err;
  const bool connected =
      !args.socket_path.empty() ? client.connect_unix(args.socket_path, &err)
                                : client.connect_tcp(args.port, &err);
  if (!connected) {
    std::fprintf(stderr, "pnpv: %s\n", err.c_str());
    return 2;
  }

  serve::JobRequest req;
  req.id = args.model_path;  // suffix keeps SourceKind::Auto sniffing honest
  req.model_text = slurp(args.model_path);
  req.resilience = args.resilience;
  req.checkpoint = args.cfg.resume;
  req.explicit_memory = args.cfg.memory_budget_bytes != 0;
  req.config = args.cfg;
  req.config.interrupt = nullptr;  // local-only; never crosses the wire

  serve::Client::Outcome out;
  const bool ok = client.submit_and_wait(
      req, &out, &err, [](const json::Value& ev) {
        std::fprintf(stderr, "pnpd: %s %s\n", ev.str_or("kind").c_str(),
                     ev.str_or("label", ev.str_or("detail")).c_str());
      });
  if (!ok) {
    std::fprintf(stderr, "pnpv: %s\n", err.c_str());
    return 2;
  }
  if (!out.error.empty()) {
    std::fprintf(stderr, "pnpv: server error: %s\n", out.error.c_str());
    return 2;
  }
  if (!out.accepted || !out.reject_reason.empty()) {
    std::fprintf(stderr, "pnpv: job rejected: %s\n",
                 out.reject_reason.c_str());
    return 3;
  }
  std::size_t checks = 0;
  if (const json::Value* cs = out.report.get("checks"); cs != nullptr)
    checks = cs->arr.size();
  std::printf(
      "pnpd-report id=%s passed=%s interrupted=%s checks=%zu "
      "cache_hits=%d recomputed=%d seconds=%.3f\n",
      req.id.c_str(), out.passed ? "true" : "false",
      out.interrupted ? "true" : "false", checks, out.cache_hits,
      out.recomputed, out.seconds);
  if (out.interrupted) return 130;
  return out.passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.engine_list) {
    std::printf("%s", codegen::describe_engines(args.cfg.cache_dir).c_str());
    return 0;
  }
  if (args.serve) return run_serve(args);
  if (args.submit) return run_submit(args);
  if (args.cfg.resume && args.cfg.checkpoint_dir.empty())
    usage("--resume needs --checkpoint-dir");
  if (args.cfg.checkpoint_every > 0 && args.cfg.checkpoint_dir.empty())
    usage("--checkpoint-every needs --checkpoint-dir");
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
  args.cfg.interrupt = &g_interrupt;
  const bool is_arch = args.model_path.size() > 5 &&
                       args.model_path.rfind(".arch") ==
                           args.model_path.size() - 5;
  try {
    Session session(args.cfg);
    /// Shared epilogue: report, torn-ledger warning, interrupt exit code.
    auto finish = [&session, &args](const RunReport& rep) {
      std::printf("%s", rep.report().c_str());
      if (args.verbose) {
        std::printf("engine: requested %s\n",
                    codegen::engine_kind_name(args.cfg.engine));
        for (const RunCheck& c : rep.checks) {
          if (c.engine.empty()) continue;
          std::printf("engine: %s '%s': %s%s%s\n", c.kind.c_str(),
                      c.label.c_str(), c.engine.c_str(),
                      c.engine_note.empty() ? "" : " -- ",
                      c.engine_note.c_str());
        }
      }
      if (session.ledger_recovered_torn())
        std::fprintf(stderr,
                     "pnpv: note: recovered a torn final record in %s "
                     "(a previous process died mid-append)\n",
                     session.ledger_path().c_str());
      if (g_interrupt.load()) {
        std::fprintf(stderr,
                     "pnpv: interrupted -- partial verdict above; rerun "
                     "with --resume to continue the search\n");
        return 130;
      }
      return rep.passed ? 0 : 1;
    };

    if (is_arch) {
      Architecture arch = adl::parse_architecture(slurp(args.model_path));
      if (args.dot) {
        std::printf("%s", arch.to_dot().c_str());
        return 0;
      }
      if (args.simulate > 0) {
        const kernel::Machine m =
            session.generator().generate(arch, args.cfg.gen);
        std::printf("%s", arch.describe().c_str());
        return simulate(args, m);
      }
      std::printf("%s", arch.describe().c_str());
      const RunReport rep =
          args.resilience
              ? session.verify_resilience(arch, args.fault_list)
              : session.verify(arch);
      return finish(rep);
    }

    // --cache-dir on a .pml model is meaningful only as the AOT artifact
    // store; there are no obligation verdicts to cache for raw machines.
    if (!args.cfg.cache_dir.empty() &&
        args.cfg.engine != codegen::EngineKind::Aot)
      usage("--cache-dir applies to .arch designs (or --engine aot) only");
    if (args.resilience) usage("--resilience applies to .arch designs only");
    model::SystemSpec sys = pml::parse(slurp(args.model_path));
    kernel::Machine m(sys);
    std::printf("model: %s  (%zu processes, %zu channels, %zu globals)\n",
                args.model_path.c_str(), sys.processes.size(),
                sys.channels.size(), sys.globals.size());
    if (args.simulate > 0) return simulate(args, m);
    model::SystemSpec* sp = &sys;
    const RunReport rep = session.verify_machine(
        m, args.model_path, [sp](const std::string& text) {
          return pml::parse_global_expr(*sp, text);
        });
    return finish(rep);
  } catch (const ModelError& e) {
    std::fprintf(stderr, "pnpv: %s\n", e.what());
    return 2;
  }
}
