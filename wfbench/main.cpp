// wfbench -- the repository benchmark program.
//
// One process runs one workload as a closed loop with one client: the next
// job starts only after the previous verdict. A job is one model handed to
// the library through its public calls, ending in a verdict for every check
// it asks for; every verdict is compared with the hand-written answer table
// (answers.txt). The run prints each metric as a `metric NAME VALUE UNIT`
// line and ends with one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and reports the per-layer metrics (span self times,
// library counts and seeded sample replays) plus the tracing overhead.
//
//   wfbench --workload NAME --seed N --seconds S --trace 0|1
//           --models DIR --answers FILE --work DIR --trace-out FILE
//
// run.py builds this program and supplies the paths.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adl/adl.h"
#include "bridge/bridge.h"
#include "codegen/engine.h"
#include "explore/explorer.h"
#include "explore/flat_store.h"
#include "kernel/compress.h"
#include "ltl/buchi.h"
#include "ltl/formula.h"
#include "ltl/product.h"
#include "pml/parser.h"
#include "pnp/pnp.h"
#include "support/hash.h"

namespace fs = std::filesystem;
using namespace pnp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by this process so far (all threads).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A field of /proc/self/status given in kB ("VmRSS:", "VmHWM:"), in MiB.
double proc_status_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size(), field) == 0)
      return std::stod(line.substr(field.size())) / 1024.0;
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Resets the process's resident high-water mark (VmHWM) to its current
/// resident size and returns that size in MiB. This also lowers what
/// ru_maxrss reports afterwards, so only traced runs, which do not report
/// peak_rss_mb, call it.
double reset_rss_peak() {
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    if (!clear.flush()) throw std::runtime_error("cannot write /proc/self/clear_refs");
  }
  return proc_status_mib("VmRSS:");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Regularized incomplete beta function I_x(a, b), by its continued fraction
/// (modified Lentz), evaluated on the side where it converges fast.
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - incomplete_beta(b, a, 1.0 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
  double f = d;
  for (int m = 1; m <= 10'000; ++m) {
    for (int half = 0; half < 2; ++half) {
      const double num =
          half == 0 ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                    : -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
      d = 1.0 + num * d;
      d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::abs(c) < kTiny) c = kTiny;
      f *= c * d;
    }
    if (std::abs(c * d - 1.0) < 1e-12) break;
  }
  return front * f;
}

/// The q-quantile by the Harrell-Davis estimator: a Beta-weighted average
/// of all order statistics. Unlike the sample quantile it does not jump
/// between neighbouring samples, so it stays steady on the few, widely
/// spread job times of a run with long jobs.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
  double out = 0.0, below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    out += (upto - below) * v[i];
    below = upto;
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// -- tracing ------------------------------------------------------------------
// Spans around the public calls into each layer. They are held in memory and
// written when the run ends; a span's self time is its duration minus the
// part its child spans cover. With tracing off a span costs one branch.

struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  int job;
};

class Tracer {
 public:
  bool on = false;
  int job = -1;

  /// Starts a new job id; the trace file maps ids to job keys.
  void begin_job(const std::string& key) {
    job = static_cast<int>(jobs_.size());
    jobs_.push_back(key);
  }

  int open(const char* name) {
    if (!on) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      job});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  struct Totals {
    double total = 0.0;
    double self = 0.0;
    long count = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      t.total += spans_[i].end - spans_[i].start;
      t.self += spans_[i].end - spans_[i].start - child[i];
      ++t.count;
    }
    return out;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    char buf[256];
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      std::snprintf(buf, sizeof buf, "{\"job\":%zu,\"key\":\"%s\"}\n", j,
                    jobs_[j].c_str());
      out << buf;
    }
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%d,\"job\":%d}\n",
                    s.name, s.start, s.end, s.parent, s.job);
      out << buf;
    }
  }

 private:
  double now() const { return seconds_since(t0_); }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> jobs_;
};

Tracer g_trace;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_trace.open(name)) {}
  ~SpanScope() { g_trace.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// -- expected answers ---------------------------------------------------------
// answers.txt rows: job | check | verdict | states | source. A trailing `*`
// in the job column matches a key prefix; `kind:*` matches any label of that
// check kind. `states` is the exact stored-state count of a complete run, or
// `-` where no source states one.

struct Answer {
  std::string job;
  std::string check;
  bool pass = false;
  std::uint64_t states = 0;  // 0 = not checked
};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

std::vector<Answer> load_answers(const std::string& path) {
  std::vector<Answer> out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> col;
    std::size_t pos = 0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t bar = line.find('|', pos);
      if (bar == std::string::npos) throw std::runtime_error("bad answer row: " + line);
      col.push_back(trim(line.substr(pos, bar - pos)));
      pos = bar + 1;
    }
    if (col[0].empty() || col[1].empty() || trim(line.substr(pos)).empty())
      throw std::runtime_error("answer row without a job, check or source: " + line);
    Answer a;
    a.job = col[0];
    a.check = col[1];
    if (col[2] != "PASS" && col[2] != "FAIL")
      throw std::runtime_error("bad verdict in answer row: " + line);
    a.pass = col[2] == "PASS";
    a.states = col[3] == "-" ? 0 : std::stoull(col[3]);
    out.push_back(a);
  }
  return out;
}

/// A pattern ending in `*` matches every key with that prefix.
bool matches(const std::string& pattern, const std::string& key) {
  if (!pattern.empty() && pattern.back() == '*')
    return key.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0;
  return pattern == key;
}

// -- results ------------------------------------------------------------------

struct Check {
  std::string key;  // check kind, `connector-protocol:NAME`, `fault:KIND`
  bool passed = false;
  std::uint64_t states = 0;
  bool complete = true;
};

struct JobResult {
  std::vector<Check> checks;
  std::uint64_t states = 0;  // stored states searched by this job
  double search_s = 0.0;     // summed search time of those states
};

/// Mean of the values recorded for one per-layer metric.
struct Layer {
  double sum = 0.0;
  double n = 0.0;
  void add(double v, double k = 1.0) {
    sum += v;
    n += k;
  }
  double mean() const { return n > 0 ? sum / n : 0.0; }
};

class Recorder {
 public:
  explicit Recorder(std::vector<Answer> answers) : answers_(std::move(answers)) {}

  bool timed = false;  // false during set-up and warm-up
  std::vector<double> job_seconds;  // timed, untraced jobs
  std::vector<double> job_cpu_seconds;  // the same jobs' CPU time
  std::map<std::string, std::vector<double>> by_key;  // the same, per job key
  std::uint64_t states = 0;         // timed, untraced jobs
  double search_s = 0.0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Layer> layers;

  /// Runs one job, times it from model to verdict, and checks the verdicts.
  double run(const std::string& key, const std::function<JobResult()>& body) {
    if (g_trace.on) g_trace.begin_job(key);
    const int span = g_trace.open("job");
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    JobResult jr;
    std::string error;
    try {
      jr = body();
    } catch (const std::exception& e) {
      error = e.what();
    }
    // Settle the heap the job freed (consolidation and return to the OS)
    // inside its own time: otherwise the next job pays for tearing down this
    // one's stores, and job times would depend on the seeded job order.
    malloc_trim(0);
    const double secs = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    g_trace.close(span);
    ++attempted;
    const std::string why = error.empty() ? verify(key, jr) : "error: " + error;
    if (!why.empty()) {
      ++failed;
      if (failures.size() < 20) failures.push_back(key + ": " + why);
    }
    if (timed && !g_trace.on) {
      job_seconds.push_back(secs);
      job_cpu_seconds.push_back(cpu);
      by_key[key].push_back(secs);
      states += jr.states;
      search_s += jr.search_s;
    }
    return secs;
  }

  void layer(const std::string& name, double v, double k = 1.0) {
    layers[name].add(v, k);
  }

 private:
  std::string verify(const std::string& job, const JobResult& jr) const {
    for (const Check& c : jr.checks) {
      const Answer* a = nullptr;
      for (const Answer& x : answers_)
        if (matches(x.job, job) && matches(x.check, c.key)) {
          a = &x;
          break;
        }
      if (a == nullptr) return "no expected answer for check " + c.key;
      if (a->pass != c.passed)
        return c.key + " " + (c.passed ? "PASS" : "FAIL") + ", expected " +
               (a->pass ? "PASS" : "FAIL");
      if (!c.complete) return c.key + " truncated";
      if (a->states != 0 && c.states != a->states)
        return c.key + " stored " + std::to_string(c.states) +
               " states, expected " + std::to_string(a->states);
    }
    for (const Answer& x : answers_) {
      if (!matches(x.job, job) || x.check.back() == '*')
        continue;
      bool seen = false;
      for (const Check& c : jr.checks) seen = seen || c.key == x.check;
      if (!seen) return "missing check " + x.check;
    }
    if (jr.checks.empty()) return "no checks";
    return "";
  }

  std::vector<Answer> answers_;
};

// -- shared job pieces ----------------------------------------------------------

bool stage_complete(const std::string& stage) {
  return stage.find("bitstate") == std::string::npos;
}

/// Maps a Session report onto checks. `fault_names` names the fault checks
/// of a resilience run in the order the faults were given.
JobResult from_report(Recorder& r, const RunReport& rep,
                      const std::vector<std::string>& fault_names = {}) {
  JobResult jr;
  std::size_t fault = 0;
  double searched = 0.0;
  int hits = 0;
  for (const RunCheck& c : rep.checks) {
    Check k;
    if (c.kind == "connector-protocol") {
      k.key = c.kind + ":" + c.label;
    } else if (c.kind == "fault") {
      k.key = "fault:" + (fault < fault_names.size() ? fault_names[fault] : c.label);
      ++fault;
    } else {
      k.key = c.kind;
    }
    k.passed = c.passed;
    k.states = c.states_stored;
    k.complete = stage_complete(c.stage);
    jr.checks.push_back(k);
    if (c.from_cache) {
      ++hits;  // a hit reports the original search cost, not this job's
    } else {
      jr.states += c.states_stored;
      searched += c.seconds;
    }
  }
  jr.search_s = searched;
  r.layer("pnp.session_overhead_ms", (rep.seconds - searched) * 1e3);
  r.layer("pnp.generate_ms", rep.gen_stats.seconds * 1e3);
  r.layer("pnp.models_built", rep.gen_stats.component_models_built +
                                  rep.gen_stats.block_models_built, 0.0);
  r.layer("reduce.cache_hit_ratio", hits, static_cast<double>(rep.checks.size()));
  r.layer("explore.search_s", searched);
  return jr;
}

void record_stats(Recorder& r, const explore::Stats& st) {
  r.layer("explore.search_s", st.seconds);
  r.layer("explore.revisit_ratio", static_cast<double>(st.states_matched),
          static_cast<double>(st.transitions));
  r.layer("explore.store_bytes_per_state", static_cast<double>(st.store_bytes),
          static_cast<double>(st.states_stored));
  if (st.workers.empty()) return;
  double busy = 0.0, max_states = 0.0, sum_states = 0.0;
  for (const explore::WorkerStats& w : st.workers) {
    busy += w.seconds;
    max_states = std::max(max_states, static_cast<double>(w.states_stored));
    sum_states += static_cast<double>(w.states_stored);
  }
  const double n = static_cast<double>(st.workers.size());
  r.layer("explore.worker_busy_frac", busy / (n * st.seconds));
  r.layer("explore.worker_skew", sum_states > 0 ? max_states / (sum_states / n) : 0.0);
}

std::unique_ptr<codegen::Engine> aot_engine(const kernel::Machine& m,
                                            const std::string& cache_dir) {
  codegen::EngineOptions eo;
  eo.kind = codegen::EngineKind::Aot;
  eo.cache_dir = cache_dir;
  eo.strict = true;
  return codegen::make_engine(m, eo);
}

// -- sample replays -------------------------------------------------------------
// Time single layer calls over a seeded sample of reachable states: random
// simulation walks from the initial state.

class CountSink final : public kernel::SuccSink {
 public:
  bool on_successor(const kernel::State&, const kernel::Step&) override {
    ++count;
    return true;
  }
  std::uint64_t count = 0;
};

void sample_replays(Recorder& r, const kernel::Machine& m,
                    const codegen::Engine* engine, std::uint64_t seed) {
  std::vector<kernel::State> sample;
  sim::Simulator walk(m, seed);
  while (sample.size() < 4096) {
    walk.reset();
    for (int step = 0; step < 256 && sample.size() < 4096; ++step) {
      if (!walk.step_random()) break;
      sample.push_back(walk.state());
    }
  }
  const double n = static_cast<double>(sample.size());
  constexpr int kReps = 20;

  kernel::SuccScratch scratch;
  CountSink sink;
  Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (const kernel::State& s : sample) m.visit_successors(s, scratch, sink);
  r.layer("kernel.succ_ns", seconds_since(t0) * 1e9, n * kReps);

  if (engine != nullptr) {
    t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
      for (const kernel::State& s : sample) engine->visit_successors(s, scratch, sink);
    r.layer("codegen.succ_ns", seconds_since(t0) * 1e9, n * kReps);
  }

  std::vector<std::vector<std::uint8_t>> keys(sample.size());
  std::vector<std::uint64_t> hashes(sample.size());
  double compress_s = 0.0, probe_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    kernel::StateCompressor comp(m.layout());
    t0 = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i) comp.compress(sample[i], keys[i]);
    compress_s += seconds_since(t0);
    for (std::size_t i = 0; i < keys.size(); ++i) hashes[i] = fast_hash64(keys[i]);
    explore::FlatKeySet set;
    t0 = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i) set.insert(keys[i], hashes[i]);
    probe_s += seconds_since(t0);
  }
  r.layer("kernel.compress_ns", compress_s * 1e9, n * kReps);
  r.layer("explore.probe_ns", probe_s * 1e9, n * kReps);
  if (sink.count == 0) throw std::runtime_error("sample replay produced no successors");
}

// -- workloads ------------------------------------------------------------------

struct Context {
  fs::path models;
  std::uint64_t seed = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up repetition: expand the seed into inputs and build every
  /// cache the timed phase uses (fresh, under `dir`), then warm up.
  virtual void setup(Recorder& r, const fs::path& dir) = 0;
  /// One pass over the workload's jobs.
  virtual void pass(Recorder& r) = 0;
  /// Traced run only: measurements beside the jobs (sample replays etc.).
  virtual void probes(Recorder& r) = 0;
};

// design_loop: the paper's iterate loop through long-lived sessions.

const char* const kE8Sends[] = {"asyn_nonblocking", "asyn_blocking", "asyn_checking",
                                "syn_blocking", "syn_checking"};
const char* const kE8Channels[] = {"single_slot", "fifo(2)", "fifo(4)",
                                   "priority(2)", "lossy_fifo(2)", "fifo(3)"};

/// One E8 design as ADL text: a two-message sender and receiver written
/// against the standard interfaces, tolerant of SEND_FAIL / RECV_FAIL, and
/// one connector assembled from the named blocks.
std::string e8_text(const std::string& send, const std::string& chan,
                    const std::string& recv) {
  return "architecture e8_sweep {\n"
         "  component E8Sender {\n"
         "    behavior {\n"
         "      byte i = 1;\n"
         "      do\n"
         "      :: i <= 2 -> out_data!i,0,0,0,0,0; out_sig?_,_; i++\n"
         "      :: i > 2 -> break\n"
         "      od\n"
         "    }\n"
         "  }\n"
         "  component E8Receiver {\n"
         "    behavior {\n"
         "      byte got = 0;\n"
         "      byte v;\n"
         "      byte st;\n"
         "      do\n"
         "      :: end: got < 2 ->\n"
         "         in_data!0,0,0,0,0,0; in_sig?st,_; in_data?v,_,_,_,_,_;\n"
         "         if\n"
         "         :: st == RECV_SUCC -> got++\n"
         "         :: else -> skip\n"
         "         fi\n"
         "      :: got == 2 -> break\n"
         "      od\n"
         "    }\n"
         "  }\n"
         "  connector E8Link : " + chan + " {\n"
         "    sender E8Sender.out via " + send + ";\n"
         "    receiver E8Receiver.in via " + recv + ";\n"
         "  }\n"
         "}\n";
}

std::string e8_name(const std::string& send, const std::string& chan) {
  std::string c;
  for (char ch : chan)
    if (ch != '(' && ch != ')') c += ch;
  return send + "." + c;
}

class DesignLoop final : public Workload {
 public:
  explicit DesignLoop(const Context& ctx) : ctx_(ctx) {}

  void setup(Recorder& r, const fs::path& dir) override {
    dir_ = dir;
    passes_ = 0;
    // Expand the seed: E8 sweep order, the swapped design, group order.
    std::mt19937_64 rng(ctx_.seed);
    e8_.clear();
    for (const char* s : kE8Sends)
      for (const char* c : kE8Channels)
        e8_.push_back({e8_name(s, c), e8_text(s, c, "blocking")});
    std::shuffle(e8_.begin(), e8_.end(), rng);
    // The plug-and-play swap: one design's receive port becomes nonblocking.
    swap_ = e8_[rng() % e8_.size()];
    swap_.key += ".nbrecv";
    swap_.text.replace(swap_.text.find("via blocking"), 12, "via nonblocking");
    order_ = {0, 1, 2, 3, 4, 5, 6};
    std::shuffle(order_.begin(), order_.end(), rng);
    resilient_ = read_file(ctx_.models / "resilient_counter.arch");
    fragile_ = read_file(ctx_.models / "fragile_counter.arch");
    demo_ = read_file(ctx_.models / "demo.arch");
    pml_ = read_file(ctx_.models / "producer_consumer.pml");
    // Fresh sessions, one per design being iterated. The model generator
    // keys cached component models by component and port names only, so
    // two designs that reuse names with different behaviour (the counter
    // pair, the bridge at N=1 and N=2) would get each other's models from
    // one shared session.
    sessions_.clear();
    pass(r);  // warm-up
  }

  void pass(Recorder& r) override {
    // A fresh verdict cache per pass, so every pass repeats the same
    // cold / warm / swapped sequence. Old ones are removed with the work
    // directory when the run ends, keeping deletions out of the timing.
    const fs::path cache = dir_ / ("pass-" + std::to_string(passes_++));
    cache_ = cache;
    for (auto& [name, s] : sessions_) s->config().cache_dir = (cache_ / name).string();
    for (int g : order_) {
      switch (g) {
        case 0: bridge(r, 1); break;
        case 1: bridge(r, 2); break;
        case 2: e8(r); break;
        case 3: faults(r, "resilient", resilient_); break;
        case 4: faults(r, "fragile", fragile_); break;
        case 5: demo(r); break;
        case 6: pml_job(r); break;
      }
    }
  }

  void probes(Recorder& r) override {
    // The largest design of the loop: the fixed bridge at N=2.
    bridge::BridgeConfig bc;
    bc.batch_n = 2;
    ModelGenerator gen;
    ModelGenerator::OwnedModel om =
        gen.generate_owned(bridge::make_v1(bc), {}, {.optimize_connectors = true});
    const Clock::time_point t0 = Clock::now();
    const auto engine = aot_engine(*om.machine, (dir_ / "probe-aot").string());
    r.layer("codegen.aot_build_s", seconds_since(t0));
    sample_replays(r, *om.machine, engine.get(), ctx_.seed);
  }

 private:
  struct Design {
    std::string key;
    std::string text;
  };

  Session& session(const std::string& name) {
    auto& s = sessions_[name];
    if (!s) {
      RunConfig cfg;
      cfg.heartbeat = false;
      // Each design keeps its own verdict cache: cache keys trust the
      // names of components defined in C++.
      cfg.cache_dir = (cache_ / name).string();
      s = std::make_unique<Session>(cfg);
    }
    return *s;
  }

  static JobResult verify_arch(Recorder& r, Session& s, const std::string& text) {
    Architecture arch = [&] {
      SpanScope sp("adl.parse");
      return adl::parse_architecture(text);
    }();
    SpanScope sp("session.verify");
    return from_report(r, s.verify(arch));
  }

  // E6: the fig13 1-car bridge, buggy -> apply_v1_fix swap -> fixed. The
  // session's generator builds the model (optimized connectors, component
  // models reused across the swap) and one combined pass checks assertions,
  // deadlock and the bridge invariant, as in bench_fig13_bridge_v1.
  void bridge(Recorder& r, int n) {
    Session& s = session("bridge.n" + std::to_string(n));
    s.config().invariant_text = "!(blue_on_bridge > 0 && red_on_bridge > 0) && "
                                "blue_on_bridge <= " + std::to_string(n) +
                                " && red_on_bridge <= " + std::to_string(n);
    bridge::BridgeConfig bc;
    bc.batch_n = n;
    bc.buggy_async_enter = true;
    Architecture arch("unbuilt");
    auto verify = [&] {
      ModelGenerator& gen = s.generator();
      std::unique_ptr<kernel::Machine> m;
      {
        SpanScope sp("pnp.generate");
        m = std::make_unique<kernel::Machine>(
            gen.generate(arch, {.optimize_connectors = true}));
      }
      SpanScope sp("session.verify");
      RunReport rep = s.verify_machine(*m, arch.name(), [&gen](const std::string& t) {
        return gen.parse_expr_text(t).ref;
      });
      rep.gen_stats = gen.last_stats();
      return from_report(r, rep);
    };
    const std::string key = "e6.n" + std::to_string(n);
    r.run(key + ".buggy", [&] {
      arch = bridge::make_v1(bc);
      return verify();
    });
    r.run(key + ".fixed", [&] {
      bridge::apply_v1_fix(arch, bc);
      return verify();
    });
  }

  // E8: the 30-design sweep cold, resubmitted warm, then one seeded design
  // re-verified after a connector swap (only its dirtied slices miss).
  void e8(Recorder& r) {
    Session& s = session("e8");
    for (const Design& d : e8_)
      r.run("e8.cold." + d.key, [&] { return verify_arch(r, s, d.text); });
    for (const Design& d : e8_) {
      const double secs =
          r.run("e8.warm." + d.key, [&] { return verify_arch(r, s, d.text); });
      r.layer("reduce.warm_job_ms", secs * 1e3);
    }
    r.run("e8.swap." + swap_.key, [&] { return verify_arch(r, s, swap_.text); });
  }

  void faults(Recorder& r, const std::string& name, const std::string& text) {
    Session& s = session(name);
    s.config().invariant_text = "received <= 1";
    r.run("faults." + name, [&] {
      Architecture arch = [&] {
        SpanScope sp("adl.parse");
        return adl::parse_architecture(text);
      }();
      SpanScope sp("session.verify");
      const std::vector<FaultSpec> suite = {{FaultKind::MessageDuplication, "Link", 0},
                                         {FaultKind::MessageReorder, "Link", 0},
                                         {FaultKind::MessageLoss, "Link", 0},
                                         {FaultKind::SendTimeout, "Sender.out", 2}};
      return from_report(r, s.verify_resilience(arch, suite),
                         {"duplication", "reorder", "loss", "timeout"});
    });
  }

  void demo(Recorder& r) {
    Session& s = session("demo");
    s.config().end_invariant_text = "delivered == 3";
    r.run("demo", [&] { return verify_arch(r, s, demo_); });
  }

  void pml_job(Recorder& r) {
    Session& s = session("producer_consumer");
    s.config().invariant_text = "received <= 3";
    r.run("pml.producer_consumer", [&] {
      model::SystemSpec sys = [&] {
        SpanScope sp("pml.parse");
        return pml::parse(pml_);
      }();
      std::unique_ptr<kernel::Machine> m;
      {
        SpanScope sp("compile.machine");
        m = std::make_unique<kernel::Machine>(sys);
      }
      SpanScope sp("session.verify");
      return from_report(r, s.verify_machine(*m, "producer_consumer.pml",
                                             [&sys](const std::string& t) {
                                               return pml::parse_global_expr(sys, t);
                                             }));
    });
  }

  Context ctx_;
  fs::path dir_;
  fs::path cache_;
  int passes_ = 0;
  std::vector<Design> e8_;
  Design swap_;
  std::vector<int> order_;
  std::string resilient_, fragile_, demo_, pml_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

// The safety search of relay_mesh.pml with the strict aot engine. ltl_check's
// traced run makes it once sequentially and once through explore/parallel.cpp.

JobResult mesh_search(Recorder& r, const std::string& text, const std::string& aot_dir,
                      int threads) {
  model::SystemSpec sys = pml::parse(text);
  const kernel::Machine m(sys);
  const auto engine = aot_engine(m, aot_dir);
  explore::Options o;
  o.engine = engine.get();
  o.threads = threads;
  o.invariant = pml::parse_global_expr(sys, "tally <= 10");
  o.invariant_name = "tally <= 10";
  const explore::Result res = explore::explore(m, o);
  record_stats(r, res.stats);
  JobResult jr;
  jr.checks.push_back({"safety", res.ok(), res.stats.states_stored, res.stats.complete});
  jr.states = res.stats.states_stored;
  jr.search_s = res.stats.seconds;
  return jr;
}

// ltl_check: LTL only, aot, 1 thread.

constexpr int kRpcCalls = 2;

// The RPC pipeline of examples/rpc_pipeline.cpp: two clients call a doubling
// server through a shared SynBlocking request connector.
ComponentModelFn rpc_client(int first_arg, const char* done_global) {
  using namespace pnp::model;
  return [first_arg, done_global](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint call = ctx.port("call");
    const PortEndpoint reply = ctx.port("reply");
    const GVar done = ctx.global(done_global);
    const LVar i = b.local("i", 0);
    const LVar r = b.local("r");
    return seq(
        do_(alt(seq(guard(b.l(i) < b.k(kRpcCalls)),
                    iface::send_msg(b, call, b.l(i) + b.k(first_arg)),
                    iface::recv_msg(b, reply, r),
                    assert_(b.l(r) == (b.l(i) + b.k(first_arg)) * b.k(2),
                            "server doubles its argument"),
                    assign(i, b.l(i) + b.k(1)))),
            alt(seq(guard(b.l(i) == b.k(kRpcCalls)), break_()))),
        assign(done, b.k(1)), end_label());
  };
}

ComponentModelFn rpc_server() {
  using namespace pnp::model;
  return [](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint rx = ctx.port("rx");
    const PortEndpoint tx0 = ctx.port("tx0");
    const PortEndpoint tx1 = ctx.port("tx1");
    const LVar v = b.local("v");
    return seq(do_(alt(seq(
        end_label(), iface::recv_msg(b, rx, v),
        if_(alt(seq(guard(b.l(v) < b.k(100)),
                    iface::send_msg(b, tx0, b.l(v) * b.k(2)))),
            alt_else(seq(iface::send_msg(b, tx1, b.l(v) * b.k(2)))))))));
  };
}

Architecture rpc_architecture() {
  Architecture arch("rpc");
  arch.add_global("c0_done", 0);
  arch.add_global("c1_done", 0);
  const int c0 = arch.add_component("Client0", rpc_client(1, "c0_done"));
  const int c1 = arch.add_component("Client1", rpc_client(100, "c1_done"));
  const int srv = arch.add_component("Server", rpc_server());
  const int req = arch.add_connector("Calls", {ChannelKind::Fifo, 2});
  arch.attach_sender(c0, "call", req, SendPortKind::SynBlocking);
  arch.attach_sender(c1, "call", req, SendPortKind::SynBlocking);
  arch.attach_receiver(srv, "rx", req, RecvPortKind::Blocking);
  patterns::point_to_point(arch, srv, "tx0", c0, "reply", "Reply0",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  patterns::point_to_point(arch, srv, "tx1", c1, "reply", "Reply1",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  return arch;
}

class LtlCheck final : public Workload {
 public:
  explicit LtlCheck(const Context& ctx) : ctx_(ctx) {}

  void setup(Recorder& r, const fs::path& dir) override {
    text_ = read_file(ctx_.models / "relay_mesh.pml");
    aot_dir_ = (dir / "aot").string();
    arch_ = rpc_architecture();
    // A pass runs the fair job three times: one run then holds enough
    // samples of it for a steady median, and the mix puts job_p50_s inside
    // the fair jobs (the middle 60% of a pass) and job_p90_s inside G low
    // (the slowest 20%) instead of on a boundary between two job kinds.
    std::mt19937_64 rng(ctx_.seed);
    order_ = {0, 1, 1, 1, 2};
    std::shuffle(order_.begin(), order_.end(), rng);
    // Compile the three machines' artifacts into the fresh cache.
    model::SystemSpec sys = pml::parse(text_);
    const kernel::Machine relay(sys);
    Clock::time_point t0 = Clock::now();
    (void)aot_engine(relay, aot_dir_);
    r.layer("codegen.aot_build_s", seconds_since(t0));
    for (bool optimize : {true, false}) {
      ModelGenerator gen;
      const kernel::Machine m = gen.generate(arch_, {.optimize_connectors = optimize});
      t0 = Clock::now();
      (void)aot_engine(m, aot_dir_);
      r.layer("codegen.aot_build_s", seconds_since(t0));
    }
    // Warm-up: a bounded prefix of the largest product search.
    ltl::PropertyContext props;
    props.add("low", pml::parse_global_expr(sys, "tally <= 10"));
    ltl::CheckOptions o = options(false);
    o.max_states = 100'000;
    o.want_trace = false;
    (void)ltl::check_ltl(relay, props, "G low", o);
  }

  void pass(Recorder& r) override {
    for (int j : order_) {
      switch (j) {
        case 0:
          r.run("ltl.relay.G_low", [&] {
            model::SystemSpec sys = [&] {
              SpanScope sp("pml.parse");
              return pml::parse(text_);
            }();
            std::unique_ptr<kernel::Machine> m;
            {
              SpanScope sp("compile.machine");
              m = std::make_unique<kernel::Machine>(sys);
            }
            ltl::PropertyContext props;
            props.add("low", pml::parse_global_expr(sys, "tally <= 10"));
            return check(r, *m, props, "G low", false, true);
          });
          break;
        case 1:
        case 2: {
          const bool fair = j == 1;
          // Fair: the optimized connectors; unfair: the faithful blocks.
          r.run(fair ? "ltl.rpc.fair" : "ltl.rpc.unfair", [&] {
            ModelGenerator gen;
            std::unique_ptr<kernel::Machine> m;
            {
              SpanScope sp("pnp.generate");
              const Clock::time_point t0 = Clock::now();
              m = std::make_unique<kernel::Machine>(
                  gen.generate(arch_, {.optimize_connectors = fair}));
              r.layer("pnp.generate_ms", seconds_since(t0) * 1e3);
            }
            gen.add_prop("c0_done", gen.gx("c0_done") == gen.kx(1));
            return check(r, *m, gen.props(), "F c0_done", fair, false);
          });
          break;
        }
      }
    }
  }

  void probes(Recorder& r) override {
    model::SystemSpec sys = pml::parse(text_);
    const kernel::Machine m(sys);
    const auto engine = aot_engine(m, aot_dir_);
    sample_replays(r, m, engine.get(), ctx_.seed);
    // The safety search of the same model: the sequential DFS, then
    // min(nproc, 4) threads through the sharded store, striped compressor
    // and work stealing. On a shared host these searches swing too far
    // between runs to hold an end-to-end bound, so they are traced layer
    // measurements rather than workloads of their own.
    r.run("mesh.relay", [&] { return mesh_search(r, text_, aot_dir_, 1); });
    const int threads =
        static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    Recorder par({});
    r.run("mesh.relay.parallel", [&] { return mesh_search(par, text_, aot_dir_, threads); });
    const double par_s = par.layers["explore.search_s"].mean();
    r.layer("explore.par_search_s", par_s);
    r.layer("explore.par_store_bytes_per_state",
            par.layers["explore.store_bytes_per_state"].mean());
    r.layer("explore.worker_busy_frac", par.layers["explore.worker_busy_frac"].mean());
    r.layer("explore.worker_skew", par.layers["explore.worker_skew"].mean());
    r.layer("explore.par_speedup",
            par_s > 0 ? r.layers["explore.search_s"].mean() / par_s : 0.0);
    // Buchi construction for both formulas, timed apart from the jobs so
    // traced and untraced passes do the same work.
    ltl::PropertyContext low;
    low.add("low", pml::parse_global_expr(sys, "tally <= 10"));
    ModelGenerator gen;
    (void)gen.generate(arch_, {.optimize_connectors = true});
    gen.add_prop("c0_done", gen.gx("c0_done") == gen.kx(1));
    constexpr int kReps = 200;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& [props, formula] :
           {std::pair<const ltl::PropertyContext*, const char*>{&low, "G low"},
            {&gen.props(), "F c0_done"}}) {
        ltl::FormulaPool pool;
        const ltl::FRef neg = pool.negate(ltl::parse_ltl(pool, *props, formula));
        const Clock::time_point t0 = Clock::now();
        (void)ltl::build_buchi(pool, neg, props);
        r.layer("ltl.buchi_ms", seconds_since(t0) * 1e3);
      }
    }
  }

 private:
  ltl::CheckOptions options(bool fair) const {
    ltl::CheckOptions o = fair ? ltl::fair() : ltl::CheckOptions{};
    o.engine = codegen::EngineKind::Aot;
    o.engine_cache_dir = aot_dir_;
    return o;
  }

  /// `product_rss`: in traced passes, record the resident-memory high-water
  /// growth across this check as ltl.product_rss_mb.
  JobResult check(Recorder& r, const kernel::Machine& m,
                  const ltl::PropertyContext& props, const std::string& formula,
                  bool fair, bool product_rss) {
    const bool rss = product_rss && g_trace.on;
    const double rss0 = rss ? reset_rss_peak() : 0.0;
    const Clock::time_point t0 = Clock::now();
    ltl::LtlResult res;
    {
      SpanScope sp("ltl.check_ltl");
      res = ltl::check_ltl(m, props, formula, options(fair));
    }
    const double secs = seconds_since(t0);
    if (res.engine_actual != codegen::EngineKind::Aot)
      throw std::runtime_error("aot engine not used: " + res.engine_note);
    if (rss) r.layer("ltl.product_rss_mb", proc_status_mib("VmHWM:") - rss0);
    r.layer("ltl.buchi_states", static_cast<double>(res.buchi_states));
    r.layer(fair ? "ltl.fair_ns_per_state" : "ltl.product_ns_per_state", secs * 1e9,
            static_cast<double>(res.stats.states_stored));
    JobResult jr;
    jr.checks.push_back({"ltl", res.holds, res.stats.states_stored, res.stats.complete});
    jr.states = res.stats.states_stored;
    jr.search_s = res.stats.seconds;
    return jr;
  }

  Context ctx_;
  std::string text_;
  std::string aot_dir_;
  Architecture arch_{"rpc"};
  std::vector<int> order_;
};

// -- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string models = "examples/models";
  std::string answers;
  std::string work;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--models") a.models = v;
    else if (k == "--answers") a.answers = v;
    else if (k == "--work") a.work = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.workload.empty() || a.answers.empty() || a.work.empty())
    throw std::runtime_error("--workload, --answers and --work are required");
  return a;
}

int run(const Args& a) {
  Context ctx;
  ctx.models = a.models;
  ctx.seed = a.seed;
  std::unique_ptr<Workload> w;
  if (a.workload == "design_loop") {
    w = std::make_unique<DesignLoop>(ctx);
  } else if (a.workload == "ltl_check") {
    w = std::make_unique<LtlCheck>(ctx);
  } else {
    throw std::runtime_error("unknown workload " + a.workload);
  }

  Recorder r(load_answers(a.answers));
  const fs::path work = a.work;
  fs::remove_all(work);

  // Set-up, repeated: each repetition builds fresh caches; the last is kept.
  // setup_s is their median.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const fs::path dir = work / ("setup-" + std::to_string(k));
    const Clock::time_point t0 = Clock::now();
    w->setup(r, dir);
    malloc_trim(0);
    setup_s.push_back(seconds_since(t0));
    if (k + 1 < kSetups) fs::remove_all(dir);
  }

  // Per-layer values come from the timed phase; only the artifact build
  // times are measured in set-up.
  const Layer aot_build = r.layers["codegen.aot_build_s"];
  r.layers.clear();
  r.layers["codegen.aot_build_s"] = aot_build;

  // Timed phase: whole passes until the time is up. A traced run alternates
  // untraced and traced passes (at least one each).
  r.timed = true;
  std::vector<double> pass_s, traced_pass_s;
  const Clock::time_point start = Clock::now();
  for (int p = 0;; ++p) {
    const bool traced = a.trace && p % 2 == 1;
    g_trace.on = traced;
    const Clock::time_point t0 = Clock::now();
    w->pass(r);
    const double secs = seconds_since(t0);
    (traced ? traced_pass_s : pass_s).push_back(secs);
    g_trace.on = false;
    // Stop at the pass boundary nearest to the time limit, so a run with
    // long passes overshoots it by half a pass on average, not a whole one.
    const bool need_traced = a.trace && traced_pass_s.empty();
    if (!need_traced && seconds_since(start) + 0.5 * secs >= a.seconds) break;
  }
  r.timed = false;  // probe searches are not timed jobs
  if (a.trace) w->probes(r);
  fs::remove_all(work);

  const std::vector<double>& jobs = r.job_seconds;
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("wfbench workload=%s seed=%llu trace=%d setups=%d "
              "passes=%zu jobs=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, kSetups, pass_s.size(), jobs.size());
  for (const std::string& f : r.failures) std::printf("FAILED %s\n", f.c_str());

  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", mean(pass_s), "s"},
      {"job_p50_s", quantile(jobs, 0.5), "s"},
      {"job_p90_s", quantile(jobs, 0.9), "s"},
      {"states_per_s", r.search_s > 0 ? static_cast<double>(r.states) / r.search_s : 0.0,
       "states/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  const double beyond_p90 = std::floor(0.1 * static_cast<double>(jobs.size()));
  for (const Metric& m : e2e)
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("metric failed_frac %.6g fraction (%d of %d jobs)\n", failed_frac,
              r.failed, r.attempted);
  std::printf("note job percentiles over %zu jobs, %.0f beyond p90\n", jobs.size(),
              beyond_p90);
  std::printf("note job cpu p50 %.6g s p90 %.6g s\n", quantile(r.job_cpu_seconds, 0.5),
              quantile(r.job_cpu_seconds, 0.9));
  std::printf("note untraced pass times (s):");
  for (double s : pass_s) std::printf(" %.3f", s);
  std::printf("\n");
  {
    // The job keys that took the most time, with their median latency.
    std::vector<std::pair<double, std::string>> heavy;
    for (const auto& [key, v] : r.by_key) {
      double total = 0.0;
      for (double x : v) total += x;
      heavy.emplace_back(total, key);
    }
    std::sort(heavy.rbegin(), heavy.rend());
    if (heavy.size() > 8) heavy.resize(8);
    for (const auto& [total, key] : heavy)
      std::printf("job %-40s n=%-4zu median %.6g s\n", key.c_str(), r.by_key[key].size(),
                  median(r.by_key[key]));
  }

  std::vector<Metric> out = e2e;
  if (a.trace) {
    const auto spans = g_trace.totals();
    auto per_call_ms = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total * 1e3 / it->second.count;
    };
    auto layer = [&](const char* name) {
      auto it = r.layers.find(name);
      return it == r.layers.end() ? 0.0 : it->second.mean();
    };
    const double passes = static_cast<double>(pass_s.size() + traced_pass_s.size());
    const double untraced = mean(pass_s);
    out = {
        {"pml.parse_ms", per_call_ms("pml.parse"), "ms/job"},
        {"adl.parse_ms", per_call_ms("adl.parse"), "ms/job"},
        {"compile.machine_ms", per_call_ms("compile.machine"), "ms/job"},
        {"pnp.generate_ms", layer("pnp.generate_ms"), "ms/job"},
        {"pnp.models_built", r.layers["pnp.models_built"].sum / passes, "count/pass"},
        {"pnp.session_overhead_ms", layer("pnp.session_overhead_ms"), "ms/job"},
        {"reduce.cache_hit_ratio", layer("reduce.cache_hit_ratio"), "hits/check"},
        {"reduce.warm_job_ms", layer("reduce.warm_job_ms"), "ms/job"},
        {"kernel.succ_ns", layer("kernel.succ_ns"), "ns/state"},
        {"codegen.aot_build_s", layer("codegen.aot_build_s"), "s/machine"},
        {"codegen.succ_ns", layer("codegen.succ_ns"), "ns/state"},
        {"kernel.compress_ns", layer("kernel.compress_ns"), "ns/state"},
        {"explore.probe_ns", layer("explore.probe_ns"), "ns/key"},
        {"explore.search_s", layer("explore.search_s"), "s/job"},
        {"explore.revisit_ratio", layer("explore.revisit_ratio"), "matched/trans"},
        {"explore.store_bytes_per_state", layer("explore.store_bytes_per_state"),
         "B/state"},
        {"explore.par_search_s", layer("explore.par_search_s"), "s/job"},
        {"explore.par_store_bytes_per_state", layer("explore.par_store_bytes_per_state"),
         "B/state"},
        {"explore.par_speedup", layer("explore.par_speedup"), "x"},
        {"explore.worker_busy_frac", layer("explore.worker_busy_frac"), "fraction"},
        {"explore.worker_skew", layer("explore.worker_skew"), "max/mean"},
        {"ltl.buchi_ms", layer("ltl.buchi_ms"), "ms"},
        {"ltl.buchi_states", layer("ltl.buchi_states"), "count"},
        {"ltl.product_ns_per_state", layer("ltl.product_ns_per_state"), "ns/state"},
        {"ltl.fair_ns_per_state", layer("ltl.fair_ns_per_state"), "ns/state"},
        {"ltl.product_rss_mb", layer("ltl.product_rss_mb"), "MiB"},
        {"trace.overhead_s", mean(traced_pass_s) - untraced, "s"},
    };
    for (const Metric& m : out)
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("note tracing overhead %.3g%% of the untraced pass time\n",
                untraced > 0 ? 100.0 * (mean(traced_pass_s) - untraced) / untraced : 0.0);
    std::printf("span %-22s %10s %10s %8s\n", "name", "total_ms", "self_ms", "count");
    for (const auto& [name, t] : spans)
      std::printf("span %-22s %10.3f %10.3f %8ld\n", name.c_str(), t.total * 1e3,
                  t.self * 1e3, t.count);
    g_trace.write(a.trace_out);
  }

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfbench: %s\n", e.what());
    return 2;
  }
}
