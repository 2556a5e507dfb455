#include "obs/obs.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/json.h"
#include "support/panic.h"
#include "support/string_util.h"

#if defined(_WIN32)
#include <io.h>
#define PNP_ISATTY _isatty
#define PNP_FILENO _fileno
#else
#include <fcntl.h>
#include <unistd.h>
#define PNP_ISATTY isatty
#define PNP_FILENO fileno
#endif

namespace pnp::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::StatesStored: return "states_stored";
    case Counter::StatesMatched: return "states_matched";
    case Counter::Transitions: return "transitions";
    case Counter::PorAmpleSets: return "por_ample_sets";
    case Counter::CompressFull: return "compress_full";
    case Counter::CompressDelta: return "compress_delta";
    case Counter::CacheHits: return "cache_hits";
    case Counter::CacheMisses: return "cache_misses";
    case Counter::ObligationsVerified: return "obligations_verified";
    case Counter::ObligationsFromCache: return "obligations_from_cache";
    case Counter::CodegenCompiles: return "codegen_compiles";
    case Counter::CodegenCacheHits: return "codegen_cache_hits";
    case Counter::CodegenFallbacks: return "codegen_fallbacks";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::StoreBytes: return "store_bytes";
    case Gauge::FrontierBytes: return "frontier_bytes";
    case Gauge::InternedComponents: return "interned_components";
    case Gauge::CompressorBytes: return "compressor_bytes";
    case Gauge::MaxDepthReached: return "max_depth";
    case Gauge::MinimizeStatesBefore: return "minimize_states_before";
    case Gauge::MinimizeStatesAfter: return "minimize_states_after";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::RunStarted: return "run_started";
    case EventKind::PhaseStarted: return "phase_started";
    case EventKind::Progress: return "progress";
    case EventKind::BudgetWarning: return "budget_warning";
    case EventKind::Truncated: return "truncated";
    case EventKind::CounterexampleFound: return "counterexample_found";
    case EventKind::ObligationFinished: return "obligation_finished";
    case EventKind::PhaseFinished: return "phase_finished";
    case EventKind::RunFinished: return "run_finished";
    case EventKind::Checkpointed: return "checkpointed";
    case EventKind::Resumed: return "resumed";
  }
  return "?";
}

// -- Recorder -----------------------------------------------------------------

Recorder::Block Recorder::open_block() {
  std::lock_guard<std::mutex> lock(mu_);
  if (spare_.empty()) {
    live_.push_back(std::make_unique<CounterBlock>());
  } else {
    live_.push_back(std::move(spare_.back()));
    spare_.pop_back();
  }
  return Block(live_.back().get(), Fold{this});
}

void Recorder::fold(CounterBlock* b) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(live_.begin(), live_.end(),
                               [b](const auto& p) { return p.get() == b; });
  if (it == live_.end()) return;  // only open_block()'s handles fold
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    base_.add(c, b->get(c));
    b->set(c, 0);
  }
  spare_.push_back(std::move(*it));
  *it = std::move(live_.back());
  live_.pop_back();
}

std::uint64_t Recorder::total(Counter c) const {
  return totals()[static_cast<std::size_t>(c)];
}

std::array<std::uint64_t, kCounterCount> Recorder::totals() const {
  std::array<std::uint64_t, kCounterCount> out{};
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    out[i] = base_.get(c);
    for (const auto& b : live_) out[i] += b->get(c);
  }
  return out;
}

void Recorder::max_gauge(Gauge g, std::uint64_t v) {
  auto& cell = gauges_[static_cast<std::size_t>(g)];
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Recorder::clear_gauges() {
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

std::size_t Recorder::phase_begin() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  open_.push_back({next_phase_, now});
  return next_phase_++;
}

double Recorder::phase_end(std::size_t token) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(open_.begin(), open_.end(),
                               [token](const OpenPhase& p) {
                                 return p.token == token;
                               });
  if (it == open_.end()) return 0.0;
  const double seconds = std::chrono::duration<double>(now - it->start).count();
  *it = open_.back();
  open_.pop_back();
  return seconds;
}

std::uint64_t Recorder::approx_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sizeof(Recorder) +
         (live_.size() + spare_.size()) *
             (sizeof(CounterBlock) + sizeof(void*)) +
         open_.size() * sizeof(OpenPhase);
}

// -- Observer -----------------------------------------------------------------

void Observer::add_sink(std::shared_ptr<EventSink> sink) {
  if (!sink) return;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

void Observer::emit(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sinks_) s->on_event(e);
}

void Observer::set_heartbeat_interval(double seconds) {
  if (seconds <= 0.0) seconds = 1.0;
  interval_ns_.store(static_cast<std::int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
}

std::size_t Observer::begin_phase(const std::string& name,
                                  std::uint64_t target) {
  const std::size_t token = rec_.phase_begin();
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_phase_ = name;
    phase_start_ = std::chrono::steady_clock::now();
  }
  Event e;
  e.kind = EventKind::PhaseStarted;
  e.label = name;
  e.target = target;
  emit(e);
  return token;
}

void Observer::end_phase(std::size_t token, std::uint64_t states,
                         double seconds, const std::string& truncation) {
  const double measured = rec_.phase_end(token);
  Event e;
  e.kind = EventKind::PhaseFinished;
  e.states = states;
  // Prefer the recorder's own measured wall time when the caller has none.
  e.seconds = seconds > 0.0 ? seconds : measured;
  e.detail = truncation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.label = current_phase_;
  }
  emit(e);
}

void Observer::progress(std::uint64_t states, std::uint64_t target) {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  std::int64_t next = next_progress_ns_.load(std::memory_order_relaxed);
  if (now_ns < next) return;
  // One winner per interval; losers (and stale racers) return immediately.
  if (!next_progress_ns_.compare_exchange_strong(
          next, now_ns + interval_ns_.load(std::memory_order_relaxed),
          std::memory_order_relaxed))
    return;
  Event e;
  e.kind = EventKind::Progress;
  e.states = states;
  e.target = target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.label = current_phase_;
    e.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      phase_start_)
            .count();
  }
  if (e.seconds > 1e-3) e.rate = static_cast<double>(states) / e.seconds;
  emit(e);
}

void Observer::budget_warning(const std::string& which, std::uint64_t used,
                              std::uint64_t cap) {
  Event e;
  e.kind = EventKind::BudgetWarning;
  e.detail = which;
  e.states = used;
  e.target = cap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.label = current_phase_;
  }
  emit(e);
}

void Observer::truncated(const std::string& reason) {
  Event e;
  e.kind = EventKind::Truncated;
  e.detail = reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.label = current_phase_;
  }
  emit(e);
}

void Observer::checkpointed(const std::string& path, std::uint64_t states,
                            std::uint64_t seq) {
  Event e;
  e.kind = EventKind::Checkpointed;
  e.label = path;
  e.states = states;
  e.target = seq;
  emit(e);
}

void Observer::resumed(const std::string& path, std::uint64_t states) {
  Event e;
  e.kind = EventKind::Resumed;
  e.label = path;
  e.states = states;
  emit(e);
}

void Observer::counterexample(const std::string& property,
                              const std::string& kind) {
  Event e;
  e.kind = EventKind::CounterexampleFound;
  e.label = property;
  e.detail = kind;
  e.passed = false;
  emit(e);
}

void Observer::run_started(
    const std::string& subject, const std::string& digest,
    std::vector<std::pair<std::string, std::string>> attrs) {
  run_start_ = std::chrono::steady_clock::now();
  run_base_ = rec_.totals();
  rec_.clear_gauges();
  Event e;
  e.kind = EventKind::RunStarted;
  e.label = subject;
  e.detail = digest;
  e.attrs = std::move(attrs);
  emit(e);
}

void Observer::run_finished(
    bool passed, double seconds,
    std::vector<std::pair<std::string, std::string>> attrs) {
  Event e;
  e.kind = EventKind::RunFinished;
  e.passed = passed;
  e.seconds = seconds;
  if (e.seconds <= 0.0)
    e.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - run_start_)
                    .count();
  const std::array<std::uint64_t, kCounterCount> now = rec_.totals();
  auto run_total = [&](std::size_t i) { return now[i] - run_base_[i]; };
  e.states = run_total(static_cast<std::size_t>(Counter::StatesStored));
  e.attrs = std::move(attrs);
  char buf[32];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    auto c = static_cast<Counter>(i);
    std::uint64_t v = run_total(i);
    if (v == 0) continue;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    e.attrs.emplace_back(std::string("counter.") + counter_name(c), buf);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    auto g = static_cast<Gauge>(i);
    std::uint64_t v = rec_.gauge(g);
    if (v == 0) continue;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    e.attrs.emplace_back(std::string("gauge.") + gauge_name(g), buf);
  }
  emit(e);
}

std::uint64_t Observer::approx_bytes() const {
  return rec_.approx_bytes() + sizeof(Observer);
}

// -- HeartbeatSink ------------------------------------------------------------

HeartbeatSink::HeartbeatSink(std::FILE* out, bool force)
    : out_(out),
      active_(force || (out && PNP_ISATTY(PNP_FILENO(out)) != 0)) {}

void HeartbeatSink::clear_line() {
  if (line_pending_) {
    std::fputs("\r\033[K", out_);
    line_pending_ = false;
  }
}

void HeartbeatSink::on_event(const Event& e) {
  if (!active_) return;
  switch (e.kind) {
    case EventKind::Progress: {
      char line[256];
      int n = std::snprintf(line, sizeof(line), "\r[%s] %" PRIu64 " states",
                            e.label.empty() ? "run" : e.label.c_str(),
                            e.states);
      if (e.rate > 0.0 && n > 0 && n < static_cast<int>(sizeof(line)))
        n += std::snprintf(line + n, sizeof(line) - n, "  %.0f st/s", e.rate);
      if (e.target > 0 && e.rate > 0.0 && e.states < e.target && n > 0 &&
          n < static_cast<int>(sizeof(line))) {
        double pct = 100.0 * static_cast<double>(e.states) /
                     static_cast<double>(e.target);
        double eta = static_cast<double>(e.target - e.states) / e.rate;
        n += std::snprintf(line + n, sizeof(line) - n,
                           "  %.1f%% of bound  eta %.0fs", pct, eta);
      }
      if (n > 0) {
        std::fputs(line, out_);
        std::fputs("\033[K", out_);
        std::fflush(out_);
        line_pending_ = true;
      }
      break;
    }
    case EventKind::PhaseStarted:
      clear_line();
      break;
    case EventKind::BudgetWarning:
      clear_line();
      std::fprintf(out_,
                   "[obs] %s budget at %.0f%% (%" PRIu64 " of %" PRIu64 ")\n",
                   e.detail.c_str(),
                   e.target > 0 ? 100.0 * static_cast<double>(e.states) /
                                      static_cast<double>(e.target)
                                : 0.0,
                   e.states, e.target);
      break;
    case EventKind::Truncated:
      clear_line();
      std::fprintf(out_, "[obs] truncated: %s\n", e.detail.c_str());
      break;
    case EventKind::CounterexampleFound:
      clear_line();
      std::fprintf(out_, "[obs] counterexample: %s (%s)\n", e.label.c_str(),
                   e.detail.c_str());
      break;
    case EventKind::PhaseFinished:
      clear_line();
      break;
    case EventKind::RunFinished:
      clear_line();
      std::fflush(out_);
      break;
    default:
      break;
  }
}

// -- LedgerSink ---------------------------------------------------------------

namespace {

// Record serialization goes through the shared JSON writers (support/json.h)
// so ledger lines and the pnpd event stream stay byte-compatible.
using json::append_string;

const std::string* find_attr(const Event& e, const char* key) {
  for (const auto& kv : e.attrs)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

/// Appends one record to the ledger in a single write() call (O_APPEND, so
/// concurrent writers interleave at record granularity, not byte
/// granularity) and fsyncs when the record carries incident evidence --
/// losing a routine pass record to a crash is acceptable, losing the record
/// that explains a failure is not.
void append_record_durably(const std::string& path, const std::string& rec,
                           bool sync) {
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) raise_model_error("--ledger: cannot open '" + path + "'");
  std::size_t done = 0;
  while (done < rec.size()) {
    const ssize_t n = ::write(fd, rec.data() + done, rec.size() - done);
    if (n < 0) {
      ::close(fd);
      raise_model_error("--ledger: write failed for '" + path + "'");
    }
    done += static_cast<std::size_t>(n);
  }
  if (sync) ::fsync(fd);
  ::close(fd);
#else
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) raise_model_error("--ledger: cannot open '" + path + "'");
  out << rec;
  (void)sync;
#endif
}

}  // namespace

LedgerSink::LedgerSink(const std::string& dir, bool recover_torn)
    : dir_(dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    raise_model_error("--ledger: cannot create directory '" + dir_ +
                      "': " + ec.message());
  path_ = (std::filesystem::path(dir_) / "ledger.jsonl").string();
  if (recover_torn) recover_torn_tail();
}

/// Crash recovery on reopen: a process killed mid-append can leave a torn
/// final line (no trailing newline). Truncate the file back to its last
/// complete record so every surviving line stays valid JSONL, and flag the
/// repair for front-ends via recovered_torn_line().
void LedgerSink::recover_torn_tail() {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (ec || size == 0) return;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  if (bytes.empty() || bytes.back() == '\n') return;
  const std::size_t last_nl = bytes.find_last_of('\n');
  const std::uintmax_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
  std::filesystem::resize_file(path_, keep, ec);
  if (!ec) recovered_torn_ = true;
}

void LedgerSink::on_event(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (e.kind) {
    case EventKind::RunStarted:
      subject_ = e.label;
      config_ = e.detail;
      phases_.clear();
      obligations_.clear();
      incidents_.clear();
      break;
    case EventKind::PhaseFinished:
      phases_.push_back(e);
      break;
    case EventKind::ObligationFinished:
      obligations_.push_back(e);
      break;
    case EventKind::BudgetWarning:
    case EventKind::Truncated:
    case EventKind::CounterexampleFound:
    case EventKind::Checkpointed:
    case EventKind::Resumed:
      incidents_.push_back(e);
      break;
    case EventKind::RunFinished:
      write_record(e);
      break;
    default:
      break;
  }
}

void LedgerSink::write_record(const Event& finish) {
  std::string rec;
  rec.reserve(1024);
  rec += "{\"schema\":\"";
  rec += kSchema;
  rec += "\",\"subject\":";
  append_string(rec, subject_);
  rec += ",\"config\":";
  append_string(rec, config_);
  rec += ",\"verdict\":";
  rec += finish.passed ? "\"pass\"" : "\"fail\"";
  rec += ",\"seconds\":";
  json::append_double(rec, finish.seconds);
  rec += ",\"states\":";
  json::append_u64(rec, finish.states);

  rec += ",\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Event& p = phases_[i];
    if (i) rec += ',';
    rec += "{\"name\":";
    append_string(rec, p.label);
    rec += ",\"seconds\":";
    json::append_double(rec, p.seconds);
    rec += ",\"states\":";
    json::append_u64(rec, p.states);
    if (!p.detail.empty()) {
      rec += ",\"truncated\":";
      append_string(rec, p.detail);
    }
    rec += '}';
  }
  rec += ']';

  rec += ",\"checks\":[";
  for (std::size_t i = 0; i < obligations_.size(); ++i) {
    const Event& o = obligations_[i];
    if (i) rec += ',';
    rec += "{\"kind\":";
    const std::string* kind = find_attr(o, "kind");
    append_string(rec, kind ? *kind : "obligation");
    rec += ",\"label\":";
    append_string(rec, o.label);
    rec += ",\"passed\":";
    rec += o.passed ? "true" : "false";
    rec += ",\"seconds\":";
    json::append_double(rec, o.seconds);
    if (const std::string* stage = find_attr(o, "stage")) {
      rec += ",\"stage\":";
      append_string(rec, *stage);
    }
    if (const std::string* cache = find_attr(o, "cache")) {
      rec += ",\"cache\":";
      append_string(rec, *cache);
    }
    rec += '}';
  }
  rec += ']';

  rec += ",\"incidents\":[";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Event& inc = incidents_[i];
    if (i) rec += ',';
    rec += "{\"kind\":";
    append_string(rec, event_kind_name(inc.kind));
    rec += ",\"detail\":";
    append_string(rec, inc.detail.empty() ? inc.label : inc.detail);
    rec += '}';
  }
  rec += ']';

  rec += ",\"counters\":{";
  bool first = true;
  for (const auto& kv : finish.attrs) {
    if (kv.first.rfind("counter.", 0) != 0) continue;
    if (!first) rec += ',';
    first = false;
    append_string(rec, kv.first.substr(8));
    rec += ':';
    rec += kv.second;  // decimal digits by construction (run_finished)
  }
  rec += '}';

  rec += ",\"gauges\":{";
  first = true;
  for (const auto& kv : finish.attrs) {
    if (kv.first.rfind("gauge.", 0) != 0) continue;
    if (!first) rec += ',';
    first = false;
    append_string(rec, kv.first.substr(6));
    rec += ':';
    rec += kv.second;
  }
  rec += '}';

  if (const std::string* mode = find_attr(finish, "mode")) {
    rec += ",\"mode\":";
    append_string(rec, *mode);
  }
  // Resolved successor engine: requested vs. actual backend plus the
  // fallback reason when they differ (e.g. aot degrading to bytecode on a
  // toolchain-less host). Informational -- engines cannot change verdicts.
  if (const std::string* ereq = find_attr(finish, "engine.requested")) {
    rec += ",\"engine\":{\"requested\":";
    append_string(rec, *ereq);
    const std::string* eact = find_attr(finish, "engine.actual");
    rec += ",\"actual\":";
    append_string(rec, eact != nullptr ? *eact : *ereq);
    if (const std::string* enote = find_attr(finish, "engine.note")) {
      rec += ",\"note\":";
      append_string(rec, *enote);
    }
    rec += '}';
  }
  // Cooperative-stop stamp: lets ledger consumers tell "stopped on
  // purpose, partial verdict" from a run that ran to its natural end.
  if (find_attr(finish, "interrupted") != nullptr)
    rec += ",\"interrupted\":true";
  if (const std::string* trail = find_attr(finish, "trail")) {
    rec += ",\"trail\":";
    append_string(rec, *trail);
  }
  rec += "}\n";

  // Incident-bearing or failing records are fsynced: they are exactly the
  // lines a post-crash investigation needs to still be on disk.
  append_record_durably(path_, rec, !incidents_.empty() || !finish.passed);
}

// -- JsonlStreamSink ----------------------------------------------------------

std::string JsonlStreamSink::render(const Event& e) {
  std::string line;
  line.reserve(160);
  line += "{\"kind\":\"";
  line += event_kind_name(e.kind);
  line += '"';
  if (!e.label.empty()) {
    line += ",\"label\":";
    append_string(line, e.label);
  }
  if (!e.detail.empty()) {
    line += ",\"detail\":";
    append_string(line, e.detail);
  }
  if (e.states != 0) {
    line += ",\"states\":";
    json::append_u64(line, e.states);
  }
  if (e.target != 0) {
    line += ",\"target\":";
    json::append_u64(line, e.target);
  }
  if (e.seconds != 0.0) {
    line += ",\"seconds\":";
    json::append_double(line, e.seconds);
  }
  if (e.rate != 0.0) {
    line += ",\"rate\":";
    json::append_double(line, e.rate);
  }
  // `passed` only means anything on the events that carry a verdict.
  if (e.kind == EventKind::ObligationFinished ||
      e.kind == EventKind::RunFinished)
    line += e.passed ? ",\"passed\":true" : ",\"passed\":false";
  // Structured extras verbatim, except the counter/gauge dump RunFinished
  // carries -- that firehose belongs in the ledger record, not on the wire.
  bool attrs_open = false;
  for (const auto& kv : e.attrs) {
    if (starts_with(kv.first, "counter.") || starts_with(kv.first, "gauge."))
      continue;
    line += attrs_open ? "," : ",\"attrs\":{";
    attrs_open = true;
    append_string(line, kv.first);
    line += ':';
    append_string(line, kv.second);
  }
  if (attrs_open) line += '}';
  line += '}';
  return line;
}

void JsonlStreamSink::on_event(const Event& e) {
  if (emit_) emit_(render(e));
}

// -- schema validator ----------------------------------------------------------
//
// Parses one ledger line with the shared JSON reader (support/json.h) and
// checks the pnp.run.v1 shape. Kept here (not in tests) so external tooling
// gets the same contract.

namespace {

bool require(bool cond, const std::string& what, std::string* err) {
  if (!cond && err && err->empty()) *err = what;
  return cond;
}

}  // namespace

bool validate_ledger_record(const std::string& line, std::string* err) {
  std::string scratch;
  if (!err) err = &scratch;
  err->clear();

  json::Value root;
  if (!json::parse(line, root, err)) return false;
  using T = json::Value::Type;
  if (!require(root.type == T::Object, "record is not an object", err))
    return false;

  auto str_field = [&](const char* key) -> const json::Value* {
    const json::Value* v = root.get(key);
    if (!require(v != nullptr, std::string("missing '") + key + "'", err))
      return nullptr;
    if (!require(v->type == T::String, std::string("'") + key +
                                           "' is not a string", err))
      return nullptr;
    return v;
  };
  const json::Value* schema = str_field("schema");
  if (!schema) return false;
  if (!require(schema->str == LedgerSink::kSchema,
               "unknown schema '" + schema->str + "'", err))
    return false;
  if (!str_field("subject")) return false;
  if (!str_field("config")) return false;
  const json::Value* verdict = str_field("verdict");
  if (!verdict) return false;
  if (!require(verdict->str == "pass" || verdict->str == "fail",
               "verdict must be 'pass' or 'fail'", err))
    return false;

  auto num_field = [&](const json::Value& o, const char* key,
                       const char* where) {
    const json::Value* v = o.get(key);
    return require(v && v->type == T::Number,
                   std::string(where) + " missing number '" + key + "'", err);
  };
  if (!num_field(root, "seconds", "record")) return false;
  if (!num_field(root, "states", "record")) return false;

  const json::Value* phases = root.get("phases");
  if (!require(phases && phases->type == T::Array,
               "missing 'phases' array", err))
    return false;
  for (const json::Value& p : phases->arr) {
    if (!require(p.type == T::Object, "phase is not an object", err))
      return false;
    const json::Value* name = p.get("name");
    if (!require(name && name->type == T::String,
                 "phase missing string 'name'", err))
      return false;
    if (!num_field(p, "seconds", "phase")) return false;
    if (!num_field(p, "states", "phase")) return false;
  }

  const json::Value* checks = root.get("checks");
  if (!require(checks && checks->type == T::Array,
               "missing 'checks' array", err))
    return false;
  for (const json::Value& c : checks->arr) {
    if (!require(c.type == T::Object, "check is not an object", err))
      return false;
    const json::Value* kind = c.get("kind");
    if (!require(kind && kind->type == T::String,
                 "check missing string 'kind'", err))
      return false;
    const json::Value* label = c.get("label");
    if (!require(label && label->type == T::String,
                 "check missing string 'label'", err))
      return false;
    const json::Value* passed = c.get("passed");
    if (!require(passed && passed->type == T::Bool,
                 "check missing bool 'passed'", err))
      return false;
  }

  const json::Value* counters = root.get("counters");
  if (!require(counters && counters->type == T::Object,
               "missing 'counters' object", err))
    return false;
  for (const auto& kv : counters->obj)
    if (!require(kv.second.type == T::Number,
                 "counter '" + kv.first + "' is not a number", err))
      return false;

  const json::Value* gauges = root.get("gauges");
  if (gauges) {
    if (!require(gauges->type == T::Object, "'gauges' is not an object", err))
      return false;
    for (const auto& kv : gauges->obj)
      if (!require(kv.second.type == T::Number,
                   "gauge '" + kv.first + "' is not a number", err))
        return false;
  }
  const json::Value* trail = root.get("trail");
  if (trail &&
      !require(trail->type == T::String, "'trail' is not a string", err))
    return false;
  const json::Value* engine = root.get("engine");
  if (engine) {
    if (!require(engine->type == T::Object, "'engine' is not an object", err))
      return false;
    const json::Value* req = engine->get("requested");
    if (!require(req && req->type == T::String,
                 "engine missing string 'requested'", err))
      return false;
    const json::Value* act = engine->get("actual");
    if (!require(act && act->type == T::String,
                 "engine missing string 'actual'", err))
      return false;
    const json::Value* note = engine->get("note");
    if (note && !require(note->type == T::String,
                         "'engine.note' is not a string", err))
      return false;
  }
  return true;
}

}  // namespace pnp::obs
