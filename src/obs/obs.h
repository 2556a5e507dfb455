// Verification observability: low-overhead counters/timers plus structured
// lifecycle events, threaded through the whole verification stack
// (explore, kernel::compress, reduce, pnp::verifier) and surfaced by the
// pnp::Session facade.
//
// Two independent mechanisms, one handle (Observer):
//
//  * Recorder -- quantitative telemetry. Hot loops open a per-thread
//    CounterBlock (cache-line aligned, written with relaxed atomics by its
//    one owner, merged on read) and publish their local tallies every few
//    hundred expansions, so the instrumented fast path costs one branch and
//    an amortized handful of relaxed stores. Gauges (absolute values:
//    store bytes, intern-table sizes) and named phase timers (ladder rungs,
//    minimize, LTL product search) live on the Recorder directly -- they
//    are cold-path only.
//
//  * EventSink -- qualitative lifecycle events (run started, phase entered,
//    progress heartbeat, budget warning at 80%, truncation, counterexample
//    found, run finished). Observer fans each event out to every attached
//    sink under a mutex; events are rare (phase boundaries plus one
//    rate-limited progress event per heartbeat interval), so the lock never
//    sees contention that matters.
//
// Shipped sinks:
//  * HeartbeatSink -- a one-line TTY progress ticker (rate + ETA vs
//    max_states), automatically suppressed when the stream is not a
//    terminal so piped/CI output stays clean.
//  * LedgerSink -- appends one JSONL record per run (schema "pnp.run.v1":
//    config digest, per-phase metrics, the run's counters, verdict, trail
//    pointer) so scripts/bench.sh and CI can diff runs instead of
//    re-parsing stdout. The record format is validated by
//    validate_ledger_record(), which tests/test_obs.cpp pins.
//
// A null Observer pointer disables everything at zero cost; the acceptance
// bar (enforced by scripts/bench.sh) is <= 3% throughput overhead with the
// Recorder attached on the fig13 full-space benchmark.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pnp::obs {

// -- counters (monotonic tallies, summed across blocks on read) ---------------

enum class Counter : std::uint8_t {
  StatesStored,    // fresh states inserted into a visited store
  StatesMatched,   // successors that were already visited
  Transitions,     // successor edges generated
  PorAmpleSets,    // states expanded through a POR ample set (not fully)
  CompressFull,    // COLLAPSE full re-interns (root states / fallback)
  CompressDelta,   // COLLAPSE delta re-interns (dirty regions only)
  CacheHits,       // verification-cache verdicts answered from disk
  CacheMisses,     // verification-cache lookups that had to recompute
  ObligationsVerified,   // obligations model-checked this run
  ObligationsFromCache,  // obligations answered by the verdict cache
  CodegenCompiles,       // AOT modules compiled from emitted source
  CodegenCacheHits,      // AOT modules loaded from the artifact cache
  CodegenFallbacks,      // aot requests that degraded to bytecode
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

const char* counter_name(Counter c);

// -- gauges (absolute values, set by the owning stage) ------------------------

enum class Gauge : std::uint8_t {
  StoreBytes,            // visited store footprint (tables + arenas)
  FrontierBytes,         // search frontier footprint estimate
  InternedComponents,    // distinct COLLAPSE components across all regions
  CompressorBytes,       // intern-table footprint
  MaxDepthReached,       // deepest DFS frame seen (monotonic max)
  MinimizeStatesBefore,  // control locations before bisimulation quotient
  MinimizeStatesAfter,   // control locations after
  kCount
};

inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

const char* gauge_name(Gauge g);

/// One thread's slice of the merged counter totals. Exactly one thread
/// writes a block (relaxed stores/adds); any thread may read concurrently.
/// Engines publish their local tallies as absolute values with set() every
/// few hundred expansions, so a block converges to that engine run's final
/// numbers; when the run ends its block folds into the recorder's base
/// block, so Recorder::total() sums runs/workers.
struct alignas(64) CounterBlock {
  std::array<std::atomic<std::uint64_t>, kCounterCount> v{};

  void add(Counter c, std::uint64_t n) {
    v[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  void set(Counter c, std::uint64_t n) {
    v[static_cast<std::size_t>(c)].store(n, std::memory_order_relaxed);
  }
  std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
};

/// Merged-on-read telemetry store. Block allocation and phase bookkeeping
/// take a mutex (cold path); everything a hot loop touches is lock-free.
///
/// Its footprint does not grow with the runs it has recorded: a finished
/// search's block folds into the base block and is recycled, and a phase
/// record lives only while the phase is open. A long-lived Session thus
/// pays the same per run at its thousandth run as at its first, and its
/// memory budgets are not charged for its history.
class Recorder {
 public:
  /// Folds a finished search's block into the base block (Block's deleter).
  struct Fold {
    Recorder* rec = nullptr;
    void operator()(CounterBlock* b) const { rec->fold(b); }
  };
  /// A search's counter block, live while the handle lives: destroying the
  /// handle adds its tallies to the base block and recycles the block.
  using Block = std::unique_ptr<CounterBlock, Fold>;

  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Hands out a zeroed per-thread block (a recycled one when a folded
  /// block is spare). Thread-safe.
  Block open_block();

  /// Convenience for cold-path increments (verifier, cache bookkeeping):
  /// adds onto the recorder's own base block.
  void add(Counter c, std::uint64_t n) { base_.add(c, n); }

  /// Sum of `c` across the base block and every live block. A fold moves a
  /// block's tallies into the base under the same lock, so a reader polling
  /// during a search never sees the total drop.
  std::uint64_t total(Counter c) const;
  /// total() of every counter, under one lock.
  std::array<std::uint64_t, kCounterCount> totals() const;

  void set_gauge(Gauge g, std::uint64_t v) {
    gauges_[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
  }
  /// Monotonic-max gauge update (e.g. deepest stack seen by any worker).
  void max_gauge(Gauge g, std::uint64_t v);
  std::uint64_t gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)].load(
        std::memory_order_relaxed);
  }
  /// Zeroes every gauge, so the next values are one run's peaks.
  void clear_gauges();

  /// Opens a phase timer and returns its token. Phases may overlap
  /// (parallel resilience variants), so each token times its own phase.
  std::size_t phase_begin();
  /// Closes the phase and returns its measured wall time in seconds (0 for
  /// a token that is not open).
  double phase_end(std::size_t token);

  /// Memory the recorder itself holds (its counter blocks + open phases) --
  /// included in the explorers' memory-budget accounting so an instrumented
  /// run cannot silently exceed its budget through its own telemetry.
  std::uint64_t approx_bytes() const;

 private:
  void fold(CounterBlock* b);

  struct OpenPhase {
    std::size_t token;
    std::chrono::steady_clock::time_point start;
  };

  CounterBlock base_;
  std::array<std::atomic<std::uint64_t>, kGaugeCount> gauges_{};
  mutable std::mutex mu_;  // guards live_, spare_, open_ and next_phase_
  std::vector<std::unique_ptr<CounterBlock>> live_;   // held by searches
  std::vector<std::unique_ptr<CounterBlock>> spare_;  // folded and zeroed
  std::vector<OpenPhase> open_;
  std::size_t next_phase_ = 0;
};

// -- lifecycle events ----------------------------------------------------------

enum class EventKind : std::uint8_t {
  RunStarted,           // label=subject, detail=config digest (hex)
  PhaseStarted,         // label=phase name, target=max_states bound
  Progress,             // rate-limited heartbeat: states, rate, target
  BudgetWarning,        // detail=which budget, states/target=consumed/cap
  Truncated,            // detail=truncation reason
  CounterexampleFound,  // label=property, detail=violation kind
  ObligationFinished,   // label=obligation, passed, attrs[kind/stage/cache]
  PhaseFinished,        // label=phase name, states, seconds, detail=truncation
  RunFinished,          // passed=verdict, attrs carry counters/gauges/trail
  Checkpointed,         // label=checkpoint path, states, target=sequence no.
  Resumed,              // label=checkpoint path, states restored from it
};

const char* event_kind_name(EventKind k);

struct Event {
  EventKind kind{};
  std::string label;
  std::string detail;
  std::uint64_t states{0};
  std::uint64_t target{0};  // max_states / budget cap (0 = unbounded)
  double seconds{0.0};
  double rate{0.0};  // states per second (Progress)
  bool passed{true};
  /// Structured extras; LedgerSink folds "counter.*" / "gauge.*" keys into
  /// the record's counters/gauges objects and known keys (mode, config,
  /// trail) into top-level fields.
  std::vector<std::pair<std::string, std::string>> attrs;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;
};

// -- the handle engines carry --------------------------------------------------

/// One verification run's observability context: a Recorder plus a fan-out
/// list of sinks. Engines receive a (possibly null) Observer* and publish
/// counters / emit events through it; pnp::Session owns one per session.
class Observer {
 public:
  Observer() : run_start_(std::chrono::steady_clock::now()) {}
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  Recorder& recorder() { return rec_; }
  const Recorder& recorder() const { return rec_; }

  void add_sink(std::shared_ptr<EventSink> sink);
  /// Fans `e` out to every sink. Thread-safe; events are cold-path.
  void emit(const Event& e);

  /// Seconds between progress heartbeats (default 1.0).
  void set_heartbeat_interval(double seconds);

  /// Combined phase bookkeeping: recorder timer + PhaseStarted event.
  /// Returns the token to pass to end_phase().
  std::size_t begin_phase(const std::string& name, std::uint64_t target);
  void end_phase(std::size_t token, std::uint64_t states, double seconds,
                 const std::string& truncation = {});

  /// Rate-limited heartbeat from hot loops: returns immediately (one
  /// relaxed load) unless the heartbeat interval elapsed, in which case one
  /// winning caller emits a Progress event. Thread-safe.
  void progress(std::uint64_t states, std::uint64_t target);

  void budget_warning(const std::string& which, std::uint64_t used,
                      std::uint64_t cap);
  void truncated(const std::string& reason);
  /// Checkpoint `seq` committed at `path` with `states` stored states.
  void checkpointed(const std::string& path, std::uint64_t states,
                    std::uint64_t seq);
  /// Search seeded from the checkpoint at `path` (`states` restored).
  void resumed(const std::string& path, std::uint64_t states);
  void counterexample(const std::string& property, const std::string& kind);
  /// Emits RunStarted, snapshots the counter totals and zeroes the gauges:
  /// the run's RunFinished reports this run alone.
  void run_started(const std::string& subject, const std::string& digest,
                   std::vector<std::pair<std::string, std::string>> attrs = {});
  /// Emits RunFinished with `states` and every nonzero counter/gauge of
  /// this run (counters since run_started, gauge peaks since then) appended
  /// to `attrs` as "counter.<name>" / "gauge.<name>" pairs. The recorder's
  /// totals stay cumulative.
  void run_finished(bool passed, double seconds,
                    std::vector<std::pair<std::string, std::string>> attrs = {});

  /// Recorder footprint + sink list; see Recorder::approx_bytes().
  std::uint64_t approx_bytes() const;

 private:
  Recorder rec_;
  std::mutex mu_;  // sinks_, phase label
  std::vector<std::shared_ptr<EventSink>> sinks_;
  std::string current_phase_;  // last-begun phase, for progress labeling
  std::chrono::steady_clock::time_point run_start_;
  std::array<std::uint64_t, kCounterCount> run_base_{};  // totals at start
  std::chrono::steady_clock::time_point phase_start_;
  std::atomic<std::int64_t> next_progress_ns_{0};
  std::atomic<std::int64_t> interval_ns_{1'000'000'000};
};

// -- shipped sinks -------------------------------------------------------------

/// Periodic one-line status on a terminal: phase, states, rate, percent of
/// the max_states bound and the ETA to it. Suppressed (active() == false)
/// when `out` is not a TTY unless `force` is set, so redirected output and
/// CI logs never see control characters.
class HeartbeatSink : public EventSink {
 public:
  explicit HeartbeatSink(std::FILE* out = stderr, bool force = false);

  bool active() const { return active_; }
  void on_event(const Event& e) override;

 private:
  void clear_line();

  std::FILE* out_;
  bool active_;
  bool line_pending_ = false;  // a \r status line is on screen
};

/// JSONL run ledger: one record per run appended to <dir>/ledger.jsonl.
/// Crash-safe: each record is appended in a single O_APPEND write and
/// fsynced when it carries incidents or a failing verdict; on reopen a torn
/// final line (crash mid-append) is truncated back to the last complete
/// record and flagged via recovered_torn_line().
class LedgerSink : public EventSink {
 public:
  static constexpr const char* kSchema = "pnp.run.v1";

  /// Creates `dir` if needed; raises ModelError when it cannot be created.
  /// `recover_torn` runs the torn-tail repair described above; pass false
  /// for secondary sinks sharing a ledger file that other writers are
  /// appending to concurrently (pnpd workers: the daemon repairs the file
  /// once at startup, before any worker opens it, so a later truncation
  /// could only ever race a live in-flight append).
  explicit LedgerSink(const std::string& dir, bool recover_torn = true);

  const std::string& path() const { return path_; }
  const std::string& dir() const { return dir_; }

  /// True when the constructor found and repaired a torn final line left by
  /// a crash mid-append (the damaged partial record was truncated away).
  bool recovered_torn_line() const { return recovered_torn_; }

  void on_event(const Event& e) override;

 private:
  void write_record(const Event& finish);
  void recover_torn_tail();

  bool recovered_torn_ = false;
  std::string dir_;
  std::string path_;
  std::mutex mu_;
  // accumulated over the current run, reset at RunStarted
  std::string subject_;
  std::string config_;
  std::vector<Event> phases_;       // PhaseFinished events, in order
  std::vector<Event> obligations_;  // ObligationFinished events, in order
  std::vector<Event> incidents_;    // warnings / truncations / counterexamples
};

/// Serializes every event as one single-line JSON object and hands it to
/// `emit` (no trailing newline -- the consumer owns framing). This is the
/// wire format pnpd streams back to clients while a job runs: Progress
/// heartbeats, budget warnings, phase/obligation lifecycle, truncations and
/// checkpoints, each as {"kind":"progress","states":...,...}. The sink
/// itself is transport-agnostic, so tests can capture lines in a vector and
/// the server can prefix a job id and write to a socket.
///
/// `emit` is called under the Observer's fan-out lock, from whichever
/// thread produced the event -- keep it cheap and thread-safe.
class JsonlStreamSink : public EventSink {
 public:
  using EmitFn = std::function<void(const std::string& line)>;

  explicit JsonlStreamSink(EmitFn emit) : emit_(std::move(emit)) {}

  void on_event(const Event& e) override;

  /// The single-line JSON rendering on_event() emits, exposed for reuse by
  /// protocol code that needs to wrap it (pnpd adds job framing fields).
  static std::string render(const Event& e);

 private:
  EmitFn emit_;
};

/// Validates one ledger line against the documented "pnp.run.v1" schema:
/// well-formed JSON, required keys with the right JSON types (schema,
/// subject, config, verdict, seconds, states, phases[] with name/seconds/
/// states, checks[] with kind/label/passed, counters{}). Returns false and
/// fills `err` on the first violation. This is the contract
/// tests/test_obs.cpp and external tooling pin.
bool validate_ledger_record(const std::string& line, std::string* err);

}  // namespace pnp::obs
