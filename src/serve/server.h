// pnpd: verification as a long-running service.
//
// The server listens on a Unix domain socket (and optionally a loopback TCP
// port), speaks the pnp.job.v1 JSONL protocol (serve/proto.h), and runs
// admitted jobs on a fixed pool of worker threads. What makes the daemon
// more than N pnpv processes behind a socket is what the workers share:
//
//  * one VerificationCache -- every worker consults and feeds the same
//    content-addressed verdict store (reduce/cache.h is internally
//    synchronized for exactly this), so a client resubmitting a model the
//    daemon has seen -- from any connection -- gets cache hits instead of
//    recomputation. This is the paper's plug-and-play iteration loop as a
//    service: edit one connector, resubmit, pay only for the changed slice.
//  * one run ledger -- every job appends its pnp.run.v1 record to the same
//    <state_dir>/ledger.jsonl. LedgerSink appends are record-atomic
//    (single O_APPEND write), so concurrent workers interleave cleanly;
//    each job gets its own sink instance (record assembly is per-run
//    state) opened with torn-tail recovery off, because the daemon repairs
//    the file once at startup before any worker touches it.
//
// Threading: the caller's thread runs the poll()-based accept loop (woken
// by a self-pipe for shutdown); each connection gets a reader thread that
// parses frames and feeds the JobQueue; `workers` threads pop jobs and run
// them through a per-job pnp::Session. Responses are written under a
// per-connection mutex with MSG_NOSIGNAL, so a worker streaming events and
// a reader acking a submit never interleave bytes mid-frame.
//
// Shutdown (SIGTERM -> request_stop(), async-signal-safe): stop accepting,
// reject every queued job with "draining", flag every running job's
// interrupt -- the engines park exactly like a pnpv SIGINT (final
// checkpoint when the job asked for one, ledger record stamped
// "interrupted", partial report streamed to the client) -- then join
// workers and readers and unlink the socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "reduce/cache.h"
#include "serve/queue.h"

namespace pnp::serve {

struct ServerOptions {
  std::string socket_path;  // Unix domain socket (required)
  int tcp_port = -1;        // also listen on 127.0.0.1; 0 = ephemeral,
                            // -1 = no TCP listener
  int workers = 2;
  /// Aggregate admission budget across queued + running jobs; 0 = no cap.
  std::uint64_t memory_budget = std::uint64_t{4} << 30;
  /// Charge (and enforced engine budget) for jobs without an explicit one.
  std::uint64_t default_job_memory = std::uint64_t{256} << 20;
  double aging_seconds = 5.0;
  /// Ledger, verdict cache and drain checkpoints live here (required).
  std::string state_dir;
};

/// The RunConfig a daemon job runs under: the request's own, with the
/// daemon's defaults filled in -- no TTY ticker, the daemon's cache
/// directory as the AOT artifact cache of an aot job that names none, the
/// default job memory unless the request set one, and a per-job checkpoint
/// directory (resumed on resubmit) for a job that asks to be checkpointed
/// on drain. The caller points shared_cache at the daemon's verdict cache.
RunConfig job_config(const JobRequest& req, const ServerOptions& opts);

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;   // report sent, job ran to a verdict
  std::uint64_t interrupted = 0; // drain/cancel ended the job early
  std::uint64_t protocol_errors = 0;
  std::uint64_t connections = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners, repairs the ledger tail, loads the verdict cache
  /// and spawns the worker pool. Returns false with a reason on bind
  /// failures. Call once, before run().
  bool start(std::string* err);

  /// Runs the accept loop on the calling thread until request_stop(), then
  /// performs the graceful drain described above. Returns when the last
  /// worker and reader have been joined.
  void run();

  /// Initiates shutdown. Async-signal-safe (one write() to the self-pipe);
  /// this is what pnpv's SIGTERM/SIGINT handler calls.
  void request_stop();

  /// Actual TCP port after start() (resolves tcp_port == 0).
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& ledger_path() const { return ledger_path_; }
  /// True when startup repaired a torn ledger tail from a crashed run.
  bool ledger_recovered_torn() const { return ledger_recovered_torn_; }
  ServerStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::atomic<bool> alive{true};
    std::mutex write_mu;
    std::thread reader;
  };

  void reader_loop(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  void handle_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  void run_job(Job& job);
  /// Whole-frame write (appends the newline) under the connection's write
  /// mutex; marks the connection dead on failure instead of raising.
  void send_frame(Conn& conn, const std::string& frame);
  /// send_frame() with write_mu already held -- the submit path holds it
  /// across queue admission so a worker's frames cannot overtake the ack.
  void send_frame_locked(Conn& conn, const std::string& frame);
  std::shared_ptr<Conn> conn_for(std::uint64_t id);
  void drain();
  static int listen_unix(const std::string& path, std::string* err);
  static int listen_tcp(int port, int* bound_port, std::string* err);

  ServerOptions opts_;
  JobQueue queue_;
  reduce::VerificationCache cache_;
  std::string ledger_path_;
  bool ledger_recovered_torn_ = false;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  /// Self-pipe read end, owned by the run() thread. The write end is an
  /// atomic closed only by the destructor: request_stop() may fire from a
  /// signal handler or another thread at any point, including mid-drain.
  int wake_rd_ = -1;
  std::atomic<int> wake_wr_{-1};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex conns_mu_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace pnp::serve
