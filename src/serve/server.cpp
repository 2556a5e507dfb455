#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "pnp/session.h"
#include "support/panic.h"

namespace pnp::serve {

namespace {

/// Checkpoint directories are keyed by the client-chosen job id (stable
/// across reconnects, unlike the connection id), mangled into a safe
/// filesystem component.
std::string sanitize_id(const std::string& id) {
  std::string out;
  for (char c : id) {
    const unsigned char u = static_cast<unsigned char>(c);
    out += std::isalnum(u) != 0 || c == '-' || c == '.' ? c : '_';
  }
  if (out.empty()) out = "job";
  return out;
}

std::string cache_dir_of(const ServerOptions& opts) {
  PNP_CHECK(!opts.state_dir.empty(), "pnpd requires a state directory");
  return opts.state_dir + "/cache";
}

}  // namespace

RunConfig job_config(const JobRequest& req, const ServerOptions& opts) {
  RunConfig cfg = req.config;
  cfg.heartbeat = false;  // no TTY on a daemon; events stream instead
  // Compiled AOT artifacts land in the daemon's cache directory: they are
  // content-addressed by the machine digest, so every worker shares one
  // store and a resubmitted model reuses its .so across jobs. The other
  // engines write no artifacts.
  if (cfg.engine == codegen::EngineKind::Aot && cfg.cache_dir.empty())
    cfg.cache_dir = cache_dir_of(opts);
  if (!req.explicit_memory || cfg.memory_budget_bytes == 0)
    cfg.memory_budget_bytes = opts.default_job_memory;
  if (req.checkpoint && cfg.checkpoint_dir.empty()) {
    cfg.checkpoint_dir = opts.state_dir + "/ckpt/" + sanitize_id(req.id);
    cfg.resume = true;  // a resubmit after a drain continues the search
  }
  return cfg;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      queue_(opts_.memory_budget, opts_.default_job_memory,
             opts_.aging_seconds),
      cache_(cache_dir_of(opts_)) {}

Server::~Server() {
  if (started_) drain();
  const int fd = wake_wr_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

int Server::listen_unix(const std::string& path, std::string* err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());  // a previous daemon's stale socket
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 128) < 0) {
    if (err != nullptr)
      *err = "bind " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int Server::listen_tcp(int port, int* bound_port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 128) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    if (err != nullptr)
      *err = "bind 127.0.0.1:" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  *bound_port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

bool Server::start(std::string* err) {
  PNP_CHECK(!started_, "pnpd started twice");
  PNP_CHECK(!opts_.socket_path.empty(), "pnpd requires a socket path");

  // Repair a torn ledger tail exactly once, before any worker opens the
  // file with recovery disabled (see obs::LedgerSink).
  {
    obs::LedgerSink master(opts_.state_dir, /*recover_torn=*/true);
    ledger_path_ = master.path();
    ledger_recovered_torn_ = master.recovered_torn_line();
  }

  unix_fd_ = listen_unix(opts_.socket_path, err);
  if (unix_fd_ < 0) return false;
  if (opts_.tcp_port >= 0) {
    tcp_fd_ = listen_tcp(opts_.tcp_port, &bound_tcp_port_, err);
    if (tcp_fd_ < 0) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      ::unlink(opts_.socket_path.c_str());
      return false;
    }
  }
  int wake_pipe[2] = {-1, -1};
  if (::pipe2(wake_pipe, O_CLOEXEC) < 0) {
    if (err != nullptr) *err = std::string("pipe: ") + std::strerror(errno);
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
    if (tcp_fd_ >= 0) {
      ::close(tcp_fd_);
      tcp_fd_ = -1;
    }
    return false;
  }
  wake_rd_ = wake_pipe[0];
  wake_wr_.store(wake_pipe[1], std::memory_order_release);

  started_ = true;
  const int workers = opts_.workers > 0 ? opts_.workers : 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back(&Server::worker_loop, this);
  return true;
}

void Server::run() {
  PNP_CHECK(started_, "run() before start()");
  for (;;) {
    pollfd pfds[3];
    int n = 0;
    pfds[n++] = pollfd{unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[n++] = pollfd{tcp_fd_, POLLIN, 0};
    pfds[n++] = pollfd{wake_rd_, POLLIN, 0};
    const int r = ::poll(pfds, static_cast<nfds_t>(n), -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[n - 1].revents != 0) break;  // request_stop() woke us
    for (int i = 0; i < n - 1; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept4(pfds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;
      auto conn = std::make_shared<Conn>();
      conn->fd = cfd;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conn->id = next_conn_id_++;
        conns_[conn->id] = conn;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections;
      }
      conn->reader = std::thread(&Server::reader_loop, this, conn);
    }
  }
  drain();
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const char byte = 's';
  const int fd = wake_wr_.load(std::memory_order_acquire);
  if (fd >= 0) (void)!::write(fd, &byte, 1);  // async-signal-safe wake-up
}

void Server::drain() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_relaxed);

  // 1. Stop accepting.
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }

  // 2. Reject everything still queued, with a reason the client can act on.
  std::vector<Job> pending = queue_.close();
  for (Job& job : pending) {
    if (const std::shared_ptr<Conn> conn = conn_for(job.client))
      send_frame(*conn, render_rejected(job.req.id, "server is draining"));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected;
  }

  // 3. Interrupt running jobs; the engines park like a pnpv SIGINT (final
  //    checkpoint when configured, ledger stamped "interrupted") and the
  //    workers stream the partial reports before pop() returns nullopt.
  queue_.interrupt_running();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();

  // 4. Hang up on clients only after every report went out.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) conns.push_back(conn);
    conns_.clear();
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    conn->alive.store(false, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const std::shared_ptr<Conn>& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();
  for (const std::shared_ptr<Conn>& conn : conns) {
    ::close(conn->fd);
    conn->fd = -1;
  }

  cache_.flush();
  ::unlink(opts_.socket_path.c_str());
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
    wake_rd_ = -1;
  }
  // The write end stays open for late request_stop() calls (a second
  // SIGTERM racing the drain); the destructor reaps it.
}

void Server::reader_loop(const std::shared_ptr<Conn>& conn) {
  std::string buf;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = buf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(conn, line);
      if (!conn->alive.load(std::memory_order_relaxed)) break;
    }
    buf.erase(0, start);
    if (buf.size() > kMaxFrameBytes) {
      // The framing cannot be trusted past this point: error out and hang
      // up instead of buffering unboundedly.
      send_frame(*conn, render_error({}, "frame exceeds 8 MiB limit"));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
      break;
    }
    if (!conn->alive.load(std::memory_order_relaxed)) break;
  }
  // Client gone (or we gave up on the stream): whatever it still had
  // queued or running is cancelled -- nobody is listening for the results.
  conn->alive.store(false, std::memory_order_relaxed);
  queue_.cancel_client(conn->id);
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  JobRequest req;
  std::string err;
  if (!parse_request(line, req, &err)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    // JSONL framing survives a bad frame, so answer and keep reading.
    send_frame(*conn, render_error(req.id, err));
    return;
  }
  switch (req.verb) {
    case Verb::Ping:
      send_frame(*conn, render_pong());
      return;
    case Verb::Cancel: {
      Job dropped;
      if (!queue_.cancel_job(conn->id, req.id, &dropped)) {
        send_frame(*conn, render_error(req.id, "no such job"));
      } else if (dropped.seq != 0) {
        // Dropped while still queued: the worker will never report it, so
        // the cancellation acknowledgement has to come from here.
        send_frame(*conn, render_rejected(req.id, "cancelled"));
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.interrupted;
      }
      return;
    }
    case Verb::Submit:
      break;
  }
  const std::string id = req.id;
  Job job;
  job.client = conn->id;
  job.req = std::move(req);
  std::string reason;
  // The ack is written while holding the connection's write mutex across
  // the submit itself: a worker can pop the job the instant submit()
  // returns, and its frames must not overtake the accepted frame.
  std::lock_guard<std::mutex> wlock(conn->write_mu);
  if (!queue_.submit(std::move(job), &reason)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
    }
    send_frame_locked(*conn, render_rejected(id, reason));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  send_frame_locked(*conn, render_accepted(id, queue_.depth()));
}

void Server::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    run_job(*job);
    queue_.release(job->seq);
  }
}

void Server::run_job(Job& job) {
  const std::shared_ptr<Conn> conn = conn_for(job.client);
  JobRequest& req = job.req;
  if (job.cancel->load(std::memory_order_relaxed)) {
    // Cancelled while queued; the owner has hung up, nothing to report.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.interrupted;
    return;
  }

  std::string text = req.model_text;
  const std::string subject = req.model_path.empty() ? req.id : req.model_path;
  if (text.empty()) {
    std::ifstream in(req.model_path, std::ios::binary);
    if (!in) {
      if (conn != nullptr)
        send_frame(*conn,
                   render_error(req.id, "cannot read " + req.model_path));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.completed;
      return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  RunConfig cfg = job_config(req, opts_);
  cfg.shared_cache = &cache_;

  Session session(cfg);
  session.set_interrupt(job.cancel.get());
  session.attach_ledger(std::make_shared<obs::LedgerSink>(
      opts_.state_dir, /*recover_torn=*/false));
  if (conn != nullptr) {
    session.observer().add_sink(std::make_shared<obs::JsonlStreamSink>(
        [this, wconn = std::weak_ptr<Conn>(conn),
         id = req.id](const std::string& event_json) {
          if (const std::shared_ptr<Conn> c = wconn.lock())
            send_frame(*c, render_event(id, event_json));
        }));
  }

  try {
    RunReport rep =
        session.verify_source(subject, text, req.kind, req.resilience);
    const bool interrupted = job.cancel->load(std::memory_order_relaxed);
    if (conn != nullptr)
      send_frame(*conn, render_report(req.id, rep, interrupted));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      interrupted ? ++stats_.interrupted : ++stats_.completed;
    }
  } catch (const ModelError& e) {
    // A bad model is the client's problem, not the daemon's: report and
    // keep serving.
    if (conn != nullptr) send_frame(*conn, render_error(req.id, e.what()));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
  }
  cache_.flush();  // survive even an unclean daemon death with warm verdicts
}

void Server::send_frame(Conn& conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  send_frame_locked(conn, frame);
}

void Server::send_frame_locked(Conn& conn, const std::string& frame) {
  if (!conn.alive.load(std::memory_order_relaxed)) return;
  std::string wire = frame;
  wire += '\n';
  const char* p = wire.data();
  std::size_t left = wire.size();
  while (left > 0) {
    const ssize_t n = ::send(conn.fd, p, left, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      conn.alive.store(false, std::memory_order_relaxed);
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::shared_ptr<Server::Conn> Server::conn_for(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  const auto it = conns_.find(id);
  return it != conns_.end() ? it->second : nullptr;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace pnp::serve
