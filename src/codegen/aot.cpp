// AOT driver: content-addressed artifact cache + parallel host-toolchain
// compile + dlopen + the Engine adapter bridging the C ABI back to
// SuccScratch/SuccSink.
#include "codegen/aot.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/aot_abi.h"
#include "obs/obs.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp::codegen {

namespace {

namespace fs = std::filesystem;

// Bump whenever the generated code's SHAPE changes (new helpers, different
// specialization decisions) even if the ABI is unchanged: the emitter
// version is part of the cache key, so old artifacts simply stop matching.
constexpr int kEmitterVersion = 6;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string pick_cxx(const EngineOptions& opt) {
  if (!opt.cxx.empty()) return opt.cxx;
  if (const char* env = std::getenv("PNP_AOT_CXX"); env && *env) return env;
#ifdef PNP_AOT_HOST_CXX
  return PNP_AOT_HOST_CXX;  // the compiler this library was built with
#else
  return "c++";
#endif
}

fs::path pick_cache_dir(const EngineOptions& opt, std::string* why) {
  std::error_code ec;
  fs::path dir = opt.cache_dir.empty()
                     ? fs::temp_directory_path(ec) / "pnp-aot-cache"
                     : fs::path(opt.cache_dir);
  if (ec) {
    *why = "no usable temp directory for the aot artifact cache";
    return {};
  }
  fs::create_directories(dir, ec);
  if (ec) {
    *why = "cannot create aot cache directory " + dir.string();
    return {};
  }
  return dir;
}

struct HostCtx {
  kernel::SuccScratch* scratch;
  kernel::SuccSink* sink;
};

struct UndoBufs {
  std::vector<std::int32_t> slot;
  std::vector<std::int32_t> val;
};

UndoBufs& undo_bufs() {
  thread_local UndoBufs bufs;
  return bufs;
}

}  // namespace

extern "C" {

static std::int32_t pnp_aot_emit_cb(pnp_aot_ctx* c, const pnp_aot_step* st) {
  auto* host = static_cast<HostCtx*>(c->host);
  kernel::SuccScratch& scr = *host->scratch;
  scr.undo.clear();
  for (std::int32_t i = 0; i < c->undo_len; ++i)
    scr.undo.emplace_back(c->undo_slot[i], c->undo_val[i]);
  scr.state.atomic_pid = c->atomic_pid;
  kernel::Step& s = scr.step;
  s.pid = st->pid;
  s.trans = st->trans;
  s.partner_pid = st->partner_pid;
  s.partner_trans = st->partner_trans;
  s.assert_failed = st->assert_failed != 0;
  s.event.kind = static_cast<kernel::StepEvent::Kind>(st->kind);
  s.event.chan = st->chan;
  if (st->msg)
    s.event.msg.assign(st->msg, st->msg + st->msg_len);
  else
    s.event.msg.clear();
  return host->sink->on_successor(scr.state, s) ? 1 : 0;
}

static void pnp_aot_trap_cb(pnp_aot_ctx*, const char* msg) {
  // Unwinds through the generated frames (plain data, nothing to destroy) --
  // the same ModelError the interpreter's PNP_CHECK would raise here.
  raise_model_error(msg);
}

}  // extern "C"

namespace {

class AotEngine final : public Engine {
 public:
  AotEngine(const kernel::Machine& m, void* handle,
            const pnp_aot_module_v1* mod)
      : Engine(m), handle_(handle), mod_(mod) {}

  ~AotEngine() override {
    if (handle_) dlclose(handle_);
  }

  EngineKind kind() const override { return EngineKind::Aot; }

  void visit_successors(const kernel::State& s, kernel::SuccScratch& scratch,
                        kernel::SuccSink& sink, std::uint32_t skip,
                        std::uint64_t* resume) const override {
    HostCtx host{&scratch, &sink};
    pnp_aot_ctx ctx;
    prepare(s, scratch, host, ctx, skip);
    if (resume != nullptr) {
      // Fast-forward to the previous visit's stop process: everything
      // before it contributed exactly `base` candidates, all covered by
      // `skip`. Atomic states keep the plain path (single-process sweep).
      const int tp = resume_pid(*resume);
      const std::uint32_t base = resume_base(*resume);
      if (tp >= 0 && tp < m_->n_processes() && base <= skip &&
          s.atomic_pid < 0) {
        ctx.start_pid = tp;
        ctx.cand = static_cast<std::int32_t>(base);
        ctx.skip = static_cast<std::int32_t>(skip - base);
      }
      *resume = 0;
    }
    mod_->visit_all(&ctx);
    if (resume != nullptr && ctx.stop_pid >= 0)
      *resume = encode_resume(ctx.stop_pid,
                              static_cast<std::uint32_t>(ctx.pid_base));
    finish(s, scratch);
  }

  bool visit_successors_of(const kernel::State& s, int pid,
                           kernel::SuccScratch& scratch, kernel::SuccSink& sink,
                           std::uint32_t skip) const override {
    HostCtx host{&scratch, &sink};
    pnp_aot_ctx ctx;
    prepare(s, scratch, host, ctx, skip);
    const std::uint32_t r = mod_->visit_of(&ctx, pid);
    finish(s, scratch);
    return (r & 1u) != 0;
  }

 private:
  void prepare(const kernel::State& s, kernel::SuccScratch& scratch,
               HostCtx& host, pnp_aot_ctx& ctx, std::uint32_t skip) const {
    scratch.state.mem.assign(s.mem.begin(), s.mem.end());
    scratch.state.atomic_pid = s.atomic_pid;
    scratch.undo.clear();
    UndoBufs& bufs = undo_bufs();
    // one step's undo log: at most one channel region + a frame's resets +
    // binds + two pcs, comfortably under size + 32
    const std::size_t need = s.mem.size() + 32;
    if (bufs.slot.size() < need) {
      bufs.slot.resize(need);
      bufs.val.resize(need);
    }
    ctx.mem = scratch.state.mem.data();
    ctx.undo_slot = bufs.slot.data();
    ctx.undo_val = bufs.val.data();
    ctx.undo_len = 0;
    ctx.atomic_pid = s.atomic_pid;
    ctx.src_atomic = s.atomic_pid;
    ctx.skip = static_cast<std::int32_t>(skip);
    ctx.start_pid = -1;
    ctx.stop_pid = -1;
    ctx.cand = 0;
    ctx.pid_base = 0;
    ctx.host = &host;
    ctx.emit = &pnp_aot_emit_cb;
    ctx.trap = &pnp_aot_trap_cb;
  }

  /// Leave the scratch in the interpreter's post-generation shape: state
  /// reverted to the source, undo log empty.
  void finish(const kernel::State& s, kernel::SuccScratch& scratch) const {
    scratch.state.atomic_pid = s.atomic_pid;
    scratch.undo.clear();
  }

  void* handle_;
  const pnp_aot_module_v1* mod_;
};

/// Compiler processes one build runs at once: one per hardware thread. The
/// emitter caps the units at one per process.
int compile_slots() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Starts every command at once, stdout and stderr on `out_fd`, and reaps
/// all that started. Returns "" when every one exited 0, else what failed.
std::string run_all(const std::vector<std::vector<std::string>>& cmds,
                    int out_fd) {
  std::vector<std::vector<char*>> argvs;
  for (const std::vector<std::string>& cmd : cmds) {
    std::vector<char*>& argv = argvs.emplace_back();
    for (const std::string& a : cmd)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
  }
  std::vector<pid_t> kids(cmds.size(), 0);
  std::size_t started = 0;
  int spawn_err = 0;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out_fd, STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&fa, out_fd, STDERR_FILENO);
  while (started < cmds.size() &&
         (spawn_err = posix_spawnp(&kids[started], argvs[started][0], &fa,
                                   nullptr, argvs[started].data(),
                                   environ)) == 0)
    ++started;
  posix_spawn_file_actions_destroy(&fa);
  std::vector<int> status(started, -1);  // -1 reads "not exited" on failure
  for (std::size_t i = 0; i < started; ++i)
    while (waitpid(kids[i], &status[i], 0) < 0 && errno == EINTR) {
    }
  if (spawn_err != 0)
    return "cannot run " + cmds[started][0] + ": " +
           std::system_category().message(spawn_err);
  for (std::size_t i = 0; i < started; ++i) {
    if (WIFEXITED(status[i]) && WEXITSTATUS(status[i]) == 0) continue;
    return cmds[i][0] + (WIFEXITED(status[i])
                             ? " exited with status " +
                                   std::to_string(WEXITSTATUS(status[i]))
                             : std::string(" did not exit normally"));
  }
  return "";
}

/// A write-only descriptor opened close-on-exec, closed with the object.
class OutFd {
 public:
  OutFd(const fs::path& path, int flags)
      : fd_(::open(path.c_str(), O_WRONLY | O_CLOEXEC | flags, 0644)) {}
  ~OutFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  OutFd(const OutFd&) = delete;
  OutFd& operator=(const OutFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

bool write_file(const fs::path& path, const std::string& body,
                std::string* why) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out.flush()) {
    *why = "cannot write " + path.string();
    return false;
  }
  return true;
}

/// A build's private directory, removed with everything in it.
class BuildDir {
 public:
  explicit BuildDir(fs::path path) : path_(std::move(path)) {}
  ~BuildDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  BuildDir(const BuildDir&) = delete;
  BuildDir& operator=(const BuildDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Emits `m` as units, compiles them concurrently and links them into
/// `so`. Each build works in its own mkdtemp directory inside the cache, so
/// concurrent builds of one machine -- threads of one process included --
/// share no path until the atomic rename that publishes the module. On a
/// compile failure the compiler output is kept as pnp-aot-<key>.log.
bool build_module(const kernel::Machine& m, const std::string& key,
                  const fs::path& dir, const fs::path& so,
                  const EngineOptions& opt, std::string* why) {
  const std::vector<std::string> units =
      emit_aot_units(m, key, compile_slots(), why);
  if (units.empty()) return false;  // unsupported construct; *why set
  std::string tmpl = (dir / ("pnp-aot-" + key + ".build-XXXXXX")).string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    *why = "cannot create a build directory in " + dir.string();
    return false;
  }
  const BuildDir work(tmpl);
  const std::string cxx = pick_cxx(opt);
  const fs::path out = work.path() / "module.so";
  std::vector<std::vector<std::string>> compiles;
  std::vector<std::string> link = {cxx, "-shared", "-o", out.string()};
  for (std::size_t i = 0; i < units.size(); ++i) {
    const fs::path src = work.path() / ("unit" + std::to_string(i) + ".cpp");
    const fs::path obj = work.path() / ("unit" + std::to_string(i) + ".o");
    if (!write_file(src, units[i], why)) return false;
    compiles.push_back({cxx, "-std=c++20", "-O2", "-fPIC", "-c", "-o",
                        obj.string(), src.string()});
    link.push_back(obj.string());
  }
  const fs::path log = work.path() / "build.log";
  // O_APPEND: the concurrent compilers' diagnostics interleave, none lost
  const OutFd log_fd(log, O_CREAT | O_APPEND);
  if (log_fd.get() < 0) {
    *why = "cannot write " + log.string();
    return false;
  }

  std::size_t phase = 0;
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.obs) phase = opt.obs->begin_phase("codegen.compile", 0);
  std::string err = run_all(compiles, log_fd.get());
  if (err.empty()) err = run_all({link}, log_fd.get());
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (opt.obs) opt.obs->end_phase(phase, 0, secs, err.empty() ? "" : "failed");

  std::error_code ec;
  if (!err.empty()) {
    const fs::path kept = dir / ("pnp-aot-" + key + ".log");
    fs::rename(log, kept, ec);
    *why = "aot compile failed: " + err + " (log: " + kept.string() + ")";
    return false;
  }
  fs::rename(out, so, ec);  // replaces an identical module a racer published
  if (ec) {
    *why = "cannot move compiled module into cache at " + so.string();
    return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<Engine> make_aot_engine(const kernel::Machine& m,
                                        const EngineOptions& opt,
                                        std::string* why) {
  const std::string key_src = machine_digest(m) + "|abi" +
                              std::to_string(kAotAbiVersion) + "|emit" +
                              std::to_string(kEmitterVersion);
  const std::string key =
      hex64(stable_hash64(key_src)) + hex64(stable_hash64(key_src + "#2"));

  const fs::path dir = pick_cache_dir(opt, why);
  if (dir.empty()) return nullptr;
  const fs::path so = dir / ("pnp-aot-" + key + ".so");

  std::error_code ec;
  if (!fs::exists(so, ec)) {
    if (!build_module(m, key, dir, so, opt, why)) return nullptr;
    if (opt.obs) opt.obs->recorder().add(obs::Counter::CodegenCompiles, 1);
  } else if (opt.obs) {
    opt.obs->recorder().add(obs::Counter::CodegenCacheHits, 1);
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = dlerror();
    *why = "dlopen failed: " + std::string(err ? err : "unknown error");
    return nullptr;
  }
  using EntryFn = pnp_aot_module_v1* (*)();
  auto entry =
      reinterpret_cast<EntryFn>(dlsym(handle, kAotEntrySymbol));
  if (!entry) {
    dlclose(handle);
    *why = "cached module exports no " + std::string(kAotEntrySymbol);
    return nullptr;
  }
  const pnp_aot_module_v1* mod = entry();
  if (mod == nullptr || mod->abi_version != kAotAbiVersion ||
      mod->state_size != m.layout().size() ||
      key != (mod->source_digest ? mod->source_digest : "")) {
    dlclose(handle);
    *why = "cached module at " + so.string() +
           " does not match this machine (stale or foreign artifact)";
    return nullptr;
  }
  return std::make_unique<AotEngine>(m, handle, mod);
}

std::string describe_engines(const std::string& cache_dir) {
  EngineOptions opt;
  opt.cache_dir = cache_dir;
  const std::string cxx = pick_cxx(opt);
  // The same spawn make_aot_engine uses, minus the compile: a toolchain
  // that answers --version is one the build step can exec.
  const OutFd null_fd("/dev/null", 0);
  const bool have_cxx = null_fd.get() >= 0 &&
                        run_all({{cxx, "--version"}}, null_fd.get()).empty();
  std::string out = "successor engines:\n";
  out += "  bytecode  always available (threaded-bytecode interpreter; "
         "the front-end default)\n";
  out += "  interp    always available (the reference interpreter)\n";
  out += std::string("  aot       ") +
         (have_cxx ? "available (host toolchain found)"
                   : "unavailable on this host (falls back to bytecode)") +
         "\n";
  out += "aot toolchain: " + cxx +
         (have_cxx ? "  [probe ok]" : "  [probe failed: not runnable]") + "\n";
  out += "aot compile: up to " + std::to_string(compile_slots()) +
         " units at once (one per hardware thread, at most one per "
         "process)\n";
  std::string why;
  const fs::path dir = pick_cache_dir(opt, &why);
  out += "aot artifact cache: " +
         (dir.empty() ? "unavailable (" + why + ")" : dir.string()) + "\n";
  out += "aot abi: v" + std::to_string(kAotAbiVersion) + ", emitter v" +
         std::to_string(kEmitterVersion) + "\n";
  return out;
}

}  // namespace pnp::codegen
