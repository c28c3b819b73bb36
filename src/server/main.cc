// phoenixd — the Phoenix database server as a real OS process.
//
// The in-process DbServer + SocketServer, wired to a backing-directory
// SimDisk so durable bytes live in real files and everything else dies with
// the process. This is the half of the transport story a SIGKILL can reach:
// tests spawn phoenixd via ProcessServerHandle, drive it over TCP or a
// Unix-domain socket, and kill it at armed rendezvous points (mid-fsync,
// mid-checkpoint-rename, mid-request) to verify that Phoenix virtual
// sessions survive genuine process death.
//
// Quickstart:
//   phoenixd --data-dir=/tmp/phx --listen=tcp:127.0.0.1:5432
//   phoenixd --data-dir=/tmp/phx --listen=unix:/tmp/phx/phoenixd.sock
//
// Environment (flags win over env; both optional unless noted):
//   PHX_DATA_DIR        durable state directory (REQUIRED; created if absent)
//   PHX_LISTEN          endpoint (default unix:<data_dir>/phoenixd.sock)
//   PHX_NOTIFY_FD       fd to write "READY <endpoint>\n" to once serving
//   PHX_RENDEZVOUS_FD   fd to signal armed rendezvous points on
//   PHX_RENDEZVOUS      rendezvous spec armed from birth (see
//                       net/process_server.h kAdminRendezvous)
//   PHX_RENDEZVOUS_TIMEOUT_MS  failsafe: how long a fired rendezvous blocks
//                       waiting for the parent's SIGKILL before _exit(43)
//   PHX_SERVER_ID       failover-group member id, 0..255 (default 0)
//   plus the knobs of phoenix::Options (PHX_CKPT_EVERY, PHX_WORKERS,
//   PHX_RECOVERY_THREADS; see common/options.h)
//
// The boot counter: every boot reads <data_dir>/phxd.boot, increments it
// durably, and hands out session ids from (boot#<<32). A process has no
// memory of its predecessors, so without this a reborn server would reissue
// low session ids and a stale client session could alias a live one —
// silently defeating the crash detection the whole paper depends on.

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "net/db_server.h"
#include "net/process_server.h"
#include "net/socket_transport.h"
#include "storage/sim_disk.h"

namespace phoenix::server {
namespace {

int g_signal_pipe[2] = {-1, -1};

void OnTermSignal(int) {
  char byte = 't';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || e[0] == '\0') return fallback;
  return std::strtoull(e, nullptr, 10);
}

std::string EnvStr(const char* name, const std::string& fallback = "") {
  const char* e = std::getenv(name);
  return (e == nullptr) ? fallback : std::string(e);
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parsed form of the kAdminRendezvous spec "<point>:<n>[:<keep_permille>]".
struct RendezvousSpec {
  enum class Point { kNone, kWalSync, kCkptPre, kCkptPost, kExec, kRecovery };
  Point point = Point::kNone;
  uint64_t n = 1;
  uint64_t keep_permille = 1000;
};

Result<RendezvousSpec> ParseRendezvous(const std::string& value) {
  RendezvousSpec spec;
  size_t c1 = value.find(':');
  std::string point = value.substr(0, c1);
  if (point == "wal_sync") {
    spec.point = RendezvousSpec::Point::kWalSync;
  } else if (point == "ckpt_pre") {
    spec.point = RendezvousSpec::Point::kCkptPre;
  } else if (point == "ckpt_post") {
    spec.point = RendezvousSpec::Point::kCkptPost;
  } else if (point == "exec") {
    spec.point = RendezvousSpec::Point::kExec;
  } else if (point == "recovery") {
    spec.point = RendezvousSpec::Point::kRecovery;
  } else {
    return Status::InvalidArgument("bad rendezvous point: " + value);
  }
  if (c1 != std::string::npos) {
    size_t c2 = value.find(':', c1 + 1);
    spec.n = std::strtoull(value.c_str() + c1 + 1, nullptr, 10);
    if (spec.n == 0) spec.n = 1;
    if (c2 != std::string::npos) {
      spec.keep_permille = std::strtoull(value.c_str() + c2 + 1, nullptr, 10);
      if (spec.keep_permille > 1000) spec.keep_permille = 1000;
    }
  }
  return spec;
}

/// The child half of the SIGKILL rendezvous protocol: hooks into the
/// durability boundary (DiskHooks) and the dispatcher (pre_dispatch_hook),
/// counts matching events, and at the armed one signals the parent over
/// PHX_RENDEZVOUS_FD and parks the calling thread — mid-fsync, mid-rename,
/// or mid-request — until the SIGKILL lands. A failsafe _exit(43) bounds
/// the park in case the parent lost interest.
class RendezvousController {
 public:
  RendezvousController(int signal_fd, uint64_t failsafe_ms)
      : signal_fd_(signal_fd), failsafe_ms_(failsafe_ms) {}

  Status Arm(const std::string& value) {
    auto spec = ParseRendezvous(value);
    if (!spec.ok()) return spec.status();
    std::lock_guard<std::mutex> lk(mu_);
    spec_ = spec.value();
    remaining_ = spec_.n;
    return Status::Ok();
  }

  size_t OnPreSync(const std::string& file, uint64_t /*ordinal*/,
                   size_t tail_bytes) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spec_.point != RendezvousSpec::Point::kWalSync ||
        !HasSuffix(file, ".wal")) {
      return tail_bytes;
    }
    if (--remaining_ > 0) return tail_bytes;
    // This is the armed sync: possibly tear the write, and tell OnMidSync
    // (same thread, moments later, after the torn bytes are on the device)
    // to fire.
    fire_on_mid_sync_ = true;
    return static_cast<size_t>(
        static_cast<unsigned long long>(tail_bytes) * spec_.keep_permille /
        1000);
  }

  void OnMidSync(const std::string& /*file*/, uint64_t /*ordinal*/) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!fire_on_mid_sync_) return;
      fire_on_mid_sync_ = false;
      spec_ = RendezvousSpec{};
    }
    FireAndPark("wal_sync");
  }

  void OnMidAtomic(const std::string& file, int stage) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      bool pre = spec_.point == RendezvousSpec::Point::kCkptPre && stage == 0;
      bool post = spec_.point == RendezvousSpec::Point::kCkptPost && stage == 1;
      if ((!pre && !post) || !HasSuffix(file, ".ckpt")) return;
      if (--remaining_ > 0) return;
      spec_ = RendezvousSpec{};
    }
    FireAndPark(stage == 0 ? "ckpt_pre" : "ckpt_post");
  }

  /// WAL replay progress during Database::Open (the "recovery" point):
  /// events come from the recovery scan thread per replayed record and —
  /// under PHX_RECOVERY_THREADS > 1 — from the replay pool workers while
  /// partitions apply, so the armed kill can land mid-parallel-replay.
  /// Parking whichever thread got here holds the whole recovery (the scan
  /// or a partition stops making progress) until the SIGKILL lands.
  void OnReplay(uint64_t /*ordinal*/) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (spec_.point != RendezvousSpec::Point::kRecovery) return;
      if (--remaining_ > 0) return;
      spec_ = RendezvousSpec{};
    }
    FireAndPark("recovery");
  }

  void OnPreDispatch(const net::Request& request) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (spec_.point != RendezvousSpec::Point::kExec ||
          request.kind != net::Request::Kind::kExecScript) {
        return;
      }
      if (--remaining_ > 0) return;
      spec_ = RendezvousSpec{};
    }
    FireAndPark("exec");
  }

 private:
  void FireAndPark(const char* what) {
    std::fprintf(stderr, "phoenixd: rendezvous '%s' fired, awaiting kill\n",
                 what);
    if (signal_fd_ >= 0) {
      char byte = 'R';
      [[maybe_unused]] ssize_t n = ::write(signal_fd_, &byte, 1);
    }
    // Park until the parent's SIGKILL. If it never comes, die anyway: a
    // rendezvous that fired but left the server running would turn a
    // planned crash into a silent hang.
    std::this_thread::sleep_for(std::chrono::milliseconds(failsafe_ms_));
    std::_Exit(43);
  }

  int signal_fd_;
  uint64_t failsafe_ms_;
  std::mutex mu_;
  RendezvousSpec spec_;
  uint64_t remaining_ = 0;
  bool fire_on_mid_sync_ = false;
};

int Main(int argc, char** argv) {
  std::string data_dir = EnvStr("PHX_DATA_DIR");
  std::string listen = EnvStr("PHX_LISTEN");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(11);
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: phoenixd --data-dir=DIR "
                   "[--listen=tcp:HOST:PORT|unix:PATH]\n");
      return 2;
    }
  }
  if (data_dir.empty()) {
    std::fprintf(stderr, "phoenixd: --data-dir (or PHX_DATA_DIR) required\n");
    return 2;
  }
  ::mkdir(data_dir.c_str(), 0755);  // EEXIST is fine
  if (listen.empty()) listen = "unix:" + data_dir + "/phoenixd.sock";

  storage::SimDisk disk(data_dir);

  // Server identity within a failover group. Servers sharing a data dir
  // keep separate boot counters, and the id lands in the session-id high
  // byte, so no two group members can ever mint the same session/txn id.
  uint64_t server_id = EnvU64("PHX_SERVER_ID", 0);
  if (server_id > 0xFF) {
    std::fprintf(stderr, "phoenixd: PHX_SERVER_ID must be <= 255\n");
    return 2;
  }
  std::string boot_file =
      server_id == 0 ? "phxd.boot" : "phxd.boot." + std::to_string(server_id);

  // Durable boot counter → session-id partition + monotonic server epoch.
  uint64_t boot = 1;
  auto prev = disk.ReadDurable(boot_file);
  if (prev.ok()) boot = std::strtoull(prev.value().c_str(), nullptr, 10) + 1;
  Status persisted = disk.WriteAtomic(boot_file, std::to_string(boot));
  if (!persisted.ok()) {
    std::fprintf(stderr, "phoenixd: cannot persist boot counter: %s\n",
                 persisted.message().c_str());
    return 1;
  }

  int rendezvous_fd = static_cast<int>(EnvU64("PHX_RENDEZVOUS_FD", 0));
  if (rendezvous_fd == 0) rendezvous_fd = -1;
  RendezvousController rendezvous(
      rendezvous_fd, EnvU64("PHX_RENDEZVOUS_TIMEOUT_MS", 30000));
  std::string initial_spec = EnvStr("PHX_RENDEZVOUS");
  if (!initial_spec.empty()) {
    Status s = rendezvous.Arm(initial_spec);
    if (!s.ok()) {
      std::fprintf(stderr, "phoenixd: bad PHX_RENDEZVOUS: %s\n",
                   s.message().c_str());
      return 2;
    }
  }
  // Hooks installed BEFORE the server boots: recovery-time syncs also count
  // (that is how a schedule can kill the second incarnation mid-recovery).
  storage::DiskHooks hooks;
  hooks.pre_sync = [&rendezvous](const std::string& file, uint64_t ordinal,
                                 size_t tail_bytes) {
    return rendezvous.OnPreSync(file, ordinal, tail_bytes);
  };
  hooks.mid_sync = [&rendezvous](const std::string& file, uint64_t ordinal) {
    rendezvous.OnMidSync(file, ordinal);
  };
  hooks.mid_atomic = [&rendezvous](const std::string& file, int stage) {
    rendezvous.OnMidAtomic(file, stage);
  };
  disk.set_hooks(std::move(hooks));

  // opts.db already carries PHX_CKPT_EVERY and PHX_RECOVERY_THREADS.
  net::ServerOptions opts;
  opts.worker_threads =
      static_cast<size_t>(phoenix::Options::FromEnv().worker_threads);
  // Session-id partition, server-aware: high byte = group member id, next
  // 24 bits = that member's boot count. Two servers over one data dir can
  // never collide, and within one server every boot stays disjoint (the
  // single-server id 0 layout reduces to the historical boot << 32).
  opts.first_session_id = (server_id << 56) | ((boot & 0xFFFFFF) << 32);
  opts.initial_epoch = boot - 1;  // Start() increments: epoch == boot count
  opts.admin_hook = [&rendezvous](const std::string& name,
                                  const std::string& value) -> Status {
    if (name == net::kAdminRendezvous) return rendezvous.Arm(value);
    return Status::InvalidArgument("unknown admin command: " + name);
  };
  opts.pre_dispatch_hook = [&rendezvous](const net::Request& request) {
    rendezvous.OnPreDispatch(request);
  };
  // The "recovery" rendezvous point: fires inside Database::Open's WAL
  // replay, before the server ever reports READY.
  opts.db.recovery_replay_hook = [&rendezvous](uint64_t ordinal) {
    rendezvous.OnReplay(ordinal);
  };

  net::DbServer db_server(&disk, opts);
  Status started = db_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "phoenixd: recovery failed: %s\n",
                 started.message().c_str());
    return 1;
  }

  net::SocketServer socket_server(&db_server);
  Status listening = socket_server.Start(listen);
  if (!listening.ok()) {
    std::fprintf(stderr, "phoenixd: cannot listen on %s: %s\n", listen.c_str(),
                 listening.message().c_str());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "phoenixd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnTermSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Readiness: the parent (ProcessServerHandle, or a human's shell script)
  // learns the resolved endpoint — for tcp:...:0 this is the only way to
  // discover the kernel-assigned port without a race.
  std::string ready = "READY " + socket_server.endpoint() + "\n";
  int notify_fd = static_cast<int>(EnvU64("PHX_NOTIFY_FD", 0));
  if (notify_fd > 0) {
    [[maybe_unused]] ssize_t n =
        ::write(notify_fd, ready.data(), ready.size());
    ::close(notify_fd);
  }
  std::fprintf(stderr, "phoenixd: serving %s (boot %llu, data %s)\n",
               socket_server.endpoint().c_str(),
               static_cast<unsigned long long>(boot), data_dir.c_str());

  // Park until SIGTERM/SIGINT (SIGKILL never gets here — that is the point).
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "phoenixd: shutting down\n");
  socket_server.Shutdown();
  return 0;
}

}  // namespace
}  // namespace phoenix::server

int main(int argc, char** argv) { return phoenix::server::Main(argc, argv); }
