#ifndef PHOENIX_NET_PROCESS_SERVER_H_
#define PHOENIX_NET_PROCESS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>

#include "common/status.h"

namespace phoenix::net {

/// Everything needed to spawn one phoenixd child process.
struct ProcessServerOptions {
  /// Path to the phoenixd binary. Empty = $PHX_SERVER_BIN, then a handful
  /// of build-tree-relative fallbacks (see FindServerBinary).
  std::string binary;
  /// "unix" or "tcp". Ignored when `endpoint` is set explicitly.
  std::string transport = "unix";
  /// Durable state directory, shared by every incarnation of this server.
  /// Required; must exist.
  std::string data_dir;
  /// Listen address. Empty = derived: "unix:<data_dir>/phoenixd.sock"
  /// ("phoenixd.<id>.sock" when server_id > 0, so two servers over one
  /// data dir never fight for the same socket file) or "tcp:127.0.0.1:0"
  /// (kernel-assigned port, reported back over the readiness pipe). After
  /// the first Start() the RESOLVED endpoint is reused, so a restarted
  /// server comes back on the same address and clients can redial blindly.
  std::string endpoint;
  /// Server identity within a failover group (PHX_SERVER_ID). Partitions
  /// the boot counter file and the session/txn id space so two servers
  /// sharing a data dir never mint colliding ids: phoenixd folds it into
  /// the high byte of first_session_id ((id << 56) | (boot & 0xFFFFFF) <<
  /// 32). 0 = the historical single-server layout.
  uint64_t server_id = 0;
  /// Auto-checkpoint cadence for the child (0 = never).
  uint64_t checkpoint_every_n_commits = 0;
  /// Requests the child executes at once (0 = phoenixd default).
  uint64_t worker_threads = 0;
  /// Extra environment for the child, e.g. {"PHX_RECOVERY_THREADS","4"} —
  /// how a chaos schedule pins the child's engine knobs deterministically.
  std::map<std::string, std::string> env;
  /// Rendezvous spec armed from birth (see kAdminRendezvous for the
  /// format); empty = none. Further specs can be armed at runtime via a
  /// kAdmin request.
  std::string rendezvous;
  /// How long WaitReady (inside Start) waits for the READY line.
  double ready_timeout_s = 30.0;
};

/// Admin-request name for arming a rendezvous in a running phoenixd. Value
/// format:  "<point>:<n>[:<keep_permille>]"  where point is one of
///   wal_sync  — the Nth WAL-file Sync() after arming; keep_permille of the
///               tail reaches the device (torn write), then the child
///               signals and blocks MID-FSYNC;
///   ckpt_pre  — the Nth checkpoint WriteAtomic, between temp-write and
///               rename (kill ⇒ image lost);
///   ckpt_post — same, after the rename (kill ⇒ image durable, WAL not yet
///               truncated);
///   exec      — immediately before executing the Nth kExecScript request
///               (the mid-request kill window);
///   recovery  — the Nth WAL-replay progress event during boot recovery
///               (kill ⇒ the child dies with replay half-applied; only
///               reachable via ProcessServerOptions.rendezvous +
///               ArmKillOnNextStart, since the child parks before READY).
/// and n counts matching events after arming (1 = the next one).
inline constexpr const char* kAdminRendezvous = "phx.rendezvous";

/// Locates the phoenixd binary: explicit path → $PHX_SERVER_BIN → paths
/// relative to the running test binary ("../src/phoenixd" etc.). Empty
/// string when nothing is found.
std::string FindServerBinary(const std::string& explicit_path = "");

/// Spawns, supervises, health-checks, and kills a phoenixd child process —
/// the parent half of the SIGKILL rendezvous protocol:
///
///   parent                                child
///     Start() ── spawn ──────────────────▶ boot, listen
///     WaitReady ◀── "READY <endpoint>" ─── (notify pipe)
///     [arm via kAdmin over the socket]
///     ArmKillOnRendezvous()                ... workload ...
///       watcher blocks on rendezvous pipe  hits armed point:
///       ◀───────── 1 byte ──────────────── signal, then BLOCK mid-fsync
///       SIGKILL ───────────────────────▶   (dies holding the sync)
///
/// The child's unsynced WAL tail lives only in its process memory (see
/// SimDisk backing mode), so the kill discards exactly the bytes a real
/// power-cut would — the recovery evidence is genuine.
///
/// Thread-compatible: Kill/Terminate/running may race the watcher thread
/// (internal mutex); Start/Restart must not race anything.
class ProcessServerHandle {
 public:
  explicit ProcessServerHandle(ProcessServerOptions opts)
      : opts_(std::move(opts)) {}
  ~ProcessServerHandle();
  ProcessServerHandle(const ProcessServerHandle&) = delete;
  ProcessServerHandle& operator=(const ProcessServerHandle&) = delete;

  /// Spawns the child and blocks until it reports READY (listening, DB
  /// recovered) and answers the endpoint. Error if the child dies first.
  Status Start();

  /// SIGKILL + reap. Safe when already dead (reaps). Stops the watcher.
  void Kill();

  /// SIGTERM, wait up to `timeout_s` for a graceful exit, then SIGKILL.
  Status Terminate(double timeout_s = 10.0);

  /// Spawns a fresh incarnation over the same data dir + endpoint. The
  /// previous child must be dead (Kill/Terminate first).
  Status Restart();

  /// Starts the watcher thread: the moment the child signals an armed
  /// rendezvous, SIGKILL it. Idempotent while armed.
  void ArmKillOnRendezvous();

  /// Makes the NEXT Start()/Restart() arm the kill watcher between spawn
  /// and the READY wait. Required for the "recovery" rendezvous point: the
  /// child parks during WAL replay, BEFORE it ever writes READY, so arming
  /// after Start() returns would be too late (Start() would just time out).
  /// With the watcher armed mid-Start, the SIGKILL lands while the child is
  /// parked in recovery and Start() fails fast with CommError when the
  /// notify pipe EOFs. One-shot; consumed by the next Start().
  void ArmKillOnNextStart() { arm_on_start_ = true; }

  /// Blocks until the child died (true) or `timeout_s` passed (false);
  /// rendezvous_kills() tells whether the armed rendezvous killed it.
  bool WaitRendezvousKill(double timeout_s);

  bool running();
  pid_t pid() const { return pid_; }
  /// Resolved listen address ("tcp:127.0.0.1:41873" / "unix:/..."),
  /// stable across Restart(). Empty before the first successful Start().
  const std::string& endpoint() const { return endpoint_; }
  uint64_t rendezvous_kills() const { return rendezvous_kills_.load(); }
  const ProcessServerOptions& options() const { return opts_; }
  ProcessServerOptions* mutable_options() { return &opts_; }

 private:
  Status Spawn(const std::string& endpoint);
  Status WaitReady();
  void StopWatcher();
  void ClosePipes();
  /// Reaps if exited; pid_ stays for post-mortem, reaped_ flips.
  void ReapIfExited(bool block);
  /// Sleeps on a pidfd (Linux 5.3+) until the child exits or `timeout_s`
  /// passes; true once it is gone. Without pidfd_open it only reports a
  /// death that already happened.
  bool WaitExit(double timeout_s);

  ProcessServerOptions opts_;
  std::string endpoint_;

  std::mutex mu_;
  pid_t pid_ = -1;
  bool reaped_ = true;
  int notify_read_fd_ = -1;
  int rendezvous_read_fd_ = -1;
  int watcher_stop_fd_ = -1;   ///< write end of the watcher's stop pipe
  int watcher_stop_read_ = -1;
  std::thread watcher_;
  bool arm_on_start_ = false;  ///< one-shot: arm watcher inside next Start()
  std::atomic<bool> watcher_armed_{false};
  std::atomic<uint64_t> rendezvous_kills_{0};
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_PROCESS_SERVER_H_
