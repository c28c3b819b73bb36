#ifndef PHOENIX_NET_DB_SERVER_H_
#define PHOENIX_NET_DB_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/database.h"
#include "net/protocol.h"
#include "storage/sim_disk.h"

namespace phoenix::net {

struct ServerOptions {
  eng::DatabaseOptions db;
  /// Requests executing at once (0 counts as 1). A request runs on the
  /// thread handling it; past this many, further requests wait for a slot.
  size_t worker_threads = 4;
  /// Floor for session ids on the FIRST Start(). In-process restarts keep
  /// ids monotonic via next_session_id_, but a server reborn as a new OS
  /// process starts from scratch — phoenixd partitions the id space as
  /// (server_id << 56) | (boot << 32), so a stale session id can never
  /// alias a live one (keeping the client's crash detection sound) and two
  /// failover-group members sharing a data dir can never mint the same id.
  uint64_t first_session_id = 1;
  /// Starting value for the restart counter reported in kPong. phoenixd
  /// seeds it from the persistent boot counter so "server came back" stays
  /// observable across process (not just in-process) restarts.
  uint64_t initial_epoch = 0;
  /// Handler for Request::Kind::kAdmin (name/value → status). Unset =
  /// admin requests are rejected. phoenixd installs one that arms SIGKILL
  /// rendezvous points (see server/main.cc); session-less, never touches
  /// the Database.
  std::function<Status(const std::string& name, const std::string& value)>
      admin_hook;
  /// Called on the thread handling the request, once it holds an execution
  /// slot, immediately before executing it — the mid-request kill window
  /// ("exec" rendezvous) hooks in here. It must not crash this server in
  /// process: Crash() waits for the request that called it.
  std::function<void(const Request&)> pre_dispatch_hook;
};

/// Point-in-time counters for one DbServer; the same quantities aggregate
/// into the process-wide MetricsRegistry under "server.*".
struct ServerStats {
  uint64_t requests_handled = 0;
  uint64_t requests_rejected_down = 0;  ///< arrived while crashed
  uint64_t requests_executed = 0;       ///< admitted and run to the end
  /// Requests that found every execution slot taken and waited for one.
  uint64_t admission_waits = 0;
  /// Sessions with a request queued or running right now; 0 when idle.
  uint64_t session_locks = 0;
};

/// One database server *process*. Owns a Database over a SimDisk that it
/// does NOT own — the disk survives the process.
///
/// Concurrency model (DESIGN.md §Concurrency): every request executes on
/// the thread that calls Handle() — a socket connection's thread, or the
/// caller's own for the in-process channel — once an admission gate grants
/// it one of `worker_threads` execution slots. Requests from *different*
/// sessions execute concurrently; requests carrying the *same* session id
/// exclude each other through a per-session mutex, so one session's state
/// is never touched by two threads at once. Order within a session is the
/// client's: it waits for each reply before sending the next request.
/// Handle() is safe to call from any number of threads.
///
/// Crash() models the machine/process failure the paper recovers from, in
/// three phases: intake closes (a request not yet admitted gets "server is
/// down"); admitted requests finish — they "beat the crash"; only then is
/// the Database object (sessions, temp tables, cursors, open transactions)
/// destroyed and every disk byte not yet synced discarded. Restart() builds
/// a fresh Database, which runs checkpoint+WAL recovery.
class DbServer {
 public:
  DbServer(storage::SimDisk* disk, ServerOptions opts = {});
  ~DbServer();

  /// Boots the server (initial recovery). Must be called before use.
  Status Start();

  /// Hard process kill (admitted requests finish first). Safe to call
  /// repeatedly and concurrently with in-flight requests, but not from
  /// inside one (a hook): it would wait for itself.
  void Crash();

  /// Crash where the OS had flushed a fraction of buffered bytes (torn WAL
  /// tail). Recovery must cope.
  void CrashWithPartialFlush(double keep_fraction);

  /// Crash with independent per-file byte-granular tail truncation plus
  /// possible corruption of the flushed region (SimDisk::CrashTorn).
  void CrashTorn(const storage::SimDisk::TornCrashSpec& spec);

  /// Crash landing inside a checkpoint, at one of the three windows of the
  /// split (snapshot → image write → WAL truncate) protocol. The default,
  /// kPostImage, is the historical meaning: the image became durable but
  /// the WAL was never truncated. Returns true when a (non-stale) image was
  /// actually written — necessarily false for the two earlier crash points.
  bool CrashMidCheckpoint(
      eng::CheckpointCrashPoint point = eng::CheckpointCrashPoint::kPostImage);

  /// Boots a replacement process over the same disk.
  Status Restart();

  bool alive() const;
  /// Number of (re)starts — lets clients detect "server came back".
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// The server's request dispatcher. Callers reach this through a Channel,
  /// never directly (the Channel models the network). Executes the request
  /// on the calling thread, or rejects it, and returns the reply.
  Response Handle(const Request& request);

  eng::Database* database() { return db_.get(); }
  storage::SimDisk* disk() { return disk_; }

  /// Snapshot of this server's request counters.
  ServerStats stats() const;

 private:
  /// One session's mutual exclusion. The map entry lives only while
  /// `users` > 0, so ids that are never opened, or long closed, cost nothing.
  struct SessionLock {
    std::mutex mu;
    size_t users = 0;  ///< requests waiting for or holding `mu`
  };

  Response Dispatch(const Request& request);
  /// Shared crash machinery: close intake and wait out admitted requests,
  /// optionally run the checkpoint protocol up to `mid_checkpoint` (the
  /// death-inside-a-checkpoint family), destroy the Database, then apply
  /// `crash_disk` to discard unsynced bytes.
  bool CrashImpl(const std::function<void()>& crash_disk,
                 std::optional<eng::CheckpointCrashPoint> mid_checkpoint);
  /// Admits `request` to an execution slot, runs it on this thread and
  /// releases the slot; "server is down" if intake is closed.
  Response Execute(const Request& request);
  /// Stops intake, wakes slot waiters (they leave "down") and waits until
  /// no request runs or waits. `lk` holds `mu_`.
  void CloseIntake(std::unique_lock<std::mutex>& lk);
  SessionLock* LockSession(uint64_t session_id);
  void UnlockSession(uint64_t session_id, SessionLock* lock);

  storage::SimDisk* disk_;
  ServerOptions opts_;

  /// The lifecycle and the admission gate: guards db_, accepting_, the
  /// slot counts and next_session_id_. Held only to admit or release a
  /// request, never across its execution; Start() and a crash's teardown
  /// hold it throughout, so a request never sees a half-built or
  /// half-destroyed Database.
  mutable std::mutex mu_;
  /// Signals a freed slot (to slot waiters, while intake is open) or an
  /// emptied gate (to CloseIntake, once it is closed).
  std::condition_variable cv_;
  bool accepting_ = false;
  size_t running_ = 0;  ///< requests holding an execution slot
  size_t waiting_ = 0;  ///< requests waiting for one
  uint64_t requests_executed_ = 0;
  uint64_t admission_waits_ = 0;
  std::unique_ptr<eng::Database> db_;

  mutable std::mutex session_locks_mu_;
  std::unordered_map<uint64_t, SessionLock> session_locks_;

  std::atomic<uint64_t> epoch_{0};
  uint64_t next_session_id_ = 1;  ///< survives restarts: ids never repeat
  std::atomic<uint64_t> requests_handled_{0};
  std::atomic<uint64_t> requests_rejected_down_{0};
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_DB_SERVER_H_
