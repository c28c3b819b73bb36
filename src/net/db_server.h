#ifndef PHOENIX_NET_DB_SERVER_H_
#define PHOENIX_NET_DB_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "engine/database.h"
#include "net/protocol.h"
#include "net/worker_pool.h"
#include "storage/sim_disk.h"

namespace phoenix::net {

struct ServerOptions {
  eng::DatabaseOptions db;
  /// Dispatcher worker threads. Every request — even from a single-threaded
  /// client — executes on one of these, never on the caller's thread.
  size_t worker_threads = 4;
  /// Bounded dispatch queue; producers block when it is full (backpressure).
  size_t queue_capacity = 128;
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
  /// Called on the worker thread immediately before executing any request —
  /// the mid-request kill window ("exec" rendezvous) hooks in here.
  std::function<void(const Request&)> pre_dispatch_hook;
};

/// Point-in-time counters for one DbServer; the same quantities aggregate
/// into the process-wide MetricsRegistry under "server.*".
struct ServerStats {
  uint64_t requests_handled = 0;
  uint64_t requests_rejected_down = 0;  ///< arrived while crashed
  /// Sessions with a request queued or running right now; 0 when idle.
  uint64_t session_locks = 0;
};

/// One database server *process*. Owns a Database over a SimDisk that it
/// does NOT own — the disk survives the process.
///
/// Concurrency model (DESIGN.md §Concurrency): every request is dispatched
/// onto a fixed WorkerPool. Requests from *different* sessions execute
/// concurrently; requests carrying the *same* session id exclude each other
/// through a per-session mutex, so one session's state is never touched by
/// two workers at once. Order within a session is the client's: it waits
/// for each reply before sending the next request. Handle() is safe to call
/// from any number of threads.
///
/// Crash() models the machine/process failure the paper recovers from:
/// intake stops, the worker pool drains gracefully (accepted requests
/// finish — they "beat the crash"), then the Database object (sessions,
/// temp tables, cursors, open transactions) is destroyed and every disk
/// byte not yet synced is discarded. Restart() builds a fresh Database,
/// which runs checkpoint+WAL recovery, and a fresh pool.
class DbServer {
 public:
  DbServer(storage::SimDisk* disk, ServerOptions opts = {});
  ~DbServer();

  /// Boots the server (initial recovery). Must be called before use.
  Status Start();

  /// Hard process kill (graceful pool drain first). Safe to call repeatedly
  /// and concurrently with in-flight requests.
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
  /// never directly (the Channel models the network). Blocks until the
  /// request has been executed by a pool worker (or rejected).
  Response Handle(const Request& request);

  eng::Database* database() { return db_.get(); }
  storage::SimDisk* disk() { return disk_; }

  /// Snapshot of this server's request counters.
  ServerStats stats() const;

  /// Dispatcher pool introspection (null while crashed).
  WorkerPool* pool() { return pool_.get(); }

 private:
  /// One session's mutual exclusion. The map entry lives only while
  /// `users` > 0, so ids that are never opened, or long closed, cost nothing.
  struct SessionLock {
    std::mutex mu;
    size_t users = 0;  ///< requests waiting for or holding `mu`
  };

  Response Dispatch(const Request& request);
  /// Shared crash machinery: drain intake + pool, optionally run the
  /// checkpoint protocol up to `mid_checkpoint` (the death-inside-a-
  /// checkpoint family), destroy the Database, then apply `crash_disk` to
  /// discard unsynced bytes.
  bool CrashImpl(const std::function<void()>& crash_disk,
                 std::optional<eng::CheckpointCrashPoint> mid_checkpoint);
  /// Runs `request` on the pool and waits for its response; "server is
  /// down" if intake is closed.
  Response Execute(const Request& request);
  SessionLock* LockSession(uint64_t session_id);
  void UnlockSession(uint64_t session_id, SessionLock* lock);

  storage::SimDisk* disk_;
  ServerOptions opts_;

  /// Guards the lifecycle: db_, pool_, accepting_. Requests take it shared
  /// (submission only — execution holds no lifecycle lock); Crash/Restart
  /// take it exclusive. The pool drain in Crash() runs *outside* the lock,
  /// after intake is closed, so draining tasks still see a live db_.
  mutable std::shared_mutex lifecycle_mu_;
  bool accepting_ = false;
  std::unique_ptr<eng::Database> db_;
  std::unique_ptr<WorkerPool> pool_;

  mutable std::mutex session_locks_mu_;
  std::unordered_map<uint64_t, SessionLock> session_locks_;

  std::atomic<uint64_t> epoch_{0};
  uint64_t next_session_id_ = 1;  ///< survives restarts: ids never repeat
  std::atomic<uint64_t> requests_handled_{0};
  std::atomic<uint64_t> requests_rejected_down_{0};
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_DB_SERVER_H_
