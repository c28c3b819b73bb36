#ifndef PHOENIX_ENGINE_DATABASE_H_
#define PHOENIX_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/cursor.h"
#include "engine/executor.h"
#include "engine/session.h"
#include "engine/transaction.h"
#include "storage/recovery.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"

namespace phoenix::eng {

/// Where a fault-test checkpoint "dies" (see CheckpointForCrashTest). The
/// three windows of the split checkpoint protocol, each leaving a distinct
/// durable state recovery must tolerate.
enum class CheckpointCrashPoint {
  kPreSnapshot,   ///< before the snapshot: no image, WAL intact
  kPostSnapshot,  ///< snapshot taken (volatile), dies before the image write
  kPostImage,     ///< image durable, dies before the WAL truncation
};

struct DatabaseOptions {
  /// Defaults come from the typed phoenix::Options loader (PHX_* env knobs,
  /// read exactly once; see common/options.h) so whole test lanes can flip
  /// modes without code changes.
  DatabaseOptions() : DatabaseOptions(phoenix::Options::FromEnv()) {}
  explicit DatabaseOptions(const phoenix::Options& o)
      : checkpoint_every_n_commits(o.checkpoint_every_n_commits),
        recovery_threads(o.recovery_threads) {}

  /// SimDisk file prefix ("<prefix>.wal", "<prefix>.ckpt").
  std::string disk_prefix = "phxdb";
  /// Auto-checkpoint after this many logged commits — commits that wrote a
  /// WAL record (PHX_CKPT_EVERY; 0 = manual Checkpoint() only).
  uint64_t checkpoint_every_n_commits;
  /// First session id to hand out. The server passes a value that keeps ids
  /// unique across process restarts, so a stale pre-crash session id can
  /// never accidentally name a post-crash session.
  uint64_t first_session_id = 1;
  /// Recovery pool threads for Open() (PHX_RECOVERY_THREADS): checkpoint
  /// chunks decode and WAL replay partitions by table on them. 1 = fully
  /// serial; every count produces an identical store (DESIGN.md §15).
  uint64_t recovery_threads;
  /// Replay-progress observation hook, forwarded to
  /// DurabilityManager::set_replay_hook. phoenixd installs the "recovery"
  /// SIGKILL rendezvous point here; must be thread-safe (parallel replay
  /// fires it from pool workers).
  std::function<void(uint64_t)> recovery_replay_hook;
};

/// The database server engine: storage + recovery + SQL execution +
/// sessions. One Database instance == one running server process. Crashing
/// the process is modeled by destroying the Database (volatile state gone)
/// and constructing a new one over the same SimDisk (recovery runs).
///
/// Concurrency model (DESIGN.md §Concurrency):
///  - data_mu_ is a reader/writer lock over all shared engine state (tables,
///    catalog, WAL tail, temp procs). Everything that can mutate (DML, DDL,
///    transaction control, EXEC, session close) and a checkpoint's capture
///    take it EXCLUSIVE. Readers take it SHARED: a plain SELECT or a
///    static/keyset cursor open only long enough to pin an MVCC snapshot
///    and collect its working set, a checkpoint encode one row chunk at a
///    time, and only READ UNCOMMITTED SELECTs, EXPLAIN and dynamic cursors
///    read the live heap for the whole statement.
///  - sessions_mu_ guards only the session *map*. Session *contents* need no
///    lock: the server serializes requests per session, so at most one
///    thread touches a given Session at a time.
///  - Lock order: data_mu_ before sessions_mu_. WAL/disk locks are leaves.
///  - Auto-checkpoint counts logged commits only, and those all run on the
///    exclusive (mutating) path; a read-only transaction ends without a
///    commit record and never reaches the cadence check.
/// Open() is not thread-safe; it runs before the server accepts requests.
class Database {
 public:
  explicit Database(storage::SimDisk* disk, DatabaseOptions opts = {});
  /// Models a process death: the checkpoint thread is stopped and any
  /// pending (not yet written) snapshot is dropped — a destructor must not
  /// create new durability points, or "crashed" state would survive fault
  /// tests. An image write already in flight may complete; that is
  /// indistinguishable from the crash landing a moment later.
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Runs crash recovery from the SimDisk. Must be called exactly once.
  Status Open();
  bool is_open() const { return open_; }
  const storage::RecoveryInfo& recovery_info() const { return recovery_info_; }

  // ---- Sessions --------------------------------------------------------
  Result<uint64_t> CreateSession(const std::string& user);
  /// Graceful termination: rolls back, drops temp objects, closes cursors.
  Status CloseSession(uint64_t session_id);
  /// Sets a client connection option (SET <name> <value>) on the session.
  Status SetSessionOption(uint64_t session_id, const std::string& name,
                          const std::string& value);
  bool HasSession(uint64_t session_id) const;
  Session* GetSession(uint64_t session_id);
  size_t num_sessions() const;
  uint64_t next_session_id() const {
    return next_session_id_.load(std::memory_order_relaxed);
  }

  // ---- Statement execution ---------------------------------------------
  /// Parses and runs a (possibly multi-statement) SQL batch. Stops at the
  /// first failing statement; earlier autocommitted effects remain.
  Result<std::vector<StatementResult>> ExecuteScript(uint64_t session_id,
                                                     const std::string& sql);
  Result<StatementResult> ExecuteStatement(uint64_t session_id,
                                           const sql::Statement& stmt);

  // ---- Server cursors ----------------------------------------------------
  Result<Cursor*> OpenCursor(uint64_t session_id, const std::string& select_sql,
                             CursorType type);
  Result<std::vector<Row>> FetchCursor(uint64_t session_id, uint64_t cursor_id,
                                       size_t n, bool* done);
  Status SeekCursor(uint64_t session_id, uint64_t cursor_id, uint64_t pos);
  Status CloseCursor(uint64_t session_id, uint64_t cursor_id);
  Result<Cursor*> GetCursor(uint64_t session_id, uint64_t cursor_id);

  // ---- Administration ----------------------------------------------------
  /// Writes a checkpoint synchronously (the image is durable on return).
  /// Active transactions do not block it: the image holds committed state
  /// only, read through an MVCC snapshot pinned at the WAL fence. Only the
  /// pin and catalog capture hold the data lock exclusively; rows are read
  /// in chunks under brief shared holds while other sessions keep going.
  Status Checkpoint();
  /// Runs the checkpoint protocol up to (not including) the step named by
  /// `point`, leaving exactly the durable state a crash in that window
  /// leaves. `image_written` (optional) reports whether a (non-stale) image
  /// actually hit the disk. Like Checkpoint(), it encodes off the lock.
  Status CheckpointForCrashTest(CheckpointCrashPoint point,
                                bool* image_written = nullptr);
  /// Blocks until no background checkpoint is pending or being written.
  /// Tests and benches use it to make "a checkpoint has happened" a stable
  /// assertion.
  void WaitForCheckpointIdle();

  // Callers of the accessors below must hold data_mu_ (Executor and Cursor
  // run inside a locked statement; tests use them single-threaded).
  storage::TableStore* store() { return &store_; }
  const storage::TableStore* store() const { return &store_; }
  /// Durability subsystem — exposed for fault injection in tests (e.g.
  /// WalWriter::set_before_sync_hook) and for diagnostics.
  storage::DurabilityManager* durability() { return &durability_; }
  ProcRegistry* temp_procs() { return &temp_procs_; }
  TxnManager* txn_manager() { return &txn_manager_; }

  // ---- Transactional mutation helpers (Executor/recovery use these) -----
  Result<storage::RowId> TxInsert(Txn* txn, storage::Table* table, Row row);
  Status TxDelete(Txn* txn, storage::Table* table, storage::RowId rid);
  Status TxUpdate(Txn* txn, storage::Table* table, storage::RowId rid,
                  Row new_row);
  Result<storage::Table*> TxCreateTable(Txn* txn, const std::string& name,
                                        Schema schema,
                                        std::vector<int> pk_columns,
                                        bool temporary, uint64_t owner_session);
  Status TxDropTable(Txn* txn, const std::string& name);
  Status TxCreateIndex(Txn* txn, storage::Table* table,
                       const std::string& index_name, std::vector<int> columns);
  Status TxDropIndex(Txn* txn, storage::Table* table,
                     const std::string& index_name);

  // ---- MVCC snapshots ----------------------------------------------------
  /// Highest published commit LSN — the visibility horizon new snapshots
  /// pin. Updated (release) after every commit's stamps are finalized.
  uint64_t committed_lsn() const {
    return committed_lsn_.load(std::memory_order_acquire);
  }
  /// Pins a snapshot at the current commit horizon and registers it in the
  /// reclamation watermark. Caller holds data_mu_ (shared suffices) and
  /// must UnpinSnapshot exactly once. `txn_id` lets the snapshot see its
  /// own transaction's uncommitted writes (0 = none).
  storage::MvccSnapshot PinSnapshot(uint64_t txn_id);
  void UnpinSnapshot(const storage::MvccSnapshot& snap);

  // ---- Access-path planner toggle ---------------------------------------
  /// Cost-aware access-path planner (secondary/PK index scans, index
  /// nested-loop joins); on by default. Off = every SELECT seq-scans. The
  /// ablation benches flip it to compare indexed vs unindexed execution on
  /// the same data.
  bool index_planner_enabled() const {
    return index_planner_.load(std::memory_order_relaxed);
  }
  void set_index_planner(bool on) {
    index_planner_.store(on, std::memory_order_relaxed);
  }

  /// Looks up a stored procedure: temp registry first, then the persistent
  /// system table (body re-parsed on demand). Returns an owned clone.
  Result<std::unique_ptr<sql::CreateProcStmt>> FindProcedure(
      const std::string& name, bool* is_temp);

 private:
  friend class Executor;
  friend class Cursor;

  /// Body of ExecuteStatement; caller holds data_mu_ (shared for read-only
  /// statements, which pass a null ticket; exclusive otherwise). A
  /// committing statement deposits its durability ticket in `*ticket`
  /// instead of blocking on the sync inside the lock; the caller
  /// MUST redeem it with durability_.WaitCommit() after releasing data_mu_
  /// and before reporting success (early lock release — the ack still waits
  /// for the fsync, but other sessions' commits can join the same batch).
  Result<StatementResult> ExecuteStatementLocked(
      uint64_t session_id, const sql::Statement& stmt,
      storage::WalCommitTicket* ticket);
  /// The committed-read path for a plain SELECT: pin a snapshot + collect the
  /// visible working set under a brief shared hold of data_mu_, then run
  /// projection/aggregation/DISTINCT/ORDER BY/LIMIT with no lock held.
  Result<StatementResult> ExecuteSelectSnapshot(uint64_t session_id,
                                                const sql::Statement& stmt);
  /// Commit-time MVCC bookkeeping (caller holds data_mu_ exclusively):
  /// finalizes the transaction's pending stamps at `lsn`, publishes the new
  /// commit horizon, and reclaims superseded versions of the touched tables
  /// up to the pin watermark.
  void MvccCommitLocked(const Txn& txn, uint64_t lsn);
  /// Min pinned snapshot LSN, or the commit horizon when nothing is pinned.
  uint64_t MvccWatermark() const;
  Session* FindSession(uint64_t session_id) const;
  /// Ends the session's transaction. A transaction with redo enqueues its
  /// WAL record into `*ticket` (so it must run under the exclusive lock),
  /// publishes its versions, and advances the checkpoint cadence; one
  /// without redo just ends.
  Status Commit(Session* session, storage::WalCommitTicket* ticket);
  Status Rollback(Session* session);

  /// The fast half of a checkpoint: an MVCC snapshot pinned at the WAL
  /// fence plus the committed catalog as of it. The pin's deleter unpins,
  /// so every path that ends a capture releases it exactly once.
  struct CheckpointSnapshot {
    std::shared_ptr<const storage::MvccSnapshot> pin;  ///< lsn = fence
    uint64_t next_txn_id = 0;
    storage::CatalogImage tables;
  };
  /// Caller holds data_mu_ exclusively: pins a snapshot at the commit
  /// horizon (Internal if that is not the WAL fence), captures the
  /// persistent tables' catalog, takes open transactions' table and index
  /// DDL back out of it, and restarts the checkpoint cadence. O(tables +
  /// open undo), never O(rows).
  Result<CheckpointSnapshot> TakeSnapshotLocked();
  /// The slow half: chunked encode + WriteAtomic (+ WAL truncate). All
  /// image writes are serialized through ckpt_write_mu_ with a monotone
  /// fence check, so a background write of an older snapshot can never
  /// clobber a newer image — without the check, its WAL truncation would
  /// have amputated records the stale image does not hold (data loss).
  Status WriteSnapshotSerialized(CheckpointSnapshot snap, bool truncate_wal,
                                 bool* wrote = nullptr);
  /// Auto-checkpoint entry (data_mu_ exclusive): snapshot + reset counter,
  /// then hand the snapshot to the checkpoint thread's single pending slot
  /// (a still-pending older snapshot is superseded and counted as skipped).
  Status CheckpointLocked();
  void CheckpointThreadLoop();

  storage::SimDisk* disk_;
  DatabaseOptions opts_;
  storage::TableStore store_;
  storage::DurabilityManager durability_;
  storage::RecoveryInfo recovery_info_;
  TxnManager txn_manager_;
  ProcRegistry temp_procs_;

  /// Reader/writer lock over tables, catalog, temp procs, and the WAL tail.
  mutable std::shared_mutex data_mu_;
  /// Guards sessions_ (the map, not the Session objects). Never acquired
  /// before data_mu_ is released — lock order is data_mu_ → sessions_mu_.
  mutable std::shared_mutex sessions_mu_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;

  /// MVCC commit horizon: the LSN of the newest finalized commit. Written
  /// under the exclusive data lock (release); snapshots pin it under the
  /// shared lock (acquire), so a pinned horizon always names fully
  /// finalized stamps. Unlogged commits reuse the current horizon.
  std::atomic<uint64_t> committed_lsn_{0};
  /// Pinned snapshot LSNs (multiset: concurrent readers may pin the same
  /// horizon). pins_mu_ is a leaf lock — taken under data_mu_ (either
  /// mode), never the other way around.
  mutable std::mutex pins_mu_;
  std::multiset<uint64_t> pins_;

  std::atomic<bool> index_planner_{true};
  std::atomic<uint64_t> next_session_id_{1};
  /// Logged commits since the last snapshot (seeded at Open() with the WAL
  /// records recovery replayed).
  std::atomic<uint64_t> commits_since_checkpoint_{0};
  /// A background image write failed; the next logged commit takes a fresh
  /// snapshot even though the commit counter was already reset.
  std::atomic<bool> ckpt_deferred_{false};

  // Background checkpoint pipeline. Lock order: data_mu_ → ckpt_mu_, and
  // ckpt_write_mu_ → data_mu_ (shared, per encode chunk), so nothing takes
  // ckpt_write_mu_ under data_mu_; ckpt_mu_ and ckpt_write_mu_ are never
  // held together.
  std::mutex ckpt_mu_;  ///< guards the pending slot + thread lifecycle
  std::condition_variable ckpt_cv_;
  std::optional<CheckpointSnapshot> ckpt_pending_;  ///< single handoff slot
  bool ckpt_busy_ = false;  ///< the thread is writing a taken snapshot
  bool ckpt_stop_ = false;
  std::thread ckpt_thread_;

  /// Serializes every image write (inline, manual, background) and carries
  /// the monotone written-fence guard (see WriteSnapshotSerialized).
  std::mutex ckpt_write_mu_;
  bool ckpt_has_written_ = false;
  uint64_t ckpt_written_fence_ = 0;

  bool open_ = false;
};

}  // namespace phoenix::eng

#endif  // PHOENIX_ENGINE_DATABASE_H_
