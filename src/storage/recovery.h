#ifndef PHOENIX_STORAGE_RECOVERY_H_
#define PHOENIX_STORAGE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"
#include "storage/wal.h"

namespace phoenix::storage {

/// What Recover() found on disk — exposed so tests and the server can assert
/// on the recovery path taken.
struct RecoveryInfo {
  bool had_checkpoint = false;
  uint64_t records_replayed = 0;
  uint64_t ops_replayed = 0;
  /// WAL records subsumed by the checkpoint image — skipped, not replayed.
  /// v2 checkpoints fence on LSN (lsn <= fence_lsn); v1 images predate LSNs
  /// and fence on txn_id < next_txn_id, which was exact only because v1
  /// checkpoints quiesced. Nonzero exactly when the crash landed between
  /// the checkpoint write and the WAL truncation.
  uint64_t records_skipped = 0;
  /// The v2 checkpoint fence (0 for v1 images or no checkpoint): every WAL
  /// record with lsn <= fence_lsn was already applied to the image.
  uint64_t fence_lsn = 0;
  /// The WAL scan's torn-tail accounting (see WalScanStats).
  WalScanStats wal_scan;
  uint64_t next_txn_id = 1;
  /// How replay ran (DESIGN.md §15). replay_threads is the effective worker
  /// count (1 = the serial streaming path). partitions_replayed counts
  /// per-table op batches handed to the pool; ddl_barriers counts the
  /// serial CREATE/DROP TABLE sync points that fenced them. All three are
  /// mode descriptors, not log properties — the equivalence contract is
  /// that every OTHER field of this struct and the resulting TableStore
  /// are byte-identical whatever replay_threads was.
  uint64_t replay_threads = 1;
  uint64_t partitions_replayed = 0;
  uint64_t ddl_barriers = 0;
};

/// Applies one redo op to the store. Replay is idempotent in the sense that
/// a whole committed record either was fully reflected in the checkpoint or
/// not at all, so ops are applied blindly and any mismatch is an error.
Status ApplyWalOp(const WalOp& op, TableStore* store);

/// Same, against an already-resolved table — the partitioned-replay fast
/// path: a partition batch is all one table, so the name lookup hoists out
/// of the loop. Table DDL (create/drop table) is a store operation and is
/// rejected here.
Status ApplyWalOpToTable(Table* t, const WalOp& op);

/// Owns the durability protocol: redo-only WAL + atomic full checkpoints.
///
/// Write path:  LogCommit(record) — forced append (write-ahead rule), after
///              which the in-memory TableStore mutation is allowed to be
///              considered durable.
/// Checkpoint:  snapshot of all persistent tables + next txn id, written
///              atomically, then the WAL is truncated.
/// Recovery:    load checkpoint (if any), then redo every complete,
///              checksum-valid WAL record.
class DurabilityManager {
 public:
  /// Files used: "<prefix>.wal" and "<prefix>.ckpt" on `disk`.
  DurabilityManager(SimDisk* disk, std::string prefix);

  Status LogCommit(const WalCommitRecord& record);

  /// Group-commit split of LogCommit: EnqueueCommit never blocks on the
  /// device (safe under engine locks); WaitCommit blocks until the record's
  /// batch is forced and returns the real sync status (early lock release).
  WalCommitTicket EnqueueCommit(const WalCommitRecord& record);
  Status WaitCommit(WalCommitTicket* ticket);

  /// Writes the checkpoint image atomically, then truncates the WAL up to
  /// the current last-assigned LSN. With `truncate_wal = false` the
  /// truncation is skipped — that is the durable state a crash in the
  /// window between the two steps leaves behind, and fault tests use it to
  /// prove Recover() tolerates the window (it must skip the stale records
  /// rather than double-apply them).
  Status WriteCheckpoint(const TableStore& store, uint64_t next_txn_id,
                         bool truncate_wal = true);

  /// The two halves of WriteCheckpoint, split so the engine's background
  /// checkpointer can run them against a snapshot clone while live commits
  /// proceed. `store` must be a consistent image as of `fence_lsn`: the
  /// image claims to subsume exactly the WAL records with lsn <= fence_lsn,
  /// and recovery will skip those unconditionally. Metrics
  /// (storage.checkpoints / .bytes / .duration_us) are recorded here — on
  /// every image write, whether or not a truncation follows.
  Status WriteCheckpointImage(const TableStore& store, uint64_t next_txn_id,
                              uint64_t fence_lsn);
  /// Amputates the fenced WAL prefix (WalWriter::TruncateUpTo): records
  /// past the fence — commits that raced the checkpoint — survive.
  Status TruncateWalToFence(uint64_t fence_lsn);

  /// Rebuilds `store` from durable state. The store is cleared first, and
  /// cleared AGAIN on every error path — a failed recovery never leaves a
  /// half-replayed store behind for a caller that retries or degrades.
  ///
  /// Replay is a single streaming scan over the WAL (records are never
  /// materialized as a whole). With recovery_threads == 1 each record's ops
  /// apply inline during the scan; with more threads the scan classifies
  /// DML ops into per-table partitions replayed on a worker pool, with
  /// CREATE/DROP TABLE acting as serial barriers (DESIGN.md §15). Both
  /// modes produce an identical store and identical RecoveryInfo counters.
  Status Recover(TableStore* store, RecoveryInfo* info);

  /// Worker threads for partitioned WAL replay (PHX_RECOVERY_THREADS).
  /// 1 (default) = serial streaming replay; clamped to at least 1. Takes
  /// effect on the next Recover() call.
  void set_recovery_threads(uint64_t n) { recovery_threads_ = n < 1 ? 1 : n; }
  uint64_t recovery_threads() const { return recovery_threads_; }

  /// Observation hook for replay progress, called with a 1-based running
  /// event count: once per replayed record from the scan thread, and (in
  /// parallel mode) periodically from the pool workers while a partition
  /// applies. phoenixd taps this for the "recovery" SIGKILL rendezvous
  /// point; the hook may be invoked concurrently and must be thread-safe.
  void set_replay_hook(std::function<void(uint64_t)> hook) {
    replay_hook_ = std::move(hook);
  }

  SimDisk* disk() { return disk_; }
  const std::string& wal_file() const { return wal_file_; }
  const std::string& ckpt_file() const { return ckpt_file_; }
  WalWriter* wal_writer() { return &wal_writer_; }

 private:
  /// Recover() minus the error-path Clear() wrapper.
  Status RecoverImpl(TableStore* store, RecoveryInfo* local);
  /// Loads the checkpoint image into `store` if one exists.
  Status LoadCheckpoint(TableStore* store, RecoveryInfo* local);

  SimDisk* disk_;
  std::string wal_file_;
  std::string ckpt_file_;
  WalWriter wal_writer_;
  uint64_t recovery_threads_ = 1;
  std::function<void(uint64_t)> replay_hook_;
};

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_RECOVERY_H_
