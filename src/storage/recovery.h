#ifndef PHOENIX_STORAGE_RECOVERY_H_
#define PHOENIX_STORAGE_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <shared_mutex>
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
  /// Format version of the loaded image (0 = none). Replay fences on
  /// fence_lsn for v2+ — even at 0, an image taken before the first logged
  /// commit — and on txn ids only for v1.
  uint32_t image_version = 0;
  /// The WAL scan's torn-tail accounting (see WalScanStats).
  WalScanStats wal_scan;
  uint64_t next_txn_id = 1;
  /// How replay ran (DESIGN.md §15). replay_threads is the effective
  /// recovery pool size (1 = the serial path, no pool). partitions_replayed counts
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
/// Replay moves its ops in, so a row's buffer stays where the log scan
/// allocated it instead of being copied on the applying thread.
Status ApplyWalOp(WalOp op, TableStore* store);

/// Same, against an already-resolved table — the partitioned-replay fast
/// path: a partition batch is all one table, so the name lookup hoists out
/// of the loop. Table DDL (create/drop table) is a store operation and is
/// rejected here.
Status ApplyWalOpToTable(Table* t, WalOp op);

/// Owns the durability protocol: redo-only WAL + atomic full checkpoints.
///
/// Write path:  LogCommit(record) — forced append (write-ahead rule), after
///              which the in-memory TableStore mutation is allowed to be
///              considered durable.
/// Checkpoint:  image of all persistent tables as of a pinned MVCC snapshot
///              + next txn id, written atomically, then the WAL is truncated
///              to the snapshot's LSN (the fence).
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

  /// The two steps of a checkpoint. WriteCheckpointImage atomically writes
  /// an image of `tables` with the rows `snap` sees, subsuming exactly the
  /// WAL records with lsn <= snap.lsn (the fence). Each chunk of rows is
  /// encoded under a shared hold of `chunk_mu` (null: no lock). Metrics
  /// (storage.checkpoints / .bytes / .duration_us, spanning encode and
  /// write) count every image written, truncated or not.
  Status WriteCheckpointImage(const CatalogImage& tables,
                              const MvccSnapshot& snap, uint64_t next_txn_id,
                              std::shared_mutex* chunk_mu);
  /// Amputates the fenced WAL prefix (WalWriter::TruncateUpTo): records
  /// past the fence — commits that raced the checkpoint — survive. A crash
  /// between the two steps leaves an image plus records it subsumes, which
  /// Recover() must skip rather than double-apply.
  Status TruncateWalToFence(uint64_t fence_lsn);

  /// Rebuilds `store` from durable state. The store is cleared first, and
  /// cleared AGAIN on every error path — a failed recovery never leaves a
  /// half-replayed store behind for a caller that retries or degrades.
  ///
  /// With recovery_threads > 1 one worker pool serves the whole recovery:
  /// the checkpoint image's chunks decode on it while this thread inserts
  /// them in image order, then the WAL replays on it. Replay is a single
  /// streaming scan over the WAL (records are never materialized as a
  /// whole). With recovery_threads == 1 each record's ops apply inline
  /// during the scan; with more threads the scan classifies DML ops into
  /// per-table partitions replayed on the pool, with CREATE/DROP TABLE
  /// acting as serial barriers (DESIGN.md §15). Every thread count produces
  /// an identical store and identical RecoveryInfo counters.
  Status Recover(TableStore* store, RecoveryInfo* info);

  /// Recovery pool threads (PHX_RECOVERY_THREADS): chunked image decode and
  /// partitioned WAL replay. 1 (this class's default; Options defaults to
  /// the usable CPUs) = fully serial recovery; clamped to at least 1. Takes
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

  /// Called after each row chunk of a checkpoint encode, with `chunk_mu`
  /// released. Fault tests use it to land commits and DDL mid-table.
  void set_checkpoint_chunk_hook(std::function<void()> hook) {
    chunk_hook_ = std::move(hook);
  }

  SimDisk* disk() { return disk_; }
  const std::string& wal_file() const { return wal_file_; }
  const std::string& ckpt_file() const { return ckpt_file_; }
  WalWriter* wal_writer() { return &wal_writer_; }

 private:
  /// Recover() minus the error-path Clear() wrapper.
  Status RecoverImpl(TableStore* store, RecoveryInfo* local);
  /// Loads the checkpoint image into `store` if one exists, decoding its
  /// tables' chunks on `pool` (null: on the calling thread).
  Status LoadCheckpoint(TableStore* store, RecoveryInfo* local,
                        net::WorkerPool* pool);

  SimDisk* disk_;
  std::string wal_file_;
  std::string ckpt_file_;
  WalWriter wal_writer_;
  uint64_t recovery_threads_ = 1;
  std::function<void(uint64_t)> replay_hook_;
  std::function<void()> chunk_hook_;
};

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_RECOVERY_H_
