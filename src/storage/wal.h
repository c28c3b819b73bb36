#ifndef PHOENIX_STORAGE_WAL_H_
#define PHOENIX_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/schema.h"
#include "common/status.h"
#include "storage/sim_disk.h"

namespace phoenix::storage {

/// Logical redo operations. The engine uses a no-steal buffer policy, so the
/// log never needs undo records: a transaction's ops are written as one
/// atomic commit record at commit time, after which they are guaranteed
/// redo-able.
enum class WalOpKind : uint8_t {
  kCreateTable = 0,
  kDropTable = 1,
  kInsert = 2,
  kDelete = 3,
  kUpdate = 4,
  kCreateIndex = 5,
  kDropIndex = 6,
};

struct WalOp {
  WalOpKind kind = WalOpKind::kInsert;
  std::string table;
  // kCreateTable only:
  Schema schema;
  /// Column ordinals. Purpose depends on kind: the primary-key columns for
  /// kCreateTable, the key columns for kCreateIndex. (One field, two roles —
  /// the encode/decode layout is identical and replay routes on `kind`.)
  std::vector<int> columns;
  // kInsert/kDelete/kUpdate:
  uint64_t rid = 0;
  Row row;  // new row for insert/update; unused for delete/drop.
  // kCreateIndex/kDropIndex:
  std::string index_name;

  static WalOp CreateTable(std::string table, Schema schema,
                           std::vector<int> pk_columns);
  static WalOp DropTable(std::string table);
  static WalOp Insert(std::string table, uint64_t rid, Row row);
  static WalOp Delete(std::string table, uint64_t rid);
  static WalOp Update(std::string table, uint64_t rid, Row row);
  static WalOp CreateIndex(std::string table, std::string index_name,
                           std::vector<int> columns);
  static WalOp DropIndex(std::string table, std::string index_name);
};

/// One committed transaction: all of its ops, applied atomically at replay.
struct WalCommitRecord {
  uint64_t txn_id = 0;
  std::vector<WalOp> ops;
  /// Log sequence number. Assigned by the WalWriter when the record enters
  /// the log (callers leave it 0); strictly increasing in commit order, so
  /// on-disk frame order == LSN order. Checkpoints fence replay on it: a
  /// checkpoint image taken at fence F subsumes exactly the records with
  /// lsn <= F, regardless of which transactions were still active — the
  /// txn-id comparison the old quiescent checkpoints used breaks once a
  /// transaction can stay open across a checkpoint.
  uint64_t lsn = 0;
};

void EncodeWalOp(const WalOp& op, Encoder* enc);
Result<WalOp> DecodeWalOp(Decoder* dec);

/// One in-memory group-commit batch (internal to WalWriter; opaque here).
struct WalBatch;

/// Handle for one enqueued commit record: resolves to the real sync status
/// of the batch that carried the record. Obtained from EnqueueCommit(),
/// redeemed — exactly once, which empties it — with WaitCommit(). Empty
/// tickets are falsy.
struct WalCommitTicket {
  std::shared_ptr<WalBatch> batch;  ///< the batch carrying the record

  explicit operator bool() const { return batch != nullptr; }
};

/// Appends framed, checksummed commit records to a SimDisk file and forces
/// them durable before reporting success (write-ahead rule).
///
/// Group commit (DESIGN.md §11): EnqueueCommit() adds the framed record to
/// the open batch and returns a ticket; WaitCommit() blocks until the batch
/// has been written and forced with a single Sync(), then returns that
/// sync's real status. The first waiter to find the device free becomes the
/// leader and flushes — no extra thread. A batch is flushed as soon as the
/// device is free, so a lone committer pays no added latency; batching
/// emerges because commits arriving during an in-flight sync coalesce into
/// the next batch. Batches flush strictly in formation order, so the
/// on-disk record order still equals commit order.
///
/// Thread-safe; concurrent committers can never interleave frame bytes in
/// the log.
class WalWriter {
 public:
  WalWriter(SimDisk* disk, std::string file);
  /// Records enqueued but never waited on die with the writer, exactly like
  /// an unsynced tail dies with the process. On an orderly shutdown none
  /// exist: every committer redeems its ticket before the engine lets go of
  /// the writer. A destructor must not add durability points — syncing here
  /// would let "crashed" state survive SimDisk::Crash() in fault tests.
  ~WalWriter() = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Frames, checksums, appends, and forces one commit record
  /// (EnqueueCommit + WaitCommit).
  Status AppendCommit(const WalCommitRecord& record);

  /// Adds the record to the open batch. Never blocks on the device, so
  /// callers may hold engine locks.
  WalCommitTicket EnqueueCommit(const WalCommitRecord& record);

  /// Blocks until the ticket's batch is durable and returns the real sync
  /// status. The caller may perform the flush itself. Must not be called
  /// while holding locks the engine's commit path needs — releasing them
  /// first is the whole point of group commit.
  Status WaitCommit(WalCommitTicket* ticket);

  /// Appends without syncing (used to test loss of unforced commits). Any
  /// pending batches are forced first so frame order on disk stays append
  /// order.
  Status AppendCommitNoSync(const WalCommitRecord& record);

  /// Truncates the log (after a checkpoint made its contents redundant).
  /// Every enqueued commit is forced — its waiters get a real sync status —
  /// before the truncation, so no ticket ever dangles across a checkpoint.
  Status Reset();

  /// Amputates the fenced prefix: every frame with lsn <= fence_lsn is
  /// removed, frames past the fence are kept verbatim. The non-quiescent
  /// checkpoint truncation — commits that raced the checkpoint image sit
  /// past the fence and must survive. Pending batches are drained first
  /// (their waiters get real sync statuses and their frames land before the
  /// cut is computed), exactly like Reset(); commits that enqueue *during*
  /// the truncation carry post-fence LSNs and are appended after the
  /// rewrite, so order stays monotone.
  Status TruncateUpTo(uint64_t fence_lsn);

  /// LSN of the most recently enqueued record (0 = none yet). Under the
  /// engine's exclusive data lock no new enqueues can race, so this is the
  /// checkpoint fence capture.
  uint64_t last_assigned_lsn() const;
  /// Restores LSN continuity after recovery: the next record gets `lsn`.
  /// Must exceed every LSN already in the durable log *and* any checkpoint
  /// fence, or fenced replay would wrongly skip post-restart commits.
  void set_next_lsn(uint64_t lsn);

  /// Recovery found `bytes_valid` clean bytes followed by an unforced tail
  /// (expected crash residue, not corruption). Instead of rewriting the
  /// whole log eagerly, the writer amputates the stale tail lazily — one
  /// WriteAtomic of the valid prefix — right before its next append, which
  /// is the moment the garbage would otherwise swallow new frames.
  void NoteValidPrefix(uint64_t bytes_valid);

  const std::string& file() const { return file_; }

  /// Test-only crash window: invoked between a batch's Append and its
  /// Sync. Returning false simulates the process dying in that window —
  /// the sync is skipped and every commit in the batch resolves with an
  /// error (so none of them is ever acked).
  void set_before_sync_hook(std::function<bool()> hook);

 private:
  /// Runs Sync() and maintains the force counters: storage.wal.syncs is
  /// bumped only when the sync actually succeeded; failures count under
  /// storage.wal.sync_failures instead.
  Status SyncCounted();
  /// If NoteValidPrefix recorded a pending stale tail, rewrites the file to
  /// its valid prefix now (one ReadDurable + WriteAtomic). Called with mu_
  /// held, before the first post-recovery append touches the device. On
  /// failure the pending mark is kept so the append is not built on top of
  /// garbage bytes.
  Status MaybeAmputateStaleTailLocked();
  void SealOpenBatchLocked();
  /// Pops and flushes the oldest sealed batch. Drops `lk` for the device
  /// I/O and reacquires it to publish the result.
  void FlushFrontLocked(std::unique_lock<std::mutex>& lk);
  /// Forces every enqueued commit (open or sealed) and waits for in-flight
  /// flushes; on return the pipeline is empty and `lk` is held.
  void DrainLocked(std::unique_lock<std::mutex>& lk);

  SimDisk* disk_;
  std::string file_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<WalBatch> open_;             ///< accepting joiners
  std::deque<std::shared_ptr<WalBatch>> sealed_;  ///< FIFO, awaiting flush
  bool flush_in_progress_ = false;
  std::function<bool()> before_sync_hook_;

  /// Next LSN to hand out; LSNs are assigned under mu_ at enqueue time so
  /// assignment order == batch-join order == on-disk frame order.
  uint64_t next_lsn_ = 1;
  /// Lazy stale-tail amputation (NoteValidPrefix): when set, the durable
  /// file still carries unforced crash residue past stale_tail_prefix_
  /// bytes, to be cut before the next append.
  bool stale_tail_pending_ = false;
  uint64_t stale_tail_prefix_ = 0;
};

/// What a WAL scan saw — lets recovery report (and tests assert) exactly how
/// much of the log survived a torn-tail crash instead of silently eating it.
///
/// Trailing invalid bytes are classified so recovery logs do not
/// misattribute *expected* loss as corruption:
///  - an incomplete frame (the file ends inside a header, or before the
///    payload its length field declares) is the clean signature of an
///    append that was never forced — e.g. a group-commit batch cut mid-
///    frame by the crash. Reported as bytes_unforced_tail.
///  - a complete frame whose checksum fails or whose payload does not
///    decode is real corruption (half-written sector, bit rot). Reported
///    as bytes_corrupt.
/// A flipped length byte that claims more bytes than the file holds is
/// indistinguishable from a clean truncation and is counted as unforced
/// tail; the conservative longest-valid-prefix rule applies either way.
struct WalScanStats {
  uint64_t bytes_total = 0;  ///< durable log bytes on disk
  uint64_t bytes_valid = 0;  ///< bytes consumed by complete, CRC-valid frames
  uint64_t records = 0;      ///< complete records decoded
  bool tear_detected = false;  ///< trailing invalid bytes (either kind)
  uint64_t bytes_unforced_tail = 0;  ///< clean incomplete trailing frame
  uint64_t bytes_corrupt = 0;        ///< CRC-mismatched/undecodable tail
};

/// Reads every complete, checksum-valid commit record; stops at the first
/// torn or corrupt frame (the crash-truncated tail). A frame is accepted
/// only if its header is whole, its declared length fits in the remaining
/// bytes, its checksum matches, and its payload decodes completely — a tear
/// at any byte (mid-header, mid-payload, or a flipped CRC/length byte)
/// yields the longest valid prefix, never a partial record.
class WalReader {
 public:
  /// Delivered one complete record at a time, in log (== LSN) order. A
  /// non-OK return aborts the scan and propagates out of Scan/ScanBytes
  /// (used by recovery to stop replaying on the first apply error).
  using RecordFn = std::function<Status(WalCommitRecord&&)>;
  /// Scan-time skip predicate over a frame's cheap header fields (lsn,
  /// txn_id). Returning true drops the record without decoding its ops —
  /// the frame still had to be complete and CRC-valid to get here, and it
  /// still counts in WalScanStats::records and advances bytes_valid.
  /// Recovery uses this for checkpoint-subsumed records, which at
  /// production WAL sizes is most of the log after a mid-checkpoint crash.
  using SkipFn = std::function<bool(uint64_t lsn, uint64_t txn_id)>;

  /// Streaming scan: one pass over the durable bytes, records handed to
  /// `fn` as they decode — nothing is materialized. `stats` is filled even
  /// when `fn` aborts the scan (fields reflect progress up to the abort;
  /// tear accounting/metrics are recorded only for scans that ran to the
  /// end of the valid prefix).
  static Status Scan(const SimDisk& disk, const std::string& file,
                     WalScanStats* stats, const RecordFn& fn,
                     const SkipFn& skip = nullptr);
  /// Same scan over an already-read byte buffer. Recovery reads the WAL
  /// once, scans the buffer, and reuses the same buffer for torn-tail
  /// repair — the scan and the repair together cost one device read.
  static Status ScanBytes(const std::string& bytes, WalScanStats* stats,
                          const RecordFn& fn, const SkipFn& skip = nullptr);

  /// Scan() materialized: every surviving record in a vector (no skip
  /// predicate). Kept for tests and tools; recovery streams instead.
  static Result<std::vector<WalCommitRecord>> ReadAll(
      const SimDisk& disk, const std::string& file,
      WalScanStats* stats = nullptr);
};

/// FNV-1a over the payload — cheap torn-write detector for WAL frames.
uint32_t WalChecksum(const std::string& payload);

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_WAL_H_
