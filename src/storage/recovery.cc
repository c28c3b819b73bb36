#include "storage/recovery.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/schema.h"
#include "net/worker_pool.h"
#include "obs/metrics.h"

namespace phoenix::storage {

namespace {
constexpr uint32_t kCheckpointMagic = 0x50485843;  // "PHXC"
/// v1: {next_txn_id, snapshot} — quiescent checkpoints, replay fenced on
///     txn_id (exact only because no txn could span a checkpoint).
/// v2: {next_txn_id, fence_lsn, snapshot} — non-quiescent checkpoints,
///     replay fenced on WAL LSN.
/// v3: same header, but each table's snapshot carries its secondary-index
///     definitions (entries are rebuilt from the rows on load). v1 and v2
///     images are still accepted on read so a restart over an old disk
///     image works.
constexpr uint32_t kCheckpointVersion = 3;

/// Shared progress state for the replay hook: a running event counter that
/// both the scan thread (per record) and pool workers (periodically, while
/// a partition applies) bump. The hook sees a strictly increasing 1-based
/// ordinal; cross-thread interleaving of events is inherently unordered.
struct ReplayProgress {
  std::atomic<uint64_t> events{0};
  std::function<void(uint64_t)> hook;

  void Fire() {
    if (hook) hook(events.fetch_add(1, std::memory_order_relaxed) + 1);
  }
};

/// The parallel half of partitioned replay (DESIGN.md §15). The streaming
/// scan classifies each replayed record's ops here:
///
///  - DML (insert/update/delete) and index DDL (create/drop index) are
///    routed by canonical table name into per-table partitions. Index DDL
///    rides the table partition because it touches exactly one Table — its
///    relative order with that table's DML is what correctness needs, and
///    the partition preserves it.
///  - CREATE/DROP TABLE are serial barriers: they mutate the table *map*
///    every partition resolves names against, so all buffered partitions
///    are flushed and drained first, then the op applies on the scan
///    thread, then classification resumes. Cross-table ordering only ever
///    matters through such an op, so partitions between barriers are
///    independent by construction.
///
/// Within a partition, ops stay in log (LSN) order: a partition is one
/// pool task, and Drain() at each barrier orders a table's tasks across
/// segments. The first apply error wins, is sticky, and makes workers bail
/// out early; the scan aborts on the next record.
class PartitionedReplay {
 public:
  PartitionedReplay(TableStore* store, uint64_t threads,
                    ReplayProgress* progress)
      : store_(store),
        progress_(progress),
        pool_({/*threads=*/static_cast<size_t>(threads),
               /*queue_capacity=*/static_cast<size_t>(threads) * 4}) {}

  /// Classifies one record's ops, flushing a barrier around table DDL.
  /// `local` counters advance exactly as serial replay would advance them.
  Status Add(WalCommitRecord&& rec, RecoveryInfo* local) {
    PHX_RETURN_IF_ERROR(FirstError());
    for (WalOp& op : rec.ops) {
      if (op.kind == WalOpKind::kCreateTable ||
          op.kind == WalOpKind::kDropTable) {
        PHX_RETURN_IF_ERROR(Flush(local));
        ++local->ddl_barriers;
        PHX_RETURN_IF_ERROR(ApplyWalOp(op, store_));
      } else {
        partitions_[IdentUpper(op.table)].push_back(std::move(op));
      }
      ++local->ops_replayed;
    }
    return Status::Ok();
  }

  /// Dispatches every buffered partition and waits for all of them (and any
  /// earlier in-flight work) to finish applying.
  Status Flush(RecoveryInfo* local) {
    for (auto& [table, ops] : partitions_) {
      if (ops.empty()) continue;
      ++local->partitions_replayed;
      auto batch = std::make_shared<std::vector<WalOp>>(std::move(ops));
      pool_.Submit([this, table = table, batch] {
        // One name lookup per batch, not per op — every op in a partition
        // targets the same table, and table DDL (which could invalidate the
        // pointer) is fenced behind Drain() barriers.
        Table* t = store_->Get(table);
        if (t == nullptr) {
          RecordError(Status::Internal("redo partition for missing " + table));
          return;
        }
        for (size_t i = 0; i < batch->size(); ++i) {
          if (failed_.load(std::memory_order_relaxed)) return;
          Status st = ApplyWalOpToTable(t, (*batch)[i]);
          if (!st.ok()) {
            RecordError(std::move(st));
            return;
          }
          // Periodic progress events from inside the parallel phase — the
          // window the "recovery" rendezvous point needs to land a SIGKILL
          // in the middle of.
          if (((i + 1) & 63u) == 0) progress_->Fire();
        }
      });
    }
    partitions_.clear();
    pool_.Drain();
    return FirstError();
  }

  Status FirstError() {
    if (!failed_.load(std::memory_order_relaxed)) return Status::Ok();
    std::lock_guard<std::mutex> lk(err_mu_);
    return first_error_;
  }

 private:
  void RecordError(Status st) {
    std::lock_guard<std::mutex> lk(err_mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      first_error_ = std::move(st);
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  TableStore* store_;
  ReplayProgress* progress_;
  std::map<std::string, std::vector<WalOp>> partitions_;
  std::mutex err_mu_;
  std::atomic<bool> failed_{false};
  Status first_error_;
  net::WorkerPool pool_;  ///< last member: workers die before the rest
};

}  // namespace

Status ApplyWalOpToTable(Table* t, const WalOp& op) {
  switch (op.kind) {
    case WalOpKind::kInsert: {
      auto res = t->Insert(op.row, op.rid);
      return res.status();
    }
    case WalOpKind::kDelete:
      return t->Delete(op.rid);
    case WalOpKind::kUpdate:
      return t->Update(op.rid, op.row);
    case WalOpKind::kCreateIndex:
      return t->CreateIndex(op.index_name, op.columns);
    case WalOpKind::kDropIndex:
      return t->DropIndex(op.index_name);
    case WalOpKind::kCreateTable:
    case WalOpKind::kDropTable:
      break;  // table DDL needs the store, not a table
  }
  return Status::Internal("bad WAL op kind for resolved-table apply");
}

Status ApplyWalOp(const WalOp& op, TableStore* store) {
  switch (op.kind) {
    case WalOpKind::kCreateTable: {
      auto res = store->CreateTable(op.table, op.schema, op.columns,
                                    /*temporary=*/false);
      return res.status();
    }
    case WalOpKind::kDropTable:
      return store->DropTable(op.table);
    default: {
      Table* t = store->Get(op.table);
      if (t == nullptr) return Status::Internal("redo op on missing " + op.table);
      return ApplyWalOpToTable(t, op);
    }
  }
}

DurabilityManager::DurabilityManager(SimDisk* disk, std::string prefix)
    : disk_(disk),
      wal_file_(prefix + ".wal"),
      ckpt_file_(prefix + ".ckpt"),
      wal_writer_(disk, wal_file_) {}

Status DurabilityManager::LogCommit(const WalCommitRecord& record) {
  return wal_writer_.AppendCommit(record);
}

WalCommitTicket DurabilityManager::EnqueueCommit(const WalCommitRecord& record) {
  return wal_writer_.EnqueueCommit(record);
}

Status DurabilityManager::WaitCommit(WalCommitTicket* ticket) {
  return wal_writer_.WaitCommit(ticket);
}

Status DurabilityManager::WriteCheckpoint(const TableStore& store,
                                          uint64_t next_txn_id,
                                          bool truncate_wal) {
  // The fence is the last LSN the writer handed out: the caller guarantees
  // `store` reflects every record up to it (the engine holds its data lock
  // exclusively around this call, so no enqueue can race the capture).
  uint64_t fence_lsn = wal_writer_.last_assigned_lsn();
  PHX_RETURN_IF_ERROR(WriteCheckpointImage(store, next_txn_id, fence_lsn));
  // The crash window: the checkpoint image is durable but the WAL still
  // holds records it subsumes. Recover() must skip those, keyed off the
  // image's fence_lsn.
  if (!truncate_wal) return Status::Ok();
  return TruncateWalToFence(fence_lsn);
}

Status DurabilityManager::WriteCheckpointImage(const TableStore& store,
                                               uint64_t next_txn_id,
                                               uint64_t fence_lsn) {
  StopWatch watch;
  Encoder enc;
  enc.PutU32(kCheckpointMagic);
  enc.PutU32(kCheckpointVersion);
  enc.PutU64(next_txn_id);
  enc.PutU64(fence_lsn);
  store.EncodeSnapshot(&enc);
  size_t bytes = enc.size();
  PHX_RETURN_IF_ERROR(disk_->WriteAtomic(ckpt_file_, enc.Take()));
  // Metrics are recorded per image written, deliberately before any
  // truncation decision: an image without a WAL truncation (the fault-test
  // path, or a background write that raced a newer one) is still a
  // checkpoint the operator should see counted.
  auto* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("storage.checkpoints")->Increment();
  reg->GetCounter("storage.checkpoint.bytes")->Increment(bytes);
  reg->GetHistogram("storage.checkpoint.duration_us")
      ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DurabilityManager::TruncateWalToFence(uint64_t fence_lsn) {
  return wal_writer_.TruncateUpTo(fence_lsn);
}

Status DurabilityManager::LoadCheckpoint(TableStore* store,
                                         RecoveryInfo* local) {
  if (!disk_->Exists(ckpt_file_)) return Status::Ok();
  PHX_ASSIGN_OR_RETURN(std::string bytes, disk_->ReadDurable(ckpt_file_));
  if (bytes.empty()) return Status::Ok();
  Decoder dec(bytes);
  PHX_ASSIGN_OR_RETURN(uint32_t magic, dec.GetU32());
  PHX_ASSIGN_OR_RETURN(uint32_t version, dec.GetU32());
  // Bad magic (torn/foreign image) and an unsupported version (usually a
  // newer software's image) are different operational problems; the log
  // line alone must say which, and what was actually observed.
  if (magic != kCheckpointMagic) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "bad checkpoint magic 0x%08x (want 0x%08x \"PHXC\")", magic,
                  kCheckpointMagic);
    return Status::IoError(msg);
  }
  if (version < 1 || version > kCheckpointVersion) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "unsupported checkpoint version %u (supported 1..%u)",
                  version, kCheckpointVersion);
    return Status::IoError(msg);
  }
  PHX_ASSIGN_OR_RETURN(local->next_txn_id, dec.GetU64());
  if (version >= 2) {
    PHX_ASSIGN_OR_RETURN(local->fence_lsn, dec.GetU64());
  }
  PHX_RETURN_IF_ERROR(
      store->DecodeSnapshot(&dec, /*with_indexes=*/version >= 3));
  local->had_checkpoint = true;
  return Status::Ok();
}

Status DurabilityManager::Recover(TableStore* store, RecoveryInfo* info) {
  store->Clear();
  RecoveryInfo local;
  Status st = RecoverImpl(store, &local);
  if (!st.ok()) {
    // A failed recovery must not leave a half-replayed store behind: a
    // caller that retries, degrades, or reports-and-continues would
    // otherwise observe (and possibly serve) partially applied state.
    store->Clear();
    return st;
  }
  if (info != nullptr) *info = local;
  return Status::Ok();
}

Status DurabilityManager::RecoverImpl(TableStore* store, RecoveryInfo* local) {
  auto* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("storage.recoveries")->Increment();
  StopWatch watch;
  PHX_RETURN_IF_ERROR(LoadCheckpoint(store, local));
  reg->GetHistogram("storage.recovery.checkpoint_load_us")
      ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  watch.Restart();

  // One device read serves both the replay scan and any torn-tail repair.
  std::string wal_bytes;
  if (disk_->Exists(wal_file_)) {
    PHX_ASSIGN_OR_RETURN(wal_bytes, disk_->ReadDurable(wal_file_));
  }

  const uint64_t ckpt_next_txn = local->had_checkpoint ? local->next_txn_id : 0;
  const uint64_t fence_lsn = local->fence_lsn;
  // A record the checkpoint image subsumes must be skipped: replaying it
  // would double-apply its ops — re-create existing tables, re-insert
  // existing rids. v2 images fence on LSN (exact even with transactions
  // spanning the checkpoint); v1 images predate LSNs and fence on txn_id,
  // exact because v1 checkpoints quiesced. The scan applies the predicate
  // before op decode, so subsumed records cost a CRC check and 16 bytes of
  // header decode, nothing more.
  auto subsumed = [&](uint64_t lsn, uint64_t txn_id) {
    bool skip = fence_lsn > 0 ? lsn <= fence_lsn : txn_id < ckpt_next_txn;
    if (skip) ++local->records_skipped;
    return skip;
  };

  ReplayProgress progress;
  progress.hook = replay_hook_;
  const uint64_t threads = recovery_threads_ < 1 ? 1 : recovery_threads_;
  local->replay_threads = threads;
  std::unique_ptr<PartitionedReplay> parallel;
  if (threads > 1) {
    parallel = std::make_unique<PartitionedReplay>(store, threads, &progress);
  }

  uint64_t max_lsn = 0;
  // Per-record bookkeeping identical in both modes — the equivalence
  // contract (same RecoveryInfo whatever replay_threads is) hangs on it.
  auto note_record = [&](const WalCommitRecord& rec) {
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
    ++local->records_replayed;
    if (rec.txn_id >= local->next_txn_id) local->next_txn_id = rec.txn_id + 1;
    progress.Fire();
  };
  WalReader::RecordFn replay;
  if (parallel != nullptr) {
    replay = [&](WalCommitRecord&& rec) -> Status {
      note_record(rec);
      return parallel->Add(std::move(rec), local);
    };
  } else {
    replay = [&](WalCommitRecord&& rec) -> Status {
      note_record(rec);
      for (const WalOp& op : rec.ops) {
        PHX_RETURN_IF_ERROR(ApplyWalOp(op, store));
        ++local->ops_replayed;
      }
      return Status::Ok();
    };
  }
  PHX_RETURN_IF_ERROR(
      WalReader::ScanBytes(wal_bytes, &local->wal_scan, replay, subsumed));

  if (local->wal_scan.tear_detected) {
    // Log repair: anything logged after unreadable bytes would be invisible
    // to every future recovery (the writer appends at end-of-file), so the
    // tail must be amputated before the next append. Only a corrupt tail
    // (CRC mismatch / undecodable frame) warrants the eager rewrite — one
    // WriteAtomic of the valid prefix of the bytes already in hand, never a
    // second read of the log — and counts as a repair; a clean unforced
    // tail — the expected residue of a crash cutting an unsynced append —
    // is handed to the writer for lazy amputation on its next append, a
    // no-op for read-only restarts.
    if (local->wal_scan.bytes_corrupt > 0) {
      PHX_RETURN_IF_ERROR(disk_->WriteAtomic(
          wal_file_,
          wal_bytes.substr(0, local->wal_scan.bytes_valid)));
      reg->GetCounter("storage.recovery.wal_tail_repaired")->Increment();
    } else {
      wal_writer_.NoteValidPrefix(local->wal_scan.bytes_valid);
    }
  }
  // The scan classified everything; the last partitions may still be
  // applying (or not yet dispatched). The final barrier makes the store
  // complete — and surfaces any apply error a worker hit after the scan's
  // last early-abort check.
  if (parallel != nullptr) {
    PHX_RETURN_IF_ERROR(parallel->Flush(local));
  }

  // Restore LSN continuity: the next record must sort after everything in
  // the durable log *and* after the checkpoint fence, or fenced replay
  // after the next crash would wrongly skip it.
  uint64_t resume_lsn = std::max(max_lsn, local->fence_lsn) + 1;
  wal_writer_.set_next_lsn(resume_lsn);
  reg->GetHistogram("storage.recovery.wal_replay_us")
      ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  reg->GetCounter("storage.recovery.records_replayed")
      ->Increment(local->records_replayed);
  reg->GetCounter("storage.recovery.ops_replayed")
      ->Increment(local->ops_replayed);
  reg->GetCounter("storage.recovery.records_skipped")
      ->Increment(local->records_skipped);
  return Status::Ok();
}

}  // namespace phoenix::storage
