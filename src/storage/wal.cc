#include "storage/wal.h"

#include "common/rng.h"
#include "obs/metrics.h"

namespace phoenix::storage {

WalOp WalOp::CreateTable(std::string table, Schema schema,
                         std::vector<int> pk_columns) {
  WalOp op;
  op.kind = WalOpKind::kCreateTable;
  op.table = std::move(table);
  op.schema = std::move(schema);
  op.columns = std::move(pk_columns);
  return op;
}

WalOp WalOp::DropTable(std::string table) {
  WalOp op;
  op.kind = WalOpKind::kDropTable;
  op.table = std::move(table);
  return op;
}

WalOp WalOp::Insert(std::string table, uint64_t rid, Row row) {
  WalOp op;
  op.kind = WalOpKind::kInsert;
  op.table = std::move(table);
  op.rid = rid;
  op.row = std::move(row);
  return op;
}

WalOp WalOp::Delete(std::string table, uint64_t rid) {
  WalOp op;
  op.kind = WalOpKind::kDelete;
  op.table = std::move(table);
  op.rid = rid;
  return op;
}

WalOp WalOp::Update(std::string table, uint64_t rid, Row row) {
  WalOp op;
  op.kind = WalOpKind::kUpdate;
  op.table = std::move(table);
  op.rid = rid;
  op.row = std::move(row);
  return op;
}

WalOp WalOp::CreateIndex(std::string table, std::string index_name,
                         std::vector<int> columns) {
  WalOp op;
  op.kind = WalOpKind::kCreateIndex;
  op.table = std::move(table);
  op.index_name = std::move(index_name);
  op.columns = std::move(columns);
  return op;
}

WalOp WalOp::DropIndex(std::string table, std::string index_name) {
  WalOp op;
  op.kind = WalOpKind::kDropIndex;
  op.table = std::move(table);
  op.index_name = std::move(index_name);
  return op;
}

void EncodeWalOp(const WalOp& op, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(op.kind));
  enc->PutString(op.table);
  switch (op.kind) {
    case WalOpKind::kCreateTable:
      enc->PutSchema(op.schema);
      enc->PutU32(static_cast<uint32_t>(op.columns.size()));
      for (int c : op.columns) enc->PutI32(c);
      break;
    case WalOpKind::kDropTable:
      break;
    case WalOpKind::kInsert:
    case WalOpKind::kUpdate:
      enc->PutU64(op.rid);
      enc->PutRow(op.row);
      break;
    case WalOpKind::kDelete:
      enc->PutU64(op.rid);
      break;
    case WalOpKind::kCreateIndex:
      enc->PutString(op.index_name);
      enc->PutU32(static_cast<uint32_t>(op.columns.size()));
      for (int c : op.columns) enc->PutI32(c);
      break;
    case WalOpKind::kDropIndex:
      enc->PutString(op.index_name);
      break;
  }
}

Result<WalOp> DecodeWalOp(Decoder* dec) {
  WalOp op;
  PHX_ASSIGN_OR_RETURN(uint8_t kind_raw, dec->GetU8());
  if (kind_raw > static_cast<uint8_t>(WalOpKind::kDropIndex)) {
    return Status::IoError("bad WAL op kind");
  }
  op.kind = static_cast<WalOpKind>(kind_raw);
  PHX_ASSIGN_OR_RETURN(op.table, dec->GetString());
  switch (op.kind) {
    case WalOpKind::kCreateTable: {
      PHX_ASSIGN_OR_RETURN(op.schema, dec->GetSchema());
      PHX_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
      for (uint32_t i = 0; i < n; ++i) {
        PHX_ASSIGN_OR_RETURN(int32_t c, dec->GetI32());
        op.columns.push_back(c);
      }
      break;
    }
    case WalOpKind::kDropTable:
      break;
    case WalOpKind::kInsert:
    case WalOpKind::kUpdate: {
      PHX_ASSIGN_OR_RETURN(op.rid, dec->GetU64());
      PHX_ASSIGN_OR_RETURN(op.row, dec->GetRow());
      break;
    }
    case WalOpKind::kDelete: {
      PHX_ASSIGN_OR_RETURN(op.rid, dec->GetU64());
      break;
    }
    case WalOpKind::kCreateIndex: {
      PHX_ASSIGN_OR_RETURN(op.index_name, dec->GetString());
      PHX_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
      for (uint32_t i = 0; i < n; ++i) {
        PHX_ASSIGN_OR_RETURN(int32_t c, dec->GetI32());
        op.columns.push_back(c);
      }
      break;
    }
    case WalOpKind::kDropIndex: {
      PHX_ASSIGN_OR_RETURN(op.index_name, dec->GetString());
      break;
    }
  }
  return op;
}

uint32_t WalChecksum(const std::string& payload) {
  uint32_t h = 2166136261u;
  for (char c : payload) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

/// Frames one record under the LSN the writer just assigned it. The lsn is
/// the first payload field so checkpoint truncation can find the fence cut
/// by decoding only a u64 per frame, never the full op list.
std::string FrameRecord(const WalCommitRecord& record, uint64_t lsn) {
  Encoder payload;
  payload.PutU64(lsn);
  payload.PutU64(record.txn_id);
  payload.PutU32(static_cast<uint32_t>(record.ops.size()));
  for (const WalOp& op : record.ops) EncodeWalOp(op, &payload);
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(WalChecksum(payload.data()));
  frame.PutBytes(payload.data().data(), payload.size());
  return frame.Take();
}

void CountAppend(size_t bytes) {
  auto* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("storage.wal.appends")->Increment();
  reg->GetCounter("storage.wal.bytes")->Increment(bytes);
}

}  // namespace

/// One group-commit batch. Joiners append their frames under the writer's
/// mutex while the batch is open; once sealed the byte buffer is immutable
/// (only the leader flushing it reads it, outside the lock). done/status
/// are published under the writer's mutex.
struct WalBatch {
  std::string bytes;
  uint64_t records = 0;
  bool done = false;
  Status status;
};

WalWriter::WalWriter(SimDisk* disk, std::string file)
    : disk_(disk), file_(std::move(file)) {}

void WalWriter::set_before_sync_hook(std::function<bool()> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  before_sync_hook_ = std::move(hook);
}

Status WalWriter::SyncCounted() {
  Status st = disk_->Sync(file_);
  auto* reg = obs::MetricsRegistry::Default();
  // Count the force only once it actually happened: a failed sync left
  // nothing durable and must not inflate the durability-point counter.
  if (st.ok()) {
    reg->GetCounter("storage.wal.syncs")->Increment();
  } else {
    reg->GetCounter("storage.wal.sync_failures")->Increment();
  }
  return st;
}

Status WalWriter::AppendCommit(const WalCommitRecord& record) {
  WalCommitTicket ticket = EnqueueCommit(record);
  return WaitCommit(&ticket);
}

WalCommitTicket WalWriter::EnqueueCommit(const WalCommitRecord& record) {
  // Framing happens under mu_ because the LSN is stamped into the frame:
  // LSN assignment order must equal byte order in the log (and in a batch),
  // which only the lock can guarantee. No notify: waiters sleep only while
  // a flush is in flight, and its completion wakes them.
  WalCommitTicket ticket;
  std::lock_guard<std::mutex> lk(mu_);
  std::string frame = FrameRecord(record, next_lsn_++);
  CountAppend(frame.size());
  if (open_ == nullptr) open_ = std::make_shared<WalBatch>();
  open_->bytes += frame;
  ++open_->records;
  ticket.batch = open_;
  return ticket;
}

void WalWriter::SealOpenBatchLocked() {
  sealed_.push_back(std::move(open_));
  open_ = nullptr;
}

void WalWriter::FlushFrontLocked(std::unique_lock<std::mutex>& lk) {
  std::shared_ptr<WalBatch> batch = sealed_.front();
  sealed_.pop_front();
  // A stale recovery tail must be cut before the batch's bytes land on top
  // of it; on failure the whole batch resolves with the error (nothing was
  // appended, so no commit in it is ever acked).
  Status amputate = MaybeAmputateStaleTailLocked();
  if (!amputate.ok()) {
    batch->status = std::move(amputate);
    batch->done = true;
    cv_.notify_all();
    return;
  }
  flush_in_progress_ = true;
  std::function<bool()> hook = before_sync_hook_;
  lk.unlock();
  // The coalesced write + the batch's single force. Sealed batches are
  // immutable, so reading bytes outside the lock is safe.
  Status st = disk_->Append(file_, batch->bytes);
  if (st.ok()) {
    if (hook != nullptr && !hook()) {
      st = Status::IoError("group-commit batch lost before sync");
    } else {
      st = SyncCounted();
    }
  }
  auto* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("storage.wal.group_commit.batches")->Increment();
  reg->GetHistogram("storage.wal.group_commit.batch_records",
                    {1, 2, 4, 8, 16, 32, 64, 128})
      ->Record(batch->records);
  reg->GetHistogram("storage.wal.group_commit.batch_bytes",
                    {256, 1024, 4096, 16384, 65536, 262144, 1048576})
      ->Record(batch->bytes.size());
  if (st.ok()) {
    reg->GetCounter("storage.wal.group_commit.syncs_saved")
        ->Increment(batch->records - 1);
  }
  lk.lock();
  batch->status = std::move(st);
  batch->done = true;
  flush_in_progress_ = false;
  cv_.notify_all();
}

Status WalWriter::WaitCommit(WalCommitTicket* ticket) {
  if (ticket == nullptr || !*ticket) {
    return Status::Internal("WaitCommit on an empty commit ticket");
  }
  StopWatch watch;
  std::shared_ptr<WalBatch> b = std::move(ticket->batch);
  Status status;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Whichever waiter finds the device free drives the flush — first any
    // older sealed batch (FIFO order), then its own. Progress never depends
    // on a thread outside the waiter set.
    while (!b->done) {
      if (flush_in_progress_) {
        cv_.wait(lk);
        continue;
      }
      // Device free and nothing sealed: b is not done, not in flight and
      // not queued, so it is the open batch — seal it.
      if (sealed_.empty()) SealOpenBatchLocked();
      FlushFrontLocked(lk);
    }
    status = b->status;
  }
  obs::MetricsRegistry::Default()
      ->GetHistogram("storage.wal.group_commit.wait_us",
                     obs::Histogram::LatencyBoundsUs())
      ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return status;
}

void WalWriter::DrainLocked(std::unique_lock<std::mutex>& lk) {
  if (open_ != nullptr) SealOpenBatchLocked();
  while (flush_in_progress_ || !sealed_.empty()) {
    if (!flush_in_progress_ && !sealed_.empty()) {
      FlushFrontLocked(lk);
    } else {
      cv_.wait(lk);
    }
  }
}

Status WalWriter::AppendCommitNoSync(const WalCommitRecord& record) {
  std::unique_lock<std::mutex> lk(mu_);
  // Force pending batches first so on-disk frame order stays append order
  // even when an unforced append races an in-flight batch.
  DrainLocked(lk);
  PHX_RETURN_IF_ERROR(MaybeAmputateStaleTailLocked());
  std::string frame = FrameRecord(record, next_lsn_++);
  CountAppend(frame.size());
  return disk_->Append(file_, std::move(frame));
}

Status WalWriter::Reset() {
  std::unique_lock<std::mutex> lk(mu_);
  // Every enqueued commit gets a real force status before the truncation;
  // the checkpoint that triggered the reset already subsumes their effects,
  // so forcing first is safe and keeps tickets from dangling.
  DrainLocked(lk);
  stale_tail_pending_ = false;  // superseded: the whole file goes away
  return disk_->WriteAtomic(file_, "");
}

Status WalWriter::TruncateUpTo(uint64_t fence_lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  // Same drain rule as Reset(): every enqueued commit is forced (its waiter
  // gets the real sync status) before the cut is computed, so the scan sees
  // a stable durable file and no batch is ever half-amputated.
  DrainLocked(lk);
  PHX_RETURN_IF_ERROR(MaybeAmputateStaleTailLocked());
  if (!disk_->Exists(file_)) return Status::Ok();
  PHX_ASSIGN_OR_RETURN(std::string bytes, disk_->ReadDurable(file_));
  // LSN order == frame order, so the fenced prefix is contiguous: scan until
  // the first frame whose lsn exceeds the fence (or an invalid frame — crash
  // residue is preserved verbatim for recovery to classify, never dropped
  // here). Only the lsn (first payload field) needs decoding per frame.
  const char* data = bytes.data();
  size_t size = bytes.size();
  size_t pos = 0;
  while (pos + 8 <= size) {
    Decoder head(data + pos, 8);
    uint32_t len = head.GetU32().value();
    uint32_t crc = head.GetU32().value();
    if (pos + 8 + len > size) break;
    std::string payload(data + pos + 8, len);
    if (WalChecksum(payload) != crc) break;
    Decoder body(payload);
    auto lsn_res = body.GetU64();
    if (!lsn_res.ok() || lsn_res.value() > fence_lsn) break;
    pos += 8 + len;
  }
  if (pos == 0) return Status::Ok();  // nothing at or below the fence
  return disk_->WriteAtomic(file_, bytes.substr(pos));
}

uint64_t WalWriter::last_assigned_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_lsn_ - 1;
}

void WalWriter::set_next_lsn(uint64_t lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  next_lsn_ = lsn;
}

void WalWriter::NoteValidPrefix(uint64_t bytes_valid) {
  std::lock_guard<std::mutex> lk(mu_);
  stale_tail_pending_ = true;
  stale_tail_prefix_ = bytes_valid;
}

Status WalWriter::MaybeAmputateStaleTailLocked() {
  if (!stale_tail_pending_) return Status::Ok();
  PHX_ASSIGN_OR_RETURN(std::string bytes, disk_->ReadDurable(file_));
  if (bytes.size() > stale_tail_prefix_) {
    // The early return above keeps the pending mark on failure: the next
    // append retries the cut instead of landing on top of garbage.
    PHX_RETURN_IF_ERROR(
        disk_->WriteAtomic(file_, bytes.substr(0, stale_tail_prefix_)));
    obs::MetricsRegistry::Default()
        ->GetCounter("storage.wal.stale_tail_amputations")
        ->Increment();
  }
  stale_tail_pending_ = false;
  return Status::Ok();
}

Status WalReader::ScanBytes(const std::string& bytes, WalScanStats* stats,
                            const RecordFn& fn, const SkipFn& skip) {
  WalScanStats local;
  size_t pos = 0;
  const char* data = bytes.data();
  size_t size = bytes.size();
  local.bytes_total = size;
  // Why the tail stopped scanning: an incomplete frame is the expected
  // residue of an unforced append cut by a crash; a complete frame that
  // fails its CRC or does not decode is real corruption.
  bool corrupt_tail = false;
  while (pos + 8 <= size) {
    Decoder head(data + pos, 8);
    uint32_t len = head.GetU32().value();
    uint32_t crc = head.GetU32().value();
    // A flipped length byte can claim more bytes than exist (torn frame) —
    // or fewer, in which case the CRC over the short slice rejects it.
    if (pos + 8 + len > size) break;
    std::string payload(data + pos + 8, len);
    if (WalChecksum(payload) != crc) {
      corrupt_tail = true;
      break;
    }
    Decoder body(payload);
    WalCommitRecord rec;
    auto lsn_res = body.GetU64();
    auto txn_res = lsn_res.ok() ? body.GetU64() : Result<uint64_t>(lsn_res.status());
    auto nops_res = txn_res.ok() ? body.GetU32() : Result<uint32_t>(txn_res.status());
    if (!lsn_res.ok() || !txn_res.ok() || !nops_res.ok()) {
      corrupt_tail = true;
      break;
    }
    rec.lsn = lsn_res.value();
    rec.txn_id = txn_res.value();
    if (skip != nullptr && skip(rec.lsn, rec.txn_id)) {
      // Subsumed record: the frame is complete and CRC-valid, so integrity
      // is already established — its ops never need decoding.
      ++local.records;
      pos += 8 + len;
      continue;
    }
    bool ok = true;
    for (uint32_t i = 0; i < nops_res.value(); ++i) {
      auto op_res = DecodeWalOp(&body);
      if (!op_res.ok()) {
        ok = false;
        break;
      }
      rec.ops.push_back(op_res.take());
    }
    if (!ok) {
      corrupt_tail = true;
      break;
    }
    ++local.records;
    pos += 8 + len;
    local.bytes_valid = pos;
    Status st = fn(std::move(rec));
    if (!st.ok()) {
      // Aborted by the consumer (e.g. a replay error): report progress so
      // far, but skip tear classification — the scan never reached the
      // point where "what stopped us" is about the log's bytes.
      if (stats != nullptr) *stats = local;
      return st;
    }
  }
  local.bytes_valid = pos;
  local.tear_detected = pos < size;
  if (local.tear_detected) {
    uint64_t dropped = size - pos;
    if (corrupt_tail) {
      local.bytes_corrupt = dropped;
    } else {
      local.bytes_unforced_tail = dropped;
    }
    auto* reg = obs::MetricsRegistry::Default();
    reg->GetCounter("storage.wal.tears_detected")->Increment();
    reg->GetCounter(corrupt_tail ? "storage.wal.torn_bytes_dropped"
                                 : "storage.wal.unforced_tail_bytes_dropped")
        ->Increment(dropped);
  }
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

Status WalReader::Scan(const SimDisk& disk, const std::string& file,
                       WalScanStats* stats, const RecordFn& fn,
                       const SkipFn& skip) {
  if (!disk.Exists(file)) {
    if (stats != nullptr) *stats = WalScanStats{};
    return Status::Ok();
  }
  PHX_ASSIGN_OR_RETURN(std::string bytes, disk.ReadDurable(file));
  return ScanBytes(bytes, stats, fn, skip);
}

Result<std::vector<WalCommitRecord>> WalReader::ReadAll(
    const SimDisk& disk, const std::string& file, WalScanStats* stats) {
  std::vector<WalCommitRecord> records;
  PHX_RETURN_IF_ERROR(Scan(disk, file, stats,
                           [&records](WalCommitRecord&& rec) {
                             records.push_back(std::move(rec));
                             return Status::Ok();
                           }));
  return records;
}

}  // namespace phoenix::storage
