#include "engine/database.h"

#include <algorithm>

#include "common/codec.h"
#include "common/rng.h"
#include "engine/planner.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace phoenix::eng {

using sql::Statement;
using sql::StmtKind;

Database::Database(storage::SimDisk* disk, DatabaseOptions opts)
    : disk_(disk),
      opts_(std::move(opts)),
      durability_(disk, opts_.disk_prefix),
      next_session_id_(opts_.first_session_id) {
  durability_.set_recovery_threads(opts_.recovery_threads);
  durability_.set_replay_hook(opts_.recovery_replay_hook);
}

Database::~Database() {
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    ckpt_stop_ = true;
    // A pending snapshot dies with the process model: writing it here would
    // create a durability point no real crash would have produced.
    ckpt_pending_.reset();
  }
  ckpt_cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
}

Status Database::Open() {
  if (open_) return Status::Internal("database already open");
  PHX_RETURN_IF_ERROR(durability_.Recover(&store_, &recovery_info_));
  txn_manager_.set_next_id(recovery_info_.next_txn_id);
  // Recovered rows carry the implicit visible-to-all stamp; the commit
  // horizon starts at the recovered WAL position so the first post-recovery
  // commit publishes a strictly larger LSN.
  committed_lsn_.store(durability_.wal_writer()->last_assigned_lsn(),
                       std::memory_order_release);
  ckpt_thread_ = std::thread([this] { CheckpointThreadLoop(); });
  open_ = true;
  return Status::Ok();
}

Result<uint64_t> Database::CreateSession(const std::string& user) {
  if (!open_) return Status::Internal("database not open");
  auto session = std::make_unique<Session>();
  session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  session->user = user;
  uint64_t id = session->id;
  std::unique_lock<std::shared_mutex> lk(sessions_mu_);
  sessions_[id] = std::move(session);
  return id;
}

Status Database::CloseSession(uint64_t session_id) {
  // Exclusive: rollback and temp-object teardown mutate shared state.
  std::unique_lock<std::shared_mutex> data_lk(data_mu_);
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  if (s->txn != nullptr) {
    PHX_RETURN_IF_ERROR(Rollback(s));
  }
  for (const auto& [cid, c] : s->cursors) {
    if (c->pinned_) UnpinSnapshot(c->pin_);
  }
  s->cursors.clear();
  store_.DropSessionTemps(session_id);
  temp_procs_.DropSessionProcs(session_id);
  std::unique_lock<std::shared_mutex> lk(sessions_mu_);
  sessions_.erase(session_id);
  return Status::Ok();
}

Status Database::SetSessionOption(uint64_t session_id, const std::string& name,
                                  const std::string& value) {
  // Session contents are serialized per session by the server, so the map
  // lock (pointer lookup) is the only lock needed.
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  it->second->options[name] = value;
  return Status::Ok();
}

Session* Database::FindSession(uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

Session* Database::GetSession(uint64_t session_id) {
  return FindSession(session_id);
}

bool Database::HasSession(uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  return sessions_.count(session_id) > 0;
}

size_t Database::num_sessions() const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  return sessions_.size();
}

Result<std::vector<StatementResult>> Database::ExecuteScript(
    uint64_t session_id, const std::string& sql) {
  PHX_ASSIGN_OR_RETURN(auto stmts, sql::Parser::ParseScript(sql));
  std::vector<StatementResult> results;
  results.reserve(stmts.size());
  for (const auto& stmt : stmts) {
    PHX_ASSIGN_OR_RETURN(StatementResult r,
                         ExecuteStatement(session_id, *stmt));
    results.push_back(std::move(r));
  }
  return results;
}

Result<StatementResult> Database::ExecuteStatement(uint64_t session_id,
                                                   const Statement& stmt) {
  obs::MetricsRegistry::Default()
      ->GetCounter("engine.statements_executed")
      ->Increment();
  // Plain SELECT (no INTO) and EXPLAIN only read shared state; everything
  // else — DML, DDL, EXEC, transaction control — may mutate it.
  bool read_only =
      (stmt.kind == StmtKind::kSelect && stmt.select->into_table.empty()) ||
      stmt.kind == StmtKind::kExplain;
  if (read_only) {
    if (opts_.mvcc && stmt.kind == StmtKind::kSelect) {
      // MVCC read path: pin a snapshot under a brief shared hold, collect
      // the working set against it, then project/aggregate/sort off-lock.
      // Read-uncommitted sessions stay on the classified path below — a
      // snapshot hides other sessions' pending writes, which is exactly
      // what a dirty-read probe must observe.
      Session* reader = FindSession(session_id);
      if (reader != nullptr && !reader->reads_uncommitted()) {
        return ExecuteSelectSnapshot(session_id, stmt);
      }
    }
    std::shared_lock<std::shared_mutex> lk(data_mu_);
    return ExecuteStatementLocked(session_id, stmt, /*can_checkpoint=*/false,
                                  /*ticket=*/nullptr);
  }
  // Early lock release: the statement runs — and, if it commits, enqueues
  // its WAL record — under the exclusive lock, but the wait for the batch
  // fsync happens after the lock is dropped. That wait is where commits
  // from other sessions pile into the same batch, and readers are not
  // stuck behind it; waiting inside the lock would serialize them and
  // every batch would hold one record. Success is still reported only after the force returns
  // (ack-after-fsync), and a failed force overrides the statement result.
  storage::WalCommitTicket ticket;
  auto result = [&]() -> Result<StatementResult> {
    std::unique_lock<std::shared_mutex> lk(data_mu_);
    return ExecuteStatementLocked(session_id, stmt, /*can_checkpoint=*/true,
                                  &ticket);
  }();
  if (ticket) {
    Status forced = durability_.WaitCommit(&ticket);
    if (!forced.ok()) return forced;
  }
  return result;
}

Result<StatementResult> Database::ExecuteStatementLocked(
    uint64_t session_id, const Statement& stmt, bool can_checkpoint,
    storage::WalCommitTicket* ticket) {
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  switch (stmt.kind) {
    case StmtKind::kBeginTxn:
      if (s->txn != nullptr) {
        return Status::SqlError("transaction already in progress");
      }
      s->txn = txn_manager_.Begin();
      return StatementResult::Affected(0);
    case StmtKind::kCommit:
      if (s->txn == nullptr) {
        return Status::SqlError("no transaction in progress");
      }
      PHX_RETURN_IF_ERROR(Commit(s, can_checkpoint, ticket));
      return StatementResult::Affected(0);
    case StmtKind::kRollback:
      if (s->txn == nullptr) {
        return Status::SqlError("no transaction in progress");
      }
      PHX_RETURN_IF_ERROR(Rollback(s));
      return StatementResult::Affected(0);
    default:
      break;
  }

  bool autocommit = s->txn == nullptr;
  if (autocommit) s->txn = txn_manager_.Begin();
  s->txn->MarkStatement();
  size_t undo_mark = s->txn->stmt_undo_mark;
  size_t redo_mark = s->txn->stmt_redo_mark;

  Executor ex(this, s);
  auto result = ex.Execute(stmt);
  if (!result.ok()) {
    // Statement-level atomicity: roll back this statement's effects only.
    Status undo_status =
        txn_manager_.UndoTo(s->txn.get(), undo_mark, redo_mark, &store_,
                            &temp_procs_,
                            opts_.mvcc ? s->txn->id : 0);
    if (autocommit) s->txn.reset();
    if (!undo_status.ok()) return undo_status;
    return result.status();
  }
  if (stmt.kind == StmtKind::kInsert || stmt.kind == StmtKind::kUpdate ||
      stmt.kind == StmtKind::kDelete || stmt.kind == StmtKind::kExec) {
    s->last_rowcount = result.value().affected < 0 ? 0 : result.value().affected;
  }
  if (autocommit) {
    PHX_RETURN_IF_ERROR(Commit(s, can_checkpoint, ticket));
  }
  return result;
}

Status Database::Commit(Session* s, bool can_checkpoint,
                        storage::WalCommitTicket* ticket) {
  Txn* txn = s->txn.get();
  bool logged = !txn->redo.empty();
  if (logged) {
    storage::WalCommitRecord record;
    record.txn_id = txn->id;
    record.ops = std::move(txn->redo);
    if (ticket != nullptr) {
      // Enqueue only — never blocks on the device while data_mu_ is held.
      // The caller redeems the ticket after releasing the lock; if the
      // batch sync fails, the error replaces the statement result, so the
      // client is never acked for an unforced commit. (The in-memory
      // mutation stands, as with any post-release log-force failure —
      // standard early-lock-release semantics.)
      *ticket = durability_.EnqueueCommit(record);
    } else {
      PHX_RETURN_IF_ERROR(durability_.LogCommit(record));
    }
  }
  if (opts_.mvcc && logged) {
    // The commit's LSN was assigned under the exclusive data lock this
    // caller still holds (a logged commit never arrives via the read-only
    // path), so last_assigned is exactly this record's LSN. Visibility is
    // published before durability, matching classification-mode semantics
    // where in-memory effects are readable the moment the lock drops.
    MvccCommitLocked(*txn, durability_.wal_writer()->last_assigned_lsn());
  }
  s->txn.reset();
  commit_count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t since =
      commits_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Taking the snapshot requires data_mu_ held exclusively, which only a
  // mutating commit (can_checkpoint) has. Active transactions no longer
  // suppress the checkpoint — their effects are reverted in the snapshot
  // clone and replay is fenced on the WAL LSN. A due checkpoint that a
  // shared-lock commit cannot take is recorded (storage.checkpoint.skipped)
  // and deferred: the next eligible commit fires it even though the commit
  // counter was already consumed — before the deferral, a read-heavy
  // workload could cross the threshold on read-only commits forever and
  // starve checkpoints silently.
  const uint64_t n = opts_.checkpoint_every_n_commits;
  bool due = n > 0 && (since >= n ||
                       ckpt_deferred_.load(std::memory_order_relaxed));
  if (due) {
    if (can_checkpoint) {
      PHX_RETURN_IF_ERROR(CheckpointLocked());
    } else {
      ckpt_deferred_.store(true, std::memory_order_relaxed);
      obs::MetricsRegistry::Default()
          ->GetCounter("storage.checkpoint.skipped")
          ->Increment();
    }
  }
  return Status::Ok();
}

Status Database::Rollback(Session* s) {
  Status st = txn_manager_.UndoTo(s->txn.get(), 0, 0, &store_, &temp_procs_,
                                  opts_.mvcc ? s->txn->id : 0);
  s->txn.reset();
  return st;
}

Result<StatementResult> Database::ExecuteSelectSnapshot(
    uint64_t session_id, const Statement& stmt) {
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  bool autocommit = s->txn == nullptr;
  if (autocommit) s->txn = txn_manager_.Begin();
  s->txn->MarkStatement();

  Executor ex(this, s);
  storage::MvccSnapshot snap;
  auto bound = [&]() -> Result<BoundRows> {
    // The shared hold covers only snapshot pinning and working-set
    // collection (rows are copied out); projection, aggregation, DISTINCT,
    // and ORDER BY/LIMIT all run after the lock is released, so a heavy
    // read never stalls writers for its full duration.
    std::shared_lock<std::shared_mutex> lk(data_mu_);
    snap = PinSnapshot(s->txn->id);
    ex.set_snapshot(&snap);
    return ex.EvaluateFrom(*stmt.select);
  }();
  auto result = [&]() -> Result<StatementResult> {
    if (!bound.ok()) return bound.status();
    return ex.FinishSelect(*stmt.select, bound.take());
  }();
  UnpinSnapshot(snap);
  if (!result.ok()) {
    // A plain SELECT leaves no undo/redo behind; statement atomicity is a
    // mark reset.
    if (autocommit) s->txn.reset();
    return result.status();
  }
  if (autocommit) {
    // Empty-redo commit: keeps commit accounting identical to the
    // classification path (which also commits read-only autocommits).
    PHX_RETURN_IF_ERROR(Commit(s, /*can_checkpoint=*/false, nullptr));
  }
  return result;
}

storage::MvccSnapshot Database::PinSnapshot(uint64_t txn_id) {
  storage::MvccSnapshot snap;
  snap.lsn = committed_lsn_.load(std::memory_order_acquire);
  snap.txn = txn_id;
  auto* reg = obs::MetricsRegistry::Default();
  {
    std::lock_guard<std::mutex> lk(pins_mu_);
    pins_.insert(snap.lsn);
    reg->GetGauge("engine.mvcc.oldest_pin_lsn")
        ->Set(static_cast<int64_t>(*pins_.begin()));
  }
  reg->GetCounter("engine.mvcc.snapshots")->Increment();
  return snap;
}

void Database::UnpinSnapshot(const storage::MvccSnapshot& snap) {
  std::lock_guard<std::mutex> lk(pins_mu_);
  auto it = pins_.find(snap.lsn);
  if (it != pins_.end()) pins_.erase(it);
  obs::MetricsRegistry::Default()
      ->GetGauge("engine.mvcc.oldest_pin_lsn")
      ->Set(pins_.empty() ? 0 : static_cast<int64_t>(*pins_.begin()));
}

uint64_t Database::MvccWatermark() const {
  uint64_t horizon = committed_lsn_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lk(pins_mu_);
  // A version whose delete-LSN is <= the oldest pin is invisible to every
  // pinned snapshot (a snapshot at LSN P sees deletes stamped <= P), and
  // future pins land at >= horizon — so min(pins, horizon) bounds what may
  // still be read.
  if (pins_.empty()) return horizon;
  return std::min(horizon, *pins_.begin());
}

void Database::MvccCommitLocked(const Txn& txn, uint64_t lsn) {
  // The undo stack names exactly the (table, rid) pairs this transaction
  // stamped — walk it to finalize the pending marks to the commit LSN.
  // (No-steal keeps the stack intact at commit: only redo is consumed.)
  std::set<storage::Table*> touched;
  for (const UndoRecord& u : txn.undo) {
    if (u.kind != UndoRecord::Kind::kInsert &&
        u.kind != UndoRecord::Kind::kDelete &&
        u.kind != UndoRecord::Kind::kUpdate) {
      continue;
    }
    storage::Table* t = store_.Get(u.table);
    if (t == nullptr || t->temporary()) continue;
    t->MvccFinalize(u.rid, txn.id, lsn);
    touched.insert(t);
  }
  committed_lsn_.store(lsn, std::memory_order_release);
  if (touched.empty()) return;
  uint64_t watermark = MvccWatermark();
  size_t reclaimed = 0;
  int64_t live = 0;
  for (storage::Table* t : touched) {
    reclaimed += t->MvccReclaim(watermark);
    live += static_cast<int64_t>(t->MvccVersionCount());
  }
  auto* reg = obs::MetricsRegistry::Default();
  if (reclaimed > 0) {
    reg->GetCounter("engine.mvcc.versions_reclaimed")->Increment(reclaimed);
  }
  // Tables not touched by this commit cannot have gained versions since
  // their own last commit reclaimed them, but they may still retain some
  // under an old pin; the gauge tracks the touched set as a cheap,
  // commit-fresh approximation of the global count.
  reg->GetGauge("engine.mvcc.versions_live")->Set(live);
}

bool Database::AnyActiveTxn() const {
  std::shared_lock<std::shared_mutex> lk(sessions_mu_);
  for (const auto& [id, s] : sessions_) {
    if (s->txn != nullptr) return true;
  }
  return false;
}

Result<Database::CheckpointSnapshot> Database::TakeSnapshotLocked() {
  StopWatch watch;
  CheckpointSnapshot snap;
  snap.store = store_.ClonePersistent();
  snap.next_txn_id = txn_manager_.next_id();
  // The fence: every WAL record enqueued so far (enqueues happen under
  // data_mu_, which this thread holds exclusively, so none can race). The
  // clone reflects exactly those records once uncommitted effects are
  // reverted below — no-steal means an open transaction's mutations are in
  // the store but not in the log.
  snap.fence_lsn = durability_.wal_writer()->last_assigned_lsn();
  {
    std::shared_lock<std::shared_mutex> lk(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      if (s->txn != nullptr) {
        PHX_RETURN_IF_ERROR(
            txn_manager_.RevertInClone(*s->txn, snap.store.get()));
      }
    }
  }
  obs::MetricsRegistry::Default()
      ->GetHistogram("storage.checkpoint.snapshot_us",
                     obs::Histogram::LatencyBoundsUs())
      ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return snap;
}

Status Database::WriteSnapshotSerialized(CheckpointSnapshot snap,
                                         bool truncate_wal, bool* wrote) {
  if (wrote != nullptr) *wrote = false;
  std::lock_guard<std::mutex> lk(ckpt_write_mu_);
  // Monotone-fence guard: a snapshot at or below the last written fence is
  // stale — a newer image is already on disk. Writing it anyway would
  // regress the image, and its WAL truncation would then amputate records
  // only the newer image holds: silent data loss. Dropping it loses
  // nothing (everything it holds is subsumed).
  if (ckpt_has_written_ && snap.fence_lsn <= ckpt_written_fence_) {
    obs::MetricsRegistry::Default()
        ->GetCounter("storage.checkpoint.stale_dropped")
        ->Increment();
    return Status::Ok();
  }
  PHX_RETURN_IF_ERROR(durability_.WriteCheckpointImage(
      *snap.store, snap.next_txn_id, snap.fence_lsn));
  ckpt_has_written_ = true;
  ckpt_written_fence_ = snap.fence_lsn;
  if (wrote != nullptr) *wrote = true;
  if (!truncate_wal) return Status::Ok();
  return durability_.TruncateWalToFence(snap.fence_lsn);
}

Status Database::Checkpoint() {
  auto snap_res = [&]() -> Result<CheckpointSnapshot> {
    std::unique_lock<std::shared_mutex> lk(data_mu_);
    auto res = TakeSnapshotLocked();
    if (res.ok()) {
      commits_since_checkpoint_.store(0, std::memory_order_relaxed);
      ckpt_deferred_.store(false, std::memory_order_relaxed);
    }
    return res;
  }();
  PHX_RETURN_IF_ERROR(snap_res.status());
  // The write happens on the caller's thread but off the data lock: the
  // caller observes synchronous completion while other sessions keep
  // executing. (A concurrently pending background snapshot is older by
  // construction and will be dropped by the fence guard.)
  return WriteSnapshotSerialized(snap_res.take(), /*truncate_wal=*/true);
}

Status Database::CheckpointWithoutWalTruncate() {
  return CheckpointForCrashTest(CheckpointCrashPoint::kPostImage);
}

Status Database::CheckpointForCrashTest(CheckpointCrashPoint point,
                                        bool* image_written) {
  if (image_written != nullptr) *image_written = false;
  if (point == CheckpointCrashPoint::kPreSnapshot) {
    return Status::Ok();  // died before doing anything durable
  }
  std::unique_lock<std::shared_mutex> lk(data_mu_);
  PHX_ASSIGN_OR_RETURN(CheckpointSnapshot snap, TakeSnapshotLocked());
  if (point == CheckpointCrashPoint::kPostSnapshot) {
    return Status::Ok();  // the volatile snapshot dies with the process
  }
  // kPostImage: the image lands durably, the WAL truncation never happens.
  return WriteSnapshotSerialized(std::move(snap), /*truncate_wal=*/false,
                                 image_written);
}

void Database::WaitForCheckpointIdle() {
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  ckpt_cv_.wait(lk, [&] { return !ckpt_pending_.has_value() && !ckpt_busy_; });
}

Status Database::CheckpointLocked() {
  PHX_ASSIGN_OR_RETURN(CheckpointSnapshot snap, TakeSnapshotLocked());
  commits_since_checkpoint_.store(0, std::memory_order_relaxed);
  ckpt_deferred_.store(false, std::memory_order_relaxed);
  auto* reg = obs::MetricsRegistry::Default();
  std::lock_guard<std::mutex> lk(ckpt_mu_);
  if (ckpt_pending_.has_value()) {
    // The thread never picked up the previous snapshot; this one supersedes
    // it (same committed prefix plus more).
    reg->GetCounter("storage.checkpoint.skipped")->Increment();
  }
  ckpt_pending_ = std::move(snap);
  reg->GetGauge("storage.checkpoint.inflight")->Set(1);
  ckpt_cv_.notify_all();
  return Status::Ok();
}

void Database::CheckpointThreadLoop() {
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  for (;;) {
    ckpt_cv_.wait(lk, [&] { return ckpt_stop_ || ckpt_pending_.has_value(); });
    if (ckpt_stop_) break;
    CheckpointSnapshot snap = std::move(*ckpt_pending_);
    ckpt_pending_.reset();
    ckpt_busy_ = true;
    lk.unlock();
    StopWatch watch;
    Status st = WriteSnapshotSerialized(std::move(snap), /*truncate_wal=*/true);
    auto* reg = obs::MetricsRegistry::Default();
    reg->GetHistogram("storage.checkpoint.bg_write_us",
                      obs::Histogram::LatencyBoundsUs())
        ->Record(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
    if (!st.ok()) {
      // The image never landed; arm the deferral so the next eligible
      // commit takes a fresh snapshot and retries.
      ckpt_deferred_.store(true, std::memory_order_relaxed);
      reg->GetCounter("storage.checkpoint.bg_write_failures")->Increment();
    }
    lk.lock();
    ckpt_busy_ = false;
    if (!ckpt_pending_.has_value()) {
      reg->GetGauge("storage.checkpoint.inflight")->Set(0);
    }
    ckpt_cv_.notify_all();
  }
}

Result<Cursor*> Database::OpenCursor(uint64_t session_id,
                                     const std::string& select_sql,
                                     CursorType type) {
  // Shared: opening a cursor reads tables and mutates only session state.
  std::shared_lock<std::shared_mutex> data_lk(data_mu_);
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                       sql::Parser::ParseStatement(select_sql));
  if (stmt->kind != StmtKind::kSelect || !stmt->select->into_table.empty()) {
    return Status::SqlError("cursors require a plain SELECT");
  }
  sql::SelectStmt* sel = stmt->select.get();

  // Cursors execute outside any explicit transaction (read-only snapshot /
  // key collection); no txn state is needed.
  auto cursor = std::make_unique<Cursor>(s->next_cursor_id++, type);
  Executor ex(this, s);

  // Static and keyset cursors pin a snapshot at open: materialization /
  // key collection evaluates against it, and the pin (released at close)
  // bounds version reclamation for as long as the cursor lives. Dynamic
  // cursors are fluid by definition and stay unpinned.
  if (opts_.mvcc && !s->reads_uncommitted() && type != CursorType::kDynamic) {
    // Pin under the session's own transaction id (when one is open) so the
    // cursor sees that transaction's pending writes, exactly as the live
    // heap would have shown them.
    cursor->pin_ = PinSnapshot(s->txn != nullptr ? s->txn->id : 0);
    cursor->pinned_ = true;
    ex.set_snapshot(&cursor->pin_);
  }

  Status fill = [&]() -> Status {
    if (type == CursorType::kStatic) {
      PHX_ASSIGN_OR_RETURN(StatementResult r, ex.ExecuteSelect(*sel));
      if (!r.has_rows) {
        return Status::SqlError("cursor query has no result set");
      }
      cursor->schema_ = std::move(r.schema);
      cursor->static_rows_ = std::move(r.rows);
      return Status::Ok();
    }
    // Keyset/dynamic: single-table query over a PK'd table, no aggregation.
    if (sel->from.size() != 1) {
      return Status::NotSupported(std::string(CursorTypeName(type)) +
                                  " cursors require a single-table query");
    }
    bool has_agg = !sel->group_by.empty() || sel->having != nullptr;
    for (const auto& item : sel->items) {
      if (item.expr->ContainsAggregate()) has_agg = true;
    }
    if (has_agg || sel->distinct || sel->limit >= 0 || !sel->order_by.empty()) {
      return Status::NotSupported(
          std::string(CursorTypeName(type)) +
          " cursors do not support aggregation/DISTINCT/ORDER BY/LIMIT");
    }
    storage::Table* t = store_.Get(sel->from[0].name);
    if (t == nullptr) {
      return Status::SqlError("no such table: " + sel->from[0].name);
    }
    if (t->pk_columns().empty()) {
      return Status::NotSupported(std::string(CursorTypeName(type)) +
                                  " cursors require a primary key on " +
                                  t->name());
    }
    BoundRows probe;
    for (const Column& c : t->schema().columns()) {
      probe.schema.AddColumn(c);
      probe.qualifiers.push_back(sel->from[0].BindingName());
    }
    PHX_ASSIGN_OR_RETURN(cursor->schema_,
                         ex.ProjectionSchema(sel->items, probe));
    cursor->base_table_ = t->name();
    cursor->select_ = sel->Clone();
    if (type == CursorType::kKeyset) {
      // Materialize the key set now, in PK order — membership is frozen.
      // EvaluateFrom runs the access-path planner, so a selective WHERE on
      // an indexed column collects the keys in sub-linear time (index probe
      // + k·log k re-sort) instead of a full PK-index scan.
      PHX_ASSIGN_OR_RETURN(BoundRows bound, ex.EvaluateFrom(*sel));
      // Record (key, rid) pairs and sort them together: the rid identifies
      // *which row* each key named at open, so a later fetch can reject a
      // different row that merely reuses a deleted member's key.
      std::vector<std::pair<Row, storage::RowId>> members;
      members.reserve(bound.rows.size());
      for (size_t i = 0; i < bound.rows.size(); ++i) {
        members.emplace_back(t->PkOf(bound.rows[i]),
                             i < bound.rids.size() ? bound.rids[i] : 0);
      }
      std::sort(members.begin(), members.end(),
                [](const auto& a, const auto& b) {
                  return storage::RowLess{}(a.first, b.first);
                });
      cursor->keys_.reserve(members.size());
      cursor->key_rids_.reserve(members.size());
      for (auto& [key, rid] : members) {
        cursor->keys_.push_back(std::move(key));
        cursor->key_rids_.push_back(rid);
      }
    }
    return Status::Ok();
  }();
  if (!fill.ok()) {
    if (cursor->pinned_) UnpinSnapshot(cursor->pin_);
    return fill;
  }
  Cursor* raw = cursor.get();
  s->cursors[raw->id()] = std::move(cursor);
  auto* reg = obs::MetricsRegistry::Default();
  const char* kind = type == CursorType::kStatic    ? "static"
                     : type == CursorType::kKeyset ? "keyset"
                                                   : "dynamic";
  reg->GetCounter(std::string("engine.cursor_opens.") + kind)->Increment();
  if (type == CursorType::kStatic) {
    reg->GetCounter("engine.rows_materialized")
        ->Increment(raw->static_rows_.size());
  }
  return raw;
}

Result<std::vector<Row>> Database::FetchCursor(uint64_t session_id,
                                               uint64_t cursor_id, size_t n,
                                               bool* done) {
  PHX_ASSIGN_OR_RETURN(Cursor * c, GetCursor(session_id, cursor_id));
  auto res = [&]() -> Result<std::vector<Row>> {
    if (c->type() == CursorType::kStatic) {
      // Static fetches walk a session-private materialized copy; they never
      // touch shared storage, so no data lock is taken — a reader paging a
      // large static cursor cannot block (or be blocked by) writers.
      return c->Fetch(this, FindSession(session_id), n, done);
    }
    std::shared_lock<std::shared_mutex> data_lk(data_mu_);
    return c->Fetch(this, FindSession(session_id), n, done);
  }();
  if (res.ok()) {
    obs::MetricsRegistry::Default()
        ->GetCounter("engine.rows_fetched")
        ->Increment(res.value().size());
  }
  return res;
}

Status Database::SeekCursor(uint64_t session_id, uint64_t cursor_id,
                            uint64_t pos) {
  // Seek only moves the cursor's position over session-private state
  // (materialized rows or the frozen key list) — no shared storage access,
  // no data lock.
  PHX_ASSIGN_OR_RETURN(Cursor * c, GetCursor(session_id, cursor_id));
  return c->Seek(pos);
}

Status Database::CloseCursor(uint64_t session_id, uint64_t cursor_id) {
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  auto it = s->cursors.find(cursor_id);
  if (it == s->cursors.end()) {
    return Status::NotFound("no such cursor: " + std::to_string(cursor_id));
  }
  if (it->second->pinned_) UnpinSnapshot(it->second->pin_);
  s->cursors.erase(it);
  return Status::Ok();
}

Result<Cursor*> Database::GetCursor(uint64_t session_id, uint64_t cursor_id) {
  Session* s = FindSession(session_id);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  auto it = s->cursors.find(cursor_id);
  if (it == s->cursors.end()) {
    return Status::NotFound("no such cursor: " + std::to_string(cursor_id));
  }
  return it->second.get();
}

Result<storage::RowId> Database::TxInsert(Txn* txn, storage::Table* table,
                                          Row row) {
  if (txn == nullptr) return Status::Internal("TxInsert outside transaction");
  PHX_ASSIGN_OR_RETURN(storage::RowId rid, table->Insert(std::move(row)));
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kInsert;
  undo.table = table->name();
  undo.rid = rid;
  txn->undo.push_back(std::move(undo));
  if (opts_.mvcc && !table->temporary()) {
    table->MvccNoteInsert(rid, txn->id);
  }
  if (!table->temporary()) {
    txn->redo.push_back(
        storage::WalOp::Insert(table->name(), rid, *table->Find(rid)));
  }
  return rid;
}

Status Database::TxDelete(Txn* txn, storage::Table* table,
                          storage::RowId rid) {
  if (txn == nullptr) return Status::Internal("TxDelete outside transaction");
  const Row* old = table->Find(rid);
  if (old == nullptr) {
    return Status::NotFound("no row " + std::to_string(rid));
  }
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kDelete;
  undo.table = table->name();
  undo.rid = rid;
  undo.row = *old;
  PHX_RETURN_IF_ERROR(table->Delete(rid));
  if (opts_.mvcc && !table->temporary()) {
    // Retain the pre-image as a version pending under this transaction.
    table->MvccNoteDelete(rid, undo.row, txn->id);
  }
  txn->undo.push_back(std::move(undo));
  if (!table->temporary()) {
    txn->redo.push_back(storage::WalOp::Delete(table->name(), rid));
  }
  return Status::Ok();
}

Status Database::TxUpdate(Txn* txn, storage::Table* table, storage::RowId rid,
                          Row new_row) {
  if (txn == nullptr) return Status::Internal("TxUpdate outside transaction");
  const Row* old = table->Find(rid);
  if (old == nullptr) {
    return Status::NotFound("no row " + std::to_string(rid));
  }
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kUpdate;
  undo.table = table->name();
  undo.rid = rid;
  undo.row = *old;
  PHX_RETURN_IF_ERROR(table->Update(rid, std::move(new_row)));
  if (opts_.mvcc && !table->temporary()) {
    table->MvccNoteUpdate(rid, undo.row, txn->id);
  }
  txn->undo.push_back(std::move(undo));
  if (!table->temporary()) {
    txn->redo.push_back(
        storage::WalOp::Update(table->name(), rid, *table->Find(rid)));
  }
  return Status::Ok();
}

Result<storage::Table*> Database::TxCreateTable(Txn* txn,
                                                const std::string& name,
                                                Schema schema,
                                                std::vector<int> pk_columns,
                                                bool temporary,
                                                uint64_t owner_session) {
  if (txn == nullptr) {
    return Status::Internal("TxCreateTable outside transaction");
  }
  PHX_ASSIGN_OR_RETURN(storage::Table * t,
                       store_.CreateTable(name, schema, pk_columns, temporary));
  t->set_owner_session(owner_session);
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kCreateTable;
  undo.table = t->name();
  txn->undo.push_back(std::move(undo));
  if (!temporary) {
    txn->redo.push_back(storage::WalOp::CreateTable(
        t->name(), std::move(schema), std::move(pk_columns)));
  }
  return t;
}

Status Database::TxDropTable(Txn* txn, const std::string& name) {
  if (txn == nullptr) {
    return Status::Internal("TxDropTable outside transaction");
  }
  storage::Table* t = store_.Get(name);
  if (t == nullptr) return Status::NotFound("no such table: " + name);
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kDropTable;
  undo.table = t->name();
  Encoder enc;
  t->EncodeSnapshot(&enc);
  undo.snapshot = enc.Take();
  undo.snapshot_temporary = t->temporary();
  undo.snapshot_owner = t->owner_session();
  bool temporary = t->temporary();
  std::string canonical = t->name();
  PHX_RETURN_IF_ERROR(store_.DropTable(name));
  txn->undo.push_back(std::move(undo));
  if (!temporary) {
    txn->redo.push_back(storage::WalOp::DropTable(canonical));
  }
  return Status::Ok();
}

Status Database::TxCreateIndex(Txn* txn, storage::Table* table,
                               const std::string& index_name,
                               std::vector<int> columns) {
  if (txn == nullptr) {
    return Status::Internal("TxCreateIndex outside transaction");
  }
  PHX_RETURN_IF_ERROR(table->CreateIndex(index_name, columns));
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kCreateIndex;
  undo.table = table->name();
  undo.index_name = IdentUpper(index_name);
  txn->undo.push_back(std::move(undo));
  if (!table->temporary()) {
    txn->redo.push_back(storage::WalOp::CreateIndex(
        table->name(), IdentUpper(index_name), std::move(columns)));
  }
  return Status::Ok();
}

Status Database::TxDropIndex(Txn* txn, storage::Table* table,
                             const std::string& index_name) {
  if (txn == nullptr) {
    return Status::Internal("TxDropIndex outside transaction");
  }
  const storage::SecondaryIndex* idx = table->FindIndex(index_name);
  if (idx == nullptr) return Status::NotFound("no such index: " + index_name);
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kDropIndex;
  undo.table = table->name();
  undo.index_name = idx->name;
  undo.index_columns = idx->columns;
  undo.index_position = table->IndexPosition(idx->name);
  std::string canonical = idx->name;
  PHX_RETURN_IF_ERROR(table->DropIndex(index_name));
  txn->undo.push_back(std::move(undo));
  if (!table->temporary()) {
    txn->redo.push_back(
        storage::WalOp::DropIndex(table->name(), std::move(canonical)));
  }
  return Status::Ok();
}

Result<std::unique_ptr<sql::CreateProcStmt>> Database::FindProcedure(
    const std::string& name, bool* is_temp) {
  const sql::CreateProcStmt* tmp = temp_procs_.Find(name);
  if (tmp != nullptr) {
    if (is_temp != nullptr) *is_temp = true;
    return tmp->Clone();
  }
  storage::Table* sys = store_.Get(kSysProcTable);
  if (sys != nullptr) {
    auto rid = sys->FindByPk(Row{Value::String(IdentUpper(name))});
    if (rid.ok()) {
      const Row* row = sys->Find(rid.value());
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                           sql::Parser::ParseStatement((*row)[1].AsString()));
      if (stmt->kind != StmtKind::kCreateProc) {
        return Status::Internal("corrupt procedure body for " + name);
      }
      if (is_temp != nullptr) *is_temp = false;
      return std::move(stmt->create_proc);
    }
  }
  return Status::NotFound("no such procedure: " + name);
}

}  // namespace phoenix::eng
