#include "net/db_server.h"

#include "obs/metrics.h"

namespace phoenix::net {

DbServer::DbServer(storage::SimDisk* disk, ServerOptions opts)
    : disk_(disk), opts_(std::move(opts)) {
  if (opts_.worker_threads == 0) opts_.worker_threads = 1;
  epoch_.store(opts_.initial_epoch, std::memory_order_relaxed);
}

DbServer::~DbServer() {
  // Graceful stop, NOT a crash: let running requests finish so none
  // outlives the Database, but leave the disk exactly as the last operation
  // left it (a destructor must not alter durability semantics).
  std::unique_lock<std::mutex> lk(mu_);
  CloseIntake(lk);
}

Status DbServer::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (db_ != nullptr) return Status::Internal("server already started");
  eng::DatabaseOptions db_opts = opts_.db;
  if (next_session_id_ < opts_.first_session_id) {
    next_session_id_ = opts_.first_session_id;
  }
  db_opts.first_session_id = next_session_id_;
  auto db = std::make_unique<eng::Database>(disk_, db_opts);
  PHX_RETURN_IF_ERROR(db->Open());
  db_ = std::move(db);
  accepting_ = true;
  epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void DbServer::CloseIntake(std::unique_lock<std::mutex>& lk) {
  accepting_ = false;
  cv_.notify_all();
  cv_.wait(lk, [this] { return running_ == 0 && waiting_ == 0; });
}

bool DbServer::CrashImpl(const std::function<void()>& crash_disk,
                         std::optional<eng::CheckpointCrashPoint> mid_checkpoint) {
  // Phases 1 and 2: close intake — a request not yet admitted gets "server
  // is down" — and wait for the admitted ones. They still see a live
  // Database and complete normally (they beat the crash; whether their
  // effects survive depends on what was synced).
  std::unique_lock<std::mutex> lk(mu_);
  CloseIntake(lk);
  // Phase 3: the process dies. All volatile server state goes with it.
  // Still under mu_, so no Restart() can boot on the disk before its
  // unsynced bytes are gone.
  bool ckpt_written = false;
  if (db_ != nullptr) {
    if (mid_checkpoint.has_value()) {
      // Death inside a checkpoint: the protocol ran up to the chosen crash
      // point (e.g. image durable, WAL truncation never happened) and the
      // process dies now.
      bool wrote = false;
      ckpt_written =
          db_->CheckpointForCrashTest(*mid_checkpoint, &wrote).ok() && wrote;
    }
    next_session_id_ = db_->next_session_id();
  }
  db_.reset();
  crash_disk();
  return ckpt_written;
}

void DbServer::Crash() {
  CrashImpl([this] { disk_->Crash(); }, /*mid_checkpoint=*/std::nullopt);
}

void DbServer::CrashWithPartialFlush(double keep_fraction) {
  CrashImpl([this, keep_fraction] { disk_->CrashWithPartialFlush(keep_fraction); },
            /*mid_checkpoint=*/std::nullopt);
}

void DbServer::CrashTorn(const storage::SimDisk::TornCrashSpec& spec) {
  CrashImpl([this, spec] { disk_->CrashTorn(spec); },
            /*mid_checkpoint=*/std::nullopt);
}

bool DbServer::CrashMidCheckpoint(eng::CheckpointCrashPoint point) {
  return CrashImpl([this] { disk_->Crash(); }, point);
}

Status DbServer::Restart() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (db_ != nullptr) return Status::Internal("server is already running");
  }
  return Start();
}

bool DbServer::alive() const {
  std::lock_guard<std::mutex> lk(mu_);
  return db_ != nullptr;
}

ServerStats DbServer::stats() const {
  ServerStats s;
  s.requests_handled = requests_handled_.load(std::memory_order_relaxed);
  s.requests_rejected_down =
      requests_rejected_down_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.requests_executed = requests_executed_;
    s.admission_waits = admission_waits_;
  }
  std::lock_guard<std::mutex> lk(session_locks_mu_);
  s.session_locks = session_locks_.size();
  return s;
}

DbServer::SessionLock* DbServer::LockSession(uint64_t session_id) {
  SessionLock* lock;
  {
    std::lock_guard<std::mutex> lk(session_locks_mu_);
    lock = &session_locks_[session_id];
    ++lock->users;
  }
  lock->mu.lock();
  return lock;
}

void DbServer::UnlockSession(uint64_t session_id, SessionLock* lock) {
  lock->mu.unlock();
  std::lock_guard<std::mutex> lk(session_locks_mu_);
  if (--lock->users == 0) session_locks_.erase(session_id);
}

Response DbServer::Handle(const Request& request) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Default()
      ->GetCounter("server.requests_handled")
      ->Increment();
  // Session 0 (connect, ping, admin) names no session state to protect.
  if (request.session_id == 0) return Execute(request);
  // Taken before the execution slot, so a request waiting on a busy
  // session never holds a slot.
  SessionLock* lock = LockSession(request.session_id);
  Response response = Execute(request);
  UnlockSession(request.session_id, lock);
  return response;
}

Response DbServer::Execute(const Request& request) {
  auto* reg = obs::MetricsRegistry::Default();
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (accepting_ && running_ >= opts_.worker_threads) {
      ++admission_waits_;
      reg->GetCounter("server.pool.submit_waits")->Increment();
      obs::Gauge* depth = reg->GetGauge("server.pool.queue_depth");
      depth->Set(static_cast<int64_t>(++waiting_));
      cv_.wait(lk, [this] {
        return !accepting_ || running_ < opts_.worker_threads;
      });
      depth->Set(static_cast<int64_t>(--waiting_));
    }
    if (!accepting_) {
      if (running_ == 0 && waiting_ == 0) cv_.notify_all();  // CloseIntake
      lk.unlock();
      requests_rejected_down_.fetch_add(1, std::memory_order_relaxed);
      Response down = Response::MakeError(Status::CommError("server is down"));
      down.request_id = request.request_id;
      return down;
    }
    ++running_;
  }
  Response response = Dispatch(request);
  response.request_id = request.request_id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    --running_;
    ++requests_executed_;
    // While intake is open only slot waiters sleep on cv_; once it is
    // closed only CloseIntake does.
    if (accepting_) {
      if (waiting_ > 0) cv_.notify_one();
    } else if (running_ == 0) {
      cv_.notify_all();
    }
  }
  reg->GetCounter("server.pool.tasks")->Increment();
  return response;
}

Response DbServer::Dispatch(const Request& req) {
  // Runs on the calling thread, holding an execution slot. db_ is stable
  // for the whole request: Crash() waits for every admitted request before
  // destroying the Database.
  if (opts_.pre_dispatch_hook) opts_.pre_dispatch_hook(req);
  eng::Database* db = db_.get();
  switch (req.kind) {
    case Request::Kind::kConnect: {
      auto res = db->CreateSession(req.user);
      if (!res.ok()) return Response::MakeError(res.status());
      Response r;
      r.kind = Response::Kind::kConnected;
      r.session_id = res.value();
      return r;
    }
    case Request::Kind::kDisconnect: {
      Status s = db->CloseSession(req.session_id);
      if (!s.ok()) return Response::MakeError(s);
      return Response::MakeOk();
    }
    case Request::Kind::kSetOption: {
      Status s = db->SetSessionOption(req.session_id, req.name, req.value);
      if (!s.ok()) return Response::MakeError(s);
      return Response::MakeOk();
    }
    case Request::Kind::kExecScript: {
      // Commit-ack contract: the success Response is constructed only after
      // ExecuteScript returns, and ExecuteScript does not return a
      // committing statement's result until the commit's WAL batch sync
      // status is known (Database::ExecuteStatement redeems the ticket
      // before reporting). Building any part of the reply earlier — or
      // treating an enqueued-but-unforced commit as success — would ack a
      // commit a crash can still lose.
      auto res = db->ExecuteScript(req.session_id, req.sql);
      if (!res.ok()) return Response::MakeError(res.status());
      Response r;
      r.kind = Response::Kind::kResults;
      r.results = std::move(res.value());
      return r;
    }
    case Request::Kind::kOpenCursor: {
      if (req.cursor_type > static_cast<uint8_t>(eng::CursorType::kDynamic)) {
        return Response::MakeError(Status::InvalidArgument("bad cursor type"));
      }
      auto res = db->OpenCursor(req.session_id, req.sql,
                                static_cast<eng::CursorType>(req.cursor_type));
      if (!res.ok()) return Response::MakeError(res.status());
      Response r;
      r.kind = Response::Kind::kCursorOpened;
      r.cursor_id = res.value()->id();
      r.schema = res.value()->schema();
      r.cursor_size = res.value()->known_size();
      if (req.n > 0) {
        // The first block rides on the open: a result of one block needs
        // no kFetch at all.
        auto rows = db->FetchCursor(req.session_id, r.cursor_id,
                                    static_cast<size_t>(req.n), &r.done);
        if (!rows.ok()) {
          (void)db->CloseCursor(req.session_id, r.cursor_id);
          return Response::MakeError(rows.status());
        }
        r.rows = std::move(rows.value());
      }
      return r;
    }
    case Request::Kind::kFetch: {
      bool done = false;
      auto res = db->FetchCursor(req.session_id, req.cursor_id,
                                 static_cast<size_t>(req.n), &done);
      if (!res.ok()) return Response::MakeError(res.status());
      Response r;
      r.kind = Response::Kind::kRows;
      r.rows = std::move(res.value());
      r.done = done;
      return r;
    }
    case Request::Kind::kSeek: {
      Status s = db->SeekCursor(req.session_id, req.cursor_id, req.n);
      if (!s.ok()) return Response::MakeError(s);
      return Response::MakeOk();
    }
    case Request::Kind::kCloseCursor: {
      Status s = db->CloseCursor(req.session_id, req.cursor_id);
      if (!s.ok()) return Response::MakeError(s);
      return Response::MakeOk();
    }
    case Request::Kind::kPing: {
      Response r;
      r.kind = Response::Kind::kPong;
      r.server_epoch = epoch_.load(std::memory_order_relaxed);
      return r;
    }
    case Request::Kind::kAdmin: {
      if (!opts_.admin_hook) {
        return Response::MakeError(
            Status::InvalidArgument("admin requests not supported"));
      }
      Status s = opts_.admin_hook(req.name, req.value);
      if (!s.ok()) return Response::MakeError(s);
      return Response::MakeOk();
    }
  }
  return Response::MakeError(Status::Internal("bad request kind"));
}

}  // namespace phoenix::net
