#include "net/db_server.h"

#include "obs/metrics.h"

namespace phoenix::net {

DbServer::DbServer(storage::SimDisk* disk, ServerOptions opts)
    : disk_(disk), opts_(std::move(opts)) {
  epoch_.store(opts_.initial_epoch, std::memory_order_relaxed);
}

DbServer::~DbServer() {
  // Graceful stop, NOT a crash: drain the dispatcher so no worker outlives
  // the Database, but leave the disk exactly as the last operation left it
  // (a destructor must not alter durability semantics).
  std::unique_ptr<WorkerPool> pool;
  {
    std::unique_lock<std::shared_mutex> lk(lifecycle_mu_);
    accepting_ = false;
    pool = std::move(pool_);
  }
  if (pool != nullptr) pool->Shutdown();
}

Status DbServer::Start() {
  std::unique_lock<std::shared_mutex> lk(lifecycle_mu_);
  if (db_ != nullptr) return Status::Internal("server already started");
  eng::DatabaseOptions db_opts = opts_.db;
  if (next_session_id_ < opts_.first_session_id) {
    next_session_id_ = opts_.first_session_id;
  }
  db_opts.first_session_id = next_session_id_;
  auto db = std::make_unique<eng::Database>(disk_, db_opts);
  PHX_RETURN_IF_ERROR(db->Open());
  db_ = std::move(db);
  WorkerPool::Options pool_opts;
  pool_opts.threads = opts_.worker_threads;
  pool_opts.queue_capacity = opts_.queue_capacity;
  pool_ = std::make_unique<WorkerPool>(pool_opts);
  accepting_ = true;
  epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

bool DbServer::CrashImpl(const std::function<void()>& crash_disk,
                         std::optional<eng::CheckpointCrashPoint> mid_checkpoint) {
  // Phase 1: close intake. New requests now get "server is down".
  std::unique_ptr<WorkerPool> pool;
  {
    std::unique_lock<std::shared_mutex> lk(lifecycle_mu_);
    accepting_ = false;
    pool = std::move(pool_);
  }
  // Phase 2: graceful drain, outside the lifecycle lock — in-flight
  // requests still see a live Database and complete normally (they beat
  // the crash; whether their effects survive depends on what was synced).
  if (pool != nullptr) pool->Shutdown();
  // Phase 3: the process dies. All volatile server state goes with it.
  bool ckpt_written = false;
  {
    std::unique_lock<std::shared_mutex> lk(lifecycle_mu_);
    if (db_ != nullptr) {
      if (mid_checkpoint.has_value()) {
        // Death inside a checkpoint: the protocol ran up to the chosen
        // crash point (e.g. image durable, WAL truncation never happened)
        // and the process dies now.
        bool wrote = false;
        ckpt_written =
            db_->CheckpointForCrashTest(*mid_checkpoint, &wrote).ok() && wrote;
      }
      next_session_id_ = db_->next_session_id();
    }
    db_.reset();
  }
  crash_disk();
  // Stale session ids can never name a post-restart session (ids are never
  // reused), so their serialization gates are garbage.
  {
    std::lock_guard<std::mutex> lk(gates_mu_);
    gates_.clear();
  }
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
    std::shared_lock<std::shared_mutex> lk(lifecycle_mu_);
    if (db_ != nullptr) return Status::Internal("server is already running");
  }
  return Start();
}

bool DbServer::alive() const {
  std::shared_lock<std::shared_mutex> lk(lifecycle_mu_);
  return db_ != nullptr;
}

ServerStats DbServer::stats() const {
  ServerStats s;
  s.requests_handled = requests_handled_.load(std::memory_order_relaxed);
  s.requests_rejected_down =
      requests_rejected_down_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<DbServer::SessionGate> DbServer::GateFor(uint64_t session_id) {
  std::lock_guard<std::mutex> lk(gates_mu_);
  auto& gate = gates_[session_id];
  if (gate == nullptr) gate = std::make_shared<SessionGate>();
  return gate;
}

Response DbServer::Handle(const Request& request) {
  return HandleAsync(request).get();
}

std::future<Response> DbServer::HandleAsync(const Request& request) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Default()
      ->GetCounter("server.requests_handled")
      ->Increment();

  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();

  std::shared_lock<std::shared_mutex> lk(lifecycle_mu_);
  if (!accepting_ || db_ == nullptr || pool_ == nullptr) {
    requests_rejected_down_.fetch_add(1, std::memory_order_relaxed);
    Response down = Response::MakeError(Status::CommError("server is down"));
    down.request_id = request.request_id;
    promise->set_value(std::move(down));
    return future;
  }

  // Same-session ordering: tickets are issued under the session's submit
  // lock, and the submission itself happens before that lock is released,
  // so ticket order == queue order (the no-deadlock invariant).
  std::shared_ptr<SessionGate> gate;
  uint64_t ticket = 0;
  std::unique_lock<std::mutex> submit_lk;
  if (request.session_id != 0) {
    gate = GateFor(request.session_id);
    submit_lk = std::unique_lock<std::mutex>(gate->submit_mu);
    std::lock_guard<std::mutex> g(gate->mu);
    ticket = gate->next_ticket++;
  }

  bool accepted = pool_->Submit([this, request, promise, gate, ticket] {
    if (gate != nullptr) {
      std::unique_lock<std::mutex> g(gate->mu);
      gate->cv.wait(g, [&] { return gate->now_serving == ticket; });
    }
    Response response = Dispatch(request);
    response.request_id = request.request_id;
    if (gate != nullptr) {
      {
        std::lock_guard<std::mutex> g(gate->mu);
        ++gate->now_serving;
      }
      gate->cv.notify_all();
    }
    promise->set_value(std::move(response));
  });

  if (!accepted) {
    // The pool began stopping between our lifecycle check and the submit
    // (cannot happen today — Crash() takes the lifecycle lock exclusively
    // first — but kept correct): consume our ticket in order so later
    // tickets never stall, then report the crash.
    if (gate != nullptr) {
      {
        std::unique_lock<std::mutex> g(gate->mu);
        gate->cv.wait(g, [&] { return gate->now_serving == ticket; });
        ++gate->now_serving;
      }
      gate->cv.notify_all();
    }
    requests_rejected_down_.fetch_add(1, std::memory_order_relaxed);
    Response down = Response::MakeError(Status::CommError("server is down"));
    down.request_id = request.request_id;
    promise->set_value(std::move(down));
  }
  return future;
}

BatchResponse DbServer::HandleBatch(const BatchRequest& batch) {
  std::vector<std::future<Response>> futures;
  futures.reserve(batch.requests.size());
  for (const Request& request : batch.requests) {
    futures.push_back(HandleAsync(request));
  }
  BatchResponse response;
  response.responses.reserve(futures.size());
  for (auto& f : futures) response.responses.push_back(f.get());
  obs::MetricsRegistry::Default()
      ->GetCounter("server.batches_handled")
      ->Increment();
  return response;
}

Response DbServer::Dispatch(const Request& req) {
  // Runs on a pool worker. db_ is stable for the whole task: Crash() drains
  // the pool (joining this thread) before destroying the Database.
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
