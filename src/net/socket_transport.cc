#include "net/socket_transport.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace phoenix::net {

namespace {

std::future<Result<Response>> ReadyResult(Result<Response> r) {
  std::promise<Result<Response>> p;
  p.set_value(std::move(r));
  return p.get_future();
}

/// An intake rejection from a crashed-but-listening server: the request was
/// never executed (same discriminator as the in-process transport — see
/// channel.cc). Such a "reply" must preempt a claimed lose-reply token:
/// reporting kTimeout would claim "executed, reply lost" for a request that
/// never ran, and the Phoenix status-table probe would then resolve an
/// in-flight commit wrongly.
bool IsUnexecutedRejection(const Response& r) {
  return r.kind == Response::Kind::kError &&
         r.error_code == StatusCode::kCommError;
}

}  // namespace

SocketChannel::SocketChannel(Socket sock, NetworkConfig config)
    : sock_(std::move(sock)), config_(config) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

SocketChannel::~SocketChannel() {
  Disconnect();
  if (reader_.joinable()) reader_.join();
}

void SocketChannel::Disconnect() {
  Channel::Disconnect();
  // Unblocks the reader's recv(); it observes EOF and fails the pendings.
  sock_.ShutdownBoth();
}

Status SocketChannel::SendFrame(FrameType type, uint64_t corr_id,
                                const std::string& payload) {
  std::string frame = EncodeFrame(type, corr_id, payload);
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  obs::MetricsRegistry::Default()->GetCounter("net.bytes_sent")
      ->Increment(frame.size());
  std::lock_guard<std::mutex> lk(write_mu_);
  return sock_.SendAll(frame);
}

void SocketChannel::FailAll(const std::string& why) {
  std::map<uint64_t, std::shared_ptr<PendingSingle>> singles;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) return;
    dead_ = true;
    dead_reason_ = why;
    singles.swap(pending_);
  }
  // Each entry was popped exactly once (under mu_), so each future resolves
  // exactly once — a lose-reply token claimed for one of these requests is
  // preempted by the connection death, same precedence as the in-process
  // transport: kCommError, not kTimeout, because no reply can ever arrive
  // and retrying the probe against a dead connection is pointless.
  for (auto& [id, p] : singles) {
    p->promise.set_value(Status::CommError(why));
  }
  obs::Tracer::Default()->Emit("net.socket.dead", {{"reason", why}});
}

void SocketChannel::ReaderLoop() {
  FrameAssembler assembler;
  std::string chunk;
  while (true) {
    auto n = sock_.RecvSome(&chunk);
    if (!n.ok()) {
      FailAll(n.status().message());
      return;
    }
    if (n.value() == 0) {
      FailAll("connection closed by peer (EOF)");
      return;
    }
    bytes_received_.fetch_add(n.value(), std::memory_order_relaxed);
    obs::MetricsRegistry::Default()->GetCounter("net.bytes_received")
        ->Increment(n.value());
    assembler.Feed(chunk);
    Frame frame;
    while (true) {
      FrameAssembler::Next next = assembler.Poll(&frame);
      if (next == FrameAssembler::Next::kNeedMore) break;
      if (next == FrameAssembler::Next::kError) {
        FailAll("framing error: " + assembler.error());
        return;
      }
      OnFrame(frame);
    }
  }
}

void SocketChannel::OnFrame(const Frame& frame) {
  // A kRequest frame from a server is a protocol violation; ignore it.
  if (frame.type != FrameType::kResponse) return;
  std::shared_ptr<PendingSingle> pending;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(frame.corr_id);
    if (it == pending_.end()) return;  // timed out; waiter owns the slot
    pending = it->second;
    pending_.erase(it);
  }
  Result<Response> decoded = Response::Decode(frame.payload);
  if (pending->discard) {
    if (decoded.ok() && IsUnexecutedRejection(decoded.value())) {
      // The server was down and rejected the request unexecuted — that
      // truth outranks the injected "reply lost" (which presumes
      // execution). The token stays consumed; the wire really did carry
      // only this rejection.
      obs::Tracer::Default()->Emit("net.fault.lost_reply_preempted_by_crash",
                                   {});
      pending->promise.set_value(
          Status::CommError(decoded.value().error_message));
      return;
    }
    // Injected lost reply: the server executed and answered, but "the
    // network" eats the frame. The waiter sees the classic kTimeout.
    obs::MetricsRegistry::Default()
        ->GetCounter("net.faults.lost_replies")
        ->Increment();
    pending->promise.set_value(Status::Timeout("no response from server"));
    return;
  }
  pending->promise.set_value(std::move(decoded));
}

std::future<Result<Response>> SocketChannel::RoundTripAsync(
    const Request& request) {
  auto* reg = obs::MetricsRegistry::Default();
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  reg->GetCounter("net.round_trips")->Increment();
  reg->GetCounter(std::string("net.requests.") + RequestKindName(request.kind))
      ->Increment();

  Request req = request;
  if (req.request_id == 0) {
    req.request_id = next_request_id_.fetch_add(1) + 1;
  }
  if (disconnected_.load()) {
    return ReadyResult(Status::CommError("connection closed by client"));
  }
  if (ClaimFault(&drop_requests_)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    reg->GetCounter("net.faults.dropped_requests")->Increment();
    return ReadyResult(Status::CommError("connection reset (request lost)"));
  }

  auto pending = std::make_shared<PendingSingle>();
  // The lose-reply token is claimed here, at send time — per request, like
  // the in-process transport — but *consumed* when the reply frame arrives,
  // because over a real wire the request must still reach the server and
  // execute before its reply can be "lost".
  pending->discard = ClaimFault(&lose_replies_);
  if (pending->discard) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  std::future<Result<Response>> response_future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) {
      return ReadyResult(Status::CommError(dead_reason_));
    }
    pending_[req.request_id] = pending;
  }
  Status sent = SendFrame(FrameType::kRequest, req.request_id, req.Encode());
  if (!sent.ok()) {
    // The stream is broken for everyone, not just this request.
    FailAll(sent.message());
  }

  uint64_t timeout_ms = config_.rpc_timeout_ms;
  uint64_t request_id = req.request_id;
  return std::async(
      std::launch::deferred,
      [this, request_id, timeout_ms,
       response_future = std::move(response_future)]() mutable
      -> Result<Response> {
        if (timeout_ms > 0 &&
            response_future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
                std::future_status::ready) {
          // Deadline passed with the connection still up. Pop the pending
          // entry: whoever removes it from the map owns the resolution, so
          // a reply (or EOF) racing in right now either got there first —
          // then the future below is ready and wins — or finds the slot
          // gone and does nothing. Exactly one outcome per request.
          bool popped = false;
          {
            std::lock_guard<std::mutex> lk(mu_);
            popped = pending_.erase(request_id) > 0;
          }
          if (popped) {
            obs::MetricsRegistry::Default()
                ->GetCounter("net.rpc_timeouts")
                ->Increment();
            return Status::Timeout("no response from server (rpc timeout)");
          }
        }
        return response_future.get();
      });
}

Result<std::unique_ptr<Channel>> ConnectSocketChannel(
    const std::string& endpoint, const NetworkConfig& config) {
  PHX_ASSIGN_OR_RETURN(Socket sock, Dial(endpoint, config.connect_timeout_ms));
  return std::unique_ptr<Channel>(
      std::make_unique<SocketChannel>(std::move(sock), config));
}

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::~SocketServer() { Shutdown(); }

Status SocketServer::Start(const std::string& endpoint) {
  PHX_RETURN_IF_ERROR(listener_.Listen(endpoint));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SocketServer::AcceptLoop() {
  while (true) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // Interrupt()ed: shutting down
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (shutting_down_) return;
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->sock = accepted.take();
    conn->reader = std::thread([this, conn] { ConnReader(conn); });
    conn->writer = std::thread([this, conn] { ConnWriter(conn); });
  }
}

void SocketServer::ConnReader(Conn* conn) {
  FrameAssembler assembler;
  std::string chunk;
  auto enqueue = [conn](OutboxItem item) {
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->outbox.push_back(std::move(item));
    }
    conn->cv.notify_one();
  };
  auto close_conn = [conn] {
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->closed = true;
    }
    conn->cv.notify_one();
  };
  while (true) {
    auto n = conn->sock.RecvSome(&chunk);
    if (!n.ok() || n.value() == 0) {
      close_conn();
      return;
    }
    assembler.Feed(chunk);
    Frame frame;
    while (true) {
      FrameAssembler::Next next = assembler.Poll(&frame);
      if (next == FrameAssembler::Next::kNeedMore) break;
      if (next == FrameAssembler::Next::kError) {
        // Oversized/poisoned stream: hang up. The client's pendings resolve
        // kCommError via its reader seeing EOF.
        obs::Tracer::Default()->Emit("server.socket.framing_error",
                                     {{"error", assembler.error()}});
        conn->sock.ShutdownBoth();
        close_conn();
        return;
      }
      // Response frames from a client: protocol violation; ignore.
      if (frame.type != FrameType::kRequest) continue;
      auto decoded = Request::Decode(frame.payload);
      OutboxItem item;
      item.corr_id = frame.corr_id;
      if (decoded.ok()) {
        // HandleAsync here, on the reader, in frame-arrival order: the
        // per-session ticket gate then serializes same-session requests
        // in exactly the order the client sent them.
        item.future = server_->HandleAsync(decoded.take());
      } else {
        std::promise<Response> error;
        Response reply = Response::MakeError(decoded.status());
        reply.request_id = frame.corr_id;
        error.set_value(std::move(reply));
        item.future = error.get_future();
      }
      enqueue(std::move(item));
    }
  }
}

void SocketServer::ConnWriter(Conn* conn) {
  while (true) {
    OutboxItem item;
    {
      std::unique_lock<std::mutex> lk(conn->mu);
      conn->cv.wait(lk, [&] { return conn->closed || !conn->outbox.empty(); });
      if (conn->outbox.empty()) return;  // closed and drained
      item = std::move(conn->outbox.front());
      conn->outbox.pop_front();
    }
    Status sent = conn->sock.SendAll(EncodeFrame(
        FrameType::kResponse, item.corr_id, item.future.get().Encode()));
    if (!sent.ok()) {
      // Peer is gone; drain remaining items without sending (their
      // HandleAsync futures still complete server-side).
      conn->sock.ShutdownBoth();
    }
  }
}

void SocketServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  listener_.Interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  std::list<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->sock.ShutdownBoth();
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

}  // namespace phoenix::net
