#include "net/socket_transport.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace phoenix::net {

namespace {

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

void SocketChannel::Disconnect() {
  Channel::Disconnect();
  // Unblocks a round trip waiting in another thread; it reads EOF.
  sock_.ShutdownBoth();
}

Status SocketChannel::Fail(const std::string& why) {
  dead_ = true;
  dead_reason_ = why;
  obs::Tracer::Default()->Emit("net.socket.dead", {{"reason", why}});
  return Status::CommError(why);
}

Result<Frame> SocketChannel::ReadReply(uint64_t corr_id) {
  auto* reg = obs::MetricsRegistry::Default();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.rpc_timeout_ms);
  Frame frame;
  while (true) {
    FrameAssembler::Next next = assembler_.Poll(&frame);
    if (next == FrameAssembler::Next::kError) {
      return Fail("framing error: " + assembler_.error());
    }
    if (next == FrameAssembler::Next::kFrame) {
      if (frame.type == FrameType::kResponse && frame.corr_id == corr_id) {
        return frame;
      }
      // The late reply to a round trip that already timed out (or a request
      // frame, a protocol violation): not ours, skip it.
      reg->GetCounter("net.late_replies_skipped")->Increment();
      continue;
    }
    if (config_.rpc_timeout_ms > 0) {
      auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0 ||
          !sock_.WaitReadable(static_cast<uint64_t>(left.count()))) {
        if (std::chrono::steady_clock::now() < deadline) continue;  // EINTR
        reg->GetCounter("net.rpc_timeouts")->Increment();
        return Status::Timeout("no response from server (rpc timeout)");
      }
    }
    auto n = sock_.RecvSome(&chunk_);
    if (!n.ok()) return Fail(n.status().message());
    if (n.value() == 0) return Fail("connection closed by peer (EOF)");
    bytes_received_.fetch_add(n.value(), std::memory_order_relaxed);
    reg->GetCounter("net.bytes_received")->Increment(n.value());
    assembler_.Feed(chunk_);
  }
}

Result<Response> SocketChannel::RoundTrip(const Request& request) {
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
    return Status::CommError("connection closed by client");
  }
  if (ClaimFault(&drop_requests_)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    reg->GetCounter("net.faults.dropped_requests")->Increment();
    return Status::CommError("connection reset (request lost)");
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (dead_) return Status::CommError(dead_reason_);
  // The lose-reply token is claimed per request, like the in-process
  // transport, but consumed when the reply frame arrives: over a real wire
  // the request must still reach the server and execute before its reply
  // can be "lost".
  bool lose_reply = ClaimFault(&lose_replies_);
  if (lose_reply) faults_injected_.fetch_add(1, std::memory_order_relaxed);

  std::string frame =
      EncodeFrame(FrameType::kRequest, req.request_id, req.Encode());
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  reg->GetCounter("net.bytes_sent")->Increment(frame.size());
  Status sent = sock_.SendAll(frame);
  if (!sent.ok()) return Fail(sent.message());

  PHX_ASSIGN_OR_RETURN(Frame reply, ReadReply(req.request_id));
  Result<Response> decoded = Response::Decode(reply.payload);
  if (!lose_reply) return decoded;
  if (decoded.ok() && IsUnexecutedRejection(decoded.value())) {
    // The server was down and rejected the request unexecuted — that truth
    // outranks the injected "reply lost" (which presumes execution). The
    // token stays consumed; the wire really did carry only this rejection.
    obs::Tracer::Default()->Emit("net.fault.lost_reply_preempted_by_crash", {});
    return Status::CommError(decoded.value().error_message);
  }
  // Injected lost reply: the server executed and answered, but "the
  // network" eats the frame. The caller sees the classic kTimeout.
  reg->GetCounter("net.faults.lost_replies")->Increment();
  return Status::Timeout("no response from server");
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
    // Reap connections whose peer hung up, releasing their fds and threads.
    conns_.remove_if([](const std::unique_ptr<Conn>& c) {
      if (!c->done.load()) return false;
      c->thread.join();
      return true;
    });
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->sock = accepted.take();
    conn->thread = std::thread([this, conn] {
      ServeConn(conn);
      conn->done.store(true);
    });
  }
}

void SocketServer::ServeConn(Conn* conn) {
  FrameAssembler assembler;
  std::string chunk;
  Frame frame;
  while (true) {
    auto n = conn->sock.RecvSome(&chunk);
    if (!n.ok() || n.value() == 0) return;
    assembler.Feed(chunk);
    while (true) {
      FrameAssembler::Next next = assembler.Poll(&frame);
      if (next == FrameAssembler::Next::kNeedMore) break;
      if (next == FrameAssembler::Next::kError) {
        // Oversized/poisoned stream: hang up. The client's round trip sees
        // EOF and fails kCommError.
        obs::Tracer::Default()->Emit("server.socket.framing_error",
                                     {{"error", assembler.error()}});
        conn->sock.ShutdownBoth();
        return;
      }
      // Response frames from a client: protocol violation; ignore.
      if (frame.type != FrameType::kRequest) continue;
      auto decoded = Request::Decode(frame.payload);
      Response reply;
      if (decoded.ok()) {
        reply = server_->Handle(decoded.value());
      } else {
        reply = Response::MakeError(decoded.status());
        reply.request_id = frame.corr_id;
      }
      if (!conn->sock
               .SendAll(EncodeFrame(FrameType::kResponse, frame.corr_id,
                                    reply.Encode()))
               .ok()) {
        conn->sock.ShutdownBoth();  // peer is gone
        return;
      }
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
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace phoenix::net
