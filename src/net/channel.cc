#include "net/channel.h"

#include <chrono>
#include <thread>

#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phoenix::net {

void InprocChannel::SimulateWire(size_t bytes) const {
  uint64_t ns = config_.round_trip_latency_us * 1000ull / 2 +
                static_cast<uint64_t>(bytes) * config_.ns_per_byte;
  if (ns == 0) return;
  if (config_.sleep_wire) {
    // Deschedule: concurrent channels overlap their wire time, the model
    // for "many clients on a LAN" (see NetworkConfig::sleep_wire).
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
    // Busy-wait: keeps simulated latency visible to wall-clock timers
    // without descheduling noise.
  }
}

bool Channel::ClaimFault(std::atomic<int>* counter) {
  int current = counter->load(std::memory_order_relaxed);
  while (current > 0) {
    if (counter->compare_exchange_weak(current, current - 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

ChannelStats Channel::stats() const {
  ChannelStats s;
  s.round_trips = round_trips_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  return s;
}

namespace {

void TraceOutcome(uint64_t request_id, Request::Kind kind, const char* what) {
  obs::Tracer::Default()->Emit(
      what, {{"request_id", std::to_string(request_id)},
             {"kind", RequestKindName(kind)}});
}

/// The server's intake rejected this request without executing it ("server
/// is down"): the connection-dead outcome. Distinguishing this from a lost
/// reply is load-bearing — see the lose_reply handling below.
bool IsUnexecutedRejection(const Response& response) {
  return response.kind == Response::Kind::kError &&
         response.error_code == StatusCode::kCommError;
}

}  // namespace

Result<Response> InprocChannel::RoundTrip(const Request& request) {
  auto* reg = obs::MetricsRegistry::Default();
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  reg->GetCounter("net.round_trips")->Increment();
  reg->GetCounter(std::string("net.requests.") + RequestKindName(request.kind))
      ->Increment();

  Request req = request;
  if (req.request_id == 0) {
    req.request_id = next_request_id_.fetch_add(1) + 1;
  }
  TraceOutcome(req.request_id, req.kind, "net.request");
  uint64_t start_us = obs::MonotonicNanos() / 1000;
  auto record_latency = [reg, start_us] {
    reg->GetHistogram("net.request_latency_us")
        ->Record(obs::MonotonicNanos() / 1000 - start_us);
  };

  if (disconnected_.load()) {
    record_latency();
    TraceOutcome(req.request_id, req.kind, "net.client_closed");
    return Status::CommError("connection closed by client");
  }
  if (ClaimFault(&drop_requests_)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    reg->GetCounter("net.faults.dropped_requests")->Increment();
    record_latency();
    TraceOutcome(req.request_id, req.kind, "net.fault.request_dropped");
    return Status::CommError("connection reset (request lost)");
  }
  std::string wire_request = req.Encode();
  bytes_sent_.fetch_add(wire_request.size(), std::memory_order_relaxed);
  reg->GetCounter("net.bytes_sent")->Increment(wire_request.size());
  SimulateWire(wire_request.size());

  if (!server_->alive()) {
    // The TCP stack notices the peer is gone: error or hang → timeout.
    record_latency();
    TraceOutcome(req.request_id, req.kind, "net.server_down");
    return Status::CommError("connection reset by peer (server down)");
  }
  auto decoded = Request::Decode(wire_request);
  if (!decoded.ok()) return decoded.status();

  // The per-request fault decision: claimed here, at dispatch time, so two
  // callers sharing the channel can never both consume one token.
  bool lose_reply = ClaimFault(&lose_replies_);
  if (lose_reply) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    reg->GetCounter("net.faults.lost_replies")->Increment();
  }

  Response response = server_->Handle(decoded.value());
  if (IsUnexecutedRejection(response)) {
    // The server crashed between our liveness check and the dispatch: its
    // intake rejected the request WITHOUT executing it. This is the
    // connection-dead outcome and it takes precedence over a claimed
    // lose-reply token — reporting kTimeout here would tell the reconnect
    // path "the request may have executed, probe for it" about a request
    // that provably never ran, double-resolving the fault (once as a lost
    // reply, once as the crash). The token stays consumed; the fault it
    // models was preempted by the crash.
    record_latency();
    TraceOutcome(req.request_id, req.kind,
                 lose_reply ? "net.fault.lost_reply_preempted_by_crash"
                            : "net.server_down");
    return Status::CommError(response.error_message);
  }
  if (lose_reply) {
    // The server executed the request, but the reply never arrives.
    record_latency();
    TraceOutcome(req.request_id, req.kind, "net.fault.reply_lost");
    return Status::Timeout("no response from server");
  }
  std::string wire_response = response.Encode();
  bytes_received_.fetch_add(wire_response.size(), std::memory_order_relaxed);
  reg->GetCounter("net.bytes_received")->Increment(wire_response.size());
  SimulateWire(wire_response.size());
  record_latency();
  TraceOutcome(req.request_id, req.kind, "net.response");
  return Response::Decode(wire_response);
}

Result<std::unique_ptr<Channel>> Network::Connect(const std::string& name) {
  auto it = servers_.find(name);
  if (it != servers_.end()) {
    return std::unique_ptr<Channel>(
        std::make_unique<InprocChannel>(it->second, config_));
  }
  auto remote = endpoints_.find(name);
  if (remote != endpoints_.end()) {
    return ConnectSocketChannel(remote->second, config_);
  }
  // Raw endpoint strings dial directly without registration, so a server
  // group (PHX_ENDPOINTS) can mix registered DSNs and bare endpoints.
  if (name.rfind("unix:", 0) == 0 || name.rfind("tcp:", 0) == 0) {
    return ConnectSocketChannel(name, config_);
  }
  return Status::NotFound("unknown data source: " + name);
}

}  // namespace phoenix::net
