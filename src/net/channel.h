#ifndef PHOENIX_NET_CHANNEL_H_
#define PHOENIX_NET_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/db_server.h"
#include "net/protocol.h"

namespace phoenix::net {

/// Network behavior knobs for a connection.
struct NetworkConfig {
  /// Simulated one-way+return latency added to every round trip, in
  /// microseconds. 0 = off. (In-process transport only — a socket transport
  /// pays real wire latency instead.)
  uint64_t round_trip_latency_us = 0;
  /// Additional per-byte cost, in nanoseconds per byte (both directions).
  uint64_t ns_per_byte = 0;
  /// How latency is simulated. false (default): busy-wait, so wall-clock
  /// timers see it without descheduling noise — right for single-threaded
  /// paper-reproduction benches. true: sleep, so concurrent clients overlap
  /// their wire time instead of fighting for cores — right for multi-client
  /// scaling benches (and the only honest model on few-core machines).
  bool sleep_wire = false;
  /// Socket transport: how long a round trip may wait for its reply before
  /// the caller sees kTimeout ("reply lost" — the connection itself is still
  /// up; EOF/reset surface as kCommError instead, see SocketChannel).
  uint64_t rpc_timeout_ms = 30000;
  /// Socket transport: dial deadline for Network::Connect on a remote
  /// endpoint. Connection refused fails fast regardless.
  uint64_t connect_timeout_ms = 5000;
};

/// Point-in-time traffic counters for one Channel. The same quantities are
/// also aggregated across all channels into the process-wide
/// MetricsRegistry under "net.*" (see DESIGN.md §Observability).
struct ChannelStats {
  uint64_t round_trips = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t faults_injected = 0;  ///< drops + lost replies actually consumed
};

/// One client connection to a DbServer — the transport-neutral interface the
/// driver (and every test) programs against. Two implementations exist:
///
///  - InprocChannel: the historical in-process duplex pipe. Every message
///    still crosses as *serialized bytes* (counts and sizes are faithful),
///    but "the wire" is a function call and "crash" is a method on DbServer.
///  - SocketChannel (socket_transport.h): a real TCP or Unix-domain stream
///    to a server that may live in another process; framing, partial reads,
///    EOF and SIGKILL are all real.
///
/// Thread safety: a Channel may be shared by concurrent callers. Each round
/// trip is synchronous — the caller sends one request and waits for its
/// reply, as an ODBC call does; a SocketChannel serializes sharers so one
/// request is in flight per connection. Traffic counters are atomic, and
/// every fault-injection token is *claimed per request* — a single
/// InjectLoseReplies(1) loses exactly one reply however many threads share
/// the channel.
///
/// Failure semantics (identical across transports — the Phoenix failure
/// detector keys off these codes, see PhoenixDriverManager::IsCrashSignal):
///  - connection dead (server crashed, EOF, refused, reset) → kCommError.
///    The request DID NOT execute, or the connection died before its fate
///    was observable; either way no reply will ever arrive.
///  - reply lost (request may have executed, reply vanished / deadline
///    passed with the connection still up) → kTimeout. The classic
///    lost-reply case Phoenix must disambiguate via its status table.
///  - fault injection can force either outcome for the next n requests.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends a request and waits for the reply.
  virtual Result<Response> RoundTrip(const Request& request) = 0;

  /// The next `n` round trips fail with kCommError before reaching the
  /// server (request lost).
  void InjectDropRequests(int n) { drop_requests_.store(n); }

  /// The next `n` round trips reach the server and execute, but the reply
  /// is lost; the caller sees kTimeout.
  void InjectLoseReplies(int n) { lose_replies_.store(n); }

  /// Client-side hangup. Subsequent round trips fail with kCommError.
  virtual void Disconnect() { disconnected_.store(true); }
  bool disconnected() const { return disconnected_.load(); }

  /// In-process transport only: the server behind this channel (tests use
  /// it to crash/restart the peer). nullptr over a socket — the peer is a
  /// different process; kill it via ProcessServerHandle instead.
  virtual DbServer* server() { return nullptr; }

  /// Snapshot of this channel's traffic counters.
  ChannelStats stats() const;

 protected:
  /// Atomically consumes one token from `counter` if any remain — the
  /// per-request fault decision.
  static bool ClaimFault(std::atomic<int>* counter);

  std::atomic<bool> disconnected_{false};
  std::atomic<int> drop_requests_{0};
  std::atomic<int> lose_replies_{0};
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> round_trips_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

/// The in-process transport: requests are serialized, "sent" by function
/// call into the co-resident DbServer's dispatcher, and the reply bytes
/// decoded on the way back. Latency is simulated per NetworkConfig.
class InprocChannel final : public Channel {
 public:
  InprocChannel(DbServer* server, NetworkConfig config)
      : server_(server), config_(config) {}

  Result<Response> RoundTrip(const Request& request) override;
  DbServer* server() override { return server_; }

 private:
  void SimulateWire(size_t bytes) const;

  DbServer* server_;
  NetworkConfig config_;
};

/// Name→server directory, the moral equivalent of DNS + the ODBC DSN list.
/// Drivers resolve a data-source name here and open Channels. A name maps
/// either to an in-process DbServer (RegisterServer) or to a remote socket
/// endpoint string (RegisterRemote, "tcp:host:port" or "unix:/path") —
/// callers cannot tell which transport they got, which is the point. A
/// bare "tcp:..."/"unix:..." name that is not registered dials the
/// endpoint directly, so failover server groups need no registration step.
class Network {
 public:
  void RegisterServer(const std::string& name, DbServer* server) {
    servers_[name] = server;
  }

  /// Maps `name` to a socket endpoint. Connect() dials it fresh every time
  /// (a reconnect after server death must get a new TCP connection, not a
  /// cached dead one). Re-registering overwrites — chaos uses that when a
  /// reborn server comes up on the same address.
  void RegisterRemote(const std::string& name, const std::string& endpoint) {
    endpoints_[name] = endpoint;
  }

  Result<std::unique_ptr<Channel>> Connect(const std::string& name);

  /// In-process registrations only; a remote endpoint's server lives in
  /// another process and is reported NotFound here.
  Result<DbServer*> Lookup(const std::string& name) {
    auto it = servers_.find(name);
    if (it == servers_.end()) {
      return Status::NotFound("unknown data source: " + name);
    }
    return it->second;
  }

  NetworkConfig* config() { return &config_; }

 private:
  std::map<std::string, DbServer*> servers_;
  std::map<std::string, std::string> endpoints_;
  NetworkConfig config_;
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_CHANNEL_H_
