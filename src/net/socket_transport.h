#ifndef PHOENIX_NET_SOCKET_TRANSPORT_H_
#define PHOENIX_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/channel.h"
#include "net/framing.h"
#include "net/socket.h"

namespace phoenix::net {

/// The real-wire Channel: one TCP or Unix-domain stream to a DbServer that
/// (usually) lives in another process. Same protocol bytes as the
/// in-process transport, wrapped in PHXF frames (framing.h). A round trip
/// sends its request and reads its own reply on the calling thread; a
/// per-channel mutex keeps one request in flight, so threads sharing a
/// channel take turns and the channel itself starts no thread.
///
/// Failure mapping (the part the Phoenix failure detector depends on):
///  - EOF / ECONNRESET / send failure / framing error → kCommError, and the
///    channel stays dead (reconnect = dial a new channel via
///    Network::Connect).
///  - rpc_timeout_ms elapses with the connection still up → kTimeout ("reply
///    lost"). The reply may still arrive later; the next round trip skips
///    any frame whose correlation id is not its own.
///
/// Fault injection works transport-side like the in-process channel: a
/// dropped request fails before send; a lost reply is sent and executed,
/// but the reply frame is discarded on arrival and the caller sees
/// kTimeout.
class SocketChannel final : public Channel {
 public:
  SocketChannel(Socket sock, NetworkConfig config)
      : sock_(std::move(sock)), config_(config) {}

  Result<Response> RoundTrip(const Request& request) override;
  void Disconnect() override;

 private:
  /// Reads frames until the reply to `corr_id` arrives, the deadline passes
  /// (kTimeout) or the stream dies (kCommError). Called under mu_.
  Result<Frame> ReadReply(uint64_t corr_id);
  /// Connection death: poisons the channel for every later round trip.
  Status Fail(const std::string& why);

  Socket sock_;
  NetworkConfig config_;

  std::mutex mu_;  ///< one round trip at a time; guards everything below
  FrameAssembler assembler_;
  std::string chunk_;
  bool dead_ = false;
  std::string dead_reason_;
};

/// Dials `endpoint` and wraps the stream in a SocketChannel. kCommError on
/// refused/timeout — Network::Connect surfaces it and the Phoenix recovery
/// loop retries with backoff.
Result<std::unique_ptr<Channel>> ConnectSocketChannel(
    const std::string& endpoint, const NetworkConfig& config);

/// Accept side: owns a listening socket and one thread per connection. The
/// thread reads a request frame, runs it through DbServer::Handle and
/// writes the reply before reading the next. Runs inside phoenixd, and
/// inside tests that want a real wire without a child process.
class SocketServer {
 public:
  explicit SocketServer(DbServer* server) : server_(server) {}
  ~SocketServer();

  /// Binds, listens, and starts accepting. endpoint() then carries the
  /// resolved address (kernel-assigned port for "tcp:...:0").
  Status Start(const std::string& endpoint);
  const std::string& endpoint() const { return listener_.endpoint(); }

  /// Stops accepting, hangs up every connection, joins all threads.
  void Shutdown();

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};  ///< thread returned; safe to join
  };

  void AcceptLoop();
  void ServeConn(Conn* conn);

  DbServer* server_;
  Listener listener_;
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
  bool shutting_down_ = false;
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_SOCKET_TRANSPORT_H_
