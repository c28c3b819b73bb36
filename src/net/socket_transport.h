#ifndef PHOENIX_NET_SOCKET_TRANSPORT_H_
#define PHOENIX_NET_SOCKET_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <map>
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
/// in-process transport, wrapped in PHXF frames (framing.h); replies are
/// demultiplexed to their waiters by correlation id, so any number of
/// threads can have round trips in flight on one connection.
///
/// Failure mapping (the part the Phoenix failure detector depends on):
///  - EOF / ECONNRESET / send failure → every in-flight round trip resolves
///    kCommError exactly once, and the channel stays dead (reconnect = dial
///    a new channel via Network::Connect).
///  - rpc_timeout_ms elapses with the connection still up → THAT round trip
///    resolves kTimeout ("reply lost"); others keep waiting.
/// The two must not double-fire on one request: whoever pops the pending
/// entry (reader thread on reply/EOF, or the waiter on timeout) owns the
/// resolution — see the pending-map comments in the .cc.
///
/// Fault injection works transport-side like the in-process channel: a
/// dropped request fails before send; a lost reply is sent and executed,
/// but the reply frame is discarded on arrival and the waiter sees
/// kTimeout.
class SocketChannel final : public Channel {
 public:
  SocketChannel(Socket sock, NetworkConfig config);
  ~SocketChannel() override;

  std::future<Result<Response>> RoundTripAsync(const Request& request) override;
  void Disconnect() override;

 private:
  struct PendingSingle {
    std::promise<Result<Response>> promise;
    bool discard = false;  ///< lose-reply token claimed at send time
  };

  void ReaderLoop();
  void OnFrame(const Frame& frame);
  /// Connection death: resolves every pending round trip kCommError (each
  /// exactly once) and poisons the channel for future sends.
  void FailAll(const std::string& why);
  Status SendFrame(FrameType type, uint64_t corr_id,
                   const std::string& payload);

  Socket sock_;
  NetworkConfig config_;

  std::mutex mu_;  ///< pending map + dead flag
  std::map<uint64_t, std::shared_ptr<PendingSingle>> pending_;
  bool dead_ = false;
  std::string dead_reason_;

  std::mutex write_mu_;  ///< one frame at a time on the wire
  std::thread reader_;
};

/// Dials `endpoint` and wraps the stream in a SocketChannel. kCommError on
/// refused/timeout — Network::Connect surfaces it and the Phoenix recovery
/// loop retries with backoff.
Result<std::unique_ptr<Channel>> ConnectSocketChannel(
    const std::string& endpoint, const NetworkConfig& config);

/// Accept side: owns a listening socket and, per connection, a reader
/// thread (frames → DbServer::HandleAsync, called in arrival order so the
/// per-session ticket gates see client submission order) and a writer
/// thread (completed responses → frames, FIFO per connection). Runs inside
/// phoenixd, and inside tests that want a real wire without a child
/// process.
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
  struct OutboxItem {
    uint64_t corr_id = 0;
    /// The pending HandleAsync reply, or a ready decode-error reply.
    std::future<Response> future;
  };
  struct Conn {
    Socket sock;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<OutboxItem> outbox;
    bool closed = false;  ///< reader gone; writer drains then exits
    std::thread reader;
    std::thread writer;
  };

  void AcceptLoop();
  void ConnReader(Conn* conn);
  void ConnWriter(Conn* conn);

  DbServer* server_;
  Listener listener_;
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
  bool shutting_down_ = false;
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_SOCKET_TRANSPORT_H_
