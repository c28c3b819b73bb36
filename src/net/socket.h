#ifndef PHOENIX_NET_SOCKET_H_
#define PHOENIX_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

namespace phoenix::net {

/// Thin RAII + error-mapping layer over POSIX stream sockets (TCP over
/// loopback/LAN and Unix-domain). Everything above this file is
/// byte-stream-agnostic; everything below it is errno.
///
/// Endpoint strings, used everywhere a listen/dial address appears:
///   "tcp:<host>:<port>"   e.g. "tcp:127.0.0.1:0" (port 0 = kernel-assigned)
///   "unix:<path>"         e.g. "unix:/tmp/phx/phoenixd.sock"
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      Close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { Close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();
  /// shutdown(2) both directions — unblocks a reader in another thread
  /// without closing the fd out from under it.
  void ShutdownBoth();

  /// Writes all of `data`, looping over short writes and EINTR. kCommError
  /// on EPIPE/reset (SIGPIPE is suppressed per call).
  Status SendAll(const std::string& data);

  /// Reads up to `cap` bytes into `out` (replacing its contents). Returns
  /// the byte count; 0 means clean EOF. kCommError on reset.
  Result<size_t> RecvSome(std::string* out, size_t cap = 64 * 1024);

  /// Waits up to `timeout_ms` for RecvSome to have something to report:
  /// data, EOF or an error. false = the wait ran out (or was interrupted).
  bool WaitReadable(uint64_t timeout_ms);

 private:
  int fd_ = -1;
};

/// Dials `endpoint`, waiting up to `timeout_ms` for the TCP handshake
/// (refused still fails immediately). kCommError on any failure — the code
/// the Phoenix failure detector treats as "server dead, begin recovery".
/// Refused dials (ECONNREFUSED, or ENOENT for a missing unix socket file)
/// carry kRefusedPrefix in the message so IsConnectionRefused() can tell
/// "nothing listening here, learned instantly" from a timed-out handshake.
Result<Socket> Dial(const std::string& endpoint, uint64_t timeout_ms);

/// Message marker Dial() puts on instantly-refused connections.
inline constexpr char kRefusedPrefix[] = "connection refused ";

/// True for a Dial() failure that proves no server is accepting at the
/// endpoint (refused / socket file absent) — as opposed to a timeout or a
/// mid-stream reset, where a server may exist but be slow or dying. The
/// Phoenix failover sweep skips refused endpoints without burning a backoff
/// round.
bool IsConnectionRefused(const Status& s);

/// A bound, listening server socket.
class Listener {
 public:
  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds + listens on `endpoint`. TCP listeners set SO_REUSEADDR so a
  /// reborn server can re-bind its old port out of TIME_WAIT. Unix
  /// listeners handle the stale socket file a SIGKILLed incarnation leaves
  /// behind deterministically: bind first, and on EADDRINUSE probe-connect
  /// the path — refused means stale (unlink + retry, bounded), while a live
  /// accepting owner yields kAlreadyExists instead of unlinking a running
  /// server's socket out from under it.
  Status Listen(const std::string& endpoint);

  /// The resolved address — for "tcp:host:0" this carries the
  /// kernel-assigned port, which is how phoenixd reports where it actually
  /// listens.
  const std::string& endpoint() const { return endpoint_; }

  /// Blocks for one connection. kCommError once Interrupt()ed.
  Result<Socket> Accept();

  /// Unblocks a concurrent Accept() (shutdown(2); the fd stays valid so
  /// there is no close/accept race). Call Close() after joining the
  /// accepting thread.
  void Interrupt();
  void Close();
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on Close
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_SOCKET_H_
