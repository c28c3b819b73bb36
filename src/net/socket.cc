#include "net/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace phoenix::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Maps a dial failure to a Status whose message the recovery sweep can
/// classify. ECONNREFUSED (nothing listening) and ENOENT (unix socket file
/// gone — the server never started or was torn down) both mean "no server
/// here, and we learned so instantly": IsConnectionRefused keys on the
/// kRefusedPrefix so failover can skip the endpoint without a backoff round.
Status DialError(const std::string& endpoint, int err) {
  if (err == ECONNREFUSED || err == ENOENT) {
    return Status::CommError(std::string(kRefusedPrefix) + endpoint + ": " +
                             std::strerror(err));
  }
  return Status::CommError("connect " + endpoint + ": " + std::strerror(err));
}

/// Splits "tcp:host:port" / "unix:path". Returns false on a malformed
/// endpoint (the caller reports InvalidArgument with the original string).
bool ParseEndpoint(const std::string& endpoint, bool* is_tcp,
                   std::string* host_or_path, uint16_t* port) {
  if (endpoint.rfind("unix:", 0) == 0) {
    *is_tcp = false;
    *host_or_path = endpoint.substr(5);
    return !host_or_path->empty();
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    *is_tcp = true;
    std::string rest = endpoint.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    *host_or_path = rest.substr(0, colon);
    unsigned long p = std::strtoul(rest.c_str() + colon + 1, nullptr, 10);
    if (p > 65535) return false;
    *port = static_cast<uint16_t>(p);
    return true;
  }
  return false;
}

bool FillSockaddrIn(const std::string& host, uint16_t port,
                    sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

bool FillSockaddrUn(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::SendAll(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that died by SIGKILL must surface as EPIPE, not
    // kill THIS process too.
    ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::CommError(Errno("send"));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<size_t> Socket::RecvSome(std::string* out, size_t cap) {
  out->resize(cap);
  while (true) {
    ssize_t n = ::recv(fd_, out->data(), cap, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::CommError(Errno("recv"));
    }
    out->resize(static_cast<size_t>(n));
    return static_cast<size_t>(n);
  }
}

bool Socket::WaitReadable(uint64_t timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  int pr = ::poll(&pfd, 1,
                  static_cast<int>(std::min<uint64_t>(timeout_ms, INT_MAX)));
  // A poll error other than EINTR is left for the recv to report.
  return pr > 0 || (pr < 0 && errno != EINTR);
}

Result<Socket> Dial(const std::string& endpoint, uint64_t timeout_ms) {
  bool is_tcp = false;
  std::string host_or_path;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &is_tcp, &host_or_path, &port)) {
    return Status::InvalidArgument("bad endpoint: " + endpoint);
  }
  int fd = ::socket(is_tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::CommError(Errno("socket"));
  Socket sock(fd);

  sockaddr_storage storage;
  socklen_t len = 0;
  if (is_tcp) {
    auto* addr = reinterpret_cast<sockaddr_in*>(&storage);
    if (!FillSockaddrIn(host_or_path, port, addr)) {
      return Status::InvalidArgument("bad tcp host (want a literal IPv4): " +
                                     endpoint);
    }
    len = sizeof(sockaddr_in);
  } else {
    auto* addr = reinterpret_cast<sockaddr_un*>(&storage);
    if (!FillSockaddrUn(host_or_path, addr)) {
      return Status::InvalidArgument("unix socket path too long: " + endpoint);
    }
    len = sizeof(sockaddr_un);
  }

  // Non-blocking connect + poll: a dial against a half-dead peer must obey
  // connect_timeout_ms instead of the kernel's minutes-long default.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), len);
  if (rc != 0 && errno != EINPROGRESS) {
    return DialError(endpoint, errno);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (pr == 0) return Status::CommError("connect timeout: " + endpoint);
    if (pr < 0) return Status::CommError(Errno("poll"));
    int err = 0;
    socklen_t errlen = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
    if (err != 0) {
      return DialError(endpoint, err);
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  if (is_tcp) {
    int one = 1;
    // Request/response RPC: Nagle's 40 ms ACK-delay coupling would dominate
    // every round trip.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return sock;
}

bool IsConnectionRefused(const Status& s) {
  return s.IsCommError() &&
         s.message().find(kRefusedPrefix) != std::string::npos;
}

Listener::~Listener() { Close(); }

void Listener::Interrupt() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Status Listener::Listen(const std::string& endpoint) {
  bool is_tcp = false;
  std::string host_or_path;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &is_tcp, &host_or_path, &port)) {
    return Status::InvalidArgument("bad endpoint: " + endpoint);
  }
  int fd = ::socket(is_tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::CommError(Errno("socket"));

  if (is_tcp) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    if (!FillSockaddrIn(host_or_path, port, &addr)) {
      ::close(fd);
      return Status::InvalidArgument("bad tcp host (want a literal IPv4): " +
                                     endpoint);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status s = Status::CommError(Errno("bind " + endpoint));
      ::close(fd);
      return s;
    }
    // Resolve port 0 to the kernel's pick: this string is the server's
    // advertised address.
    sockaddr_in bound;
    socklen_t blen = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
    endpoint_ = std::string("tcp:") + ip + ":" +
                std::to_string(ntohs(bound.sin_port));
  } else {
    sockaddr_un addr;
    if (!FillSockaddrUn(host_or_path, &addr)) {
      ::close(fd);
      return Status::InvalidArgument("unix socket path too long: " + endpoint);
    }
    // A previous incarnation that died by SIGKILL leaves its socket file
    // behind, so bind() fails EADDRINUSE. Blindly unlinking first is a
    // race: a concurrent restart (or a still-live server) can bind between
    // our unlink and bind, and we would then unlink ITS socket out from
    // under it. Instead bind first and only clear the path once a probe
    // connect proves nobody is accepting on it.
    Status bind_err;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        bind_err = Status::Ok();
        break;
      }
      if (errno != EADDRINUSE) {
        bind_err = Status::CommError(Errno("bind " + endpoint));
        break;
      }
      bind_err = Status::CommError(Errno("bind " + endpoint));
      // 200 ms probe: refused/ENOENT means the file is stale garbage and
      // safe to unlink; a completed connect means a live server owns it.
      auto probe = Dial(endpoint, 200);
      if (probe.ok()) {
        ::close(fd);
        return Status::AlreadyExists("address in use by a live server: " +
                                     endpoint);
      }
      ::unlink(host_or_path.c_str());
    }
    if (!bind_err.ok()) {
      ::close(fd);
      return bind_err;
    }
    unix_path_ = host_or_path;
    endpoint_ = endpoint;
  }
  if (::listen(fd, 64) != 0) {
    Status s = Status::CommError(Errno("listen " + endpoint));
    ::close(fd);
    return s;
  }
  fd_ = fd;
  return Status::Ok();
}

Result<Socket> Listener::Accept() {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Status::CommError(Errno("accept"));
  }
}

}  // namespace phoenix::net
