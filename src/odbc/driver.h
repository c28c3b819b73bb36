#ifndef PHOENIX_ODBC_DRIVER_H_
#define PHOENIX_ODBC_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cursor.h"
#include "engine/executor.h"
#include "net/channel.h"
#include "net/protocol.h"

namespace phoenix::odbc {

/// What OpenCursor returns.
struct CursorOpenInfo {
  uint64_t cursor_id = 0;
  Schema schema;
  uint64_t known_size = 0;  ///< 0 when unknown (dynamic)
  std::vector<Row> rows;    ///< the first block, shipped with the open
  bool done = false;        ///< `rows` reached the end of the result
};

struct FetchResult {
  std::vector<Row> rows;
  bool done = false;
};

/// The vendor-supplied "driver": the piece that speaks the proprietary wire
/// protocol. One DriverConnection per database connection. Everything above
/// this class deals in ODBC concepts; everything below deals in protocol
/// messages.
class DriverConnection {
 public:
  /// Resolves `dsn` on the network, opens a channel, and logs in.
  static Result<std::unique_ptr<DriverConnection>> Open(
      net::Network* network, const std::string& dsn, const std::string& user);

  Status SetOption(const std::string& name, const std::string& value);

  /// Executes a SQL batch; every statement's full result ships back at once
  /// (the "default result set" behavior — client buffers).
  Result<std::vector<eng::StatementResult>> ExecScript(const std::string& sql);

  /// Opens a server cursor; its first `first_block` rows come back in the
  /// same round trip (0 = none, the cursor stays at row 0).
  Result<CursorOpenInfo> OpenCursor(const std::string& select_sql,
                                    eng::CursorType type,
                                    uint64_t first_block);
  Result<FetchResult> Fetch(uint64_t cursor_id, uint64_t n);
  /// Server-side absolute positioning — zero tuples cross the wire.
  Status Seek(uint64_t cursor_id, uint64_t position);
  Status CloseCursor(uint64_t cursor_id);

  /// Liveness probe; returns the server's epoch (restart count).
  Result<uint64_t> Ping();

  /// Graceful session termination.
  Status Disconnect();

  uint64_t session_id() const { return session_id_; }
  net::Channel* channel() { return channel_.get(); }
  const std::string& dsn() const { return dsn_; }
  const std::string& user() const { return user_; }

 private:
  DriverConnection(std::unique_ptr<net::Channel> channel, std::string dsn,
                   std::string user)
      : channel_(std::move(channel)),
        dsn_(std::move(dsn)),
        user_(std::move(user)) {}

  Result<net::Response> Call(const net::Request& request,
                             net::Response::Kind expected);

  std::unique_ptr<net::Channel> channel_;
  std::string dsn_;
  std::string user_;
  uint64_t session_id_ = 0;
};

}  // namespace phoenix::odbc

#endif  // PHOENIX_ODBC_DRIVER_H_
