#ifndef PHOENIX_NET_PROTOCOL_H_
#define PHOENIX_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/schema.h"
#include "common/status.h"
#include "engine/executor.h"

namespace phoenix::net {

/// Client→server message. Every request except kConnect and kPing carries
/// the session id it operates on.
struct Request {
  enum class Kind : uint8_t {
    kConnect = 0,     ///< user → kConnected{session_id}
    kDisconnect = 1,  ///< graceful session termination
    kSetOption = 2,   ///< name/value connection option
    kExecScript = 3,  ///< SQL batch; all results shipped (default result set)
    kOpenCursor = 4,  ///< SELECT + cursor_type + n → kCursorOpened with
                      ///< the cursor's first n rows
    kFetch = 5,       ///< cursor_id + n → kRows
    kSeek = 6,        ///< cursor_id + n(position) → kOk (server-side advance)
    kCloseCursor = 7,
    kPing = 8,        ///< liveness probe → kPong
    kAdmin = 9,       ///< name/value out-of-band control (see ServerOptions::
                      ///< admin_hook) — chaos uses it to arm SIGKILL
                      ///< rendezvous points inside a running phoenixd
  };

  Kind kind = Kind::kPing;
  /// Client-assigned correlation id, echoed verbatim in the Response. The
  /// Channel fills it in (monotonic per channel) when the caller leaves it 0;
  /// traces carry it so a retry and the original it duplicates are
  /// distinguishable in chaos-test logs.
  uint64_t request_id = 0;
  uint64_t session_id = 0;
  std::string user;      ///< kConnect
  std::string name;      ///< kSetOption option name
  std::string value;     ///< kSetOption option value
  std::string sql;       ///< kExecScript / kOpenCursor
  uint8_t cursor_type = 0;
  uint64_t cursor_id = 0;
  /// kFetch: rows to fetch; kOpenCursor: rows to ship with the open (0 =
  /// none); kSeek: the position.
  uint64_t n = 0;

  std::string Encode() const;
  static Result<Request> Decode(const std::string& bytes);
};

/// Server→client message.
struct Response {
  enum class Kind : uint8_t {
    kOk = 0,
    kError = 1,
    kConnected = 2,
    kResults = 3,
    kCursorOpened = 4,
    kRows = 5,
    kPong = 6,
  };

  Kind kind = Kind::kOk;
  uint64_t request_id = 0;  ///< echo of Request::request_id
  StatusCode error_code = StatusCode::kOk;
  std::string error_message;
  uint64_t session_id = 0;                    ///< kConnected
  std::vector<eng::StatementResult> results;  ///< kResults
  uint64_t cursor_id = 0;                     ///< kCursorOpened
  Schema schema;                              ///< kCursorOpened
  uint64_t cursor_size = 0;                   ///< kCursorOpened (0=unknown)
  std::vector<Row> rows;                      ///< kRows / kCursorOpened
  bool done = false;                          ///< kRows / kCursorOpened
  uint64_t server_epoch = 0;                  ///< kPong: restarts so far

  static Response MakeError(const Status& s);
  static Response MakeOk() { return Response{}; }

  /// kError → the corresponding Status; anything else → OK.
  Status ToStatus() const;

  std::string Encode() const;
  static Result<Response> Decode(const std::string& bytes);
};

void EncodeStatementResult(const eng::StatementResult& r, Encoder* enc);
Result<eng::StatementResult> DecodeStatementResult(Decoder* dec);

/// Lowercase metric-friendly name ("connect", "fetch", ...) — used as the
/// <kind> suffix of the "net.requests.<kind>" counters.
const char* RequestKindName(Request::Kind kind);

}  // namespace phoenix::net

#endif  // PHOENIX_NET_PROTOCOL_H_
