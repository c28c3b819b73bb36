#include "odbc/driver.h"

namespace phoenix::odbc {

using net::Request;
using net::Response;

Result<std::unique_ptr<DriverConnection>> DriverConnection::Open(
    net::Network* network, const std::string& dsn, const std::string& user) {
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<net::Channel> channel,
                       network->Connect(dsn));
  auto conn = std::unique_ptr<DriverConnection>(
      new DriverConnection(std::move(channel), dsn, user));
  Request req;
  req.kind = Request::Kind::kConnect;
  req.user = user;
  PHX_ASSIGN_OR_RETURN(Response resp,
                       conn->Call(req, Response::Kind::kConnected));
  conn->session_id_ = resp.session_id;
  return conn;
}

Result<Response> DriverConnection::Call(const Request& request,
                                        Response::Kind expected) {
  PHX_ASSIGN_OR_RETURN(Response resp, channel_->RoundTrip(request));
  if (resp.kind == Response::Kind::kError) return resp.ToStatus();
  if (resp.kind != expected) {
    return Status::Internal("unexpected response kind");
  }
  return resp;
}

Status DriverConnection::SetOption(const std::string& name,
                                   const std::string& value) {
  Request req;
  req.kind = Request::Kind::kSetOption;
  req.session_id = session_id_;
  req.name = name;
  req.value = value;
  return Call(req, Response::Kind::kOk).status();
}

Result<std::vector<eng::StatementResult>> DriverConnection::ExecScript(
    const std::string& sql) {
  Request req;
  req.kind = Request::Kind::kExecScript;
  req.session_id = session_id_;
  req.sql = sql;
  PHX_ASSIGN_OR_RETURN(Response resp, Call(req, Response::Kind::kResults));
  return std::move(resp.results);
}

Result<CursorOpenInfo> DriverConnection::OpenCursor(
    const std::string& select_sql, eng::CursorType type,
    uint64_t first_block) {
  Request req;
  req.kind = Request::Kind::kOpenCursor;
  req.session_id = session_id_;
  req.sql = select_sql;
  req.cursor_type = static_cast<uint8_t>(type);
  req.n = first_block;
  PHX_ASSIGN_OR_RETURN(Response resp,
                       Call(req, Response::Kind::kCursorOpened));
  CursorOpenInfo info;
  info.cursor_id = resp.cursor_id;
  info.schema = std::move(resp.schema);
  info.known_size = resp.cursor_size;
  info.rows = std::move(resp.rows);
  info.done = resp.done;
  return info;
}

Result<FetchResult> DriverConnection::Fetch(uint64_t cursor_id, uint64_t n) {
  Request req;
  req.kind = Request::Kind::kFetch;
  req.session_id = session_id_;
  req.cursor_id = cursor_id;
  req.n = n;
  PHX_ASSIGN_OR_RETURN(Response resp, Call(req, Response::Kind::kRows));
  FetchResult out;
  out.rows = std::move(resp.rows);
  out.done = resp.done;
  return out;
}

Status DriverConnection::Seek(uint64_t cursor_id, uint64_t position) {
  Request req;
  req.kind = Request::Kind::kSeek;
  req.session_id = session_id_;
  req.cursor_id = cursor_id;
  req.n = position;
  return Call(req, Response::Kind::kOk).status();
}

Status DriverConnection::CloseCursor(uint64_t cursor_id) {
  Request req;
  req.kind = Request::Kind::kCloseCursor;
  req.session_id = session_id_;
  req.cursor_id = cursor_id;
  return Call(req, Response::Kind::kOk).status();
}

Result<uint64_t> DriverConnection::Ping() {
  Request req;
  req.kind = Request::Kind::kPing;
  PHX_ASSIGN_OR_RETURN(Response resp, Call(req, Response::Kind::kPong));
  return resp.server_epoch;
}

Status DriverConnection::Disconnect() {
  Request req;
  req.kind = Request::Kind::kDisconnect;
  req.session_id = session_id_;
  Status s = Call(req, Response::Kind::kOk).status();
  channel_->Disconnect();
  return s;
}

}  // namespace phoenix::odbc
