#include "net/protocol.h"

namespace phoenix::net {

std::string Request::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU64(request_id);
  enc.PutU64(session_id);
  enc.PutString(user);
  enc.PutString(name);
  enc.PutString(value);
  enc.PutString(sql);
  enc.PutU8(cursor_type);
  enc.PutU64(cursor_id);
  enc.PutU64(n);
  return enc.Take();
}

Result<Request> Request::Decode(const std::string& bytes) {
  Decoder dec(bytes);
  Request r;
  PHX_ASSIGN_OR_RETURN(uint8_t kind_raw, dec.GetU8());
  if (kind_raw > static_cast<uint8_t>(Kind::kAdmin)) {
    return Status::IoError("bad request kind");
  }
  r.kind = static_cast<Kind>(kind_raw);
  PHX_ASSIGN_OR_RETURN(r.request_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(r.session_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(r.user, dec.GetString());
  PHX_ASSIGN_OR_RETURN(r.name, dec.GetString());
  PHX_ASSIGN_OR_RETURN(r.value, dec.GetString());
  PHX_ASSIGN_OR_RETURN(r.sql, dec.GetString());
  PHX_ASSIGN_OR_RETURN(r.cursor_type, dec.GetU8());
  PHX_ASSIGN_OR_RETURN(r.cursor_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(r.n, dec.GetU64());
  return r;
}

void EncodeStatementResult(const eng::StatementResult& r, Encoder* enc) {
  enc->PutBool(r.has_rows);
  enc->PutSchema(r.schema);
  enc->PutU64(r.rows.size());
  for (const Row& row : r.rows) enc->PutRow(row);
  enc->PutI64(r.affected);
}

Result<eng::StatementResult> DecodeStatementResult(Decoder* dec) {
  eng::StatementResult r;
  PHX_ASSIGN_OR_RETURN(r.has_rows, dec->GetBool());
  PHX_ASSIGN_OR_RETURN(r.schema, dec->GetSchema());
  PHX_ASSIGN_OR_RETURN(uint64_t n, dec->GetU64());
  r.rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PHX_ASSIGN_OR_RETURN(Row row, dec->GetRow());
    r.rows.push_back(std::move(row));
  }
  PHX_ASSIGN_OR_RETURN(r.affected, dec->GetI64());
  return r;
}

const char* RequestKindName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kConnect: return "connect";
    case Request::Kind::kDisconnect: return "disconnect";
    case Request::Kind::kSetOption: return "set_option";
    case Request::Kind::kExecScript: return "exec_script";
    case Request::Kind::kOpenCursor: return "open_cursor";
    case Request::Kind::kFetch: return "fetch";
    case Request::Kind::kSeek: return "seek";
    case Request::Kind::kCloseCursor: return "close_cursor";
    case Request::Kind::kPing: return "ping";
    case Request::Kind::kAdmin: return "admin";
  }
  return "unknown";
}

Response Response::MakeError(const Status& s) {
  Response r;
  r.kind = Kind::kError;
  r.error_code = s.code();
  r.error_message = s.message();
  return r;
}

Status Response::ToStatus() const {
  if (kind != Kind::kError) return Status::Ok();
  return Status(error_code, error_message);
}

std::string Response::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU64(request_id);
  enc.PutU8(static_cast<uint8_t>(error_code));
  enc.PutString(error_message);
  enc.PutU64(session_id);
  enc.PutU32(static_cast<uint32_t>(results.size()));
  for (const auto& r : results) EncodeStatementResult(r, &enc);
  enc.PutU64(cursor_id);
  enc.PutSchema(schema);
  enc.PutU64(cursor_size);
  enc.PutU64(rows.size());
  for (const Row& row : rows) enc.PutRow(row);
  enc.PutBool(done);
  enc.PutU64(server_epoch);
  return enc.Take();
}

Result<Response> Response::Decode(const std::string& bytes) {
  Decoder dec(bytes);
  Response r;
  PHX_ASSIGN_OR_RETURN(uint8_t kind_raw, dec.GetU8());
  if (kind_raw > static_cast<uint8_t>(Kind::kPong)) {
    return Status::IoError("bad response kind");
  }
  r.kind = static_cast<Kind>(kind_raw);
  PHX_ASSIGN_OR_RETURN(r.request_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(uint8_t code_raw, dec.GetU8());
  if (code_raw > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::IoError("bad status code");
  }
  r.error_code = static_cast<StatusCode>(code_raw);
  PHX_ASSIGN_OR_RETURN(r.error_message, dec.GetString());
  PHX_ASSIGN_OR_RETURN(r.session_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(uint32_t nresults, dec.GetU32());
  for (uint32_t i = 0; i < nresults; ++i) {
    PHX_ASSIGN_OR_RETURN(eng::StatementResult sr, DecodeStatementResult(&dec));
    r.results.push_back(std::move(sr));
  }
  PHX_ASSIGN_OR_RETURN(r.cursor_id, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(r.schema, dec.GetSchema());
  PHX_ASSIGN_OR_RETURN(r.cursor_size, dec.GetU64());
  PHX_ASSIGN_OR_RETURN(uint64_t nrows, dec.GetU64());
  r.rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    PHX_ASSIGN_OR_RETURN(Row row, dec.GetRow());
    r.rows.push_back(std::move(row));
  }
  PHX_ASSIGN_OR_RETURN(r.done, dec.GetBool());
  PHX_ASSIGN_OR_RETURN(r.server_epoch, dec.GetU64());
  return r;
}

}  // namespace phoenix::net
