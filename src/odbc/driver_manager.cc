#include "odbc/driver_manager.h"

#include <algorithm>

namespace phoenix::odbc {

Henv* DriverManager::AllocEnv() {
  envs_.push_back(std::make_unique<Henv>());
  return envs_.back().get();
}

void DriverManager::FreeEnv(Henv* env) {
  for (auto& dbc : env->dbcs) {
    if (dbc->connected) Disconnect(dbc.get());
  }
  envs_.erase(std::remove_if(envs_.begin(), envs_.end(),
                             [&](const auto& e) { return e.get() == env; }),
              envs_.end());
}

Hdbc* DriverManager::AllocConnect(Henv* env) {
  auto dbc = std::make_unique<Hdbc>();
  dbc->env = env;
  env->dbcs.push_back(std::move(dbc));
  return env->dbcs.back().get();
}

SqlReturn DriverManager::FreeConnect(Hdbc* dbc) {
  if (dbc->connected) {
    return Fail(dbc, Status::InvalidArgument("connection still open"));
  }
  Henv* env = dbc->env;
  env->dbcs.erase(
      std::remove_if(env->dbcs.begin(), env->dbcs.end(),
                     [&](const auto& d) { return d.get() == dbc; }),
      env->dbcs.end());
  return SqlReturn::kSuccess;
}

Hstmt* DriverManager::AllocStmt(Hdbc* dbc) {
  auto stmt = std::make_unique<Hstmt>();
  stmt->dbc = dbc;
  dbc->stmts.push_back(std::move(stmt));
  return dbc->stmts.back().get();
}

SqlReturn DriverManager::FreeStmt(Hstmt* stmt) {
  CloseCursor(stmt);
  Hdbc* dbc = stmt->dbc;
  dbc->stmts.erase(
      std::remove_if(dbc->stmts.begin(), dbc->stmts.end(),
                     [&](const auto& s) { return s.get() == stmt; }),
      dbc->stmts.end());
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::Connect(Hdbc* dbc, const std::string& dsn,
                                 const std::string& user) {
  if (dbc->connected) {
    return Fail(dbc, Status::InvalidArgument("already connected"));
  }
  auto conn = DriverConnection::Open(network_, dsn, user);
  if (!conn.ok()) return Fail(dbc, conn.status());
  dbc->driver = conn.take();
  dbc->dsn = dsn;
  dbc->user = user;
  dbc->connected = true;
  dbc->diag = Status::Ok();
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::Disconnect(Hdbc* dbc) {
  if (!dbc->connected) {
    return Fail(dbc, Status::InvalidArgument("not connected"));
  }
  Status s = dbc->driver->Disconnect();
  dbc->driver.reset();
  dbc->connected = false;
  dbc->stmts.clear();
  if (!s.ok()) return Fail(dbc, std::move(s));
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::SetConnectOption(Hdbc* dbc, const std::string& name,
                                          const std::string& value) {
  if (!dbc->connected) {
    return Fail(dbc, Status::InvalidArgument("not connected"));
  }
  Status s = dbc->driver->SetOption(name, value);
  if (!s.ok()) return Fail(dbc, std::move(s));
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::SetStmtAttr(Hstmt* stmt, StmtAttr attr,
                                     int64_t value) {
  switch (attr) {
    case StmtAttr::kCursorMode:
      if (value < 0 || value > 3) {
        return Fail(stmt, Status::InvalidArgument("bad cursor mode"));
      }
      stmt->cursor_mode = static_cast<CursorMode>(value);
      return SqlReturn::kSuccess;
    case StmtAttr::kBlockSize:
      if (value <= 0) {
        return Fail(stmt, Status::InvalidArgument("bad block size"));
      }
      stmt->block_size = static_cast<uint64_t>(value);
      return SqlReturn::kSuccess;
  }
  return Fail(stmt, Status::InvalidArgument("unknown statement attribute"));
}

void DriverManager::ResetResultState(Hstmt* stmt) {
  stmt->has_result = false;
  stmt->schema = Schema();
  stmt->buffered.clear();
  stmt->buffer_pos = 0;
  stmt->server_cursor_id = 0;
  stmt->server_done = false;
  stmt->affected = -1;
  stmt->current.clear();
  stmt->rows_delivered = 0;
  stmt->pending.clear();
  stmt->pending_pos = 0;
}

void DriverManager::InstallResult(Hstmt* stmt, eng::StatementResult result) {
  stmt->has_result = result.has_rows;
  stmt->schema = std::move(result.schema);
  stmt->buffered = std::move(result.rows);
  stmt->buffer_pos = 0;
  stmt->affected = result.affected;
  stmt->current.clear();
  stmt->rows_delivered = 0;
}

void DriverManager::InstallOpenedCursor(Hstmt* stmt, CursorOpenInfo info) {
  stmt->has_result = true;
  stmt->schema = std::move(info.schema);
  stmt->server_cursor_id = info.cursor_id;
  stmt->buffered = std::move(info.rows);
  stmt->buffer_pos = 0;
  stmt->server_done = info.done;
}

SqlReturn DriverManager::ExecDirect(Hstmt* stmt, const std::string& sql) {
  Hdbc* dbc = stmt->dbc;
  if (!dbc->connected) {
    return Fail(stmt, Status::InvalidArgument("not connected"));
  }
  ResetResultState(stmt);
  stmt->last_sql = sql;

  if (stmt->cursor_mode == CursorMode::kDefaultResultSet) {
    auto results = dbc->driver->ExecScript(sql);
    if (!results.ok()) return Fail(stmt, results.status());
    if (results->empty()) {
      return Fail(stmt, Status::Internal("empty result batch"));
    }
    stmt->pending = std::move(results.value());
    stmt->pending_pos = 1;
    InstallResult(stmt, std::move(stmt->pending[0]));
    return SqlReturn::kSuccess;
  }

  // Server cursor modes.
  eng::CursorType type;
  switch (stmt->cursor_mode) {
    case CursorMode::kStaticCursor: type = eng::CursorType::kStatic; break;
    case CursorMode::kKeysetCursor: type = eng::CursorType::kKeyset; break;
    default: type = eng::CursorType::kDynamic; break;
  }
  auto info = dbc->driver->OpenCursor(sql, type, stmt->block_size);
  if (!info.ok()) return Fail(stmt, info.status());
  InstallOpenedCursor(stmt, std::move(info.value()));
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::Prepare(Hstmt* stmt, const std::string& sql) {
  if (sql.empty()) {
    return Fail(stmt, Status::InvalidArgument("empty statement"));
  }
  stmt->prepared_sql = sql;
  stmt->bound_params.clear();
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::BindParam(Hstmt* stmt, size_t index, Value value) {
  if (stmt->prepared_sql.empty()) {
    return Fail(stmt, Status::InvalidArgument("no prepared statement"));
  }
  if (stmt->bound_params.size() <= index) {
    stmt->bound_params.resize(index + 1);
  }
  stmt->bound_params[index] = std::move(value);
  return SqlReturn::kSuccess;
}

Result<std::string> DriverManager::SubstituteParams(
    const std::string& sql, const std::vector<Value>& params) {
  std::string out;
  out.reserve(sql.size() + params.size() * 8);
  size_t next = 0;
  bool in_string = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') {
      // A doubled quote inside a literal stays inside it.
      if (in_string && i + 1 < sql.size() && sql[i + 1] == '\'') {
        out += "''";
        ++i;
        continue;
      }
      in_string = !in_string;
      out.push_back(c);
      continue;
    }
    if (c == '?' && !in_string) {
      if (next >= params.size()) {
        return Status::InvalidArgument(
            "parameter marker " + std::to_string(next + 1) + " is unbound");
      }
      out += params[next++].ToString();
      continue;
    }
    out.push_back(c);
  }
  if (next < params.size()) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(next) + " markers but " +
        std::to_string(params.size()) + " parameters are bound");
  }
  return out;
}

SqlReturn DriverManager::Execute(Hstmt* stmt) {
  if (stmt->prepared_sql.empty()) {
    return Fail(stmt, Status::InvalidArgument("no prepared statement"));
  }
  auto substituted = SubstituteParams(stmt->prepared_sql, stmt->bound_params);
  if (!substituted.ok()) return Fail(stmt, substituted.status());
  // Virtual dispatch: an enhanced DM's ExecDirect surrogate sees the final
  // statement text, so prepared execution is intercepted like any other.
  return ExecDirect(stmt, *substituted);
}

SqlReturn DriverManager::FetchBlock(Hstmt* stmt) {
  auto block =
      stmt->dbc->driver->Fetch(stmt->server_cursor_id, stmt->block_size);
  if (!block.ok()) return Fail(stmt, block.status());
  stmt->buffered = std::move(block->rows);
  stmt->buffer_pos = 0;
  stmt->server_done = block->done;
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::Fetch(Hstmt* stmt) {
  if (!stmt->has_result) {
    return Fail(stmt, Status::InvalidArgument("no result set"));
  }
  if (stmt->server_cursor_id != 0 && stmt->buffer_pos >= stmt->buffered.size()
      && !stmt->server_done) {
    SqlReturn r = FetchBlock(stmt);
    if (!Succeeded(r)) return r;
  }
  if (stmt->buffer_pos >= stmt->buffered.size()) {
    stmt->diag = Status::EndOfData();
    return SqlReturn::kNoData;
  }
  stmt->current = stmt->buffered[stmt->buffer_pos++];
  ++stmt->rows_delivered;
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::SeekRow(Hstmt* stmt, uint64_t position) {
  if (!stmt->has_result) {
    return Fail(stmt, Status::InvalidArgument("no result set"));
  }
  if (stmt->server_cursor_id != 0) {
    Status s = stmt->dbc->driver->Seek(stmt->server_cursor_id, position);
    if (!s.ok()) return Fail(stmt, std::move(s));
    stmt->buffered.clear();
    stmt->buffer_pos = 0;
    stmt->server_done = false;
  } else {
    // Fully buffered default result set: reposition client-side.
    if (position > stmt->buffered.size()) position = stmt->buffered.size();
    stmt->buffer_pos = static_cast<size_t>(position);
  }
  stmt->rows_delivered = position;
  stmt->current.clear();
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::MoreResults(Hstmt* stmt) {
  if (stmt->pending_pos >= stmt->pending.size()) {
    stmt->diag = Status::EndOfData();
    return SqlReturn::kNoData;
  }
  eng::StatementResult next = std::move(stmt->pending[stmt->pending_pos++]);
  InstallResult(stmt, std::move(next));
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::CloseCursor(Hstmt* stmt) {
  if (stmt->server_cursor_id != 0 && stmt->dbc->connected) {
    stmt->dbc->driver->CloseCursor(stmt->server_cursor_id);
  }
  ResetResultState(stmt);
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::NumResultCols(Hstmt* stmt, size_t* count) {
  if (!stmt->has_result) {
    *count = 0;
    return SqlReturn::kSuccess;
  }
  *count = stmt->schema.num_columns();
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::DescribeCol(Hstmt* stmt, size_t index,
                                     Column* column) {
  if (!stmt->has_result || index >= stmt->schema.num_columns()) {
    return Fail(stmt, Status::InvalidArgument("bad column index"));
  }
  *column = stmt->schema.column(index);
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::GetData(Hstmt* stmt, size_t index, Value* value) {
  if (stmt->current.empty()) {
    return Fail(stmt, Status::InvalidArgument("no current row"));
  }
  if (index >= stmt->current.size()) {
    return Fail(stmt, Status::InvalidArgument("bad column index"));
  }
  *value = stmt->current[index];
  return SqlReturn::kSuccess;
}

SqlReturn DriverManager::RowCount(Hstmt* stmt, int64_t* count) {
  *count = stmt->affected;
  return SqlReturn::kSuccess;
}

// Failures bubble up the handle hierarchy (stmt → dbc → env) so
// SqlGetDiagRec on any ancestor handle reports the most recent failing
// call beneath it — the diagnostic chaining ODBC applications rely on.

SqlReturn DriverManager::Fail(Hstmt* stmt, Status status) {
  if (stmt->dbc != nullptr) {
    stmt->dbc->diag = status;
    if (stmt->dbc->env != nullptr) stmt->dbc->env->diag = status;
  }
  stmt->diag = std::move(status);
  return SqlReturn::kError;
}

SqlReturn DriverManager::Fail(Hdbc* dbc, Status status) {
  if (dbc->env != nullptr) dbc->env->diag = status;
  dbc->diag = std::move(status);
  return SqlReturn::kError;
}

}  // namespace phoenix::odbc
