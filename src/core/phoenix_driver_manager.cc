#include "core/phoenix_driver_manager.h"

#include <algorithm>
#include <set>

#include "core/rewriter.h"
#include "core/state_store.h"
#include "obs/metrics.h"

namespace phoenix::core {

using odbc::Hdbc;
using odbc::Hstmt;
using odbc::SqlReturn;

PhoenixDriverManager::PhoenixDriverManager(net::Network* network,
                                           PhoenixConfig config)
    : DriverManager(network), config_(std::move(config)) {}

bool PhoenixDriverManager::IsCrashSignal(const Status& s) const {
  if (s.IsCommError() || s.IsTimeout()) return true;
  // A pre-crash session id presented to a restarted server.
  if (s.IsNotFound() && s.message().find("session") != std::string::npos) {
    return true;
  }
  return false;
}

namespace {

/// "<prefix>_<KIND>_<tag>..." → tag; "" when the name does not match.
std::string ExtractTag(const std::string& name, const std::string& prefix) {
  if (name.rfind(prefix + "_", 0) != 0) return "";
  size_t kind_start = prefix.size() + 1;
  size_t kind_end = name.find('_', kind_start);
  if (kind_end == std::string::npos) return "";
  size_t tag_end = name.find('_', kind_end + 1);
  return name.substr(kind_end + 1, tag_end == std::string::npos
                                       ? std::string::npos
                                       : tag_end - kind_end - 1);
}

bool IsProxyName(const std::string& name, const std::string& prefix) {
  return name.rfind(prefix + "_PROXY_", 0) == 0;
}

}  // namespace

Result<int> PhoenixDriverManager::CleanupOrphans(net::Network* network,
                                                 const std::string& dsn,
                                                 const std::string& user,
                                                 const std::string& prefix) {
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<odbc::DriverConnection> conn,
                       odbc::DriverConnection::Open(network, dsn, user));
  // Live tags are exactly those with a living session-proxy temp table.
  PHX_ASSIGN_OR_RETURN(std::vector<eng::StatementResult> tables,
                       conn->ExecScript("SHOW TABLES"));
  std::set<std::string> live;
  std::vector<std::string> candidates;
  for (const Row& row : tables[0].rows) {
    const std::string& name = row[0].AsString();
    if (IsProxyName(name, prefix)) {
      live.insert(ExtractTag(name, prefix));
    } else if (!ExtractTag(name, prefix).empty()) {
      candidates.push_back(name);
    }
  }
  int dropped = 0;
  for (const std::string& name : candidates) {
    if (live.count(ExtractTag(name, prefix))) continue;
    auto r = conn->ExecScript("DROP TABLE IF EXISTS " + name);
    if (r.ok()) ++dropped;
  }
  // Orphaned persistent stand-ins for temp procedures.
  PHX_ASSIGN_OR_RETURN(std::vector<eng::StatementResult> procs,
                       conn->ExecScript("SHOW PROCEDURES"));
  for (const Row& row : procs[0].rows) {
    const std::string& name = row[0].AsString();
    std::string tag = ExtractTag(name, prefix);
    if (tag.empty() || live.count(tag)) continue;
    auto r = conn->ExecScript("DROP PROCEDURE IF EXISTS " + name);
    if (r.ok()) ++dropped;
  }
  conn->Disconnect();
  return dropped;
}

// ---------------------------------------------------------------------------
// Connection call points
// ---------------------------------------------------------------------------

SqlReturn PhoenixDriverManager::Connect(Hdbc* dbc, const std::string& dsn,
                                        const std::string& user) {
  SqlReturn r = DriverManager::Connect(dbc, dsn, user);
  if (!Succeeded(r)) return r;

  auto cs = std::make_shared<ConnState>();
  cs->tag = MakeConnTag();
  cs->dsn = dsn;
  cs->user = user;
  cs->proxy_table = ProxyTableName(config_, *cs);
  cs->status_table = StatusTableName(config_, *cs);

  // Failover server group: the connect DSN is always a member (prepended
  // when the configured group omits it) and is where the session starts.
  cs->server_group = config_.server_group;
  size_t dsn_at = cs->server_group.size();
  for (size_t i = 0; i < cs->server_group.size(); ++i) {
    if (cs->server_group[i] == dsn) {
      dsn_at = i;
      break;
    }
  }
  if (dsn_at == cs->server_group.size()) {
    cs->server_group.insert(cs->server_group.begin(), dsn);
    dsn_at = 0;
  }
  cs->active_endpoint = dsn_at;

  // Private connection for Phoenix activity, masked from the application.
  auto priv = odbc::DriverConnection::Open(network_, dsn, user);
  if (!priv.ok()) {
    DriverManager::Disconnect(dbc);
    return Fail(dbc, priv.status());
  }
  cs->private_conn = priv.take();
  // Phoenix reads its testable state at READ UNCOMMITTED: a status marker
  // written by the application's still-open transaction must be visible to
  // the private connection's probe, or a lost reply would be resubmitted
  // and double-applied (see ExecInTxn).
  Status iso =
      cs->private_conn->SetOption("ISOLATION", "READ UNCOMMITTED");
  if (!iso.ok()) {
    cs->private_conn->Disconnect();
    DriverManager::Disconnect(dbc);
    return Fail(dbc, iso);
  }

  // Session-liveness proxy: a temp table in the *main* session. It exists
  // exactly as long as the pre-crash session does.
  auto proxy = dbc->driver->ExecScript("CREATE TEMPORARY TABLE " +
                                       cs->proxy_table + " (X INTEGER)");
  if (!proxy.ok()) {
    cs->private_conn->Disconnect();
    DriverManager::Disconnect(dbc);
    return Fail(dbc, proxy.status());
  }
  dbc->dm_state = std::move(cs);
  return SqlReturn::kSuccess;
}

SqlReturn PhoenixDriverManager::Disconnect(Hdbc* dbc) {
  ConnState* cs = conn_state(dbc);
  if (cs == nullptr) return DriverManager::Disconnect(dbc);

  // "After the client application has successfully terminated, Phoenix/ODBC
  // cleans up all persistent structures on the database server."
  if (cs->private_conn != nullptr && !cs->broken) {
    for (const std::string& t : cs->artifact_tables) {
      cs->private_conn->ExecScript("DROP TABLE IF EXISTS " + t);
    }
    for (const std::string& p : cs->artifact_procs) {
      cs->private_conn->ExecScript("DROP PROCEDURE IF EXISTS " + p);
    }
    cs->private_conn->Disconnect();
  }
  dbc->dm_state.reset();
  return DriverManager::Disconnect(dbc);
}

SqlReturn PhoenixDriverManager::SetConnectOption(Hdbc* dbc,
                                                 const std::string& name,
                                                 const std::string& value) {
  SqlReturn r = DriverManager::SetConnectOption(dbc, name, value);
  ConnState* cs = conn_state(dbc);
  if (Succeeded(r) && cs != nullptr) {
    // The option replay log: phase-1 recovery re-issues these in order.
    cs->option_log.emplace_back(name, value);
  }
  return r;
}

// ---------------------------------------------------------------------------
// ExecDirect — the main interception point
// ---------------------------------------------------------------------------

SqlReturn PhoenixDriverManager::ExecDirect(Hstmt* stmt,
                                           const std::string& sql) {
  ConnState* cs = conn_state(stmt->dbc);
  if (cs == nullptr) {
    return DriverManager::ExecDirect(stmt, sql);
  }
  if (cs->broken) {
    return Fail(stmt, Status::CommError("session unrecoverable"));
  }
  // Re-executing a statement ends its previous result: close the server
  // cursor (or its rows and snapshot pin would live until disconnect) and
  // retire the statement's table.
  CloseCursor(stmt);
  stmt->last_sql = sql;

  auto classified = Classify(sql);
  if (!classified.ok()) {
    // Not SQL we understand: forward untouched so the application sees the
    // server's own diagnostics.
    return ExecPassthrough(stmt, sql, cs, /*resubmit_benign=*/true);
  }
  Classification& c = classified.value();

  // Temp-object indirection applies to every statement.
  std::string rewritten;
  for (size_t i = 0; i < c.stmts.size(); ++i) {
    RenameObjects(c.stmts[i].get(), cs->temp_table_map, cs->temp_proc_map);
    if (i) rewritten += "; ";
    rewritten += c.stmts[i]->ToSql();
  }

  switch (c.cls) {
    case RequestClass::kBegin: {
      for (int attempt = 0; attempt < 5; ++attempt) {
        auto r = stmt->dbc->driver->ExecScript(rewritten);
        bool ok = r.ok();
        if (!ok && IsCrashSignal(r.status())) {
          auto outcome = RecoverConnection(stmt->dbc);
          if (!outcome.ok()) return Fail(stmt, outcome.status());
          continue;
        }
        // A lost-reply BEGIN already took effect: the retry's "transaction
        // already in progress" means success.
        if (!ok && r.status().message().find("already in progress") ==
                       std::string::npos) {
          return Fail(stmt, r.status());
        }
        cs->in_txn = true;
        cs->txn_log.clear();
        cs->pending_commit_req = 0;
        InstallResult(stmt, eng::StatementResult::Affected(0));
        return SqlReturn::kSuccess;
      }
      return Fail(stmt, Status::CommError("BEGIN retry budget exhausted"));
    }
    case RequestClass::kCommit:
      if (!cs->in_txn) {
        return ExecPassthrough(stmt, rewritten, cs, true);
      }
      return ExecCommit(stmt, cs);
    case RequestClass::kRollback: {
      if (!cs->in_txn) return ExecPassthrough(stmt, rewritten, cs, true);
      // Clear the replay log first: if the server crashes mid-rollback, the
      // transaction is dead either way and must NOT be replayed.
      cs->in_txn = false;
      cs->txn_log.clear();
      cs->pending_commit_req = 0;
      auto r = ExecOnMain(stmt->dbc, rewritten, /*resubmit=*/false);
      // Benign outcomes: the transaction is gone either because the server
      // crashed (remap), or because a lost-reply ROLLBACK already ran and
      // the retry found "no transaction in progress".
      if (!r.ok() && !IsCrashSignal(r.status()) &&
          r.status().message().find("no transaction") == std::string::npos) {
        return Fail(stmt, r.status());
      }
      InstallResult(stmt, eng::StatementResult::Affected(0));
      return SqlReturn::kSuccess;
    }
    case RequestClass::kSelect: {
      const sql::SelectStmt& sel = *c.stmt()->select;
      if (stmt->cursor_mode == odbc::CursorMode::kKeysetCursor) {
        return ExecCursorProxy(stmt, sel, cs, /*dynamic=*/false);
      }
      if (stmt->cursor_mode == odbc::CursorMode::kDynamicCursor) {
        return ExecCursorProxy(stmt, sel, cs, /*dynamic=*/true);
      }
      return ExecMaterializedSelect(stmt, sel, cs);
    }
    case RequestClass::kSelectInto:
    case RequestClass::kDml:
      if (cs->in_txn) return ExecInTxn(stmt, rewritten, cs);
      return ExecWrappedDml(stmt, *c.stmt(), cs);
    case RequestClass::kCreateTempTable: {
      // Rewrite to a persistent table; remember the indirection.
      sql::CreateTableStmt* ct = c.stmt()->create_table.get();
      std::string original = ct->table;
      std::string actual = TempStandInName(config_, *cs, original);
      ct->table = actual;
      ct->temporary = false;
      SqlReturn r = cs->in_txn
                        ? ExecInTxn(stmt, c.stmt()->ToSql(), cs)
                        : ExecPassthrough(stmt, c.stmt()->ToSql(), cs, true);
      if (Succeeded(r)) {
        cs->temp_table_map[IdentUpper(original)] = actual;
        cs->artifact_tables.push_back(actual);
      }
      return r;
    }
    case RequestClass::kCreateTempProc: {
      sql::CreateProcStmt* cp = c.stmt()->create_proc.get();
      std::string original = cp->name;
      std::string actual = TempStandInName(config_, *cs, original);
      cp->name = actual;
      cp->temporary = false;
      SqlReturn r = cs->in_txn
                        ? ExecInTxn(stmt, c.stmt()->ToSql(), cs)
                        : ExecPassthrough(stmt, c.stmt()->ToSql(), cs, true);
      if (Succeeded(r)) {
        cs->temp_proc_map[IdentUpper(original)] = actual;
        cs->artifact_procs.push_back(actual);
      }
      return r;
    }
    case RequestClass::kDropObject: {
      SqlReturn r = cs->in_txn ? ExecInTxn(stmt, rewritten, cs)
                               : ExecPassthrough(stmt, rewritten, cs, true);
      if (Succeeded(r)) {
        // Retire the indirection if this dropped a mapped temp object.
        if (c.stmt()->kind == sql::StmtKind::kDropTable) {
          for (auto it = cs->temp_table_map.begin();
               it != cs->temp_table_map.end(); ++it) {
            if (IdentEquals(it->second, c.stmt()->drop_table->table)) {
              cs->temp_table_map.erase(it);
              break;
            }
          }
        } else if (c.stmt()->kind == sql::StmtKind::kDropProc) {
          for (auto it = cs->temp_proc_map.begin();
               it != cs->temp_proc_map.end(); ++it) {
            if (IdentEquals(it->second, c.stmt()->drop_proc->name)) {
              cs->temp_proc_map.erase(it);
              break;
            }
          }
        }
      }
      return r;
    }
    case RequestClass::kBatch:
      if (cs->in_txn) return ExecInTxn(stmt, rewritten, cs);
      return ExecPassthrough(stmt, rewritten, cs, true);
    case RequestClass::kPassthrough:
      if (cs->in_txn) return ExecInTxn(stmt, rewritten, cs);
      return ExecPassthrough(stmt, rewritten, cs, true);
  }
  return Fail(stmt, Status::Internal("unhandled request class"));
}

// ---------------------------------------------------------------------------
// SELECT: one block back whole, anything larger persisted as a server table
// ---------------------------------------------------------------------------

SqlReturn PhoenixDriverManager::ExecMaterializedSelect(
    Hstmt* stmt, const sql::SelectStmt& sel, ConnState* cs) {
  Hdbc* dbc = stmt->dbc;
  // The first private round trip is the application's own query, capped one
  // row past a fetch block. It reads what the materialization would read
  // (the private connection's READ UNCOMMITTED live heap), so the answer
  // never depends on which path delivers it.
  auto probe =
      ExecOnPrivate(dbc, MakeFirstBlockProbe(sel, stmt->block_size)->ToSql());
  if (!probe.ok()) return Fail(stmt, probe.status());
  if (probe->empty() || !(*probe)[0].has_rows) {
    return Fail(stmt, Status::SqlError("query produced no result set"));
  }
  eng::StatementResult& first = (*probe)[0];
  if (first.rows.size() <= stmt->block_size) {
    // The whole result arrived in one reply, which a crash delivers whole
    // or not at all; a lost reply is re-executed, since the application
    // has seen nothing yet. No delivery position exists for a crash to
    // lose, so the rows are held like a native default result set: no
    // table, no commit, no StmtState.
    ++stats_.whole_results;
    obs::MetricsRegistry::Default()
        ->GetCounter("core.reads_whole")
        ->Increment();
    InstallResult(stmt, std::move(first));
    return SqlReturn::kSuccess;
  }
  // Larger results persist as a server table (the rows never leave the
  // server) delivered through a server cursor over it, its position tracked
  // for seamless post-crash resumption. The probe's schema is the metadata
  // the application sees.
  std::string table = NextResultTableName(config_, cs);
  auto opened = Materialize(dbc, cs, sel, table, stmt->block_size,
                            /*shown=*/nullptr);
  if (!opened.ok()) return Fail(stmt, opened.status());
  ++stats_.materialized_results;
  opened->schema = std::move(first.schema);
  InstallOpenedCursor(stmt, std::move(*opened));

  auto vs = std::make_shared<StmtState>();
  vs->kind = StmtState::Kind::kMaterialized;
  vs->result_table = table;
  stmt->dm_state = std::move(vs);
  return SqlReturn::kSuccess;
}

Result<Schema> PhoenixDriverManager::ProbeMetadata(Hdbc* dbc,
                                                   const sql::SelectStmt& sel) {
  std::string probe_sql = MakeMetadataProbe(sel)->ToSql();
  PHX_ASSIGN_OR_RETURN(std::vector<eng::StatementResult> results,
                       ExecOnPrivate(dbc, probe_sql));
  if (results.empty() || !results[0].has_rows) {
    return Status::SqlError("metadata probe produced no result set");
  }
  return std::move(results[0].schema);
}

Result<odbc::CursorOpenInfo> PhoenixDriverManager::Materialize(
    Hdbc* dbc, ConnState* cs, const sql::SelectStmt& source,
    const std::string& table, uint64_t first_block,
    const sql::SelectStmt* shown) {
  // Tracked before the attempt: a failure after a lost reply may still
  // leave the table behind. Retired, it is dropped by the next
  // materialization.
  cs->artifact_tables.push_back(table);
  auto opened = [&]() -> Result<odbc::CursorOpenInfo> {
    Schema shown_metadata;
    if (config_.materialize_via_server) {
      PHX_ASSIGN_OR_RETURN(shown_metadata,
                           MaterializeOnServer(dbc, cs, source, table, shown));
    } else {
      PHX_ASSIGN_OR_RETURN(shown_metadata,
                           MaterializeViaClient(dbc, source, table, shown));
    }
    PHX_ASSIGN_OR_RETURN(odbc::CursorOpenInfo info,
                         OpenCursorWithRecovery(dbc, table, first_block));
    if (shown != nullptr) info.schema = std::move(shown_metadata);
    return info;
  }();
  if (!opened.ok()) cs->retired_tables.push_back(table);
  return opened;
}

Result<Schema> PhoenixDriverManager::MaterializeOnServer(
    Hdbc* dbc, ConnState* cs, const sql::SelectStmt& source,
    const std::string& table, const sql::SelectStmt* shown) {
  std::string script = MakeMaterializeScript(source, table, cs->retired_tables);
  if (shown != nullptr) {
    script = MakeMetadataProbe(*shown)->ToSql() + "; " + script;
  }
  PHX_ASSIGN_OR_RETURN(std::vector<eng::StatementResult> results,
                       ExecTxnOnPrivate(dbc, script));
  Schema metadata;
  if (shown != nullptr) {
    if (results.empty() || !results[0].has_rows) {
      return Status::SqlError("metadata probe produced no result set");
    }
    metadata = std::move(results[0].schema);
  }
  // The retired tables were dropped in the same transaction.
  std::erase_if(cs->artifact_tables, [&](const std::string& t) {
    return std::find(cs->retired_tables.begin(), cs->retired_tables.end(),
                     t) != cs->retired_tables.end();
  });
  cs->retired_tables.clear();
  return metadata;
}

Status PhoenixDriverManager::CreateFreshArtifactTable(
    Hdbc* dbc, const sql::CreateTableStmt& ct, const std::string& table) {
  auto created = ExecOnPrivate(dbc, ct.ToSql());
  if (!created.ok() && created.status().code() == StatusCode::kAlreadyExists) {
    // The name is session-tagged and freshly allocated, so a collision can
    // only be our own earlier CREATE whose reply a crash swallowed: it
    // executed and committed server-side, the acknowledgment died with the
    // connection, and recovery resubmitted it. The leftover is at best
    // empty and at worst half-observed — drop it and start clean.
    PHX_RETURN_IF_ERROR(ExecOnPrivate(dbc, "DROP TABLE " + table).status());
    created = ExecOnPrivate(dbc, ct.ToSql());
  }
  return created.status();
}

Result<Schema> PhoenixDriverManager::MaterializeViaClient(
    Hdbc* dbc, const sql::SelectStmt& source, const std::string& table,
    const sql::SelectStmt* shown) {
  Schema metadata;
  if (shown != nullptr) {
    PHX_ASSIGN_OR_RETURN(metadata, ProbeMetadata(dbc, *shown));
  }
  // Pull the result to the client, then push it back in batches into a
  // table created from its metadata.
  PHX_ASSIGN_OR_RETURN(std::vector<eng::StatementResult> results,
                       ExecOnPrivate(dbc, source.ToSql()));
  if (results.empty() || !results[0].has_rows) {
    return Status::SqlError("materialization query produced no result set");
  }
  PHX_RETURN_IF_ERROR(CreateFreshArtifactTable(
      dbc, MakeCreateTableFromMetadata(table, results[0].schema), table));
  const std::vector<Row>& rows = results[0].rows;
  size_t i = 0;
  while (i < rows.size()) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    size_t end = std::min(rows.size(), i + config_.client_insert_batch);
    for (size_t r = i; r < end; ++r) {
      if (r > i) sql += ", ";
      sql += RowToString(rows[r]);
    }
    i = end;
    PHX_RETURN_IF_ERROR(ExecOnPrivate(dbc, sql).status());
  }
  return metadata;
}

// ---------------------------------------------------------------------------
// Keyset / dynamic cursor proxies: persist only the keys
// ---------------------------------------------------------------------------

SqlReturn PhoenixDriverManager::ExecCursorProxy(Hstmt* stmt,
                                                const sql::SelectStmt& sel,
                                                ConnState* cs, bool dynamic) {
  Hdbc* dbc = stmt->dbc;
  if (sel.from.size() != 1 || !sel.group_by.empty() || sel.having != nullptr ||
      sel.distinct || sel.limit >= 0) {
    return Fail(stmt, Status::NotSupported(
                          "keyset/dynamic cursors require a plain "
                          "single-table query"));
  }
  const std::string& base = sel.from[0].name;

  // Discover the primary key (SQLPrimaryKeys analogue).
  auto keys_res = ExecOnPrivate(dbc, "SHOW KEYS " + base);
  if (!keys_res.ok()) return Fail(stmt, keys_res.status());
  std::vector<std::string> pk;
  for (const Row& row : (*keys_res)[0].rows) pk.push_back(row[0].AsString());
  if (pk.empty()) {
    return Fail(stmt, Status::NotSupported("table " + base +
                                           " has no primary key"));
  }
  if (dynamic && pk.size() != 1) {
    return Fail(stmt, Status::NotSupported(
                          "dynamic cursors require a single-column key"));
  }

  // Materialize the key set in PK order; the application sees the
  // original query's metadata.
  std::unique_ptr<sql::SelectStmt> key_sel = MakeSelectKeys(sel, pk);
  std::string key_table = NextKeyTableName(config_, cs);
  auto opened = Materialize(dbc, cs, *key_sel, key_table, config_.fetch_block,
                            &sel);
  if (!opened.ok()) return Fail(stmt, opened.status());

  stmt->has_result = true;
  stmt->schema = std::move(opened->schema);

  auto vs = std::make_shared<StmtState>();
  vs->kind = dynamic ? StmtState::Kind::kDynamic : StmtState::Kind::kKeyset;
  vs->result_table = key_table;
  vs->original_select = sel.Clone();
  vs->pk_columns = std::move(pk);
  vs->key_cursor_id = opened->cursor_id;
  for (Row& key : opened->rows) vs->key_buffer.push_back(std::move(key));
  vs->keys_done = opened->done;
  stmt->dm_state = std::move(vs);
  if (dynamic) {
    ++stats_.dynamic_cursors;
  } else {
    ++stats_.keyset_cursors;
  }
  return SqlReturn::kSuccess;
}

// ---------------------------------------------------------------------------
// DML: transaction wrap + testable state
// ---------------------------------------------------------------------------

Status PhoenixDriverManager::EnsureStatusTable(Hdbc* dbc, ConnState* cs) {
  if (cs->status_table_created) return Status::Ok();
  Status st = ExecOnPrivate(dbc, MakeStatusTableDdl(cs->status_table)).status();
  // AlreadyExists means our own earlier CREATE executed but its reply was
  // lost to a crash. Unlike result/key tables the survivor must NOT be
  // dropped and recreated: it may already record committed request ids, and
  // losing those would turn exactly-once DML into double-apply.
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  cs->artifact_tables.push_back(cs->status_table);
  cs->status_table_created = true;
  return Status::Ok();
}

SqlReturn PhoenixDriverManager::ExecWrappedDml(Hstmt* stmt,
                                               const sql::Statement& dml,
                                               ConnState* cs) {
  Hdbc* dbc = stmt->dbc;
  Status st = EnsureStatusTable(dbc, cs);
  if (!st.ok()) return Fail(stmt, st);
  uint64_t req = cs->next_req_id++;
  std::string wrapped = MakeDmlWrap(cs->status_table, req, dml);
  ++stats_.dml_wrapped;

  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = dbc->driver->ExecScript(wrapped);
    if (results.ok()) {
      // Results: [BEGIN, dml, status-insert, COMMIT]; index 1 is the DML.
      int64_t affected =
          results->size() > 1 ? (*results)[1].affected : -1;
      InstallResult(stmt, eng::StatementResult::Affected(affected));
      return SqlReturn::kSuccess;
    }
    if (!IsCrashSignal(results.status())) {
      return Fail(stmt, results.status());
    }
    auto outcome = RecoverConnection(dbc);
    if (!outcome.ok()) return Fail(stmt, outcome.status());
    // Whether the failure was a crash or a lost message, the status table
    // is the testable state: did the wrapped transaction commit?
    ++stats_.status_probes;
    auto probe = ExecOnPrivate(dbc, MakeStatusProbe(cs->status_table, req));
    if (!probe.ok()) return Fail(stmt, probe.status());
    if (!(*probe)[0].rows.empty()) {
      // Committed before the failure — only the reply was lost.
      ++stats_.lost_replies_recovered;
      int64_t affected = (*probe)[0].rows[0][0].AsInt64();
      InstallResult(stmt, eng::StatementResult::Affected(affected));
      return SqlReturn::kSuccess;
    }
    // Never executed (or rolled back by the crash): resubmit.
    ++stats_.resubmissions;
  }
  return Fail(stmt, Status::CommError("DML retry budget exhausted"));
}

SqlReturn PhoenixDriverManager::ExecInTxn(Hstmt* stmt, const std::string& sql,
                                          ConnState* cs) {
  Hdbc* dbc = stmt->dbc;
  Status st = EnsureStatusTable(dbc, cs);
  if (!st.ok()) return Fail(stmt, st);
  // Testable state *inside* the open transaction: a status row written by
  // the same request. It is uncommitted, so a crash wipes it together with
  // the statement's effects (consistent), while after a mere lost reply the
  // private connection's probe still sees it (Phoenix would read it at
  // READ UNCOMMITTED on a real server). This prevents double-applying a
  // statement whose reply vanished.
  uint64_t req = cs->next_req_id++;
  std::string wrapped = sql + "; INSERT INTO " + cs->status_table +
                        " (REQ_ID, AFFECTED) VALUES (" + std::to_string(req) +
                        ", ROWCOUNT())";
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = dbc->driver->ExecScript(wrapped);
    if (results.ok()) {
      cs->txn_log.push_back(wrapped);
      // The application's result is the last statement before the marker.
      InstallResult(stmt, std::move((*results)[results->size() - 2]));
      return SqlReturn::kSuccess;
    }
    if (!IsCrashSignal(results.status())) return Fail(stmt, results.status());
    // Recovery: a crash replays BEGIN + txn_log (without this statement); a
    // transient failure leaves the server transaction as-is.
    auto outcome = RecoverConnection(dbc);
    if (!outcome.ok()) return Fail(stmt, outcome.status());
    ++stats_.status_probes;
    auto probe = ExecOnPrivate(dbc, MakeStatusProbe(cs->status_table, req));
    if (!probe.ok()) return Fail(stmt, probe.status());
    if (!(*probe)[0].rows.empty()) {
      // Executed inside the still-open transaction; only the reply was lost.
      ++stats_.lost_replies_recovered;
      cs->txn_log.push_back(wrapped);
      int64_t affected = (*probe)[0].rows[0][0].AsInt64();
      InstallResult(stmt, eng::StatementResult::Affected(affected));
      return SqlReturn::kSuccess;
    }
    ++stats_.resubmissions;
  }
  return Fail(stmt, Status::CommError("transaction retry budget exhausted"));
}

SqlReturn PhoenixDriverManager::ExecCommit(Hstmt* stmt, ConnState* cs) {
  Hdbc* dbc = stmt->dbc;
  Status st = EnsureStatusTable(dbc, cs);
  if (!st.ok()) return Fail(stmt, st);
  for (int attempt = 0; attempt < 5; ++attempt) {
    // The marker id (and hence the script) is rebuilt every attempt: when a
    // crash rolled the transaction back, recovery's replay branch cleared
    // pending_commit_req — the old marker died with the old transaction —
    // and the resubmitted COMMIT must carry a fresh id.
    if (cs->pending_commit_req == 0) {
      cs->pending_commit_req = cs->next_req_id++;
    }
    // Commit marker: written inside the transaction, so its presence after
    // a crash proves the commit happened and the reply was merely lost.
    std::string sql = "INSERT INTO " + cs->status_table +
                      " (REQ_ID, AFFECTED) VALUES (" +
                      std::to_string(cs->pending_commit_req) + ", 0); COMMIT";
    auto results = dbc->driver->ExecScript(sql);
    if (results.ok()) {
      cs->in_txn = false;
      cs->txn_log.clear();
      cs->pending_commit_req = 0;
      InstallResult(stmt, eng::StatementResult::Affected(0));
      return SqlReturn::kSuccess;
    }
    if (!IsCrashSignal(results.status())) return Fail(stmt, results.status());
    auto outcome = RecoverConnection(dbc);
    if (!outcome.ok()) return Fail(stmt, outcome.status());
    if (!cs->in_txn) {
      // RecoverConnection found the commit marker: the transaction had
      // committed before the crash.
      InstallResult(stmt, eng::StatementResult::Affected(0));
      return SqlReturn::kSuccess;
    }
    if (*outcome == RecoveryOutcome::kTransient) {
      // No crash — maybe only the reply was lost. Probe the marker before
      // resubmitting, or the marker insert would double-apply.
      ++stats_.status_probes;
      auto probe = ExecOnPrivate(
          dbc, MakeStatusProbe(cs->status_table, cs->pending_commit_req));
      if (!probe.ok()) return Fail(stmt, probe.status());
      if (!(*probe)[0].rows.empty()) {
        ++stats_.lost_replies_recovered;
        cs->in_txn = false;
        cs->txn_log.clear();
        cs->pending_commit_req = 0;
        InstallResult(stmt, eng::StatementResult::Affected(0));
        return SqlReturn::kSuccess;
      }
    }
    // Transaction replayed (crash) or never committed (lost request):
    // resubmit the commit.
  }
  return Fail(stmt, Status::CommError("commit retry budget exhausted"));
}

SqlReturn PhoenixDriverManager::ExecPassthrough(Hstmt* stmt,
                                                const std::string& sql,
                                                ConnState* cs,
                                                bool resubmit_benign) {
  bool retried = false;
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = stmt->dbc->driver->ExecScript(sql);
    if (results.ok()) {
      if (results->empty()) {
        return Fail(stmt, Status::Internal("empty result batch"));
      }
      stmt->pending = std::move(results.value());
      stmt->pending_pos = 1;
      InstallResult(stmt, std::move(stmt->pending[0]));
      (void)cs;
      return SqlReturn::kSuccess;
    }
    const Status& st = results.status();
    if (IsCrashSignal(st)) {
      auto outcome = RecoverConnection(stmt->dbc);
      if (!outcome.ok()) return Fail(stmt, outcome.status());
      retried = true;
      continue;  // resubmit
    }
    // A resubmitted statement whose first (reply-lost) execution already
    // took effect: duplicate-DDL diagnostics are benign on a retry.
    if (retried && resubmit_benign &&
        (st.code() == StatusCode::kAlreadyExists ||
         (st.code() == StatusCode::kSqlError &&
          st.message().find("no such") != std::string::npos))) {
      InstallResult(stmt, eng::StatementResult::Affected(0));
      return SqlReturn::kSuccess;
    }
    return Fail(stmt, st);
  }
  return Fail(stmt, Status::CommError("retry budget exhausted"));
}

// ---------------------------------------------------------------------------
// Fetch paths
// ---------------------------------------------------------------------------

SqlReturn PhoenixDriverManager::Fetch(Hstmt* stmt) {
  ConnState* cs = conn_state(stmt->dbc);
  StmtState* vs = stmt_state(stmt);
  if (cs == nullptr || vs == nullptr) {
    return DriverManager::Fetch(stmt);
  }
  if (cs->broken) return Fail(stmt, Status::CommError("session unrecoverable"));
  SqlReturn r;
  switch (vs->kind) {
    case StmtState::Kind::kMaterialized:
      r = FetchMaterialized(stmt, cs);
      break;
    case StmtState::Kind::kKeyset:
      r = FetchKeyset(stmt, cs, vs);
      break;
    case StmtState::Kind::kDynamic:
      r = FetchDynamic(stmt, cs, vs);
      break;
    case StmtState::Kind::kNone:
    default:
      r = DriverManager::Fetch(stmt);
      break;
  }
  if (r == SqlReturn::kSuccess && vs->recovered) {
    // This row reached the application only because the virtual session
    // survived a crash — the quantity Figure 2 calls "redelivered".
    ++stats_.rows_redelivered;
    ++stats_.last_recovery.rows_redelivered;
    obs::MetricsRegistry::Default()
        ->GetCounter("core.rows_redelivered")
        ->Increment();
  }
  return r;
}

SqlReturn PhoenixDriverManager::FetchMaterialized(Hstmt* stmt, ConnState* cs) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    SqlReturn r = DriverManager::Fetch(stmt);
    if (r != SqlReturn::kError) return r;
    if (!IsCrashSignal(stmt->diag)) return r;
    auto outcome = RecoverConnection(stmt->dbc);
    if (!outcome.ok()) return Fail(stmt, outcome.status());
    if (*outcome == RecoveryOutcome::kTransient) {
      // A lost block-fetch reply advanced the server cursor past rows the
      // client never saw; re-position to the delivery watermark.
      stmt->dbc->driver->Seek(stmt->server_cursor_id, stmt->rows_delivered);
      stmt->buffered.clear();
      stmt->buffer_pos = 0;
      stmt->server_done = false;
    }
    // Remapped case: recovery already re-opened and re-positioned the
    // cursor over the persistent result table; retrying resumes seamlessly.
  }
  (void)cs;
  return Fail(stmt, Status::CommError("fetch retry budget exhausted"));
}

Result<bool> PhoenixDriverManager::NextKey(Hstmt* stmt, ConnState* cs,
                                           StmtState* vs, Row* key) {
  Hdbc* dbc = stmt->dbc;
  if (vs->key_buffer.empty() && !vs->keys_done) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      auto block = dbc->driver->Fetch(vs->key_cursor_id, config_.fetch_block);
      if (block.ok()) {
        for (Row& row : block->rows) vs->key_buffer.push_back(std::move(row));
        vs->keys_done = block->done;
        break;
      }
      if (!IsCrashSignal(block.status())) return block.status();
      PHX_ASSIGN_OR_RETURN(RecoveryOutcome outcome, RecoverConnection(dbc));
      if (outcome == RecoveryOutcome::kTransient) {
        // Lost reply may have advanced the key cursor: re-position it.
        dbc->driver->Seek(vs->key_cursor_id, vs->keys_consumed);
      }
    }
  }
  (void)cs;
  if (vs->key_buffer.empty()) return false;
  *key = std::move(vs->key_buffer.front());
  vs->key_buffer.pop_front();
  ++vs->keys_consumed;
  return true;
}

SqlReturn PhoenixDriverManager::FetchKeyset(Hstmt* stmt, ConnState* cs,
                                            StmtState* vs) {
  while (true) {
    Row key;
    auto have = NextKey(stmt, cs, vs, &key);
    if (!have.ok()) return Fail(stmt, have.status());
    if (!*have) {
      stmt->diag = Status::EndOfData();
      return SqlReturn::kNoData;
    }
    // Re-read the current row by key: updates are visible, deletions skip.
    std::string sql =
        MakeKeyLookup(*vs->original_select, vs->pk_columns, key)->ToSql();
    auto rows = ExecOnMain(stmt->dbc, sql, /*resubmit=*/true);
    if (!rows.ok()) return Fail(stmt, rows.status());
    if ((*rows)[0].rows.empty()) continue;  // row deleted since open
    stmt->current = std::move((*rows)[0].rows[0]);
    ++stmt->rows_delivered;
    return SqlReturn::kSuccess;
  }
}

SqlReturn PhoenixDriverManager::FetchDynamic(Hstmt* stmt, ConnState* cs,
                                             StmtState* vs) {
  if (!vs->pending_rows.empty()) {
    stmt->current = std::move(vs->pending_rows.front());
    vs->pending_rows.pop_front();
    ++stmt->rows_delivered;
    return SqlReturn::kSuccess;
  }
  while (true) {
    Row key;
    auto have = NextKey(stmt, cs, vs, &key);
    if (!have.ok()) return Fail(stmt, have.status());
    if (!*have) {
      stmt->diag = Status::EndOfData();
      return SqlReturn::kNoData;
    }
    // Fetch the whole key range (last, key]: rows inserted into the range
    // since open are picked up — the dynamic-membership property.
    const Value* low = vs->range_started ? &vs->last_key[0] : nullptr;
    std::string sql =
        MakeRangeLookup(*vs->original_select, vs->pk_columns[0], low, key[0])
            ->ToSql();
    auto rows = ExecOnMain(stmt->dbc, sql, /*resubmit=*/true);
    if (!rows.ok()) return Fail(stmt, rows.status());
    vs->last_key = key;
    vs->range_started = true;
    if ((*rows)[0].rows.empty()) continue;  // range emptied by deletions
    for (Row& row : (*rows)[0].rows) vs->pending_rows.push_back(std::move(row));
    stmt->current = std::move(vs->pending_rows.front());
    vs->pending_rows.pop_front();
    ++stmt->rows_delivered;
    return SqlReturn::kSuccess;
  }
}

SqlReturn PhoenixDriverManager::SeekRow(Hstmt* stmt, uint64_t position) {
  ConnState* cs = conn_state(stmt->dbc);
  StmtState* vs = stmt_state(stmt);
  if (cs == nullptr || vs == nullptr) {
    return DriverManager::SeekRow(stmt, position);
  }
  if (cs->broken) return Fail(stmt, Status::CommError("session unrecoverable"));
  switch (vs->kind) {
    case StmtState::Kind::kMaterialized:
      for (int attempt = 0; attempt < 5; ++attempt) {
        SqlReturn r = DriverManager::SeekRow(stmt, position);
        if (r != SqlReturn::kError) return r;
        if (!IsCrashSignal(stmt->diag)) return r;
        auto outcome = RecoverConnection(stmt->dbc);
        if (!outcome.ok()) return Fail(stmt, outcome.status());
      }
      return Fail(stmt, Status::CommError("seek retry budget exhausted"));
    case StmtState::Kind::kKeyset: {
      // Position within the frozen key set; the next fetch re-reads from
      // that key onward.
      for (int attempt = 0; attempt < 5; ++attempt) {
        auto s = stmt->dbc->driver->Seek(vs->key_cursor_id, position);
        if (s.ok()) {
          vs->keys_consumed = position;
          vs->key_buffer.clear();
          vs->keys_done = false;
          stmt->rows_delivered = position;
          stmt->current.clear();
          return SqlReturn::kSuccess;
        }
        if (!IsCrashSignal(s)) return Fail(stmt, s);
        auto outcome = RecoverConnection(stmt->dbc);
        if (!outcome.ok()) return Fail(stmt, outcome.status());
      }
      return Fail(stmt, Status::CommError("seek retry budget exhausted"));
    }
    case StmtState::Kind::kDynamic:
      return Fail(stmt, Status::NotSupported(
                            "absolute positioning on a dynamic cursor"));
    case StmtState::Kind::kNone:
      break;
  }
  return DriverManager::SeekRow(stmt, position);
}

SqlReturn PhoenixDriverManager::CloseCursor(Hstmt* stmt) {
  StmtState* vs = stmt_state(stmt);
  ConnState* cs = conn_state(stmt->dbc);
  if (vs != nullptr && cs != nullptr) {
    if (vs->key_cursor_id != 0 && stmt->dbc->connected && !cs->broken) {
      stmt->dbc->driver->CloseCursor(vs->key_cursor_id);
    }
    // No recovery can need the table once its cursor is gone; the next
    // materialization drops it.
    if (!vs->result_table.empty()) {
      cs->retired_tables.push_back(vs->result_table);
    }
  }
  stmt->dm_state.reset();
  return DriverManager::CloseCursor(stmt);
}

// ---------------------------------------------------------------------------
// Connection-level plumbing
// ---------------------------------------------------------------------------

Result<std::vector<eng::StatementResult>> PhoenixDriverManager::ExecOnMain(
    Hdbc* dbc, const std::string& sql, bool resubmit_after_remap) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = dbc->driver->ExecScript(sql);
    if (results.ok()) return results;
    if (!IsCrashSignal(results.status())) return results;
    PHX_ASSIGN_OR_RETURN(RecoveryOutcome outcome, RecoverConnection(dbc));
    if (outcome == RecoveryOutcome::kRemapped && !resubmit_after_remap) {
      return Status::CommError("request lost in server crash");
    }
  }
  return Status::CommError("retry budget exhausted");
}

Result<odbc::CursorOpenInfo> PhoenixDriverManager::OpenCursorWithRecovery(
    Hdbc* dbc, const std::string& table, uint64_t first_block) {
  Status last;
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto info = dbc->driver->OpenCursor("SELECT * FROM " + table,
                                        eng::CursorType::kStatic, first_block);
    if (info.ok() || !IsCrashSignal(info.status())) return info;
    last = info.status();
    auto outcome = RecoverConnection(dbc);
    if (!outcome.ok()) return outcome.status();
  }
  return last;
}

Result<std::vector<eng::StatementResult>> PhoenixDriverManager::ExecOnPrivate(
    Hdbc* dbc, const std::string& sql) {
  ConnState* cs = conn_state(dbc);
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = cs->private_conn->ExecScript(sql);
    if (results.ok()) return results;
    if (!IsCrashSignal(results.status())) return results;
    PHX_ASSIGN_OR_RETURN(RecoveryOutcome outcome, RecoverConnection(dbc));
    (void)outcome;
  }
  return Status::CommError("retry budget exhausted (private connection)");
}

Result<std::vector<eng::StatementResult>>
PhoenixDriverManager::ExecTxnOnPrivate(Hdbc* dbc, const std::string& script) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto results = ExecOnPrivate(dbc, script);
    if (results.ok() || IsCrashSignal(results.status())) return results;
    // Best effort: "no transaction in progress" when the failure came
    // before the BEGIN, and a crash ends the transaction anyway.
    (void)ExecOnPrivate(dbc, "ROLLBACK");
    // A transaction left open by an earlier run of this script (its
    // failure reply was lost, then the script was re-sent): now rolled
    // back, so the script can run.
    if (results.status().message().find("already in progress") ==
        std::string::npos) {
      return results;
    }
  }
  return Status::CommError("retry budget exhausted (private transaction)");
}

}  // namespace phoenix::core
