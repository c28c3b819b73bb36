#ifndef PHOENIX_CORE_PHOENIX_DRIVER_MANAGER_H_
#define PHOENIX_CORE_PHOENIX_DRIVER_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/virtual_session.h"
#include "odbc/driver_manager.h"

namespace phoenix::core {

/// The Phoenix-enhanced driver manager (the paper's contribution).
///
/// It wraps every server-touching ODBC call point with a surrogate that
///  (1) persists volatile session state as server tables before the request
///      reaches the native driver,
///  (2) maps the application's handles onto a *virtual* session, and
///  (3) detects server failures, waits out recovery, re-maps the virtual
///      session onto a fresh connection, reinstalls the saved SQL state, and
///      transparently resumes — the application just sees a slow call.
///
/// Applications use it exactly like the plain DriverManager; the plain
/// odbc::DriverManager is the native, non-persistent path.
class PhoenixDriverManager : public odbc::DriverManager {
 public:
  PhoenixDriverManager(net::Network* network, PhoenixConfig config = {});

  // Intercepted call points (the "surrogates").
  odbc::SqlReturn Connect(odbc::Hdbc* dbc, const std::string& dsn,
                          const std::string& user) override;
  odbc::SqlReturn Disconnect(odbc::Hdbc* dbc) override;
  odbc::SqlReturn SetConnectOption(odbc::Hdbc* dbc, const std::string& name,
                                   const std::string& value) override;
  odbc::SqlReturn ExecDirect(odbc::Hstmt* stmt, const std::string& sql) override;
  odbc::SqlReturn Fetch(odbc::Hstmt* stmt) override;
  odbc::SqlReturn SeekRow(odbc::Hstmt* stmt, uint64_t position) override;
  odbc::SqlReturn CloseCursor(odbc::Hstmt* stmt) override;

  /// Administrative sweep: drops Phoenix-created server objects abandoned
  /// by clients that died without end-of-session cleanup. An object named
  /// <prefix>_<KIND>_<tag>... is orphaned iff no live session still owns
  /// the session-proxy temp table <prefix>_PROXY_<tag>. Returns how many
  /// objects were dropped. Safe to run while other Phoenix clients are
  /// active.
  static Result<int> CleanupOrphans(net::Network* network,
                                    const std::string& dsn,
                                    const std::string& user,
                                    const std::string& prefix = "PHX");

  /// Test-only surface over the raw RepositionCursor path (regression
  /// coverage for the short-discard bug: repositioning past the end of the
  /// persistent result table must fail loudly, never silently succeed).
  Status RepositionCursorForTest(odbc::Hdbc* dbc, const std::string& table,
                                 uint64_t position, uint64_t* cursor_id) {
    return RepositionCursor(dbc, table, position, cursor_id);
  }

  const PhoenixConfig& config() const { return config_; }
  PhoenixConfig* mutable_config() { return &config_; }
  const PhoenixStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PhoenixStats(); }

  /// Phoenix bookkeeping attached to a handle (test/bench introspection).
  static ConnState* conn_state(odbc::Hdbc* dbc) {
    return static_cast<ConnState*>(dbc->dm_state.get());
  }
  static StmtState* stmt_state(odbc::Hstmt* stmt) {
    return static_cast<StmtState*>(stmt->dm_state.get());
  }

 private:
  enum class RecoveryOutcome { kTransient, kRemapped };

  // ---- execution paths (phoenix_driver_manager.cc) ----
  odbc::SqlReturn ExecMaterializedSelect(odbc::Hstmt* stmt,
                                         const sql::SelectStmt& sel,
                                         ConnState* cs);
  odbc::SqlReturn ExecCursorProxy(odbc::Hstmt* stmt, const sql::SelectStmt& sel,
                                  ConnState* cs, bool dynamic);
  odbc::SqlReturn ExecWrappedDml(odbc::Hstmt* stmt, const sql::Statement& dml,
                                 ConnState* cs);
  odbc::SqlReturn ExecInTxn(odbc::Hstmt* stmt, const std::string& sql,
                            ConnState* cs);
  odbc::SqlReturn ExecCommit(odbc::Hstmt* stmt, ConnState* cs);
  odbc::SqlReturn ExecPassthrough(odbc::Hstmt* stmt, const std::string& sql,
                                  ConnState* cs, bool resubmit_benign);

  odbc::SqlReturn FetchMaterialized(odbc::Hstmt* stmt, ConnState* cs);
  odbc::SqlReturn FetchKeyset(odbc::Hstmt* stmt, ConnState* cs, StmtState* vs);
  odbc::SqlReturn FetchDynamic(odbc::Hstmt* stmt, ConnState* cs, StmtState* vs);

  // ---- plumbing ----
  /// Executes on the app's (main) connection, recovering and retrying on
  /// crash signals. Only safe for idempotent statements unless
  /// `resubmit_after_remap` is false.
  Result<std::vector<eng::StatementResult>> ExecOnMain(
      odbc::Hdbc* dbc, const std::string& sql, bool resubmit_after_remap);
  /// Same, on the Phoenix private connection.
  Result<std::vector<eng::StatementResult>> ExecOnPrivate(
      odbc::Hdbc* dbc, const std::string& sql);
  /// ExecOnPrivate for a script that opens a transaction. A non-crash error
  /// stops the script where it failed, possibly inside the transaction, so
  /// the private session is rolled back before the error is returned: it
  /// never stays inside a transaction between calls.
  Result<std::vector<eng::StatementResult>> ExecTxnOnPrivate(
      odbc::Hdbc* dbc, const std::string& script);

  Status EnsureStatusTable(odbc::Hdbc* dbc, ConnState* cs);
  /// CREATE TABLE for a freshly named, session-tagged Phoenix artifact
  /// (client-copy ablation). An AlreadyExists hit can only be our own
  /// lost-reply predecessor, so it is dropped and the CREATE retried.
  Status CreateFreshArtifactTable(odbc::Hdbc* dbc,
                                  const sql::CreateTableStmt& ct,
                                  const std::string& table);
  Result<Schema> ProbeMetadata(odbc::Hdbc* dbc, const sql::SelectStmt& sel);
  /// Persists `source`'s rows as the fresh artifact table `table`, then
  /// opens a static cursor over it on the main connection that ships its
  /// first `first_block` rows. When `shown` is set, the metadata of that
  /// select (the result set the application sees) is probed in the same
  /// private round trip and becomes the returned schema.
  Result<odbc::CursorOpenInfo> Materialize(odbc::Hdbc* dbc, ConnState* cs,
                                           const sql::SelectStmt& source,
                                           const std::string& table,
                                           uint64_t first_block,
                                           const sql::SelectStmt* shown);
  /// The server path of Materialize: one MakeMaterializeScript round trip,
  /// which also drops the connection's retired tables. Returns `shown`'s
  /// metadata (empty when it is null).
  Result<Schema> MaterializeOnServer(odbc::Hdbc* dbc, ConnState* cs,
                                     const sql::SelectStmt& source,
                                     const std::string& table,
                                     const sql::SelectStmt* shown);
  /// The client-copy ablation of Materialize: the rows pulled to the
  /// client, CREATE from their metadata, then pushed back in INSERT
  /// batches.
  Result<Schema> MaterializeViaClient(odbc::Hdbc* dbc,
                                      const sql::SelectStmt& source,
                                      const std::string& table,
                                      const sql::SelectStmt* shown);
  /// Pulls the next key of a keyset/dynamic proxy. Returns false at end.
  Result<bool> NextKey(odbc::Hstmt* stmt, ConnState* cs, StmtState* vs,
                       Row* key);

  /// An error that may mean "the server crashed": comm error, timeout, or a
  /// dangling pre-crash session id.
  bool IsCrashSignal(const Status& s) const;

  // ---- recovery (recovery_manager.cc) ----
  /// Outer driver: runs RecoverConnectionOnce, restarting the whole pass
  /// (up to config_.recovery.max_recovery_rounds) when recovery itself dies
  /// on a crash signal — the server crashed again mid-recovery.
  Result<RecoveryOutcome> RecoverConnection(odbc::Hdbc* dbc);
  /// One detection + Phase 1 + Phase 2 pass.
  Result<RecoveryOutcome> RecoverConnectionOnce(odbc::Hdbc* dbc,
                                                ConnState* cs);
  Status ReinstallSqlState(odbc::Hdbc* dbc, ConnState* cs);
  Status RepositionCursor(odbc::Hdbc* dbc, const std::string& table,
                          uint64_t position, uint64_t* cursor_id);
  /// The initial open of a cursor over a Phoenix table, shipping its first
  /// `first_block` rows, with crash-signal recovery + retry (recovery
  /// itself re-opens through RepositionCursor).
  Result<odbc::CursorOpenInfo> OpenCursorWithRecovery(odbc::Hdbc* dbc,
                                                      const std::string& table,
                                                      uint64_t first_block);

  PhoenixConfig config_;
  PhoenixStats stats_;
};

}  // namespace phoenix::core

#endif  // PHOENIX_CORE_PHOENIX_DRIVER_MANAGER_H_
