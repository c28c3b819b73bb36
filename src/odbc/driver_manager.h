#ifndef PHOENIX_ODBC_DRIVER_MANAGER_H_
#define PHOENIX_ODBC_DRIVER_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "odbc/handles.h"

namespace phoenix::odbc {

/// The ODBC driver manager: routes every API call point to the driver.
/// All server-touching call points are virtual — exactly the surface an
/// enhanced driver manager (Phoenix) wraps with surrogates. Client-local
/// call points (DescribeCol, GetData, ...) are non-virtual: they read
/// handle state only and need no interception.
class DriverManager {
 public:
  explicit DriverManager(net::Network* network) : network_(network) {}
  virtual ~DriverManager() = default;

  // ---- Handle management -------------------------------------------------
  Henv* AllocEnv();
  void FreeEnv(Henv* env);
  Hdbc* AllocConnect(Henv* env);
  virtual SqlReturn FreeConnect(Hdbc* dbc);
  Hstmt* AllocStmt(Hdbc* dbc);
  virtual SqlReturn FreeStmt(Hstmt* stmt);

  // ---- Connection --------------------------------------------------------
  virtual SqlReturn Connect(Hdbc* dbc, const std::string& dsn,
                            const std::string& user);
  virtual SqlReturn Disconnect(Hdbc* dbc);
  virtual SqlReturn SetConnectOption(Hdbc* dbc, const std::string& name,
                                     const std::string& value);

  // ---- Statements ----------------------------------------------------------
  SqlReturn SetStmtAttr(Hstmt* stmt, StmtAttr attr, int64_t value);
  virtual SqlReturn ExecDirect(Hstmt* stmt, const std::string& sql);

  /// SQLPrepare: stores the statement text; '?' marks positional params.
  SqlReturn Prepare(Hstmt* stmt, const std::string& sql);
  /// SQLBindParameter analogue (0-based position).
  SqlReturn BindParam(Hstmt* stmt, size_t index, Value value);
  /// SQLExecute: substitutes bound parameters as SQL literals and runs the
  /// statement through ExecDirect (so an enhanced DM intercepts normally).
  SqlReturn Execute(Hstmt* stmt);

  /// Replaces each '?' outside string literals with the corresponding
  /// parameter rendered as a SQL literal. Public for tests.
  static Result<std::string> SubstituteParams(
      const std::string& sql, const std::vector<Value>& params);
  virtual SqlReturn Fetch(Hstmt* stmt);
  /// SQLFetchScroll(SQL_FETCH_ABSOLUTE) analogue: positions the result so
  /// the next Fetch delivers row `position` (0-based). Works on buffered
  /// default result sets and on static/keyset server cursors.
  virtual SqlReturn SeekRow(Hstmt* stmt, uint64_t position);
  virtual SqlReturn MoreResults(Hstmt* stmt);
  virtual SqlReturn CloseCursor(Hstmt* stmt);

  // ---- Client-local result access (no server round trip) ------------------
  SqlReturn NumResultCols(Hstmt* stmt, size_t* count);
  SqlReturn DescribeCol(Hstmt* stmt, size_t index, Column* column);
  SqlReturn GetData(Hstmt* stmt, size_t index, Value* value);
  SqlReturn RowCount(Hstmt* stmt, int64_t* count);

  /// Last error recorded on a handle (SQLGetDiagRec analogue).
  static const Status& Diag(const Hstmt* stmt) { return stmt->diag; }
  static const Status& Diag(const Hdbc* dbc) { return dbc->diag; }

  net::Network* network() { return network_; }

 protected:
  // Shared plumbing for subclasses.
  SqlReturn Fail(Hstmt* stmt, Status status);
  SqlReturn Fail(Hdbc* dbc, Status status);
  static void ResetResultState(Hstmt* stmt);
  /// Installs one StatementResult as the statement's active result.
  static void InstallResult(Hstmt* stmt, eng::StatementResult result);
  /// Installs a just-opened server cursor, its first block buffered.
  static void InstallOpenedCursor(Hstmt* stmt, CursorOpenInfo info);
  /// Refills the client-side block buffer from the statement's server
  /// cursor. Sets stmt->server_done at end.
  SqlReturn FetchBlock(Hstmt* stmt);

  net::Network* network_;

 private:
  std::vector<std::unique_ptr<Henv>> envs_;
};

}  // namespace phoenix::odbc

#endif  // PHOENIX_ODBC_DRIVER_MANAGER_H_
