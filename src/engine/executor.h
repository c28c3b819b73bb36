#ifndef PHOENIX_ENGINE_EXECUTOR_H_
#define PHOENIX_ENGINE_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/expression.h"
#include "sql/ast.h"
#include "storage/table_store.h"

namespace phoenix::eng {

class Database;
struct Session;
struct AccessPath;

/// The server-side outcome of one statement: either a materialized result
/// set or an affected-row count (never both).
struct StatementResult {
  bool has_rows = false;
  Schema schema;
  std::vector<Row> rows;
  int64_t affected = -1;

  static StatementResult Affected(int64_t n) {
    StatementResult r;
    r.affected = n;
    return r;
  }
};

/// A FROM-clause evaluation: joined, WHERE-filtered working set.
struct BoundRows {
  Schema schema;                       ///< combined input columns
  std::vector<std::string> qualifiers; ///< binding name per column
  std::vector<Row> rows;
  /// RowIds parallel to `rows` — populated only for single-table sources
  /// (needed by UPDATE/DELETE and keyset cursors).
  std::vector<storage::RowId> rids;
  storage::Table* single_table = nullptr;
  /// Rows were enumerated in an index order that already satisfies the
  /// statement's ORDER BY — the executor may skip its sort.
  bool ordered = false;
};

/// Executes parsed statements against a Database on behalf of a Session.
/// One Executor is constructed per request; it carries no state beyond the
/// two borrowed pointers and the optional @param bindings.
class Executor {
 public:
  Executor(Database* db, Session* session,
           const std::map<std::string, Value>* params = nullptr)
      : db_(db), session_(session), params_(params) {}

  /// Dispatches on statement kind. Transaction-control statements are
  /// handled by the Database, not here.
  Result<StatementResult> Execute(const sql::Statement& stmt);

  Result<StatementResult> ExecuteSelect(const sql::SelectStmt& sel);

  /// Evaluates the FROM/WHERE part of a SELECT (used by cursors too).
  Result<BoundRows> EvaluateFrom(const sql::SelectStmt& sel);

  /// The tail of ExecuteSelect: aggregation / projection / DISTINCT /
  /// ORDER BY / LIMIT over an already-evaluated working set. Operates purely
  /// on the copied rows in `input` — the snapshot read path calls this after
  /// releasing the data lock.
  Result<StatementResult> FinishSelect(const sql::SelectStmt& sel,
                                       BoundRows input);

  /// Pins table scans to an MVCC snapshot: rows are resolved through each
  /// table's version chains as of `snap` instead of the live heap. Borrowed
  /// pointer; must outlive every Evaluate/Execute call made with it set.
  void set_snapshot(const storage::MvccSnapshot* snap) { snapshot_ = snap; }

  /// Computes the output schema of a projection over `input`.
  /// Column names: alias > source column name > "C<i>".
  Result<Schema> ProjectionSchema(const std::vector<sql::SelectItem>& items,
                                  const BoundRows& input);

  /// Projects one input row through the select items (non-aggregate path).
  Result<Row> ProjectRow(const std::vector<sql::SelectItem>& items,
                         const Schema& schema,
                         const std::vector<std::string>* qualifiers,
                         const Row& row);

 private:
  Result<StatementResult> ExecuteInsert(const sql::InsertStmt& ins);
  Result<StatementResult> ExecuteUpdate(const sql::UpdateStmt& upd);
  Result<StatementResult> ExecuteDelete(const sql::DeleteStmt& del);
  Result<StatementResult> ExecuteCreateTable(const sql::CreateTableStmt& ct);
  Result<StatementResult> ExecuteDropTable(const sql::DropTableStmt& dt);
  Result<StatementResult> ExecuteCreateProc(const sql::CreateProcStmt& cp);
  Result<StatementResult> ExecuteDropProc(const sql::DropProcStmt& dp);
  Result<StatementResult> ExecuteExec(const sql::ExecStmt& ex);
  Result<StatementResult> ExecuteCreateIndex(const sql::CreateIndexStmt& ci);
  Result<StatementResult> ExecuteDropIndex(const sql::DropIndexStmt& di);
  /// EXPLAIN of SELECT/INSERT/UPDATE/DELETE. Reports the plan only — never
  /// executes the inner statement and never mutates any table.
  Result<StatementResult> ExecuteExplain(const sql::Statement& inner);

  /// Aggregation/grouping pipeline for selects containing aggregates or
  /// GROUP BY.
  Result<StatementResult> ExecuteAggregate(const sql::SelectStmt& sel,
                                           BoundRows input);

  Status ApplyOrderLimit(const sql::SelectStmt& sel, const BoundRows* input,
                         const std::vector<Row>* input_rows,
                         StatementResult* result);

  /// Enumerates the RowIds `path` selects from `t` into `rids` (index-key
  /// order, ties by RowId). With `snap` set the dead-entry maps are probed
  /// too and `rids` comes back deduplicated in RowId order. Returns false
  /// when the heap must be scanned instead: a seq-scan path, a bound that
  /// fails to evaluate, or an index dropped since planning.
  bool ProbeAccessPath(const storage::Table& t, const AccessPath& path,
                       const storage::MvccSnapshot* snap,
                       std::vector<storage::RowId>* rids) const;

  /// The access path an UPDATE/DELETE of `t` filtered by `where` takes;
  /// ForEachDmlMatch runs it and EXPLAIN reports it.
  AccessPath PlanDml(const storage::Table& t, const std::string& binding,
                     const sql::Expr* where) const;

  /// Calls `visit` on each row of `t` an UPDATE/DELETE WHERE matches, in
  /// RowId order. Candidates come from the access path SELECT would plan;
  /// the whole WHERE is re-applied to each one (engine.dml.rows_examined
  /// counts them).
  Status ForEachDmlMatch(
      const storage::Table& t, const std::string& binding,
      const sql::Expr* where,
      const std::function<Status(storage::RowId, const Row&)>& visit);

  EvalEnv MakeEnv(const Schema* schema,
                  const std::vector<std::string>* qualifiers,
                  const Row* row) const;

  Database* db_;
  Session* session_;
  const std::map<std::string, Value>* params_;
  const storage::MvccSnapshot* snapshot_ = nullptr;
};

}  // namespace phoenix::eng

#endif  // PHOENIX_ENGINE_EXECUTOR_H_
