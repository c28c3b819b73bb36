#include "engine/executor.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>

#include "engine/database.h"
#include "engine/planner.h"
#include "obs/metrics.h"

namespace phoenix::eng {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectItem;
using sql::SelectStmt;
using sql::Statement;
using sql::StmtKind;

// SplitConjuncts / IsRowInvariant / Resolvable live in engine/planner.h —
// the planner and executor must agree on predicate decomposition.

namespace {

struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

/// Hash over a row of values, for hash joins.
struct RowHash {
  size_t operator()(const Row& r) const {
    size_t h = 1469598103934665603ULL;
    for (const Value& v : r) h = h * 1099511628211ULL ^ v.Hash();
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

/// Accumulator for one aggregate call over one group.
struct AggState {
  int64_t count = 0;
  double dsum = 0;
  int64_t isum = 0;
  bool saw_double = false;
  bool any = false;
  Value min, max;
  std::set<Value, ValueLess> distinct;
};

Status AccumulateAgg(const Expr& agg, const EvalEnv& env, AggState* st) {
  if (agg.func_name == "COUNT" && !agg.args.empty() &&
      agg.args[0]->kind == ExprKind::kStar) {
    ++st->count;
    return Status::Ok();
  }
  if (agg.args.size() != 1) {
    return Status::SqlError(agg.func_name + " expects one argument");
  }
  PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*agg.args[0], env));
  if (v.is_null()) return Status::Ok();
  if (agg.distinct) {
    if (st->distinct.count(v)) return Status::Ok();
    st->distinct.insert(v);
  }
  ++st->count;
  if (agg.func_name == "SUM" || agg.func_name == "AVG") {
    if (!v.IsNumeric()) {
      return Status::SqlError(agg.func_name + " over non-numeric value");
    }
    if (v.type() == DataType::kDouble) st->saw_double = true;
    st->dsum += v.AsDouble();
    if (v.type() != DataType::kDouble) st->isum += v.AsInt64();
  }
  if (!st->any || v.Compare(st->min) < 0) st->min = v;
  if (!st->any || v.Compare(st->max) > 0) st->max = v;
  st->any = true;
  return Status::Ok();
}

Value FinishAgg(const Expr& agg, const AggState& st) {
  if (agg.func_name == "COUNT") return Value::Int64(st.count);
  if (!st.any && agg.func_name != "COUNT") return Value::Null();
  if (agg.func_name == "SUM") {
    return st.saw_double ? Value::Double(st.dsum) : Value::Int64(st.isum);
  }
  if (agg.func_name == "AVG") {
    return Value::Double(st.dsum / static_cast<double>(st.count));
  }
  if (agg.func_name == "MIN") return st.min;
  return st.max;  // MAX
}

/// Derives an output column name for a select item.
std::string OutputName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  return "C" + std::to_string(index + 1);
}

/// Guesses the output type of an expression (best effort; the engine is
/// dynamically typed, so this only feeds metadata).
DataType GuessType(const Expr& e, const Schema& schema,
                   const std::vector<std::string>* quals) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type();
    case ExprKind::kColumnRef: {
      auto r = ResolveColumn(schema, quals, e.table_qualifier, e.column);
      if (r.ok()) return schema.column(r.value()).type;
      return DataType::kString;
    }
    case ExprKind::kFunction: {
      if (e.func_name == "COUNT" || e.func_name == "LENGTH") {
        return DataType::kInt64;
      }
      if (e.func_name == "AVG" || e.func_name == "ROUND") {
        return DataType::kDouble;
      }
      if (e.func_name == "SUM" || e.func_name == "MIN" ||
          e.func_name == "MAX" || e.func_name == "COALESCE") {
        if (!e.args.empty() && e.args[0]->kind != ExprKind::kStar) {
          return GuessType(*e.args[0], schema, quals);
        }
        return DataType::kInt64;
      }
      if (e.func_name == "UPPER" || e.func_name == "LOWER" ||
          e.func_name == "SUBSTR" || e.func_name == "SUBSTRING" ||
          e.func_name == "CONCAT") {
        return DataType::kString;
      }
      if (e.func_name == "YEAR" || e.func_name == "MONTH" ||
          e.func_name == "DAY") {
        return DataType::kInt32;
      }
      if (e.func_name == "DATE_ADD_DAYS") return DataType::kDate;
      return DataType::kDouble;
    }
    case ExprKind::kUnary:
      if (e.un_op == sql::UnOp::kNot) return DataType::kBool;
      return e.left ? GuessType(*e.left, schema, quals) : DataType::kInt64;
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod: {
          DataType l = GuessType(*e.left, schema, quals);
          DataType r = GuessType(*e.right, schema, quals);
          if (l == DataType::kString || r == DataType::kString) {
            return DataType::kString;
          }
          if (l == DataType::kDouble || r == DataType::kDouble ||
              e.bin_op == BinOp::kDiv) {
            return DataType::kDouble;
          }
          return DataType::kInt64;
        }
        default:
          return DataType::kBool;
      }
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      return DataType::kBool;
    case ExprKind::kCase:
      // Type of the first THEN branch.
      if (e.args.size() >= 2) return GuessType(*e.args[1], schema, quals);
      return DataType::kString;
    case ExprKind::kParam:
    case ExprKind::kStar:
      return DataType::kString;
  }
  return DataType::kString;
}

}  // namespace

EvalEnv Executor::MakeEnv(const Schema* schema,
                          const std::vector<std::string>* qualifiers,
                          const Row* row) const {
  EvalEnv env;
  env.schema = schema;
  env.qualifiers = qualifiers;
  env.row = row;
  env.params = params_;
  env.last_rowcount = session_ != nullptr ? session_->last_rowcount : 0;
  return env;
}

namespace {

/// SHOW KEYS / SHOW TABLES — catalog introspection (SQLPrimaryKeys /
/// SQLTables analogues in the ODBC world).
Result<StatementResult> ExecuteShow(const sql::ShowStmt& show, Database* db) {
  StatementResult r;
  r.has_rows = true;
  if (show.what == sql::ShowStmt::What::kKeys) {
    const storage::Table* t = db->store()->Get(show.table);
    if (t == nullptr) return Status::SqlError("no such table: " + show.table);
    r.schema.AddColumn(Column{"COLUMN_NAME", DataType::kString, false});
    for (int c : t->pk_columns()) {
      r.rows.push_back(Row{Value::String(t->schema().column(c).name)});
    }
    return r;
  }
  if (show.what == sql::ShowStmt::What::kProcs) {
    r.schema.AddColumn(Column{"PROCEDURE_NAME", DataType::kString, false});
    for (const std::string& name : db->temp_procs()->ListNames()) {
      r.rows.push_back(Row{Value::String(name)});
    }
    const storage::Table* sys = db->store()->Get(kSysProcTable);
    if (sys != nullptr) {
      for (const auto& [rid, row] : sys->rows()) {
        r.rows.push_back(Row{row[0]});
      }
    }
    return r;
  }
  r.schema.AddColumn(Column{"TABLE_NAME", DataType::kString, false});
  for (const std::string& name : db->store()->ListNames()) {
    r.rows.push_back(Row{Value::String(name)});
  }
  return r;
}

}  // namespace

Result<StatementResult> Executor::Execute(const Statement& stmt) {
  switch (stmt.kind) {
    case StmtKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case StmtKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StmtKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case StmtKind::kDelete:
      return ExecuteDelete(*stmt.del);
    case StmtKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StmtKind::kDropTable:
      return ExecuteDropTable(*stmt.drop_table);
    case StmtKind::kCreateProc:
      return ExecuteCreateProc(*stmt.create_proc);
    case StmtKind::kDropProc:
      return ExecuteDropProc(*stmt.drop_proc);
    case StmtKind::kExec:
      return ExecuteExec(*stmt.exec);
    case StmtKind::kShow:
      return ExecuteShow(*stmt.show, db_);
    case StmtKind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case StmtKind::kDropIndex:
      return ExecuteDropIndex(*stmt.drop_index);
    case StmtKind::kExplain:
      return ExecuteExplain(*stmt.explain_inner);
    case StmtKind::kBeginTxn:
    case StmtKind::kCommit:
    case StmtKind::kRollback:
      return Status::Internal("txn control reached the executor");
  }
  return Status::Internal("bad statement kind");
}

bool Executor::ProbeAccessPath(const storage::Table& t, const AccessPath& path,
                               const storage::MvccSnapshot* snap,
                               std::vector<storage::RowId>* rids) const {
  if (path.kind == AccessKind::kSeqScan) return false;
  // The bound expressions are row-invariant; any that fails to evaluate
  // sends the caller back to the heap scan.
  IndexBounds ib;
  Value lo_v, hi_v;
  EvalEnv env0 = MakeEnv(nullptr, nullptr, nullptr);
  for (const Expr* e : path.eq) {
    auto v = EvalExpr(*e, env0);
    if (!v.ok()) return false;
    ib.eq.push_back(v.take());
  }
  if (path.lo != nullptr) {
    auto v = EvalExpr(*path.lo, env0);
    if (!v.ok()) return false;
    lo_v = v.take();
    ib.lo = &lo_v;
    ib.lo_inclusive = path.lo_inclusive;
  }
  if (path.hi != nullptr) {
    auto v = EvalExpr(*path.hi, env0);
    if (!v.ok()) return false;
    hi_v = v.take();
    ib.hi = &hi_v;
    ib.hi_inclusive = path.hi_inclusive;
  }
  if (path.index == "PRIMARY") {
    ScanPkIndex(t, ib, rids);
    if (snap != nullptr) ScanEntryMap(t.mvcc_dead_pk(), ib, rids);
  } else if (const storage::SecondaryIndex* idx = t.FindIndex(path.index)) {
    ScanIndex(*idx, ib, rids);
    if (snap != nullptr) ScanEntryMap(idx->dead_entries, ib, rids);
  } else {
    return false;  // index dropped since planning
  }
  if (snap != nullptr) {
    // The dead-entry maps are conservative (a rid may also still be live,
    // or carry several superseded keys): dedup by rid and fall back to
    // RowId order; the snapshot resolver decides visibility per rid.
    std::sort(rids->begin(), rids->end());
    rids->erase(std::unique(rids->begin(), rids->end()), rids->end());
  }
  return true;
}

namespace {

bool IsAggregate(const SelectStmt& sel) {
  if (!sel.group_by.empty() || sel.having != nullptr) return true;
  for (const SelectItem& item : sel.items) {
    if (item.expr->ContainsAggregate()) return true;
  }
  return false;
}

}  // namespace

Result<BoundRows> Executor::EvaluateFrom(const SelectStmt& sel) {
  BoundRows out;
  if (sel.from.empty()) {
    out.rows.push_back(Row{});
    // Still honor WHERE on a table-less select (the 0=1 metadata probe).
    if (sel.where != nullptr) {
      EvalEnv env = MakeEnv(&out.schema, &out.qualifiers, &out.rows[0]);
      PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*sel.where, env));
      if (!Truthy(v)) out.rows.clear();
    }
    return out;
  }

  // Resolve tables.
  struct Bound {
    storage::Table* table;
    std::string binding;
  };
  std::vector<Bound> tables;
  for (const sql::TableRef& ref : sel.from) {
    storage::Table* t = db_->store()->Get(ref.name);
    if (t == nullptr) return Status::SqlError("no such table: " + ref.name);
    tables.push_back(Bound{t, ref.BindingName()});
  }

  // Gather conjuncts from WHERE and inner-JOIN ON clauses (inner ON is
  // semantically a WHERE conjunct). LEFT-join ON conditions are NOT pooled:
  // they decide matching, not filtering, and are handled at their join.
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(sel.where.get(), &conjuncts);
  std::map<int, const sql::JoinSpec*> left_spec_of;
  for (const sql::JoinSpec& j : sel.joins) {
    if (j.left) {
      left_spec_of[j.table_index] = &j;
    } else {
      SplitConjuncts(j.on.get(), &conjuncts);
    }
  }
  std::vector<bool> used(conjuncts.size(), false);

  // Constant folding: a row-invariant conjunct is evaluated exactly once.
  // A constant-false one (e.g. Phoenix's `WHERE 0=1` metadata probe) makes
  // the result empty without scanning a single row — only "compilation"
  // (schema construction) happens, mirroring the paper's FMTONLY behavior.
  bool constant_false = false;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!IsRowInvariant(*conjuncts[i])) continue;
    EvalEnv env = MakeEnv(nullptr, nullptr, nullptr);
    PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*conjuncts[i], env));
    used[i] = true;
    if (!Truthy(v)) constant_false = true;
  }
  if (constant_false) {
    BoundRows empty;
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      // Same schema the evaluated join reports: LEFT-joined columns are
      // nullable (null-padded rows), so the probe's metadata matches.
      bool padded = left_spec_of.count(static_cast<int>(ti)) > 0;
      for (Column c : tables[ti].table->schema().columns()) {
        if (padded) c.nullable = true;
        empty.schema.AddColumn(std::move(c));
        empty.qualifiers.push_back(tables[ti].binding);
      }
    }
    if (tables.size() == 1) empty.single_table = tables[0].table;
    return empty;
  }

  // Access-path planning: chooses index vs sequential scans and join
  // strategies from table statistics. Every conjunct an index bound came
  // from is still re-applied below, so a plan can only over-enumerate.
  SelectPlan plan =
      PlanSelect(sel, *db_->store(), db_->index_planner_enabled());

  // Snapshot reads resolve rows through the version chains only when the
  // table actually carries versions or pending stamps; a quiescent table is
  // byte-identical between the two paths, so the plain scan keeps its
  // key-order shortcut and its index-miss-is-corruption invariant.
  auto snap_for = [&](const storage::Table* t) -> const storage::MvccSnapshot* {
    return (snapshot_ != nullptr && !t->MvccQuiescent()) ? snapshot_ : nullptr;
  };

  // A LIMIT the scan can honor by itself: one table, and no later stage
  // that needs the rows past it (aggregation, DISTINCT). An ORDER BY must
  // also be satisfied by the scan's own enumeration order (checked below).
  // The rows it skips are exactly those SortAndTrim would drop.
  const size_t row_cap = tables.size() == 1 && sel.limit >= 0 &&
                                 !sel.distinct && !IsAggregate(sel)
                             ? static_cast<size_t>(sel.limit)
                             : SIZE_MAX;

  // Helper: scan one table into a BoundRows, applying all still-unused
  // conjuncts that are resolvable against it alone. Pool filtering must be
  // skipped for the right side of a LEFT join (WHERE applies after the
  // null-padding join, not before). When `path` names an index, candidate
  // rows are enumerated from it instead of the heap — in RowId order unless
  // `key_order` (the plan promised index order satisfies ORDER BY).
  auto scan_table = [&](const Bound& b, const AccessPath* path,
                        bool apply_pool, bool key_order,
                        bool reverse) -> Result<BoundRows> {
    BoundRows r;
    for (const Column& c : b.table->schema().columns()) {
      r.schema.AddColumn(c);
      r.qualifiers.push_back(b.binding);
    }
    std::vector<size_t> applicable;
    if (apply_pool) {
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (!used[i] && Resolvable(*conjuncts[i], r.schema, r.qualifiers)) {
          applicable.push_back(i);
        }
      }
    }
    // Every conjunct filters in this scan, so each kept row is final.
    const bool all_filtered =
        static_cast<size_t>(std::count(used.begin(), used.end(), true)) +
            applicable.size() ==
        conjuncts.size();
    auto keep_row = [&](const Row& row) -> Result<bool> {
      EvalEnv env = MakeEnv(&r.schema, &r.qualifiers, &row);
      for (size_t ci : applicable) {
        PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*conjuncts[ci], env));
        if (!Truthy(v)) return false;
      }
      return true;
    };
    bool used_index = false;
    if (path != nullptr) {
      const storage::MvccSnapshot* snap = snap_for(b.table);
      std::vector<storage::RowId> rids;
      if (ProbeAccessPath(*b.table, *path, snap, &rids)) {
        used_index = true;
        if (snap == nullptr) {
          if (!key_order) {
            // Preserve the heap's historical RowId enumeration order.
            std::sort(rids.begin(), rids.end());
          } else if (reverse) {
            std::reverse(rids.begin(), rids.end());
          }
        }
        const bool capped = all_filtered && (sel.order_by.empty() ||
                                             (key_order && snap == nullptr));
        for (storage::RowId rid : rids) {
          if (capped && r.rows.size() >= row_cap) break;
          const Row* row;
          if (snap != nullptr) {
            // A miss is not corruption here: the rid's versions are simply
            // all invisible to this snapshot (inserted after it, or
            // reclaimed keys swept conservatively).
            row = b.table->MvccVersionAsOf(rid, *snap);
            if (row == nullptr) continue;
          } else {
            row = b.table->Find(rid);
            if (row == nullptr) {
              return Status::Internal("index references missing row");
            }
          }
          PHX_ASSIGN_OR_RETURN(bool keep, keep_row(*row));
          if (keep) {
            r.rows.push_back(*row);
            r.rids.push_back(rid);
          }
        }
        r.ordered = key_order && snap == nullptr;
      }
    }
    if (!used_index) {
      const storage::MvccSnapshot* snap = snap_for(b.table);
      const bool capped = all_filtered && sel.order_by.empty();
      if (snap != nullptr) {
        std::vector<std::pair<storage::RowId, const Row*>> visible;
        b.table->MvccScanVisible(*snap, &visible);
        for (const auto& [rid, row] : visible) {
          if (capped && r.rows.size() >= row_cap) break;
          PHX_ASSIGN_OR_RETURN(bool keep, keep_row(*row));
          if (keep) {
            r.rows.push_back(*row);
            r.rids.push_back(rid);
          }
        }
      } else {
        for (const auto& [rid, row] : b.table->rows()) {
          if (capped && r.rows.size() >= row_cap) break;
          PHX_ASSIGN_OR_RETURN(bool keep, keep_row(row));
          if (keep) {
            r.rows.push_back(row);
            r.rids.push_back(rid);
          }
        }
      }
    }
    for (size_t ci : applicable) used[ci] = true;
    r.single_table = b.table;
    return r;
  };

  PHX_ASSIGN_OR_RETURN(
      BoundRows cur,
      scan_table(tables[0], plan.enabled ? &plan.base : nullptr,
                 /*apply_pool=*/true, plan.order_by_index,
                 plan.order_reverse));
  // A conjunct no scan or join step could resolve names a column no table
  // has: an error, never a silently dropped filter.
  auto check_all_used = [&]() -> Status {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!used[i]) {
        return Status::SqlError("unresolvable predicate: " +
                                conjuncts[i]->ToSql());
      }
    }
    return Status::Ok();
  };
  if (tables.size() == 1) {
    PHX_RETURN_IF_ERROR(check_all_used());
    return cur;
  }
  cur.single_table = nullptr;
  cur.rids.clear();
  cur.ordered = false;

  // Detects `a = b` with one side resolvable only in cur, the other only in
  // rhs; fills the column indexes for a hash join.
  auto equi_pair = [](const Expr* c, const BoundRows& cur,
                      const BoundRows& rhs, int* cur_col,
                      int* rhs_col) -> bool {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) return false;
    if (c->left->kind != ExprKind::kColumnRef ||
        c->right->kind != ExprKind::kColumnRef) {
      return false;
    }
    auto lc = ResolveColumn(cur.schema, &cur.qualifiers,
                            c->left->table_qualifier, c->left->column);
    auto lr = ResolveColumn(rhs.schema, &rhs.qualifiers,
                            c->left->table_qualifier, c->left->column);
    auto rc = ResolveColumn(cur.schema, &cur.qualifiers,
                            c->right->table_qualifier, c->right->column);
    auto rr = ResolveColumn(rhs.schema, &rhs.qualifiers,
                            c->right->table_qualifier, c->right->column);
    if (lc.ok() && !lr.ok() && rr.ok() && !rc.ok()) {
      *cur_col = lc.value();
      *rhs_col = rr.value();
      return true;
    }
    if (rc.ok() && !rr.ok() && lr.ok() && !lc.ok()) {
      *cur_col = rc.value();
      *rhs_col = lr.value();
      return true;
    }
    return false;
  };

  // Applies WHERE conjuncts that became resolvable after a join step.
  auto filter_joined = [&](BoundRows* joined) -> Status {
    std::vector<size_t> applicable;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!used[i] &&
          Resolvable(*conjuncts[i], joined->schema, joined->qualifiers)) {
        applicable.push_back(i);
      }
    }
    if (applicable.empty()) return Status::Ok();
    std::vector<Row> filtered;
    filtered.reserve(joined->rows.size());
    for (Row& row : joined->rows) {
      bool keep = true;
      EvalEnv env = MakeEnv(&joined->schema, &joined->qualifiers, &row);
      for (size_t ci : applicable) {
        PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*conjuncts[ci], env));
        if (!Truthy(v)) {
          keep = false;
          break;
        }
      }
      if (keep) filtered.push_back(std::move(row));
    }
    joined->rows = std::move(filtered);
    for (size_t ci : applicable) used[ci] = true;
    return Status::Ok();
  };

  for (size_t ti = 1; ti < tables.size(); ++ti) {
    auto left_it = left_spec_of.find(static_cast<int>(ti));
    const sql::JoinSpec* left_spec =
        left_it == left_spec_of.end() ? nullptr : left_it->second;
    const JoinPlan* jplan =
        ti - 1 < plan.joins.size() ? &plan.joins[ti - 1] : nullptr;

    // Index-nested-loop join: probe the rhs index once per accumulated row
    // instead of scanning and hashing the whole rhs. Inner joins only; any
    // mismatch with the plan (equi conjunct or index gone) falls through to
    // the scan-based path below.
    if (left_spec == nullptr && plan.enabled && jplan != nullptr &&
        jplan->strategy == JoinStrategy::kIndexNestedLoop) {
      storage::Table* rt = tables[ti].table;
      BoundRows shell;  // rhs columns only, for equi detection and filters
      for (const Column& c : rt->schema().columns()) {
        shell.schema.AddColumn(c);
        shell.qualifiers.push_back(tables[ti].binding);
      }
      int join_ci = -1, cur_col = -1, rhs_col = -1;
      for (size_t i = 0; i < conjuncts.size() && join_ci < 0; ++i) {
        if (used[i]) continue;
        if (equi_pair(conjuncts[i], cur, shell, &cur_col, &rhs_col)) {
          join_ci = static_cast<int>(i);
        }
      }
      const storage::SecondaryIndex* sidx = nullptr;
      bool use_pk = false;
      if (join_ci >= 0) {
        if (jplan->index == "PRIMARY") {
          use_pk =
              !rt->pk_columns().empty() && rt->pk_columns()[0] == rhs_col;
        } else {
          sidx = rt->FindIndex(jplan->index);
          if (sidx != nullptr && sidx->columns[0] != rhs_col) sidx = nullptr;
        }
      }
      if (use_pk || sidx != nullptr) {
        used[join_ci] = true;
        std::vector<size_t> rhs_applicable;
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (!used[i] &&
              Resolvable(*conjuncts[i], shell.schema, shell.qualifiers)) {
            rhs_applicable.push_back(i);
          }
        }
        BoundRows joined;
        joined.schema = cur.schema;
        joined.qualifiers = cur.qualifiers;
        for (size_t i = 0; i < shell.schema.num_columns(); ++i) {
          joined.schema.AddColumn(shell.schema.column(i));
          joined.qualifiers.push_back(shell.qualifiers[i]);
        }
        const storage::MvccSnapshot* rsnap = snap_for(rt);
        std::vector<storage::RowId> rids;
        for (const Row& lrow : cur.rows) {
          const Value& key = lrow[cur_col];
          if (key.is_null()) continue;
          IndexBounds ib;
          ib.eq.push_back(key);
          rids.clear();
          if (use_pk) {
            ScanPkIndex(*rt, ib, &rids);
            if (rsnap != nullptr) ScanEntryMap(rt->mvcc_dead_pk(), ib, &rids);
          } else {
            ScanIndex(*sidx, ib, &rids);
            if (rsnap != nullptr) ScanEntryMap(sidx->dead_entries, ib, &rids);
          }
          if (rsnap != nullptr) {
            std::sort(rids.begin(), rids.end());
            rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
          }
          for (storage::RowId rid : rids) {
            const Row* rrow =
                rsnap != nullptr ? rt->MvccVersionAsOf(rid, *rsnap)
                                 : rt->Find(rid);
            if (rrow == nullptr) {
              if (rsnap != nullptr) continue;  // invisible to the snapshot
              return Status::Internal("index references missing row");
            }
            // A dead index entry can resolve to a version whose key has
            // since changed; the live path needs no check (the index entry
            // is the key), but the snapshot path must re-verify the join
            // equality the planner consumed.
            if (rsnap != nullptr &&
                (*rrow)[static_cast<size_t>(rhs_col)].Compare(key) != 0) {
              continue;
            }
            bool keep = true;
            EvalEnv env = MakeEnv(&shell.schema, &shell.qualifiers, rrow);
            for (size_t ci : rhs_applicable) {
              PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*conjuncts[ci], env));
              if (!Truthy(v)) {
                keep = false;
                break;
              }
            }
            if (!keep) continue;
            Row combined = lrow;
            combined.insert(combined.end(), rrow->begin(), rrow->end());
            joined.rows.push_back(std::move(combined));
          }
        }
        for (size_t ci : rhs_applicable) used[ci] = true;
        PHX_RETURN_IF_ERROR(filter_joined(&joined));
        cur = std::move(joined);
        continue;
      }
    }

    PHX_ASSIGN_OR_RETURN(
        BoundRows rhs,
        scan_table(tables[ti], /*path=*/nullptr,
                   /*apply_pool=*/left_spec == nullptr,
                   /*key_order=*/false, /*reverse=*/false));
    rhs.single_table = nullptr;
    rhs.rids.clear();

    if (left_spec != nullptr) {
      // LEFT OUTER JOIN: match on the ON condition, null-pad misses.
      BoundRows joined;
      joined.schema = cur.schema;
      joined.qualifiers = cur.qualifiers;
      for (size_t i = 0; i < rhs.schema.num_columns(); ++i) {
        // A padded row holds NULL here whatever the base column allows.
        Column c = rhs.schema.column(i);
        c.nullable = true;
        joined.schema.AddColumn(std::move(c));
        joined.qualifiers.push_back(rhs.qualifiers[i]);
      }
      Row null_pad;
      for (size_t i = 0; i < rhs.schema.num_columns(); ++i) {
        null_pad.push_back(Value::Null(rhs.schema.column(i).type));
      }
      std::vector<const Expr*> on_conjuncts;
      SplitConjuncts(left_spec->on.get(), &on_conjuncts);
      int cur_col = -1, rhs_col = -1;
      const Expr* hash_conjunct = nullptr;
      for (const Expr* c : on_conjuncts) {
        if (equi_pair(c, cur, rhs, &cur_col, &rhs_col)) {
          hash_conjunct = c;
          break;
        }
      }
      // Verifies the full ON condition against one combined row.
      auto on_matches = [&](const Row& combined) -> Result<bool> {
        EvalEnv env = MakeEnv(&joined.schema, &joined.qualifiers, &combined);
        for (const Expr* c : on_conjuncts) {
          PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, env));
          if (!Truthy(v)) return false;
        }
        return true;
      };
      std::unordered_multimap<Row, size_t, RowHash, RowEq> hash;
      if (hash_conjunct != nullptr) {
        hash.reserve(rhs.rows.size());
        for (size_t i = 0; i < rhs.rows.size(); ++i) {
          const Value& key = rhs.rows[i][rhs_col];
          if (!key.is_null()) hash.emplace(Row{key}, i);
        }
      }
      for (const Row& lrow : cur.rows) {
        bool matched = false;
        auto try_pair = [&](const Row& rrow) -> Status {
          Row combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          PHX_ASSIGN_OR_RETURN(bool ok, on_matches(combined));
          if (ok) {
            matched = true;
            joined.rows.push_back(std::move(combined));
          }
          return Status::Ok();
        };
        if (hash_conjunct != nullptr) {
          const Value& key = lrow[cur_col];
          if (!key.is_null()) {
            auto range = hash.equal_range(Row{key});
            for (auto it = range.first; it != range.second; ++it) {
              PHX_RETURN_IF_ERROR(try_pair(rhs.rows[it->second]));
            }
          }
        } else {
          for (const Row& rrow : rhs.rows) {
            PHX_RETURN_IF_ERROR(try_pair(rrow));
          }
        }
        if (!matched) {
          Row combined = lrow;
          combined.insert(combined.end(), null_pad.begin(), null_pad.end());
          joined.rows.push_back(std::move(combined));
        }
      }
      // WHERE conjuncts that became resolvable apply after the padding.
      PHX_RETURN_IF_ERROR(filter_joined(&joined));
      cur = std::move(joined);
      continue;
    }

    // Find an equi-join conjunct bridging cur and rhs.
    int join_ci = -1;
    int cur_col = -1, rhs_col = -1;
    for (size_t i = 0; i < conjuncts.size() && join_ci < 0; ++i) {
      if (used[i]) continue;
      if (equi_pair(conjuncts[i], cur, rhs, &cur_col, &rhs_col)) {
        join_ci = static_cast<int>(i);
      }
    }

    BoundRows joined;
    joined.schema = cur.schema;
    joined.qualifiers = cur.qualifiers;
    for (size_t i = 0; i < rhs.schema.num_columns(); ++i) {
      joined.schema.AddColumn(rhs.schema.column(i));
      joined.qualifiers.push_back(rhs.qualifiers[i]);
    }

    if (join_ci >= 0) {
      used[join_ci] = true;
      // Hash join: build on rhs, probe with cur.
      std::unordered_multimap<Row, size_t, RowHash, RowEq> hash;
      hash.reserve(rhs.rows.size());
      for (size_t i = 0; i < rhs.rows.size(); ++i) {
        const Value& key = rhs.rows[i][rhs_col];
        if (key.is_null()) continue;
        hash.emplace(Row{key}, i);
      }
      for (const Row& lrow : cur.rows) {
        const Value& key = lrow[cur_col];
        if (key.is_null()) continue;
        auto range = hash.equal_range(Row{key});
        for (auto it = range.first; it != range.second; ++it) {
          Row combined = lrow;
          const Row& rrow = rhs.rows[it->second];
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          joined.rows.push_back(std::move(combined));
        }
      }
    } else {
      // Cross join (rare in our workloads).
      for (const Row& lrow : cur.rows) {
        for (const Row& rrow : rhs.rows) {
          Row combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          joined.rows.push_back(std::move(combined));
        }
      }
    }

    // Apply any newly-resolvable conjuncts.
    PHX_RETURN_IF_ERROR(filter_joined(&joined));
    cur = std::move(joined);
  }

  PHX_RETURN_IF_ERROR(check_all_used());
  return cur;
}

Result<Schema> Executor::ProjectionSchema(const std::vector<SelectItem>& items,
                                          const BoundRows& input) {
  Schema out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].expr->kind == ExprKind::kStar) {
      for (const Column& c : input.schema.columns()) out.AddColumn(c);
      continue;
    }
    Column c;
    c.name = OutputName(items[i], i);
    c.type = GuessType(*items[i].expr, input.schema, &input.qualifiers);
    c.nullable = true;
    out.AddColumn(c);
  }
  return out;
}

Result<Row> Executor::ProjectRow(const std::vector<SelectItem>& items,
                                 const Schema& schema,
                                 const std::vector<std::string>* qualifiers,
                                 const Row& row) {
  Row out;
  for (const SelectItem& item : items) {
    if (item.expr->kind == ExprKind::kStar) {
      out.insert(out.end(), row.begin(), row.end());
      continue;
    }
    EvalEnv env = MakeEnv(&schema, qualifiers, &row);
    PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, env));
    out.push_back(std::move(v));
  }
  return out;
}

namespace {

struct Sortable {
  Row out;
  std::vector<Value> keys;
};

void SortAndTrim(std::vector<Sortable>* rows,
                 const std::vector<sql::OrderItem>& order, int64_t limit,
                 std::vector<Row>* out) {
  if (!order.empty()) {
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Sortable& a, const Sortable& b) {
                       for (size_t i = 0; i < order.size(); ++i) {
                         int c = a.keys[i].Compare(b.keys[i]);
                         if (c != 0) return order[i].desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  out->clear();
  out->reserve(rows->size());
  for (Sortable& s : *rows) {
    if (limit >= 0 && static_cast<int64_t>(out->size()) >= limit) break;
    out->push_back(std::move(s.out));
  }
}

}  // namespace

Result<StatementResult> Executor::ExecuteSelect(const SelectStmt& sel) {
  PHX_ASSIGN_OR_RETURN(BoundRows input, EvaluateFrom(sel));
  PHX_ASSIGN_OR_RETURN(StatementResult result,
                       FinishSelect(sel, std::move(input)));

  if (!sel.into_table.empty()) {
    // SELECT ... INTO t: materialize the result as a new table.
    bool temporary = sel.into_table[0] == '#';
    PHX_ASSIGN_OR_RETURN(
        storage::Table * t,
        db_->TxCreateTable(session_->txn.get(), sel.into_table, result.schema,
                           {}, temporary, temporary ? session_->id : 0));
    for (Row& row : result.rows) {
      auto ins = db_->TxInsert(session_->txn.get(), t, std::move(row));
      PHX_RETURN_IF_ERROR(ins.status());
    }
    return StatementResult::Affected(
        static_cast<int64_t>(result.rows.size()));
  }
  return result;
}

Result<StatementResult> Executor::FinishSelect(const SelectStmt& sel,
                                               BoundRows input) {
  bool has_agg = IsAggregate(sel);

  StatementResult result;
  if (has_agg) {
    PHX_ASSIGN_OR_RETURN(result, ExecuteAggregate(sel, std::move(input)));
  } else {
    result.has_rows = true;
    PHX_ASSIGN_OR_RETURN(result.schema, ProjectionSchema(sel.items, input));
    std::vector<Sortable> sortables;
    sortables.reserve(input.rows.size());
    std::set<Row, storage::RowLess> seen;
    for (const Row& in_row : input.rows) {
      PHX_ASSIGN_OR_RETURN(
          Row out_row,
          ProjectRow(sel.items, input.schema, &input.qualifiers, in_row));
      if (sel.distinct) {
        if (seen.count(out_row)) continue;
        seen.insert(out_row);
      }
      Sortable s;
      s.out = std::move(out_row);
      for (const sql::OrderItem& oi : sel.order_by) {
        // Prefer the input row (can see non-projected columns); fall back to
        // the output row (can see aliases).
        EvalEnv in_env = MakeEnv(&input.schema, &input.qualifiers, &in_row);
        auto key = EvalExpr(*oi.expr, in_env);
        if (!key.ok()) {
          EvalEnv out_env = MakeEnv(&result.schema, nullptr, &s.out);
          key = EvalExpr(*oi.expr, out_env);
        }
        if (!key.ok()) return key.status();
        s.keys.push_back(key.take());
      }
      sortables.push_back(std::move(s));
    }
    // An index scan that already produced ORDER BY order skips the sort.
    static const std::vector<sql::OrderItem> kNoOrder;
    SortAndTrim(&sortables, input.ordered ? kNoOrder : sel.order_by,
                sel.limit, &result.rows);
  }
  return result;
}

Result<StatementResult> Executor::ExecuteAggregate(const SelectStmt& sel,
                                                   BoundRows input) {
  // Collect aggregate nodes from every clause that may contain them.
  std::vector<const Expr*> agg_nodes;
  for (const SelectItem& item : sel.items) {
    CollectAggregates(*item.expr, &agg_nodes);
  }
  if (sel.having) CollectAggregates(*sel.having, &agg_nodes);
  for (const sql::OrderItem& oi : sel.order_by) {
    CollectAggregates(*oi.expr, &agg_nodes);
  }

  // Group input rows.
  std::map<Row, std::vector<size_t>, storage::RowLess> groups;
  std::vector<Row> group_order;  // first-appearance order of keys
  for (size_t ri = 0; ri < input.rows.size(); ++ri) {
    Row key;
    EvalEnv env = MakeEnv(&input.schema, &input.qualifiers, &input.rows[ri]);
    for (const auto& g : sel.group_by) {
      PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, env));
      key.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) group_order.push_back(it->first);
    it->second.push_back(ri);
  }
  // Global aggregate over an empty input still yields one group.
  if (sel.group_by.empty() && groups.empty()) {
    groups[Row{}] = {};
    group_order.push_back(Row{});
  }

  StatementResult result;
  result.has_rows = true;
  PHX_ASSIGN_OR_RETURN(result.schema, ProjectionSchema(sel.items, input));

  std::vector<Sortable> sortables;
  for (const Row& key : group_order) {
    const std::vector<size_t>& members = groups[key];
    // Compute each aggregate over the group.
    std::map<const Expr*, Value> agg_values;
    for (const Expr* agg : agg_nodes) {
      AggState st;
      for (size_t ri : members) {
        EvalEnv env =
            MakeEnv(&input.schema, &input.qualifiers, &input.rows[ri]);
        PHX_RETURN_IF_ERROR(AccumulateAgg(*agg, env, &st));
      }
      agg_values[agg] = FinishAgg(*agg, st);
    }
    // Representative row for non-aggregate expressions (group-by columns).
    const Row* rep = members.empty() ? nullptr : &input.rows[members[0]];
    EvalEnv env = MakeEnv(rep ? &input.schema : nullptr,
                          rep ? &input.qualifiers : nullptr, rep);
    env.aggregates = &agg_values;

    if (sel.having != nullptr) {
      PHX_ASSIGN_OR_RETURN(Value hv, EvalExpr(*sel.having, env));
      if (!Truthy(hv)) continue;
    }

    Row out_row;
    for (const SelectItem& item : sel.items) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::SqlError("'*' not allowed with GROUP BY/aggregates");
      }
      PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, env));
      out_row.push_back(std::move(v));
    }

    Sortable s;
    s.out = std::move(out_row);
    for (const sql::OrderItem& oi : sel.order_by) {
      auto kv = EvalExpr(*oi.expr, env);
      if (!kv.ok()) {
        EvalEnv out_env = MakeEnv(&result.schema, nullptr, &s.out);
        out_env.aggregates = &agg_values;
        kv = EvalExpr(*oi.expr, out_env);
      }
      if (!kv.ok()) return kv.status();
      s.keys.push_back(kv.take());
    }
    sortables.push_back(std::move(s));
  }

  if (sel.distinct) {
    std::set<Row, storage::RowLess> seen;
    std::vector<Sortable> unique;
    for (Sortable& s : sortables) {
      if (seen.count(s.out)) continue;
      seen.insert(s.out);
      unique.push_back(std::move(s));
    }
    sortables = std::move(unique);
  }
  SortAndTrim(&sortables, sel.order_by, sel.limit, &result.rows);
  return result;
}

Status Executor::ApplyOrderLimit(const SelectStmt&, const BoundRows*,
                                 const std::vector<Row>*, StatementResult*) {
  return Status::Ok();  // folded into SortAndTrim; kept for API stability
}

Result<StatementResult> Executor::ExecuteInsert(const sql::InsertStmt& ins) {
  storage::Table* t = db_->store()->Get(ins.table);
  if (t == nullptr) return Status::SqlError("no such table: " + ins.table);
  const Schema& schema = t->schema();

  std::vector<int> targets;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      targets.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& c : ins.columns) {
      int idx = schema.FindColumn(c);
      if (idx < 0) {
        return Status::SqlError("no column " + c + " in " + ins.table);
      }
      targets.push_back(idx);
    }
  }

  std::vector<Row> values;
  if (ins.select != nullptr) {
    PHX_ASSIGN_OR_RETURN(StatementResult sub, ExecuteSelect(*ins.select));
    if (!sub.has_rows) {
      return Status::SqlError("INSERT ... SELECT requires a result set");
    }
    values = std::move(sub.rows);
  } else {
    for (const auto& row_exprs : ins.rows) {
      Row row;
      EvalEnv env = MakeEnv(nullptr, nullptr, nullptr);
      for (const auto& e : row_exprs) {
        PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        row.push_back(std::move(v));
      }
      values.push_back(std::move(row));
    }
  }

  int64_t inserted = 0;
  for (Row& src : values) {
    if (src.size() != targets.size()) {
      return Status::SqlError("INSERT arity mismatch");
    }
    Row full(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < targets.size(); ++i) {
      full[targets[i]] = std::move(src[i]);
    }
    auto rid = db_->TxInsert(session_->txn.get(), t, std::move(full));
    PHX_RETURN_IF_ERROR(rid.status());
    ++inserted;
  }
  return StatementResult::Affected(inserted);
}

AccessPath Executor::PlanDml(const storage::Table& t,
                            const std::string& binding,
                            const Expr* where) const {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  bool enabled = db_->index_planner_enabled();
  if (enabled && where != nullptr) {
    // A WHERE naming a column the table lacks keeps the heap scan, so the
    // statement still fails on its first row, as the full scan does.
    std::vector<std::string> quals(t.schema().num_columns(), binding);
    enabled = Resolvable(*where, t.schema(), quals);
  }
  return PlanTableAccess(t, binding, conjuncts, enabled);
}

Status Executor::ForEachDmlMatch(
    const storage::Table& t, const std::string& binding, const Expr* where,
    const std::function<Status(storage::RowId, const Row&)>& visit) {
  const Schema& schema = t.schema();
  std::vector<std::string> quals(schema.num_columns(), binding);
  AccessPath path = PlanDml(t, binding, where);
  uint64_t examined = 0;
  auto examine = [&](storage::RowId rid, const Row& row) -> Status {
    ++examined;
    if (where != nullptr) {
      EvalEnv env = MakeEnv(&schema, &quals, &row);
      PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*where, env));
      if (!Truthy(v)) return Status::Ok();
    }
    return visit(rid, row);
  };
  Status st = [&]() -> Status {
    std::vector<storage::RowId> rids;
    if (!ProbeAccessPath(t, path, /*snap=*/nullptr, &rids)) {
      for (const auto& [rid, row] : t.rows()) {
        PHX_RETURN_IF_ERROR(examine(rid, row));
      }
      return Status::Ok();
    }
    // RowId order is the heap's order: matches are applied, and logged,
    // exactly as the full scan would apply them.
    std::sort(rids.begin(), rids.end());
    for (storage::RowId rid : rids) {
      const Row* row = t.Find(rid);
      if (row == nullptr) {
        return Status::Internal("index references missing row");
      }
      PHX_RETURN_IF_ERROR(examine(rid, *row));
    }
    return Status::Ok();
  }();
  obs::MetricsRegistry::Default()
      ->GetCounter("engine.dml.rows_examined")
      ->Increment(examined);
  return st;
}

Result<StatementResult> Executor::ExecuteUpdate(const sql::UpdateStmt& upd) {
  storage::Table* t = db_->store()->Get(upd.table);
  if (t == nullptr) return Status::SqlError("no such table: " + upd.table);
  const Schema& schema = t->schema();
  std::vector<std::string> quals(schema.num_columns(), upd.table);

  std::vector<std::pair<int, const Expr*>> sets;
  for (const auto& [col, e] : upd.sets) {
    int idx = schema.FindColumn(col);
    if (idx < 0) return Status::SqlError("no column " + col + " in " + upd.table);
    sets.emplace_back(idx, e.get());
  }

  // Two passes: collect the matches first, then apply them — an update may
  // move rows within the PK and secondary indexes being enumerated.
  std::vector<std::pair<storage::RowId, Row>> updates;
  PHX_RETURN_IF_ERROR(ForEachDmlMatch(
      *t, upd.table, upd.where.get(),
      [&](storage::RowId rid, const Row& row) -> Status {
        EvalEnv env = MakeEnv(&schema, &quals, &row);
        Row new_row = row;
        for (const auto& [idx, e] : sets) {
          // Every SET right-hand side sees the old row.
          PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
          new_row[idx] = std::move(v);
        }
        updates.emplace_back(rid, std::move(new_row));
        return Status::Ok();
      }));
  for (auto& [rid, new_row] : updates) {
    PHX_RETURN_IF_ERROR(
        db_->TxUpdate(session_->txn.get(), t, rid, std::move(new_row)));
  }
  return StatementResult::Affected(static_cast<int64_t>(updates.size()));
}

Result<StatementResult> Executor::ExecuteDelete(const sql::DeleteStmt& del) {
  storage::Table* t = db_->store()->Get(del.table);
  if (t == nullptr) return Status::SqlError("no such table: " + del.table);
  std::vector<storage::RowId> victims;
  PHX_RETURN_IF_ERROR(ForEachDmlMatch(
      *t, del.table, del.where.get(),
      [&](storage::RowId rid, const Row&) -> Status {
        victims.push_back(rid);
        return Status::Ok();
      }));
  for (storage::RowId rid : victims) {
    PHX_RETURN_IF_ERROR(db_->TxDelete(session_->txn.get(), t, rid));
  }
  return StatementResult::Affected(static_cast<int64_t>(victims.size()));
}

Result<StatementResult> Executor::ExecuteCreateTable(
    const sql::CreateTableStmt& ct) {
  Schema schema;
  std::vector<int> pk;
  for (size_t i = 0; i < ct.columns.size(); ++i) {
    const sql::ColumnDef& def = ct.columns[i];
    Column c;
    c.name = def.name;
    PHX_ASSIGN_OR_RETURN(c.type, DataTypeFromName(def.type_name));
    c.nullable = !def.not_null;
    if (def.primary_key) {
      pk.push_back(static_cast<int>(i));
      c.nullable = false;
    }
    schema.AddColumn(std::move(c));
  }
  for (const std::string& name : ct.pk_columns) {
    int idx = schema.FindColumn(name);
    if (idx < 0) return Status::SqlError("PRIMARY KEY column not found: " + name);
    pk.push_back(idx);
  }
  bool temporary = ct.temporary || (!ct.table.empty() && ct.table[0] == '#');
  auto res = db_->TxCreateTable(session_->txn.get(), ct.table,
                                std::move(schema), std::move(pk), temporary,
                                temporary ? session_->id : 0);
  PHX_RETURN_IF_ERROR(res.status());
  return StatementResult::Affected(0);
}

Result<StatementResult> Executor::ExecuteDropTable(
    const sql::DropTableStmt& dt) {
  if (db_->store()->Get(dt.table) == nullptr) {
    if (dt.if_exists) return StatementResult::Affected(0);
    return Status::SqlError("no such table: " + dt.table);
  }
  PHX_RETURN_IF_ERROR(db_->TxDropTable(session_->txn.get(), dt.table));
  return StatementResult::Affected(0);
}

Result<StatementResult> Executor::ExecuteCreateProc(
    const sql::CreateProcStmt& cp) {
  bool temporary = cp.temporary || (!cp.name.empty() && cp.name[0] == '#');
  bool exists_tmp;
  {
    auto existing = db_->FindProcedure(cp.name, &exists_tmp);
    if (existing.ok()) {
      return Status::AlreadyExists("procedure already exists: " + cp.name);
    }
  }
  if (temporary) {
    PHX_RETURN_IF_ERROR(db_->temp_procs()->Register(cp.Clone(), session_->id));
    UndoRecord undo;
    undo.kind = UndoRecord::Kind::kCreateTempProc;
    undo.proc = cp.name;
    session_->txn->undo.push_back(std::move(undo));
    return StatementResult::Affected(0);
  }
  // Persistent: a row in the hidden system table (recovered like any table).
  storage::Table* sys = db_->store()->Get(kSysProcTable);
  if (sys == nullptr) {
    Schema schema;
    schema.AddColumn(Column{"NAME", DataType::kString, false});
    schema.AddColumn(Column{"BODY", DataType::kString, false});
    PHX_ASSIGN_OR_RETURN(sys, db_->TxCreateTable(session_->txn.get(),
                                                 kSysProcTable, schema, {0},
                                                 false, 0));
  }
  Row row{Value::String(IdentUpper(cp.name)), Value::String(cp.ToSql())};
  auto rid = db_->TxInsert(session_->txn.get(), sys, std::move(row));
  PHX_RETURN_IF_ERROR(rid.status());
  return StatementResult::Affected(0);
}

Result<StatementResult> Executor::ExecuteDropProc(const sql::DropProcStmt& dp) {
  const sql::CreateProcStmt* tmp = db_->temp_procs()->Find(dp.name);
  if (tmp != nullptr) {
    UndoRecord undo;
    undo.kind = UndoRecord::Kind::kDropTempProc;
    undo.proc = dp.name;
    undo.proc_sql = tmp->ToSql();
    undo.proc_owner = db_->temp_procs()->OwnerOf(dp.name);
    PHX_RETURN_IF_ERROR(db_->temp_procs()->Unregister(dp.name));
    session_->txn->undo.push_back(std::move(undo));
    return StatementResult::Affected(0);
  }
  storage::Table* sys = db_->store()->Get(kSysProcTable);
  if (sys != nullptr) {
    auto rid = sys->FindByPk(Row{Value::String(IdentUpper(dp.name))});
    if (rid.ok()) {
      PHX_RETURN_IF_ERROR(db_->TxDelete(session_->txn.get(), sys, rid.value()));
      return StatementResult::Affected(0);
    }
  }
  if (dp.if_exists) return StatementResult::Affected(0);
  return Status::SqlError("no such procedure: " + dp.name);
}

Result<StatementResult> Executor::ExecuteCreateIndex(
    const sql::CreateIndexStmt& ci) {
  storage::Table* t = db_->store()->Get(ci.table);
  if (t == nullptr) return Status::SqlError("no such table: " + ci.table);
  std::vector<int> cols;
  for (const std::string& c : ci.columns) {
    int idx = t->schema().FindColumn(c);
    if (idx < 0) {
      return Status::SqlError("no column " + c + " in " + ci.table);
    }
    cols.push_back(idx);
  }
  PHX_RETURN_IF_ERROR(
      db_->TxCreateIndex(session_->txn.get(), t, ci.index, std::move(cols)));
  return StatementResult::Affected(0);
}

Result<StatementResult> Executor::ExecuteDropIndex(
    const sql::DropIndexStmt& di) {
  storage::Table* t = db_->store()->Get(di.table);
  if (t == nullptr) {
    if (di.if_exists) return StatementResult::Affected(0);
    return Status::SqlError("no such table: " + di.table);
  }
  if (t->FindIndex(di.index) == nullptr) {
    if (di.if_exists) return StatementResult::Affected(0);
    return Status::SqlError("no such index: " + di.index);
  }
  PHX_RETURN_IF_ERROR(db_->TxDropIndex(session_->txn.get(), t, di.index));
  return StatementResult::Affected(0);
}

Result<StatementResult> Executor::ExecuteExplain(const sql::Statement& inner) {
  StatementResult r;
  r.has_rows = true;
  r.schema.AddColumn(Column{"PLAN", DataType::kString, false});
  auto emit = [&r](std::string line) {
    r.rows.push_back(Row{Value::String(std::move(line))});
  };
  // Shared existence check: EXPLAIN reports missing tables the way the
  // inner statement itself would — without running it.
  auto require_table = [&](const std::string& name) -> Result<storage::Table*> {
    storage::Table* t = db_->store()->Get(name);
    if (t == nullptr) return Status::SqlError("no such table: " + name);
    return t;
  };
  switch (inner.kind) {
    case StmtKind::kSelect: {
      const SelectStmt& sel = *inner.select;
      for (const sql::TableRef& ref : sel.from) {
        PHX_RETURN_IF_ERROR(require_table(ref.name).status());
      }
      SelectPlan plan =
          PlanSelect(sel, *db_->store(), db_->index_planner_enabled());
      for (std::string& line : plan.Describe()) emit(std::move(line));
      return r;
    }
    case StmtKind::kInsert: {
      const sql::InsertStmt& ins = *inner.insert;
      PHX_ASSIGN_OR_RETURN(storage::Table * t, require_table(ins.table));
      if (ins.select != nullptr) {
        for (const sql::TableRef& ref : ins.select->from) {
          PHX_RETURN_IF_ERROR(require_table(ref.name).status());
        }
        SelectPlan plan = PlanSelect(*ins.select, *db_->store(),
                                     db_->index_planner_enabled());
        emit("INSERT " + t->name() + " FROM SELECT");
        for (std::string& line : plan.Describe()) emit("  " + line);
      } else {
        emit("INSERT " + t->name() + " VALUES (" +
             std::to_string(ins.rows.size()) + " row" +
             (ins.rows.size() == 1 ? "" : "s") + ")");
      }
      return r;
    }
    case StmtKind::kUpdate:
    case StmtKind::kDelete: {
      bool upd = inner.kind == StmtKind::kUpdate;
      const std::string& table = upd ? inner.update->table : inner.del->table;
      const Expr* where =
          upd ? inner.update->where.get() : inner.del->where.get();
      PHX_ASSIGN_OR_RETURN(storage::Table * t, require_table(table));
      if (!db_->index_planner_enabled()) emit("planner: off");
      emit(std::string(upd ? "UPDATE " : "DELETE ") + t->name() + ": " +
           PlanDml(*t, table, where).Describe());
      return r;
    }
    default:
      return Status::Internal("EXPLAIN of unsupported statement kind");
  }
}

Result<StatementResult> Executor::ExecuteExec(const sql::ExecStmt& ex) {
  bool is_temp;
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<sql::CreateProcStmt> proc,
                       db_->FindProcedure(ex.proc_name, &is_temp));
  if (ex.args.size() != proc->params.size()) {
    return Status::SqlError("procedure " + ex.proc_name + " expects " +
                            std::to_string(proc->params.size()) + " args");
  }
  std::map<std::string, Value> bound;
  for (size_t i = 0; i < ex.args.size(); ++i) {
    EvalEnv env = MakeEnv(nullptr, nullptr, nullptr);
    PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*ex.args[i], env));
    bound[IdentUpper(proc->params[i].name)] = std::move(v);
  }
  Executor inner(db_, session_, &bound);
  StatementResult combined = StatementResult::Affected(0);
  bool have_rows = false;
  for (const auto& stmt : proc->body) {
    if (stmt->kind == StmtKind::kBeginTxn || stmt->kind == StmtKind::kCommit ||
        stmt->kind == StmtKind::kRollback) {
      return Status::NotSupported(
          "transaction control inside stored procedures");
    }
    PHX_ASSIGN_OR_RETURN(StatementResult r, inner.Execute(*stmt));
    if (r.has_rows && !have_rows) {
      combined.has_rows = true;
      combined.schema = std::move(r.schema);
      combined.rows = std::move(r.rows);
      have_rows = true;
    }
    if (r.affected > 0) {
      combined.affected = (combined.affected < 0 ? 0 : combined.affected) +
                          r.affected;
    }
  }
  return combined;
}

}  // namespace phoenix::eng
