#include "core/rewriter.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

namespace phoenix::core {

using sql::BinOp;
using sql::Expr;
using sql::SelectStmt;
using sql::Statement;

std::unique_ptr<SelectStmt> MakeMetadataProbe(const SelectStmt& sel) {
  auto probe = sel.Clone();
  // The paper appends "WHERE 0=1"; we graft the same always-false predicate
  // onto the AST so it composes with an existing WHERE.
  auto zero_eq_one = Expr::Binary(BinOp::kEq, Expr::Lit(Value::Int64(0)),
                                  Expr::Lit(Value::Int64(1)));
  if (probe->where != nullptr) {
    probe->where = Expr::Binary(BinOp::kAnd, std::move(zero_eq_one),
                                std::move(probe->where));
  } else {
    probe->where = std::move(zero_eq_one);
  }
  probe->order_by.clear();
  probe->limit = -1;
  probe->into_table.clear();
  return probe;
}

std::unique_ptr<SelectStmt> MakeFirstBlockProbe(const SelectStmt& sel,
                                                uint64_t block_size) {
  auto probe = sel.Clone();
  constexpr uint64_t kMaxLimit = INT64_MAX;
  int64_t cap = static_cast<int64_t>(
      block_size >= kMaxLimit ? kMaxLimit : block_size + 1);
  probe->limit = sel.limit >= 0 ? std::min(sel.limit, cap) : cap;
  return probe;
}

std::string SanitizeColumnName(const std::string& name, size_t index,
                               std::map<std::string, int>* used) {
  std::string clean;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      clean.push_back(c);
    }
  }
  if (clean.empty() ||
      std::isdigit(static_cast<unsigned char>(clean[0]))) {
    clean = "C" + std::to_string(index + 1);
  }
  std::string key = IdentUpper(clean);
  int& count = (*used)[key];
  if (count++ > 0) clean += "_" + std::to_string(count);
  return clean;
}

sql::CreateTableStmt MakeCreateTableFromMetadata(const std::string& table,
                                                 const Schema& metadata) {
  sql::CreateTableStmt ct;
  ct.table = table;
  ct.temporary = false;  // the whole point: this table must survive a crash
  std::map<std::string, int> used;
  for (size_t i = 0; i < metadata.num_columns(); ++i) {
    sql::ColumnDef def;
    def.name = SanitizeColumnName(metadata.column(i).name, i, &used);
    def.type_name = DataTypeName(metadata.column(i).type);
    def.not_null = false;  // result columns may be NULL regardless of source
    ct.columns.push_back(std::move(def));
  }
  return ct;
}

std::string MakeMaterializeScript(const SelectStmt& source,
                                  const std::string& table,
                                  const std::vector<std::string>& retired) {
  std::string sql = "BEGIN TRANSACTION; ";
  for (const std::string& t : retired) {
    sql += "DROP TABLE IF EXISTS " + t + "; ";
  }
  auto into = source.Clone();
  into->into_table = table;
  sql += "DROP TABLE IF EXISTS " + table + "; " + into->ToSql() + "; COMMIT";
  return sql;
}

std::unique_ptr<SelectStmt> MakeSelectKeys(
    const SelectStmt& sel, const std::vector<std::string>& pk_columns) {
  auto keys = std::make_unique<SelectStmt>();
  keys->from = sel.from;
  if (sel.where != nullptr) keys->where = sel.where->Clone();
  for (const std::string& pk : pk_columns) {
    keys->items.push_back(sql::SelectItem{Expr::Col("", pk), ""});
    keys->order_by.push_back(sql::OrderItem{Expr::Col("", pk), false});
  }
  return keys;
}

std::unique_ptr<SelectStmt> MakeKeyLookup(
    const SelectStmt& sel, const std::vector<std::string>& pk_columns,
    const Row& key) {
  auto lookup = std::make_unique<SelectStmt>();
  for (const auto& item : sel.items) {
    lookup->items.push_back(
        sql::SelectItem{item.expr->Clone(), item.alias});
  }
  lookup->from = sel.from;
  std::unique_ptr<Expr> pred;
  for (size_t i = 0; i < pk_columns.size(); ++i) {
    auto eq = Expr::Binary(BinOp::kEq, Expr::Col("", pk_columns[i]),
                           Expr::Lit(key[i]));
    pred = pred == nullptr
               ? std::move(eq)
               : Expr::Binary(BinOp::kAnd, std::move(pred), std::move(eq));
  }
  lookup->where = std::move(pred);
  return lookup;
}

std::unique_ptr<SelectStmt> MakeRangeLookup(const SelectStmt& sel,
                                            const std::string& pk_column,
                                            const Value* low,
                                            const Value& high) {
  auto lookup = std::make_unique<SelectStmt>();
  for (const auto& item : sel.items) {
    lookup->items.push_back(sql::SelectItem{item.expr->Clone(), item.alias});
  }
  lookup->from = sel.from;
  std::unique_ptr<Expr> pred =
      Expr::Binary(BinOp::kLe, Expr::Col("", pk_column), Expr::Lit(high));
  if (low != nullptr) {
    pred = Expr::Binary(
        BinOp::kAnd,
        Expr::Binary(BinOp::kGt, Expr::Col("", pk_column), Expr::Lit(*low)),
        std::move(pred));
  }
  if (sel.where != nullptr) {
    pred = Expr::Binary(BinOp::kAnd, sel.where->Clone(), std::move(pred));
  }
  lookup->where = std::move(pred);
  lookup->order_by.push_back(sql::OrderItem{Expr::Col("", pk_column), false});
  return lookup;
}

std::string MakeDmlWrap(const std::string& status_table, uint64_t req_id,
                        const Statement& dml) {
  std::string sql = "BEGIN TRANSACTION; ";
  sql += dml.ToSql();
  sql += "; INSERT INTO " + status_table + " (REQ_ID, AFFECTED) VALUES (" +
         std::to_string(req_id) + ", ROWCOUNT()); COMMIT";
  return sql;
}

std::string MakeStatusProbe(const std::string& status_table, uint64_t req_id) {
  return "SELECT AFFECTED FROM " + status_table +
         " WHERE REQ_ID = " + std::to_string(req_id);
}

std::string MakeStatusTableDdl(const std::string& status_table) {
  return "CREATE TABLE " + status_table +
         " (REQ_ID BIGINT NOT NULL PRIMARY KEY, AFFECTED BIGINT NOT NULL)";
}

namespace {

bool MapName(const std::map<std::string, std::string>& m, std::string* name) {
  auto it = m.find(IdentUpper(*name));
  if (it == m.end()) return false;
  *name = it->second;
  return true;
}

bool RenameInSelect(SelectStmt* sel,
                    const std::map<std::string, std::string>& tables) {
  bool changed = false;
  for (sql::TableRef& ref : sel->from) {
    std::string original = ref.name;
    if (MapName(tables, &ref.name)) {
      changed = true;
      // Keep column qualifiers like "#tmp.col" resolving: the original name
      // becomes the alias when none was given.
      if (ref.alias.empty()) ref.alias = original;
    }
  }
  if (MapName(tables, &sel->into_table)) changed = true;
  return changed;
}

}  // namespace

bool RenameObjects(Statement* stmt,
                   const std::map<std::string, std::string>& table_map,
                   const std::map<std::string, std::string>& proc_map) {
  bool changed = false;
  switch (stmt->kind) {
    case sql::StmtKind::kSelect:
      changed = RenameInSelect(stmt->select.get(), table_map);
      break;
    case sql::StmtKind::kInsert:
      changed = MapName(table_map, &stmt->insert->table);
      if (stmt->insert->select != nullptr) {
        changed |= RenameInSelect(stmt->insert->select.get(), table_map);
      }
      break;
    case sql::StmtKind::kUpdate:
      changed = MapName(table_map, &stmt->update->table);
      break;
    case sql::StmtKind::kDelete:
      changed = MapName(table_map, &stmt->del->table);
      break;
    case sql::StmtKind::kDropTable:
      changed = MapName(table_map, &stmt->drop_table->table);
      break;
    case sql::StmtKind::kDropProc:
      changed = MapName(proc_map, &stmt->drop_proc->name);
      break;
    case sql::StmtKind::kExec:
      changed = MapName(proc_map, &stmt->exec->proc_name);
      break;
    case sql::StmtKind::kCreateProc:
      for (auto& body_stmt : stmt->create_proc->body) {
        changed |= RenameObjects(body_stmt.get(), table_map, proc_map);
      }
      break;
    case sql::StmtKind::kShow:
      changed = MapName(table_map, &stmt->show->table);
      break;
    case sql::StmtKind::kCreateIndex:
      changed = MapName(table_map, &stmt->create_index->table);
      break;
    case sql::StmtKind::kDropIndex:
      changed = MapName(table_map, &stmt->drop_index->table);
      break;
    case sql::StmtKind::kExplain:
      // The payload is a full statement (SELECT/INSERT/UPDATE/DELETE);
      // recurse so every table reference inside it is remapped.
      changed = RenameObjects(stmt->explain_inner.get(), table_map, proc_map);
      break;
    default:
      break;
  }
  return changed;
}

}  // namespace phoenix::core
