#include "engine/transaction.h"

#include <algorithm>

#include "engine/catalog.h"
#include "sql/parser.h"

namespace phoenix::eng {

Status TxnManager::UndoTo(Txn* txn, size_t undo_from, size_t redo_from,
                          storage::TableStore* store, ProcRegistry* procs) {
  while (txn->undo.size() > undo_from) {
    UndoRecord rec = std::move(txn->undo.back());
    txn->undo.pop_back();
    PHX_RETURN_IF_ERROR(ApplyUndo(rec, store, procs, txn->id));
  }
  if (txn->redo.size() > redo_from) txn->redo.resize(redo_from);
  return Status::Ok();
}

void TxnManager::RevertCatalog(const Txn& txn,
                               storage::CatalogImage* catalog) {
  // The record's catalog entry, if it holds the record's table object.
  auto entry = [&](const UndoRecord& rec) -> storage::TableImage* {
    auto it = catalog->find(rec.table->name());
    if (it == catalog->end() || it->second.table != rec.table) return nullptr;
    return &it->second;
  };
  for (auto it = txn.undo.rbegin(); it != txn.undo.rend(); ++it) {
    const UndoRecord& rec = *it;
    switch (rec.kind) {
      case UndoRecord::Kind::kCreateTable:
        if (entry(rec) != nullptr) catalog->erase(rec.table->name());
        break;
      case UndoRecord::Kind::kDropTable:
        // The parked object has not changed since the drop, so its rid
        // counter and index definitions are the ones the drop removed.
        if (!rec.table->temporary()) {
          (*catalog)[rec.table->name()] = rec.table->Image();
        }
        break;
      case UndoRecord::Kind::kCreateIndex:
        if (storage::TableImage* image = entry(rec)) {
          auto& defs = image->indexes;
          defs.erase(std::remove_if(defs.begin(), defs.end(),
                                    [&](const storage::IndexDef& d) {
                                      return d.name == rec.index_name;
                                    }),
                     defs.end());
        }
        break;
      case UndoRecord::Kind::kDropIndex:
        if (storage::TableImage* image = entry(rec)) {
          auto& defs = image->indexes;
          size_t at = std::min(rec.index_position, defs.size());
          defs.insert(defs.begin() + static_cast<ptrdiff_t>(at),
                      storage::IndexDef{rec.index_name, rec.index_columns});
        }
        break;
      default:
        break;
    }
  }
}

Status TxnManager::ApplyUndo(const UndoRecord& rec,
                             storage::TableStore* store, ProcRegistry* procs,
                             uint64_t txn_id) {
  storage::Table* t = rec.table.get();
  switch (rec.kind) {
    case UndoRecord::Kind::kInsert:
      PHX_RETURN_IF_ERROR(t->Delete(rec.rid));
      t->MvccUndoInsert(rec.rid, txn_id);
      return Status::Ok();
    case UndoRecord::Kind::kDelete:
      PHX_RETURN_IF_ERROR(t->Insert(rec.row, rec.rid).status());
      t->MvccUndoDelete(rec.rid, txn_id);
      return Status::Ok();
    case UndoRecord::Kind::kUpdate:
      PHX_RETURN_IF_ERROR(t->Update(rec.rid, rec.row));
      t->MvccUndoDelete(rec.rid, txn_id);  // same unwind as a delete
      return Status::Ok();
    case UndoRecord::Kind::kCreateTable:
      return store->DropTable(t->name());
    case UndoRecord::Kind::kDropTable:
      // The same object comes back: rows, indexes, owner and versions.
      return store->Install(rec.table);
    case UndoRecord::Kind::kCreateTempProc:
      return procs->Unregister(rec.proc);
    case UndoRecord::Kind::kDropTempProc: {
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<sql::Statement> stmt,
                           sql::Parser::ParseStatement(rec.proc_sql));
      if (stmt->kind != sql::StmtKind::kCreateProc) {
        return Status::Internal("undo-drop-proc: bad snapshot");
      }
      return procs->Register(std::move(stmt->create_proc), rec.proc_owner);
    }
    case UndoRecord::Kind::kCreateIndex:
      return t->DropIndex(rec.index_name);
    case UndoRecord::Kind::kDropIndex:
      // Restore at the recorded position, not at the end: the planner's
      // cost tie-break follows declaration order, and a rolled-back DROP
      // must leave plan selection exactly as it found it.
      return t->CreateIndex(rec.index_name, rec.index_columns,
                            rec.index_position);
  }
  return Status::Internal("bad undo kind");
}

}  // namespace phoenix::eng
