#include "engine/transaction.h"

#include "common/codec.h"
#include "engine/catalog.h"
#include "sql/parser.h"

namespace phoenix::eng {

namespace {

/// Copies the index *definitions* of a decoded table snapshot onto a freshly
/// re-created table (CreateIndex backfills the entries from the rows already
/// inserted). Both kDropTable undo paths need this or a rolled-back DROP
/// TABLE would silently lose the table's indexes.
Status RestoreIndexes(const storage::Table& snapshot, storage::Table* created) {
  for (const storage::SecondaryIndex& idx : snapshot.indexes()) {
    PHX_RETURN_IF_ERROR(created->CreateIndex(idx.name, idx.columns));
  }
  return Status::Ok();
}

}  // namespace

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

Status TxnManager::RevertInClone(const Txn& txn, storage::TableStore* clone) {
  for (auto it = txn.undo.rbegin(); it != txn.undo.rend(); ++it) {
    const UndoRecord& rec = *it;
    switch (rec.kind) {
      case UndoRecord::Kind::kCreateTempProc:
      case UndoRecord::Kind::kDropTempProc:
        continue;  // procs are session state, never in a checkpoint
      case UndoRecord::Kind::kInsert:
      case UndoRecord::Kind::kDelete:
      case UndoRecord::Kind::kUpdate: {
        // A missing table means the op hit a temp table (excluded from the
        // clone) — its undo is not the clone's business.
        storage::Table* t = clone->Get(rec.table);
        if (t == nullptr) continue;
        if (rec.kind == UndoRecord::Kind::kInsert) {
          PHX_RETURN_IF_ERROR(t->Delete(rec.rid));
        } else if (rec.kind == UndoRecord::Kind::kDelete) {
          PHX_RETURN_IF_ERROR(t->Insert(rec.row, rec.rid).status());
        } else {
          PHX_RETURN_IF_ERROR(t->Update(rec.rid, rec.row));
        }
        continue;
      }
      case UndoRecord::Kind::kCreateTable:
        // Absent when the created table was temporary.
        if (clone->Get(rec.table) != nullptr) {
          PHX_RETURN_IF_ERROR(clone->DropTable(rec.table));
        }
        continue;
      case UndoRecord::Kind::kDropTable: {
        if (rec.snapshot_temporary) continue;
        Decoder dec(rec.snapshot);
        PHX_ASSIGN_OR_RETURN(std::unique_ptr<storage::Table> table,
                             storage::Table::DecodeSnapshot(&dec));
        PHX_ASSIGN_OR_RETURN(
            storage::Table * created,
            clone->CreateTable(table->name(), table->schema(),
                               table->pk_columns(), /*temporary=*/false));
        for (const auto& [rid, row] : table->rows()) {
          PHX_RETURN_IF_ERROR(created->Insert(row, rid).status());
        }
        PHX_RETURN_IF_ERROR(RestoreIndexes(*table, created));
        continue;
      }
      case UndoRecord::Kind::kCreateIndex: {
        storage::Table* t = clone->Get(rec.table);
        if (t == nullptr) continue;  // temp table, not in the clone
        PHX_RETURN_IF_ERROR(t->DropIndex(rec.index_name));
        continue;
      }
      case UndoRecord::Kind::kDropIndex: {
        storage::Table* t = clone->Get(rec.table);
        if (t == nullptr) continue;
        PHX_RETURN_IF_ERROR(t->CreateIndex(rec.index_name, rec.index_columns));
        continue;
      }
    }
    return Status::Internal("bad undo kind");
  }
  return Status::Ok();
}

Status TxnManager::ApplyUndo(const UndoRecord& rec,
                             storage::TableStore* store, ProcRegistry* procs,
                             uint64_t txn_id) {
  switch (rec.kind) {
    case UndoRecord::Kind::kInsert: {
      storage::Table* t = store->Get(rec.table);
      if (t == nullptr) return Status::Internal("undo-insert: missing table");
      PHX_RETURN_IF_ERROR(t->Delete(rec.rid));
      t->MvccUndoInsert(rec.rid, txn_id);
      return Status::Ok();
    }
    case UndoRecord::Kind::kDelete: {
      storage::Table* t = store->Get(rec.table);
      if (t == nullptr) return Status::Internal("undo-delete: missing table");
      PHX_RETURN_IF_ERROR(t->Insert(rec.row, rec.rid).status());
      t->MvccUndoDelete(rec.rid, txn_id);
      return Status::Ok();
    }
    case UndoRecord::Kind::kUpdate: {
      storage::Table* t = store->Get(rec.table);
      if (t == nullptr) return Status::Internal("undo-update: missing table");
      PHX_RETURN_IF_ERROR(t->Update(rec.rid, rec.row));
      t->MvccUndoUpdate(rec.rid, txn_id);
      return Status::Ok();
    }
    case UndoRecord::Kind::kCreateTable:
      return store->DropTable(rec.table);
    case UndoRecord::Kind::kDropTable: {
      Decoder dec(rec.snapshot);
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<storage::Table> table,
                           storage::Table::DecodeSnapshot(&dec));
      // DecodeSnapshot always makes persistent tables; restore the flags via
      // a fresh table when the dropped one was temporary.
      if (!rec.snapshot_temporary) {
        // Re-register as-is.
        PHX_ASSIGN_OR_RETURN(
            storage::Table * created,
            store->CreateTable(table->name(), table->schema(),
                               table->pk_columns(), /*temporary=*/false));
        for (const auto& [rid, row] : table->rows()) {
          auto ins = created->Insert(row, rid);
          PHX_RETURN_IF_ERROR(ins.status());
        }
        return RestoreIndexes(*table, created);
      }
      PHX_ASSIGN_OR_RETURN(
          storage::Table * created,
          store->CreateTable(table->name(), table->schema(),
                             table->pk_columns(), /*temporary=*/true));
      created->set_owner_session(rec.snapshot_owner);
      for (const auto& [rid, row] : table->rows()) {
        auto ins = created->Insert(row, rid);
        PHX_RETURN_IF_ERROR(ins.status());
      }
      return RestoreIndexes(*table, created);
    }
    case UndoRecord::Kind::kCreateTempProc:
      return procs->Unregister(rec.table);
    case UndoRecord::Kind::kDropTempProc: {
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<sql::Statement> stmt,
                           sql::Parser::ParseStatement(rec.snapshot));
      if (stmt->kind != sql::StmtKind::kCreateProc) {
        return Status::Internal("undo-drop-proc: bad snapshot");
      }
      return procs->Register(std::move(stmt->create_proc),
                             rec.snapshot_owner);
    }
    case UndoRecord::Kind::kCreateIndex: {
      storage::Table* t = store->Get(rec.table);
      if (t == nullptr) return Status::Internal("undo-create-index: missing table");
      return t->DropIndex(rec.index_name);
    }
    case UndoRecord::Kind::kDropIndex: {
      storage::Table* t = store->Get(rec.table);
      if (t == nullptr) return Status::Internal("undo-drop-index: missing table");
      // Restore at the recorded position, not at the end: the planner's
      // cost tie-break follows declaration order, and a rolled-back DROP
      // must leave plan selection exactly as it found it.
      return t->CreateIndexAt(rec.index_name, rec.index_columns,
                              rec.index_position);
    }
  }
  return Status::Internal("bad undo kind");
}

}  // namespace phoenix::eng
