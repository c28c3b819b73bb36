#ifndef PHOENIX_ENGINE_TRANSACTION_H_
#define PHOENIX_ENGINE_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table_store.h"
#include "storage/wal.h"

namespace phoenix::eng {

/// One compensating action, applied in reverse order on rollback. The engine
/// runs a no-steal policy so undo lives purely in memory — it is never
/// logged.
struct UndoRecord {
  enum class Kind : uint8_t {
    kInsert,       ///< undo by deleting `rid`
    kDelete,       ///< undo by re-inserting `row` at `rid`
    kUpdate,       ///< undo by restoring `row` at `rid`
    kCreateTable,  ///< undo by dropping `table`
    kDropTable,    ///< undo by reinstalling `table`, the dropped object
    kCreateTempProc,  ///< undo by unregistering `proc`
    kDropTempProc,    ///< undo by re-registering `proc_sql`
    kCreateIndex,     ///< undo by dropping `index_name` on `table`
    kDropIndex,       ///< undo by re-creating `index_name`(`index_columns`)
  };
  Kind kind;
  /// The table object touched — held, not named, so undo and commit-time
  /// version finalization reach it even while a DROP TABLE has it parked.
  std::shared_ptr<storage::Table> table;
  storage::RowId rid = 0;
  Row row;
  std::string proc;
  std::string proc_sql;
  uint64_t proc_owner = 0;
  std::string index_name;
  std::vector<int> index_columns;
  /// For kDropIndex: the dropped index's position in the table's index
  /// vector. Undo re-creates it at the same position — the planner breaks
  /// cost ties by declaration order, so an appended re-creation would
  /// silently change which index equivalent plans pick.
  size_t index_position = 0;
};

/// An open transaction: its durable redo tail and in-memory undo stack.
struct Txn {
  uint64_t id = 0;
  std::vector<storage::WalOp> redo;
  std::vector<UndoRecord> undo;

  /// Index into `undo`/`redo` marking the start of the current statement,
  /// for statement-level atomicity inside multi-statement transactions.
  size_t stmt_undo_mark = 0;
  size_t stmt_redo_mark = 0;

  void MarkStatement() {
    stmt_undo_mark = undo.size();
    stmt_redo_mark = redo.size();
  }
};

class ProcRegistry;  // catalog.h

/// Allocates transaction ids and applies undo stacks. Id allocation is
/// atomic — Begin() may be called from concurrent read-only statements that
/// hold the data lock only in shared mode.
class TxnManager {
 public:
  explicit TxnManager(uint64_t next_id = 1) : next_id_(next_id) {}

  std::unique_ptr<Txn> Begin() {
    auto t = std::make_unique<Txn>();
    t->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    return t;
  }

  uint64_t next_id() const { return next_id_.load(std::memory_order_relaxed); }
  void set_next_id(uint64_t id) {
    next_id_.store(id, std::memory_order_relaxed);
  }

  /// Undoes records [from, end) in reverse order and truncates them, and
  /// unwinds the MVCC version notes the engine attached under txn->id (the
  /// storage hooks self-gate, so a note-free temp table is a no-op).
  Status UndoTo(Txn* txn, size_t undo_from, size_t redo_from,
                storage::TableStore* store, ProcRegistry* procs);

  /// Takes `txn`'s table and index DDL back out of a checkpoint catalog
  /// captured from the live store, newest first: a created table leaves, a
  /// dropped one returns, an index definition leaves or returns to its
  /// position. Row effects need nothing: the snapshot does not see them.
  static void RevertCatalog(const Txn& txn, storage::CatalogImage* catalog);

 private:
  Status ApplyUndo(const UndoRecord& rec, storage::TableStore* store,
                   ProcRegistry* procs, uint64_t txn_id);
  std::atomic<uint64_t> next_id_;
};

}  // namespace phoenix::eng

#endif  // PHOENIX_ENGINE_TRANSACTION_H_
