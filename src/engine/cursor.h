#ifndef PHOENIX_ENGINE_CURSOR_H_
#define PHOENIX_ENGINE_CURSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"
#include "storage/table_store.h"

namespace phoenix::eng {

class Database;
struct Session;

/// Server-cursor flavors (ODBC statement-attribute analogues).
///
/// kStatic  — snapshot materialized at open; supports absolute Seek, which
///            is the primitive Phoenix uses to re-position a recovered
///            result set server-side without shipping tuples (Figure 2).
/// kKeyset  — the key set is fixed at open; each fetch re-reads current row
///            data by key (updates visible, deleted rows skipped).
/// kDynamic — membership recomputed on every fetch by key-range scanning
///            past the last delivered key (inserts/deletes visible).
enum class CursorType : uint8_t {
  kStatic = 0,
  kKeyset = 1,
  kDynamic = 2,
};

const char* CursorTypeName(CursorType type);

/// One open server cursor inside a session.
class Cursor {
 public:
  Cursor(uint64_t id, CursorType type) : id_(id), type_(type) {}

  uint64_t id() const { return id_; }
  CursorType type() const { return type_; }
  const Schema& schema() const { return schema_; }

  /// Current 0-based position (rows already delivered).
  uint64_t position() const { return position_; }

  /// Total rows (static: exact; keyset: keys; dynamic: unknown → 0).
  uint64_t known_size() const;

  /// Fetches up to n rows; sets *done when the cursor is exhausted.
  Result<std::vector<Row>> Fetch(Database* db, Session* session, size_t n,
                                 bool* done);

  /// Absolute positioning: the next Fetch returns rows starting at `pos`.
  /// Static and keyset only — this runs entirely server-side.
  Status Seek(uint64_t pos);

 private:
  friend class Database;

  uint64_t id_;
  CursorType type_;
  Schema schema_;
  uint64_t position_ = 0;

  // kStatic:
  std::vector<Row> static_rows_;

  // kKeyset / kDynamic:
  std::string base_table_;
  std::unique_ptr<sql::SelectStmt> select_;  ///< projection + WHERE
  std::vector<Row> keys_;                    ///< keyset only
  /// Keyset only, parallel to keys_: the RowId each key resolved to at open.
  /// A fetch that resolves a key to a *different* rid is looking at a row
  /// inserted after open that merely reuses the key — a phantom under
  /// frozen membership — and skips it.
  std::vector<storage::RowId> key_rids_;
  Row last_key_;                             ///< dynamic only
  bool dynamic_started_ = false;

  /// MVCC pin taken at open (static + keyset), released at close. The pin
  /// bounds version reclamation; static cursors also use it to justify
  /// lock-free fetches from their materialized copy.
  bool pinned_ = false;
  storage::MvccSnapshot pin_;
};

}  // namespace phoenix::eng

#endif  // PHOENIX_ENGINE_CURSOR_H_
