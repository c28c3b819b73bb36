#ifndef PHOENIX_STORAGE_TABLE_STORE_H_
#define PHOENIX_STORAGE_TABLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace phoenix::net {
class WorkerPool;
}  // namespace phoenix::net

namespace phoenix::storage {

using RowId = uint64_t;

/// The table image format TableImageEncoder writes by default. v1/v2 tables
/// carry no index definitions; v3 adds them; v4 adds the rows' byte length
/// and a chunk directory, so restart can decode chunks in parallel.
inline constexpr uint32_t kImageVersion = 4;

/// Rows per chunk of a v4 table image's chunk directory. Also the rids a
/// checkpoint examines per shared hold of the data lock, so a writer waits
/// for at most one chunk, never for a whole table.
inline constexpr size_t kCheckpointChunkRows = 1024;

/// One chunk-directory entry of a v4 table image: where the chunk's rows
/// start, relative to the first row, and how many rows it holds.
struct ImageChunk {
  uint64_t offset = 0;
  uint64_t rows = 0;
};

/// MVCC stamp on a row version: the commit LSN that created (or deleted)
/// it, or the pending transaction id while its writer is uncommitted.
/// Exactly one field is meaningful: `txn != 0` marks a pending stamp;
/// `txn == 0` with `lsn == L` marks a version committed at L. The default
/// {0, 0} ("committed at LSN 0") is visible to every snapshot — recovered
/// and pre-MVCC rows carry it implicitly by absence from the stamp maps.
struct MvccStamp {
  uint64_t lsn = 0;
  uint64_t txn = 0;
};

/// A superseded row version retained for snapshot readers: the pre-image
/// plus the stamps bracketing its lifetime.
struct MvccVersion {
  Row row;
  MvccStamp begin;
  MvccStamp end;
};

/// A pinned read snapshot: sees every version committed at or before `lsn`
/// plus the pinning transaction's own uncommitted writes.
struct MvccSnapshot {
  uint64_t lsn = 0;
  uint64_t txn = 0;  ///< own txn id (0 = none)
  /// True when the event marked by `s` happened from this snapshot's view.
  bool Sees(const MvccStamp& s) const {
    return s.txn != 0 ? s.txn == txn : s.lsn <= lsn;
  }
};

/// Lexicographic comparator over rows of Values (for PK indexes).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// One ordered (non-unique) secondary index: the projection of each row onto
/// `columns`, mapped to the set of RowIds carrying that key. Entries are
/// derivable from the base rows — images persist only the definition and
/// rebuild the tree on decode — but the in-memory tree is maintained
/// incrementally through every mutation (Insert/Delete/Update), so DML, WAL
/// replay and undo all keep it exact for free.
struct SecondaryIndex {
  std::string name;          ///< uppercased, unique within the table
  std::vector<int> columns;  ///< key columns, in index order
  std::map<Row, std::set<RowId>, RowLess> entries;

  /// MVCC side state (empty on unversioned temp tables): keys of superseded
  /// versions, so snapshot probes can find rows that were deleted or
  /// re-keyed after the snapshot was pinned. Conservatively over-inclusive
  /// — the executor dedups by RowId and re-resolves every candidate
  /// against the snapshot. Index creation backfills it from the retained
  /// version chains, so a new index serves existing snapshots correctly.
  std::map<Row, std::set<RowId>, RowLess> dead_entries;
};

/// What an image records of a secondary index: its name and key columns.
struct IndexDef {
  std::string name;
  std::vector<int> columns;
};

struct TableImage;

/// One heap table: rows addressed by stable RowIds, an optional unique
/// primary-key index, ordered secondary indexes, and a temporary flag (temp
/// tables are never logged, never checkpointed, and die with their owning
/// session or the server). Always owned through shared_ptr: the store, an
/// undo record parking a dropped table, and a checkpoint may share one.
class Table : public std::enable_shared_from_this<Table> {
 public:
  Table(std::string name, Schema schema, std::vector<int> pk_columns,
        bool temporary)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        pk_columns_(std::move(pk_columns)),
        temporary_(temporary) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<int>& pk_columns() const { return pk_columns_; }
  bool temporary() const { return temporary_; }

  /// Session that owns this temp table (0 = not session-scoped).
  uint64_t owner_session() const { return owner_session_; }
  void set_owner_session(uint64_t s) { owner_session_ = s; }

  size_t num_rows() const { return rows_.size(); }

  /// Inserts after schema coercion and PK-uniqueness check. `rid_hint` != 0
  /// forces a specific RowId (used by WAL replay so ids match pre-crash).
  Result<RowId> Insert(Row row, RowId rid_hint = 0);
  Status Delete(RowId rid);
  Status Update(RowId rid, Row new_row);

  /// nullptr when absent.
  const Row* Find(RowId rid) const;

  /// Looks up a full PK value; kNotFound when absent or no PK declared.
  Result<RowId> FindByPk(const Row& key) const;

  /// Ordered-by-RowId row map: stable scan order == insertion order.
  const std::map<RowId, Row>& rows() const { return rows_; }

  /// PK-ordered index (empty when the table has no primary key). Dynamic
  /// cursors key-range-scan this to recompute membership per fetch.
  const std::map<Row, RowId, RowLess>& pk_index() const { return pk_index_; }

  RowId next_rid() const { return next_rid_; }

  /// Extracts the PK projection of a row (empty if no PK).
  Row PkOf(const Row& row) const;

  /// Extracts the `columns` projection of a row (an index key).
  static Row KeyFor(const std::vector<int>& columns, const Row& row);

  // ---- Secondary indexes ------------------------------------------------
  /// Builds an ordered index over `columns`, backfills it from the current
  /// rows, and puts it at `position` in declaration order (default last).
  /// Rollback of DROP INDEX passes the old position: the planner breaks
  /// cost ties by declaration order. Fails on a duplicate name or an
  /// out-of-range column.
  Status CreateIndex(const std::string& name, std::vector<int> columns,
                     size_t position = SIZE_MAX);
  Status DropIndex(const std::string& name);
  /// nullptr when absent. Name lookup is case-insensitive.
  const SecondaryIndex* FindIndex(const std::string& name) const;
  /// Position of the named index in declaration order; npos when absent.
  size_t IndexPosition(const std::string& name) const;
  const std::vector<SecondaryIndex>& indexes() const { return indexes_; }
  std::vector<IndexDef> IndexDefs() const;
  /// A shared reference plus the current rid counter and index definitions.
  TableImage Image() const;

  // ---- MVCC (engine-driven; see DESIGN.md §16) --------------------------
  // The primitives above stay version-oblivious: WAL replay and undo touch
  // only latest versions. The engine notes each mutation of a persistent
  // table with the pending transaction id and the pre-image, finalizes the
  // stamps with the commit LSN at commit, unwinds notes on rollback, and
  // reclaims superseded versions once the watermark passes them.

  /// After a successful Insert of `rid` by `txn`.
  void MvccNoteInsert(RowId rid, uint64_t txn);
  /// After a successful Delete of `rid` by `txn`; `old_row` is the
  /// pre-image. Returns true (a version was retained).
  bool MvccNoteDelete(RowId rid, Row old_row, uint64_t txn);
  /// After a successful Update of `rid` by `txn`; `old_row` is the
  /// pre-image. Returns true (a version was retained).
  bool MvccNoteUpdate(RowId rid, Row old_row, uint64_t txn);
  /// After rollback re-applied the inverse primitive op. Each returns true
  /// when a retained version was released. Self-gating: no-ops when the
  /// matching note is absent (a temp table, or state already unwound).
  bool MvccUndoInsert(RowId rid, uint64_t txn);
  bool MvccUndoDelete(RowId rid, uint64_t txn);  ///< also undoes updates
  /// At commit, under the exclusive data lock, before the commit LSN is
  /// published: rewrites every pending stamp of `txn` on `rid` to
  /// "committed at `lsn`".
  void MvccFinalize(RowId rid, uint64_t txn, uint64_t lsn);
  /// Frees superseded versions no pinned snapshot can still see — those
  /// whose committed end LSN is <= `watermark` — and rebuilds the dead-key
  /// side maps from the survivors. Returns the number of versions freed.
  size_t MvccReclaim(uint64_t watermark);

  /// True when no version state exists: every live row is committed and
  /// visible to every snapshot, so readers can skip resolution entirely.
  bool MvccQuiescent() const { return live_begin_.empty() && old_.empty(); }
  /// Retained superseded versions (the engine.mvcc.versions_live gauge).
  size_t MvccVersionCount() const { return old_count_; }

  /// Resolves `rid` as of `snap`: the live row if its begin stamp is
  /// visible, else the newest retained version whose lifetime brackets the
  /// snapshot, else nullptr. The pointer is valid only until the next
  /// mutation or reclaim — callers copy under the data lock.
  const Row* MvccVersionAsOf(RowId rid, const MvccSnapshot& snap) const;
  /// Appends every (rid, row) visible as of `snap`, in RowId order — the
  /// snapshot analogue of iterating rows(). A bounded scan starts at rid
  /// `from` and stops after examining `limit` rids; it returns the rid to
  /// resume from, or 0 once no rids are left.
  RowId MvccScanVisible(const MvccSnapshot& snap,
                        std::vector<std::pair<RowId, const Row*>>* out,
                        RowId from = 0, size_t limit = SIZE_MAX) const;
  /// Dead-key side map for snapshot PK probes (keys of superseded
  /// versions; conservatively over-inclusive).
  const std::map<Row, std::set<RowId>, RowLess>& mvcc_dead_pk() const {
    return dead_pk_;
  }

  /// Decodes one table of a `version` checkpoint image (TableImageEncoder's
  /// format). With a pool, workers decode a v4 table's chunks — GetRow,
  /// CoerceRow, PkOf — while the calling thread inserts them in image
  /// order; without one, or for a table of fewer than two chunks, the
  /// calling thread does both. Either way the first bad row in image order
  /// is the error. Index entries are rebuilt from the rows, so tree and
  /// heap agree by construction.
  static Result<std::unique_ptr<Table>> DecodeSnapshot(
      Decoder* dec, uint32_t version = kImageVersion,
      net::WorkerPool* pool = nullptr);

 private:
  /// Insert() after CoerceRow, with the row's PK projection `pk` in hand.
  Result<RowId> InsertCoerced(Row row, Row pk, RowId rid_hint);
  /// Decodes and inserts the rows of `dir`'s chunks from `rows`, the
  /// table's row bytes. `exact`: each chunk must end where the next begins
  /// (v4); otherwise `*used` reports where the last row ended.
  Status DecodeRows(std::string_view rows, const std::vector<ImageChunk>& dir,
                    bool exact, net::WorkerPool* pool, size_t* used);

  std::string name_;
  Schema schema_;
  std::vector<int> pk_columns_;
  bool temporary_;
  uint64_t owner_session_ = 0;
  RowId next_rid_ = 1;
  std::map<RowId, Row> rows_;
  std::map<Row, RowId, RowLess> pk_index_;
  std::vector<SecondaryIndex> indexes_;

  // MVCC side state (all empty on unversioned temp tables). `live_begin_`
  // stamps the current version of a row; absence means {0, 0} = visible to
  // all. `old_` holds superseded version chains per RowId, oldest first.
  // `dead_pk_` mirrors dead_entries for the PK index. None of this is
  // serialized: an image carries the one version of each row its snapshot
  // sees.
  std::map<RowId, MvccStamp> live_begin_;
  std::map<RowId, std::vector<MvccVersion>> old_;
  std::map<Row, std::set<RowId>, RowLess> dead_pk_;
  size_t old_count_ = 0;
};

/// One persistent table as a checkpoint captures it at its fence: the table
/// object, whose rows are read through the checkpoint's pinned snapshot,
/// plus what a snapshot read cannot recover — the rid counter and the index
/// definitions in declaration order.
struct TableImage {
  std::shared_ptr<const Table> table;
  RowId next_rid = 1;
  std::vector<IndexDef> indexes;
};

/// A checkpoint's catalog: the captured persistent tables by name.
using CatalogImage = std::map<std::string, TableImage>;

/// The one encoder of the table image format: name, schema, PK columns,
/// next_rid, row count, (v4) the rows' byte length, (rid, row) pairs in
/// RowId order, (v4) the chunk directory — one ImageChunk per
/// kCheckpointChunkRows rows — and (v3+) the index definitions. Rows stream
/// in one at a time (a checkpoint adds them chunk by chunk); Finish patches
/// the counts in. Older `version`s exist so tests can write old images.
class TableImageEncoder {
 public:
  TableImageEncoder(Encoder* enc, const Table& table, RowId next_rid,
                    uint32_t version = kImageVersion);
  void AddRow(RowId rid, const Row& row);
  void Finish(const std::vector<IndexDef>& indexes);

 private:
  Encoder* enc_;
  uint32_t version_;
  size_t count_at_ = 0;  ///< offset of the row-count slot
  size_t bytes_at_ = 0;  ///< offset of the row-bytes slot (v4)
  size_t rows_at_ = 0;   ///< offset of the first row
  uint64_t rows_ = 0;
  std::vector<ImageChunk> chunks_;
};

/// The set of all tables. Names are case-insensitive (stored uppercased).
class TableStore {
 public:
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             std::vector<int> pk_columns, bool temporary);
  Status DropTable(const std::string& name);
  /// Puts a table object back under its name (rollback of DROP TABLE
  /// reinstalls the dropped object). Fails if the name is taken.
  Status Install(std::shared_ptr<Table> table);
  /// nullptr when absent.
  Table* Get(const std::string& name);
  const Table* Get(const std::string& name) const;
  bool Exists(const std::string& name) const { return Get(name) != nullptr; }

  std::vector<std::string> ListNames() const;

  /// Drops every temp table owned by `session_id`; returns their names.
  std::vector<std::string> DropSessionTemps(uint64_t session_id);

  /// Serializes the live rows of all *persistent* tables as a checkpoint
  /// payload in the current format; DecodeSnapshot reads any `version`'s
  /// payload, decoding each table's chunks on `pool` when one is given.
  void EncodeSnapshot(Encoder* enc) const;
  Status DecodeSnapshot(Decoder* dec, uint32_t version = kImageVersion,
                        net::WorkerPool* pool = nullptr);

  /// The Image() of every persistent table: O(tables), not O(rows).
  CatalogImage CapturePersistent() const;

  void Clear() { tables_.clear(); }
  size_t size() const { return tables_.size(); }

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_TABLE_STORE_H_
