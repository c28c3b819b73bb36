#ifndef PHOENIX_STORAGE_TABLE_STORE_H_
#define PHOENIX_STORAGE_TABLE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace phoenix::storage {

using RowId = uint64_t;

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
/// derivable from the base rows — snapshots persist only the definition and
/// rebuild the tree on decode — but the in-memory tree is maintained
/// incrementally through every mutation (Insert/Delete/Update), so DML, WAL
/// replay, undo, and checkpoint-clone reverts all keep it exact for free.
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

/// One heap table: rows addressed by stable RowIds, an optional unique
/// primary-key index, ordered secondary indexes, and a temporary flag (temp
/// tables are never logged, never checkpointed, and die with their owning
/// session or the server).
class Table {
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
  /// Builds an ordered index over `columns` and backfills it from the
  /// current rows. Fails on a duplicate name or out-of-range column.
  Status CreateIndex(const std::string& name, std::vector<int> columns);
  /// CreateIndex, but splices the new index at `position` in the index
  /// vector instead of appending (clamped to the vector size). Rollback of
  /// DROP INDEX uses this so the planner's cost tie-break — which prefers
  /// the earliest index in declaration order — is unchanged by an undone
  /// drop.
  Status CreateIndexAt(const std::string& name, std::vector<int> columns,
                       size_t position);
  Status DropIndex(const std::string& name);
  /// nullptr when absent. Name lookup is case-insensitive.
  const SecondaryIndex* FindIndex(const std::string& name) const;
  /// Position of the named index in declaration order; npos when absent.
  size_t IndexPosition(const std::string& name) const;
  const std::vector<SecondaryIndex>& indexes() const { return indexes_; }

  // ---- MVCC (engine-driven; see DESIGN.md §16) --------------------------
  // The primitives above stay version-oblivious: WAL replay, undo, and
  // checkpoint-clone reverts materialize only committed latest versions.
  // When versioning is on, the engine notes each successful mutation with
  // the pending transaction id and the pre-image, finalizes the pending
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
  bool MvccUndoDelete(RowId rid, uint64_t txn);
  bool MvccUndoUpdate(RowId rid, uint64_t txn);
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
  /// snapshot analogue of iterating rows().
  void MvccScanVisible(const MvccSnapshot& snap,
                       std::vector<std::pair<RowId, const Row*>>* out) const;
  /// Dead-key side map for snapshot PK probes (keys of superseded
  /// versions; conservatively over-inclusive).
  const std::map<Row, std::set<RowId>, RowLess>& mvcc_dead_pk() const {
    return dead_pk_;
  }

  /// Serialization: `with_indexes` distinguishes checkpoint image v3 (index
  /// definitions appended after the rows) from v1/v2 images that predate
  /// indexes. In-process snapshots (undo records) always use the current
  /// format. Index *entries* are never serialized — they are rebuilt from
  /// the rows on decode, which guarantees tree/heap consistency by
  /// construction.
  void EncodeSnapshot(Encoder* enc, bool with_indexes = true) const;
  static Result<std::unique_ptr<Table>> DecodeSnapshot(
      Decoder* dec, bool with_indexes = true);

  /// Deep copy — rows, PK index, and the rid counter — for checkpoint
  /// snapshots taken while the original keeps mutating.
  std::unique_ptr<Table> Clone() const;

 private:
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
  // serialized or cloned: images and checkpoint clones carry only
  // committed latest versions.
  std::map<RowId, MvccStamp> live_begin_;
  std::map<RowId, std::vector<MvccVersion>> old_;
  std::map<Row, std::set<RowId>, RowLess> dead_pk_;
  size_t old_count_ = 0;
};

/// The set of all tables. Names are case-insensitive (stored uppercased).
class TableStore {
 public:
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             std::vector<int> pk_columns, bool temporary);
  Status DropTable(const std::string& name);
  /// nullptr when absent.
  Table* Get(const std::string& name);
  const Table* Get(const std::string& name) const;
  bool Exists(const std::string& name) const { return Get(name) != nullptr; }

  std::vector<std::string> ListNames() const;

  /// Drops every temp table owned by `session_id`; returns their names.
  std::vector<std::string> DropSessionTemps(uint64_t session_id);

  /// Serializes all *persistent* tables (checkpoint payload). Image v3
  /// carries index definitions per table; pass `with_indexes = false` when
  /// decoding a v1/v2 image that predates them.
  void EncodeSnapshot(Encoder* enc) const;
  Status DecodeSnapshot(Decoder* dec, bool with_indexes = true);

  /// Deep-copies every persistent table — the fast half of a non-blocking
  /// checkpoint. Temp tables are excluded exactly as EncodeSnapshot
  /// excludes them, so encoding the clone later yields the same payload a
  /// direct EncodeSnapshot at clone time would have.
  std::unique_ptr<TableStore> ClonePersistent() const;

  void Clear() { tables_.clear(); }
  size_t size() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_TABLE_STORE_H_
