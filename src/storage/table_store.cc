#include "storage/table_store.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "net/worker_pool.h"

namespace phoenix::storage {

Result<RowId> Table::Insert(Row row, RowId rid_hint) {
  PHX_RETURN_IF_ERROR(schema_.CoerceRow(&row));
  Row pk = PkOf(row);
  return InsertCoerced(std::move(row), std::move(pk), rid_hint);
}

Result<RowId> Table::InsertCoerced(Row row, Row pk, RowId rid_hint) {
  // Each tree is descended at most once. A key past the tree's last key is
  // an append at end() with no search (checkpoint images and WAL replay
  // arrive in RowId order); otherwise one lower_bound both detects the
  // duplicate and is the emplace_hint position.
  auto pk_pos = pk_index_.end();
  if (!pk.empty() && !pk_index_.empty() &&
      !RowLess{}(pk_index_.rbegin()->first, pk)) {
    pk_pos = pk_index_.lower_bound(pk);
    if (!RowLess{}(pk, pk_pos->first)) {
      return Status::Constraint("duplicate primary key " + RowToString(pk) +
                                " in table " + name_);
    }
  }
  RowId rid = rid_hint != 0 ? rid_hint : next_rid_;
  auto row_pos = rows_.end();
  if (!rows_.empty() && rows_.rbegin()->first >= rid) {
    row_pos = rows_.lower_bound(rid);
    if (row_pos->first == rid) {
      return Status::Internal("RowId collision in table " + name_);
    }
  }
  if (rid >= next_rid_) next_rid_ = rid + 1;
  if (!pk.empty()) pk_index_.emplace_hint(pk_pos, std::move(pk), rid);
  const Row& stored = rows_.emplace_hint(row_pos, rid, std::move(row))->second;
  for (SecondaryIndex& idx : indexes_) {
    idx.entries[KeyFor(idx.columns, stored)].insert(rid);
  }
  return rid;
}

Status Table::Delete(RowId rid) {
  auto it = rows_.find(rid);
  if (it == rows_.end()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
  }
  Row pk = PkOf(it->second);
  if (!pk.empty()) pk_index_.erase(pk);
  for (SecondaryIndex& idx : indexes_) {
    auto eit = idx.entries.find(KeyFor(idx.columns, it->second));
    if (eit != idx.entries.end()) {
      eit->second.erase(rid);
      if (eit->second.empty()) idx.entries.erase(eit);
    }
  }
  rows_.erase(it);
  return Status::Ok();
}

Status Table::Update(RowId rid, Row new_row) {
  auto it = rows_.find(rid);
  if (it == rows_.end()) {
    return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
  }
  PHX_RETURN_IF_ERROR(schema_.CoerceRow(&new_row));
  Row old_pk = PkOf(it->second);
  Row new_pk = PkOf(new_row);
  if (!new_pk.empty() && !(RowLess{}(old_pk, new_pk) == false &&
                           RowLess{}(new_pk, old_pk) == false)) {
    // PK changed: check uniqueness of the new key.
    if (pk_index_.count(new_pk)) {
      return Status::Constraint("duplicate primary key on update in " + name_);
    }
    pk_index_.erase(old_pk);
    pk_index_[new_pk] = rid;
  }
  for (SecondaryIndex& idx : indexes_) {
    Row old_key = KeyFor(idx.columns, it->second);
    Row new_key = KeyFor(idx.columns, new_row);
    if (RowLess{}(old_key, new_key) || RowLess{}(new_key, old_key)) {
      auto eit = idx.entries.find(old_key);
      if (eit != idx.entries.end()) {
        eit->second.erase(rid);
        if (eit->second.empty()) idx.entries.erase(eit);
      }
      idx.entries[std::move(new_key)].insert(rid);
    }
  }
  it->second = std::move(new_row);
  return Status::Ok();
}

const Row* Table::Find(RowId rid) const {
  auto it = rows_.find(rid);
  return it == rows_.end() ? nullptr : &it->second;
}

Result<RowId> Table::FindByPk(const Row& key) const {
  if (pk_columns_.empty()) {
    return Status::NotFound("table " + name_ + " has no primary key");
  }
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) {
    return Status::NotFound("key " + RowToString(key) + " not in " + name_);
  }
  return it->second;
}

Row Table::PkOf(const Row& row) const {
  Row pk;
  pk.reserve(pk_columns_.size());
  for (int c : pk_columns_) pk.push_back(row[c]);
  return pk;
}

Row Table::KeyFor(const std::vector<int>& columns, const Row& row) {
  Row key;
  key.reserve(columns.size());
  for (int c : columns) key.push_back(row[c]);
  return key;
}

void Table::MvccNoteInsert(RowId rid, uint64_t txn) {
  live_begin_[rid] = MvccStamp{0, txn};
}

bool Table::MvccNoteDelete(RowId rid, Row old_row, uint64_t txn) {
  MvccVersion v;
  v.begin = MvccStamp{0, 0};
  auto it = live_begin_.find(rid);
  if (it != live_begin_.end()) {
    v.begin = it->second;
    live_begin_.erase(it);
  }
  v.end = MvccStamp{0, txn};
  Row pk = PkOf(v.row = std::move(old_row));
  if (!pk.empty()) dead_pk_[std::move(pk)].insert(rid);
  for (SecondaryIndex& idx : indexes_) {
    idx.dead_entries[KeyFor(idx.columns, v.row)].insert(rid);
  }
  old_[rid].push_back(std::move(v));
  ++old_count_;
  return true;
}

bool Table::MvccNoteUpdate(RowId rid, Row old_row, uint64_t txn) {
  MvccVersion v;
  v.begin = MvccStamp{0, 0};
  auto it = live_begin_.find(rid);
  if (it != live_begin_.end()) v.begin = it->second;
  live_begin_[rid] = MvccStamp{0, txn};
  v.end = MvccStamp{0, txn};
  // Old keys go to the dead maps even when a key did not change — probes
  // dedup by RowId and re-resolve, so over-inclusion is always safe.
  Row pk = PkOf(v.row = std::move(old_row));
  if (!pk.empty()) dead_pk_[std::move(pk)].insert(rid);
  for (SecondaryIndex& idx : indexes_) {
    idx.dead_entries[KeyFor(idx.columns, v.row)].insert(rid);
  }
  old_[rid].push_back(std::move(v));
  ++old_count_;
  return true;
}

bool Table::MvccUndoInsert(RowId rid, uint64_t txn) {
  auto it = live_begin_.find(rid);
  if (it == live_begin_.end() || it->second.txn != txn) return false;
  live_begin_.erase(it);
  return true;
}

bool Table::MvccUndoDelete(RowId rid, uint64_t txn) {
  auto it = old_.find(rid);
  if (it == old_.end() || it->second.empty() ||
      it->second.back().end.txn != txn) {
    return false;
  }
  // The row is live again (undo re-inserted it); restore its prior begin
  // stamp. Stale dead-map keys are swept by the next reclaim.
  MvccVersion v = std::move(it->second.back());
  it->second.pop_back();
  if (it->second.empty()) old_.erase(it);
  --old_count_;
  if (v.begin.lsn == 0 && v.begin.txn == 0) {
    live_begin_.erase(rid);
  } else {
    live_begin_[rid] = v.begin;
  }
  return true;
}

void Table::MvccFinalize(RowId rid, uint64_t txn, uint64_t lsn) {
  auto lit = live_begin_.find(rid);
  if (lit != live_begin_.end() && lit->second.txn == txn) {
    lit->second = MvccStamp{lsn, 0};
  }
  auto oit = old_.find(rid);
  if (oit != old_.end()) {
    for (MvccVersion& v : oit->second) {
      if (v.begin.txn == txn) v.begin = MvccStamp{lsn, 0};
      if (v.end.txn == txn) v.end = MvccStamp{lsn, 0};
    }
  }
}

size_t Table::MvccReclaim(uint64_t watermark) {
  size_t freed = 0;
  for (auto it = old_.begin(); it != old_.end();) {
    std::vector<MvccVersion>& chain = it->second;
    size_t keep = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
      bool dead_for_all =
          chain[i].end.txn == 0 && chain[i].end.lsn <= watermark;
      if (!dead_for_all) {
        if (keep != i) chain[keep] = std::move(chain[i]);  // no self-move
        ++keep;
      }
    }
    freed += chain.size() - keep;
    chain.resize(keep);
    it = keep == 0 ? old_.erase(it) : std::next(it);
  }
  old_count_ -= freed;
  // Committed-at-or-below-watermark begin stamps are equivalent to the
  // implicit {0, 0}; drop them so the stamp map tracks only recent churn.
  for (auto it = live_begin_.begin(); it != live_begin_.end();) {
    if (it->second.txn == 0 && it->second.lsn <= watermark) {
      it = live_begin_.erase(it);
    } else {
      ++it;
    }
  }
  // Rebuild the dead-key maps from the surviving versions; this also sweeps
  // keys left stale by rollback unwinds.
  dead_pk_.clear();
  for (SecondaryIndex& idx : indexes_) idx.dead_entries.clear();
  for (const auto& [rid, chain] : old_) {
    for (const MvccVersion& v : chain) {
      Row pk = PkOf(v.row);
      if (!pk.empty()) dead_pk_[std::move(pk)].insert(rid);
      for (SecondaryIndex& idx : indexes_) {
        idx.dead_entries[KeyFor(idx.columns, v.row)].insert(rid);
      }
    }
  }
  return freed;
}

const Row* Table::MvccVersionAsOf(RowId rid, const MvccSnapshot& snap) const {
  auto rit = rows_.find(rid);
  if (rit != rows_.end()) {
    auto sit = live_begin_.find(rid);
    MvccStamp begin = sit == live_begin_.end() ? MvccStamp{0, 0} : sit->second;
    if (snap.Sees(begin)) return &rit->second;
  }
  auto oit = old_.find(rid);
  if (oit != old_.end()) {
    // Newest first; lifetimes in a chain are disjoint, so at most one
    // version brackets the snapshot.
    for (auto v = oit->second.rbegin(); v != oit->second.rend(); ++v) {
      if (snap.Sees(v->begin) && !snap.Sees(v->end)) return &v->row;
    }
  }
  return nullptr;
}

RowId Table::MvccScanVisible(
    const MvccSnapshot& snap, std::vector<std::pair<RowId, const Row*>>* out,
    RowId from, size_t limit) const {
  auto rit = rows_.lower_bound(from);
  auto oit = old_.lower_bound(from);
  // Merge the live map and the version-chain map in RowId order so the
  // visible scan order matches a plain rows() iteration.
  for (size_t seen = 0; rit != rows_.end() || oit != old_.end(); ++seen) {
    RowId rid;
    if (oit == old_.end() || (rit != rows_.end() && rit->first <= oit->first)) {
      rid = rit->first;
      ++rit;
      if (oit != old_.end() && oit->first == rid) ++oit;
    } else {
      rid = oit->first;
      ++oit;
    }
    if (seen == limit) return rid;
    if (const Row* row = MvccVersionAsOf(rid, snap)) {
      out->emplace_back(rid, row);
    }
  }
  return 0;
}

Status Table::CreateIndex(const std::string& name, std::vector<int> columns,
                          size_t position) {
  std::string key = IdentUpper(name);
  if (key.empty()) return Status::InvalidArgument("empty index name");
  if (FindIndex(key) != nullptr) {
    return Status::AlreadyExists("index already exists: " + key + " on " +
                                 name_);
  }
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= schema_.num_columns()) {
      return Status::InvalidArgument("index column out of range");
    }
  }
  SecondaryIndex idx;
  idx.name = std::move(key);
  idx.columns = std::move(columns);
  for (const auto& [rid, row] : rows_) {
    idx.entries[KeyFor(idx.columns, row)].insert(rid);
  }
  // Backfill sees only live rows; give snapshot probes their dead keys too,
  // so a freshly (re)created index also serves snapshots pinned before it
  // existed (the catalog itself is not versioned).
  for (const auto& [rid, chain] : old_) {
    for (const MvccVersion& v : chain) {
      idx.dead_entries[KeyFor(idx.columns, v.row)].insert(rid);
    }
  }
  if (position > indexes_.size()) position = indexes_.size();
  indexes_.insert(indexes_.begin() + static_cast<ptrdiff_t>(position),
                  std::move(idx));
  return Status::Ok();
}

Status Table::DropIndex(const std::string& name) {
  std::string key = IdentUpper(name);
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (it->name == key) {
      indexes_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no such index: " + key + " on " + name_);
}

const SecondaryIndex* Table::FindIndex(const std::string& name) const {
  std::string key = IdentUpper(name);
  for (const SecondaryIndex& idx : indexes_) {
    if (idx.name == key) return &idx;
  }
  return nullptr;
}

size_t Table::IndexPosition(const std::string& name) const {
  std::string key = IdentUpper(name);
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].name == key) return i;
  }
  return static_cast<size_t>(-1);
}

std::vector<IndexDef> Table::IndexDefs() const {
  std::vector<IndexDef> defs;
  defs.reserve(indexes_.size());
  for (const SecondaryIndex& idx : indexes_) {
    defs.push_back(IndexDef{idx.name, idx.columns});
  }
  return defs;
}

TableImage Table::Image() const {
  return TableImage{shared_from_this(), next_rid_, IndexDefs()};
}

TableImageEncoder::TableImageEncoder(Encoder* enc, const Table& table,
                                     RowId next_rid, uint32_t version)
    : enc_(enc), version_(version) {
  enc_->PutString(table.name());
  enc_->PutSchema(table.schema());
  enc_->PutU32(static_cast<uint32_t>(table.pk_columns().size()));
  for (int c : table.pk_columns()) enc_->PutI32(c);
  enc_->PutU64(next_rid);
  count_at_ = enc_->size();
  enc_->PutU64(0);
  bytes_at_ = enc_->size();
  if (version_ >= 4) enc_->PutU64(0);
  rows_at_ = enc_->size();
}

void TableImageEncoder::AddRow(RowId rid, const Row& row) {
  if (rows_ % kCheckpointChunkRows == 0) {
    chunks_.push_back(ImageChunk{enc_->size() - rows_at_, 0});
  }
  ++chunks_.back().rows;
  enc_->PutU64(rid);
  enc_->PutRow(row);
  ++rows_;
}

void TableImageEncoder::Finish(const std::vector<IndexDef>& indexes) {
  enc_->PatchU64(count_at_, rows_);
  if (version_ >= 4) {
    enc_->PatchU64(bytes_at_, enc_->size() - rows_at_);
    enc_->PutU32(static_cast<uint32_t>(chunks_.size()));
    for (const ImageChunk& chunk : chunks_) {
      enc_->PutU64(chunk.offset);
      enc_->PutU64(chunk.rows);
    }
  }
  if (version_ < 3) return;
  // Definitions only: the entry trees are rebuilt from the rows on decode,
  // so an image can never carry an index inconsistent with its heap.
  enc_->PutU32(static_cast<uint32_t>(indexes.size()));
  for (const IndexDef& idx : indexes) {
    enc_->PutString(idx.name);
    enc_->PutU32(static_cast<uint32_t>(idx.columns.size()));
    for (int c : idx.columns) enc_->PutI32(c);
  }
}

namespace {

/// One image row, decoded and coerced, with its PK projection.
struct DecodedRow {
  RowId rid;
  Row row;
  Row pk;
};

/// A chunk's rows as decoded off the inserting thread. `status` is what
/// stopped the decode after `rows`, so rows before a bad row still insert
/// first and the error order is the image order.
struct DecodedChunk {
  std::vector<DecodedRow> rows;
  Status status;
  size_t used = 0;  ///< bytes the decoded rows took
};

/// The least bytes one image row takes: its rid and its column count.
constexpr size_t kMinRowBytes = 12;

Status DecodeChunkRows(const Table& table, Decoder* dec, uint64_t count,
                       DecodedChunk* out) {
  for (uint64_t i = 0; i < count; ++i) {
    PHX_ASSIGN_OR_RETURN(uint64_t rid, dec->GetU64());
    PHX_ASSIGN_OR_RETURN(Row row, dec->GetRow());
    PHX_RETURN_IF_ERROR(table.schema().CoerceRow(&row));
    Row pk = table.PkOf(row);
    out->rows.push_back(DecodedRow{rid, std::move(row), std::move(pk)});
  }
  return Status::Ok();
}

/// Hands a table's chunks, decoded, to the thread that inserts them, in
/// chunk order. With a pool, workers decode up to `window` chunks ahead of
/// the one being taken: enough to keep every thread busy, few enough that
/// decoded-but-not-yet-inserted rows stay a small, fixed share of the heap.
/// Without one (or with fewer than two chunks) Take() decodes on the
/// calling thread. Decoding only reads the table, so it runs concurrently
/// with the caller's inserts.
class ChunkDecoder {
 public:
  ChunkDecoder(const Table& table, std::string_view rows,
               const std::vector<ImageChunk>& dir, bool exact,
               net::WorkerPool* pool)
      : table_(table),
        rows_(rows),
        dir_(dir),
        exact_(exact),
        pool_(dir.size() >= 2 ? pool : nullptr),
        window_(pool_ != nullptr ? 2 * pool_->threads() : 0),
        chunks_(pool_ != nullptr ? dir.size() : 0),
        ready_(chunks_.size(), 0) {}
  ChunkDecoder(const ChunkDecoder&) = delete;
  ChunkDecoder& operator=(const ChunkDecoder&) = delete;
  /// Tasks still decoding reference this object: wait them out.
  ~ChunkDecoder() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return in_flight_ == 0; });
  }

  /// Chunk `i`, decoded; called for i = 0, 1, ... in turn.
  DecodedChunk Take(size_t i) {
    if (pool_ == nullptr) return Decode(i);
    for (; submitted_ < dir_.size() && submitted_ < i + window_; ++submitted_) {
      auto task = [this, c = submitted_] {
        DecodedChunk chunk = Decode(c);
        std::lock_guard<std::mutex> lk(mu_);
        chunks_[c] = std::move(chunk);
        ready_[c] = 1;
        --in_flight_;
        cv_.notify_all();
      };
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++in_flight_;
      }
      if (!pool_->Submit(task)) task();
    }
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return ready_[i] != 0; });
    return std::move(chunks_[i]);
  }

 private:
  DecodedChunk Decode(size_t i) const {
    DecodedChunk out;
    size_t end = i + 1 < dir_.size() ? dir_[i + 1].offset : rows_.size();
    std::string_view bytes = rows_.substr(dir_[i].offset, end - dir_[i].offset);
    out.rows.reserve(std::min<uint64_t>(dir_[i].rows,
                                        bytes.size() / kMinRowBytes));
    Decoder dec(bytes);
    out.status = DecodeChunkRows(table_, &dec, dir_[i].rows, &out);
    out.used = dec.position();
    if (out.status.ok() && exact_ && !dec.AtEnd()) {
      out.status = Status::IoError(
          "checkpoint chunk " + std::to_string(i) + " of table " +
          table_.name() + " does not end at its directory boundary");
    }
    return out;
  }

  const Table& table_;
  std::string_view rows_;
  const std::vector<ImageChunk>& dir_;
  const bool exact_;
  net::WorkerPool* const pool_;  ///< null: decode on the calling thread
  const size_t window_;
  size_t submitted_ = 0;  ///< chunks handed to the pool (caller only)
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<DecodedChunk> chunks_;  ///< guarded by mu_
  std::vector<char> ready_;           ///< guarded by mu_
  size_t in_flight_ = 0;              ///< guarded by mu_
};

}  // namespace

Status Table::DecodeRows(std::string_view rows,
                         const std::vector<ImageChunk>& dir, bool exact,
                         net::WorkerPool* pool, size_t* used) {
  ChunkDecoder decoder(*this, rows, dir, exact, pool);
  for (size_t i = 0; i < dir.size(); ++i) {
    DecodedChunk chunk = decoder.Take(i);
    for (DecodedRow& r : chunk.rows) {
      PHX_RETURN_IF_ERROR(
          InsertCoerced(std::move(r.row), std::move(r.pk), r.rid).status());
    }
    PHX_RETURN_IF_ERROR(chunk.status);
    *used = dir[i].offset + chunk.used;
  }
  return Status::Ok();
}

Result<std::unique_ptr<Table>> Table::DecodeSnapshot(Decoder* dec,
                                                     uint32_t version,
                                                     net::WorkerPool* pool) {
  PHX_ASSIGN_OR_RETURN(std::string name, dec->GetString());
  PHX_ASSIGN_OR_RETURN(Schema schema, dec->GetSchema());
  PHX_ASSIGN_OR_RETURN(uint32_t num_pk, dec->GetU32());
  std::vector<int> pk_cols;
  for (uint32_t i = 0; i < num_pk; ++i) {
    PHX_ASSIGN_OR_RETURN(int32_t c, dec->GetI32());
    pk_cols.push_back(c);
  }
  auto table = std::make_unique<Table>(std::move(name), std::move(schema),
                                       std::move(pk_cols), /*temporary=*/false);
  PHX_ASSIGN_OR_RETURN(uint64_t next_rid, dec->GetU64());
  PHX_ASSIGN_OR_RETURN(uint64_t num_rows, dec->GetU64());
  size_t used = 0;
  if (version >= 4) {
    PHX_ASSIGN_OR_RETURN(uint64_t rows_bytes, dec->GetU64());
    PHX_ASSIGN_OR_RETURN(std::string_view rows, dec->GetBytes(rows_bytes));
    // The directory must tile the row bytes: offsets start at 0, rise
    // strictly and stay in bounds, and the counts sum to num_rows. Each
    // chunk then has to decode to exactly its bytes (DecodeChunk).
    PHX_ASSIGN_OR_RETURN(uint32_t num_chunks, dec->GetU32());
    std::vector<ImageChunk> dir;
    uint64_t covered = 0;
    for (uint32_t i = 0; i < num_chunks; ++i) {
      ImageChunk chunk;
      PHX_ASSIGN_OR_RETURN(chunk.offset, dec->GetU64());
      PHX_ASSIGN_OR_RETURN(chunk.rows, dec->GetU64());
      bool in_order = i == 0 ? chunk.offset == 0
                             : chunk.offset > dir.back().offset;
      if (!in_order || chunk.offset >= rows.size() ||
          chunk.rows > num_rows - covered) {
        return Status::IoError("bad checkpoint chunk directory entry " +
                               std::to_string(i) + " of table " +
                               table->name());
      }
      covered += chunk.rows;
      dir.push_back(chunk);
    }
    if (covered != num_rows || (dir.empty() && !rows.empty())) {
      return Status::IoError("checkpoint chunk directory of table " +
                             table->name() + " does not cover its " +
                             std::to_string(num_rows) + " rows");
    }
    PHX_RETURN_IF_ERROR(
        table->DecodeRows(rows, dir, /*exact=*/true, pool, &used));
  } else {
    // Older images have no directory: one chunk, decoded here, ending
    // wherever its last row does.
    std::vector<ImageChunk> dir;
    if (num_rows > 0) dir.push_back(ImageChunk{0, num_rows});
    PHX_RETURN_IF_ERROR(
        table->DecodeRows(dec->Rest(), dir, /*exact=*/false, nullptr, &used));
    PHX_RETURN_IF_ERROR(dec->GetBytes(used).status());
  }
  // Restore next_rid last: Insert() advances it, but the checkpoint value is
  // authoritative (rows may have been deleted at the high end).
  if (next_rid > table->next_rid_) table->next_rid_ = next_rid;
  if (version >= 3) {
    PHX_ASSIGN_OR_RETURN(uint32_t num_idx, dec->GetU32());
    for (uint32_t i = 0; i < num_idx; ++i) {
      PHX_ASSIGN_OR_RETURN(std::string idx_name, dec->GetString());
      PHX_ASSIGN_OR_RETURN(uint32_t ncols, dec->GetU32());
      std::vector<int> cols;
      for (uint32_t c = 0; c < ncols; ++c) {
        PHX_ASSIGN_OR_RETURN(int32_t col, dec->GetI32());
        cols.push_back(col);
      }
      PHX_RETURN_IF_ERROR(table->CreateIndex(idx_name, std::move(cols)));
    }
  }
  return table;
}

Result<Table*> TableStore::CreateTable(const std::string& name, Schema schema,
                                       std::vector<int> pk_columns,
                                       bool temporary) {
  std::string key = IdentUpper(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  for (int c : pk_columns) {
    if (c < 0 || static_cast<size_t>(c) >= schema.num_columns()) {
      return Status::InvalidArgument("primary key column out of range");
    }
  }
  auto table = std::make_shared<Table>(key, std::move(schema),
                                       std::move(pk_columns), temporary);
  Table* raw = table.get();
  tables_[key] = std::move(table);
  return raw;
}

Status TableStore::DropTable(const std::string& name) {
  auto it = tables_.find(IdentUpper(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  tables_.erase(it);
  return Status::Ok();
}

Status TableStore::Install(std::shared_ptr<Table> table) {
  std::string key = table->name();
  if (!tables_.emplace(key, std::move(table)).second) {
    return Status::AlreadyExists("table already exists: " + key);
  }
  return Status::Ok();
}

Table* TableStore::Get(const std::string& name) {
  auto it = tables_.find(IdentUpper(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* TableStore::Get(const std::string& name) const {
  auto it = tables_.find(IdentUpper(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TableStore::ListNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

std::vector<std::string> TableStore::DropSessionTemps(uint64_t session_id) {
  std::vector<std::string> dropped;
  for (auto it = tables_.begin(); it != tables_.end();) {
    if (it->second->temporary() && it->second->owner_session() == session_id) {
      dropped.push_back(it->first);
      it = tables_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

void TableStore::EncodeSnapshot(Encoder* enc) const {
  uint32_t persistent = 0;
  for (const auto& [name, table] : tables_) {
    if (!table->temporary()) ++persistent;
  }
  enc->PutU32(persistent);
  for (const auto& [name, table] : tables_) {
    if (table->temporary()) continue;
    TableImageEncoder out(enc, *table, table->next_rid());
    for (const auto& [rid, row] : table->rows()) out.AddRow(rid, row);
    out.Finish(table->IndexDefs());
  }
}

CatalogImage TableStore::CapturePersistent() const {
  CatalogImage catalog;
  for (const auto& [name, table] : tables_) {
    if (!table->temporary()) catalog.emplace(name, table->Image());
  }
  return catalog;
}

Status TableStore::DecodeSnapshot(Decoder* dec, uint32_t version,
                                  net::WorkerPool* pool) {
  PHX_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    PHX_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                         Table::DecodeSnapshot(dec, version, pool));
    std::string key = table->name();
    tables_[key] = std::move(table);
  }
  return Status::Ok();
}

}  // namespace phoenix::storage
