#include "engine/cursor.h"

#include "engine/database.h"
#include "engine/executor.h"

namespace phoenix::eng {

const char* CursorTypeName(CursorType type) {
  switch (type) {
    case CursorType::kStatic: return "STATIC";
    case CursorType::kKeyset: return "KEYSET";
    case CursorType::kDynamic: return "DYNAMIC";
  }
  return "?";
}

uint64_t Cursor::known_size() const {
  switch (type_) {
    case CursorType::kStatic: return static_rows_.size();
    case CursorType::kKeyset: return keys_.size();
    case CursorType::kDynamic: return 0;
  }
  return 0;
}

Result<std::vector<Row>> Cursor::Fetch(Database* db, Session* session,
                                       size_t n, bool* done) {
  std::vector<Row> out;
  switch (type_) {
    case CursorType::kStatic: {
      while (out.size() < n && position_ < static_rows_.size()) {
        out.push_back(static_rows_[position_++]);
      }
      *done = position_ >= static_rows_.size();
      return out;
    }
    case CursorType::kKeyset: {
      storage::Table* t = db->store()->Get(base_table_);
      if (t == nullptr) {
        return Status::SqlError("keyset base table dropped: " + base_table_);
      }
      Executor ex(db, session);
      Schema base_schema = t->schema();
      std::vector<std::string> quals(base_schema.num_columns(),
                                     select_->from[0].BindingName());
      while (out.size() < n && position_ < keys_.size()) {
        const size_t slot = position_++;
        const Row& key = keys_[slot];
        auto rid = t->FindByPk(key);
        if (!rid.ok()) continue;  // row deleted since open: skip the hole
        // Frozen membership means *these rows*, not *these key values*: a
        // row inserted after open under a recycled key is a phantom.
        if (slot < key_rids_.size() && rid.value() != key_rids_[slot]) {
          continue;
        }
        const Row* row = t->Find(rid.value());
        if (row == nullptr) continue;
        // Current (possibly updated) row data is returned — keyset property.
        PHX_ASSIGN_OR_RETURN(
            Row projected,
            ex.ProjectRow(select_->items, base_schema, &quals, *row));
        out.push_back(std::move(projected));
      }
      *done = position_ >= keys_.size();
      return out;
    }
    case CursorType::kDynamic: {
      storage::Table* t = db->store()->Get(base_table_);
      if (t == nullptr) {
        return Status::SqlError("dynamic base table dropped: " + base_table_);
      }
      Executor ex(db, session);
      Schema base_schema = t->schema();
      std::vector<std::string> quals(base_schema.num_columns(),
                                     select_->from[0].BindingName());
      const auto& index = t->pk_index();
      auto it = dynamic_started_ ? index.upper_bound(last_key_) : index.begin();
      for (; it != index.end() && out.size() < n; ++it) {
        const Row* row = t->Find(it->second);
        if (row == nullptr) continue;
        if (select_->where != nullptr) {
          EvalEnv env;
          env.schema = &base_schema;
          env.qualifiers = &quals;
          env.row = row;
          PHX_ASSIGN_OR_RETURN(Value v, EvalExpr(*select_->where, env));
          if (!Truthy(v)) continue;
        }
        PHX_ASSIGN_OR_RETURN(
            Row projected,
            ex.ProjectRow(select_->items, base_schema, &quals, *row));
        out.push_back(std::move(projected));
        last_key_ = it->first;
        dynamic_started_ = true;
        ++position_;
      }
      *done = it == index.end();
      return out;
    }
  }
  return Status::Internal("bad cursor type");
}

Status Cursor::Seek(uint64_t pos) {
  switch (type_) {
    case CursorType::kStatic:
      if (pos > static_rows_.size()) pos = static_rows_.size();
      position_ = pos;
      return Status::Ok();
    case CursorType::kKeyset:
      if (pos > keys_.size()) pos = keys_.size();
      position_ = pos;
      return Status::Ok();
    case CursorType::kDynamic:
      return Status::NotSupported(
          "absolute positioning on a dynamic cursor (membership is fluid)");
  }
  return Status::Internal("bad cursor type");
}

}  // namespace phoenix::eng
