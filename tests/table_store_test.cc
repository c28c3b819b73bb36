// Table heap + PK index + snapshot round trips + temp-table lifecycle.

#include "storage/table_store.h"

#include "common/rng.h"

#include "gtest/gtest.h"

namespace phoenix::storage {
namespace {

Schema KvSchema() {
  Schema s;
  s.AddColumn(Column{"K", DataType::kInt64, false});
  s.AddColumn(Column{"V", DataType::kString, true});
  return s;
}

TEST(Table, InsertAssignsMonotoneRowIds) {
  Table t("T", KvSchema(), {0}, false);
  auto r1 = t.Insert(Row{Value::Int64(1), Value::String("a")});
  auto r2 = t.Insert(Row{Value::Int64(2), Value::String("b")});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(*r1, *r2);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, PkUniquenessEnforced) {
  Table t("T", KvSchema(), {0}, false);
  ASSERT_TRUE(t.Insert(Row{Value::Int64(1), Value::String("a")}).ok());
  auto dup = t.Insert(Row{Value::Int64(1), Value::String("b")});
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraint);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, NoPkMeansNoUniquenessCheck) {
  Table t("T", KvSchema(), {}, false);
  ASSERT_TRUE(t.Insert(Row{Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Insert(Row{Value::Int64(1), Value::String("a")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.FindByPk(Row{Value::Int64(1)}).status().IsNotFound());
}

TEST(Table, FindByPkAndDelete) {
  Table t("T", KvSchema(), {0}, false);
  auto rid = t.Insert(Row{Value::Int64(5), Value::String("five")});
  ASSERT_TRUE(rid.ok());
  auto found = t.FindByPk(Row{Value::Int64(5)});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *rid);
  ASSERT_TRUE(t.Delete(*rid).ok());
  EXPECT_TRUE(t.FindByPk(Row{Value::Int64(5)}).status().IsNotFound());
  EXPECT_EQ(t.Delete(*rid).code(), StatusCode::kNotFound);
}

TEST(Table, UpdatePreservesRowIdAndReindexesPk) {
  Table t("T", KvSchema(), {0}, false);
  auto rid = t.Insert(Row{Value::Int64(1), Value::String("a")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.Update(*rid, Row{Value::Int64(9), Value::String("z")}).ok());
  EXPECT_TRUE(t.FindByPk(Row{Value::Int64(1)}).status().IsNotFound());
  auto moved = t.FindByPk(Row{Value::Int64(9)});
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *rid);
}

TEST(Table, UpdateToDuplicatePkRejected) {
  Table t("T", KvSchema(), {0}, false);
  ASSERT_TRUE(t.Insert(Row{Value::Int64(1), Value::String("a")}).ok());
  auto rid2 = t.Insert(Row{Value::Int64(2), Value::String("b")});
  ASSERT_TRUE(rid2.ok());
  EXPECT_EQ(t.Update(*rid2, Row{Value::Int64(1), Value::String("b")}).code(),
            StatusCode::kConstraint);
  // Victim row unchanged.
  EXPECT_EQ((*t.Find(*rid2))[0].AsInt64(), 2);
}

TEST(Table, CoercionAppliesOnInsert) {
  Table t("T", KvSchema(), {0}, false);
  auto rid = t.Insert(Row{Value::Int32(1), Value::Null()});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*t.Find(*rid))[0].type(), DataType::kInt64);
}

TEST(Table, RidHintRestoresExactIds) {
  Table t("T", KvSchema(), {0}, false);
  ASSERT_TRUE(t.Insert(Row{Value::Int64(1), Value::String("a")}, 42).ok());
  EXPECT_NE(t.Find(42), nullptr);
  EXPECT_EQ(t.next_rid(), 43u);
  // Colliding hint is an internal error, not silent corruption.
  auto dup = t.Insert(Row{Value::Int64(2), Value::String("b")}, 42);
  EXPECT_FALSE(dup.ok());
}

TEST(Table, CompositePk) {
  Schema s;
  s.AddColumn(Column{"A", DataType::kInt64, false});
  s.AddColumn(Column{"B", DataType::kInt64, false});
  s.AddColumn(Column{"V", DataType::kString, true});
  Table t("T", s, {0, 1}, false);
  ASSERT_TRUE(
      t.Insert(Row{Value::Int64(1), Value::Int64(1), Value::String("x")}).ok());
  ASSERT_TRUE(
      t.Insert(Row{Value::Int64(1), Value::Int64(2), Value::String("y")}).ok());
  auto dup =
      t.Insert(Row{Value::Int64(1), Value::Int64(2), Value::String("z")});
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraint);
  auto found = t.FindByPk(Row{Value::Int64(1), Value::Int64(2)});
  ASSERT_TRUE(found.ok());
}

TEST(Table, PkIndexIsKeyOrdered) {
  Table t("T", KvSchema(), {0}, false);
  for (int64_t k : {5, 1, 9, 3}) {
    ASSERT_TRUE(t.Insert(Row{Value::Int64(k), Value::Null()}).ok());
  }
  int64_t prev = -1;
  for (const auto& [key, rid] : t.pk_index()) {
    EXPECT_GT(key[0].AsInt64(), prev);
    prev = key[0].AsInt64();
  }
}

TEST(Table, SnapshotRoundTrip) {
  Table t("T", KvSchema(), {0}, false);
  for (int64_t k = 1; k <= 20; ++k) {
    ASSERT_TRUE(
        t.Insert(Row{Value::Int64(k), Value::String("v" + std::to_string(k))})
            .ok());
  }
  ASSERT_TRUE(t.Delete(3).ok());
  Encoder enc;
  TableImageEncoder out(&enc, t, t.next_rid());
  for (const auto& [rid, row] : t.rows()) out.AddRow(rid, row);
  out.Finish(t.IndexDefs());
  Decoder dec(enc.data());
  auto back = Table::DecodeSnapshot(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->num_rows(), 19u);
  EXPECT_EQ((*back)->next_rid(), t.next_rid());
  EXPECT_EQ((*back)->Find(3), nullptr);
  ASSERT_NE((*back)->Find(7), nullptr);
  EXPECT_EQ((*(*back)->Find(7))[1].AsString(), "v7");
  // PK index rebuilt.
  EXPECT_TRUE((*back)->FindByPk(Row{Value::Int64(10)}).ok());
}

TEST(TableStore, CreateGetDrop) {
  TableStore store;
  auto t = store.CreateTable("orders", KvSchema(), {0}, false);
  ASSERT_TRUE(t.ok());
  EXPECT_NE(store.Get("ORDERS"), nullptr);
  EXPECT_NE(store.Get("Orders"), nullptr);
  EXPECT_EQ(store.CreateTable("ORDERS", KvSchema(), {}, false).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.DropTable("orders").ok());
  EXPECT_EQ(store.Get("ORDERS"), nullptr);
  EXPECT_EQ(store.DropTable("orders").code(), StatusCode::kNotFound);
}

TEST(TableStore, PkColumnRangeValidated) {
  TableStore store;
  EXPECT_FALSE(store.CreateTable("T", KvSchema(), {5}, false).ok());
}

TEST(TableStore, SessionTempsDroppedTogether) {
  TableStore store;
  auto t1 = store.CreateTable("TMP1", KvSchema(), {}, true);
  auto t2 = store.CreateTable("TMP2", KvSchema(), {}, true);
  auto p = store.CreateTable("PERM", KvSchema(), {}, false);
  ASSERT_TRUE(t1.ok() && t2.ok() && p.ok());
  (*t1)->set_owner_session(7);
  (*t2)->set_owner_session(8);
  auto dropped = store.DropSessionTemps(7);
  EXPECT_EQ(dropped, std::vector<std::string>{"TMP1"});
  EXPECT_EQ(store.Get("TMP1"), nullptr);
  EXPECT_NE(store.Get("TMP2"), nullptr);
  EXPECT_NE(store.Get("PERM"), nullptr);
}

TEST(TableStore, SnapshotSkipsTempTables) {
  TableStore store;
  ASSERT_TRUE(store.CreateTable("PERM", KvSchema(), {0}, false).ok());
  ASSERT_TRUE(store.CreateTable("TMP", KvSchema(), {}, true).ok());
  Encoder enc;
  store.EncodeSnapshot(&enc);
  TableStore back;
  Decoder dec(enc.data());
  ASSERT_TRUE(back.DecodeSnapshot(&dec).ok());
  EXPECT_NE(back.Get("PERM"), nullptr);
  EXPECT_EQ(back.Get("TMP"), nullptr);
}

// Property: a random operation sequence applied to a table and to a model
// map produces identical contents, and snapshots round-trip at every stage.
TEST(Table, RandomOpsMatchModelProperty) {
  Rng rng(31337);
  Table t("T", KvSchema(), {0}, false);
  std::map<int64_t, std::pair<RowId, std::string>> model;  // pk -> (rid, v)
  for (int step = 0; step < 3000; ++step) {
    int64_t key = static_cast<int64_t>(rng.NextBelow(200));
    switch (rng.NextBelow(3)) {
      case 0: {  // insert
        auto rid = t.Insert(Row{Value::Int64(key), Value::String("s")});
        if (model.count(key)) {
          ASSERT_FALSE(rid.ok());
        } else {
          ASSERT_TRUE(rid.ok());
          model[key] = {*rid, "s"};
        }
        break;
      }
      case 1: {  // delete
        if (model.count(key)) {
          ASSERT_TRUE(t.Delete(model[key].first).ok());
          model.erase(key);
        }
        break;
      }
      default: {  // update value in place
        if (model.count(key)) {
          std::string nv = "u" + std::to_string(step);
          ASSERT_TRUE(t.Update(model[key].first,
                               Row{Value::Int64(key), Value::String(nv)})
                          .ok());
          model[key].second = nv;
        }
        break;
      }
    }
  }
  ASSERT_EQ(t.num_rows(), model.size());
  for (const auto& [key, entry] : model) {
    auto rid = t.FindByPk(Row{Value::Int64(key)});
    ASSERT_TRUE(rid.ok());
    ASSERT_EQ(*rid, entry.first);
    ASSERT_EQ((*t.Find(*rid))[1].AsString(), entry.second);
  }
}

}  // namespace
}  // namespace phoenix::storage
