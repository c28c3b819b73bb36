// Table heap + PK index + snapshot round trips + temp-table lifecycle.

#include "storage/table_store.h"

#include <cstring>

#include "common/rng.h"
#include "net/worker_pool.h"

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

// Everything an insert can touch, rendered in tree order: rows by RowId,
// PK entries, each secondary index's entries, and the rid counter.
using IndexEntries = std::map<Row, std::set<RowId>, RowLess>;

std::string DumpTrees(const std::map<RowId, Row>& rows,
                      const std::map<Row, RowId, RowLess>& pk,
                      const std::vector<const IndexEntries*>& indexes,
                      RowId next_rid) {
  std::string out = "next_rid=" + std::to_string(next_rid) + "\nrows:";
  for (const auto& [rid, row] : rows) {
    out += " " + std::to_string(rid) + "=" + RowToString(row);
  }
  out += "\npk:";
  for (const auto& [key, rid] : pk) {
    out += " " + RowToString(key) + "->" + std::to_string(rid);
  }
  for (const IndexEntries* entries : indexes) {
    out += "\nindex:";
    for (const auto& [key, rids] : *entries) {
      out += " " + RowToString(key) + "->";
      for (RowId rid : rids) out += std::to_string(rid) + ",";
    }
  }
  return out;
}

std::string DumpTable(const Table& t) {
  std::vector<const IndexEntries*> indexes;
  for (const SecondaryIndex& idx : t.indexes()) indexes.push_back(&idx.entries);
  return DumpTrees(t.rows(), t.pk_index(), indexes, t.next_rid());
}

// Reference model of Table::Insert on a (K PK, V indexed) table, written
// with plain map lookups: PK uniqueness is checked before RowId collision,
// and a failed insert changes nothing.
struct InsertModel {
  std::map<RowId, Row> rows;
  std::map<Row, RowId, RowLess> pk;
  IndexEntries by_v;
  RowId next_rid = 1;

  StatusCode Insert(const Row& row, RowId hint) {
    Row key{row[0]};
    if (pk.count(key)) return StatusCode::kConstraint;
    RowId rid = hint != 0 ? hint : next_rid;
    if (rows.count(rid)) return StatusCode::kInternal;
    if (rid >= next_rid) next_rid = rid + 1;
    pk[key] = rid;
    rows[rid] = row;
    by_v[Row{row[1]}].insert(rid);
    return StatusCode::kOk;
  }
  void Delete(RowId rid) {
    const Row& row = rows.at(rid);
    pk.erase(Row{row[0]});
    auto it = by_v.find(Row{row[1]});
    it->second.erase(rid);
    if (it->second.empty()) by_v.erase(it);
    rows.erase(rid);
  }
  std::string Dump() const { return DumpTrees(rows, pk, {&by_v}, next_rid); }
};

template <typename Map>
auto PickEntry(const Map& m, Rng* rng) {
  return std::next(m.begin(), static_cast<long>(rng->NextBelow(m.size())));
}

// Property: every branch of Insert — RowId hints past the last rid, below it
// and free, below it and taken, equal to it, or none; PK keys before, inside
// and after the current key range, fresh or duplicate — leaves the table's
// rows, PK tree, secondary index and rid counter exactly where the model
// puts them, with the same status code. Deletes punch holes below the last
// rid so "below and free" hints exist.
TEST(Table, InsertBranchesMatchModelProperty) {
  Rng rng(24601);
  Table t("T", KvSchema(), {0}, false);
  ASSERT_TRUE(t.CreateIndex("IV", {1}).ok());
  InsertModel model;
  int collisions = 0, duplicates = 0, mid_inserts = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!model.rows.empty() && rng.NextBelow(4) == 0) {
      RowId victim = PickEntry(model.rows, &rng)->first;
      ASSERT_TRUE(t.Delete(victim).ok());
      model.Delete(victim);
      ASSERT_EQ(DumpTable(t), model.Dump()) << "step " << step;
      continue;
    }
    int64_t lo = model.pk.empty() ? 0 : model.pk.begin()->first[0].AsInt64();
    int64_t hi = model.pk.empty() ? 0 : model.pk.rbegin()->first[0].AsInt64();
    RowId last = model.rows.empty() ? 0 : model.rows.rbegin()->first;
    int64_t key = 0;
    switch (rng.NextBelow(4)) {
      case 0: key = lo - 1 - rng.NextRange(0, 4); break;  // before the range
      case 1: key = rng.NextRange(lo, hi); break;          // inside it
      case 2:                                               // a duplicate
        key = model.pk.empty() ? 0 : PickEntry(model.pk, &rng)->first[0].AsInt64();
        break;
      default: key = hi + 1 + rng.NextRange(0, 4); break;  // after it
    }
    RowId hint = 0;  // auto rid
    switch (rng.NextBelow(5)) {
      case 0: hint = last + 1 + rng.NextBelow(3); break;  // past the last rid
      case 1:                                              // below it, free
        for (int tries = 0; tries < 8 && last > 1; ++tries) {
          RowId r = 1 + rng.NextBelow(last - 1);
          if (!model.rows.count(r)) {
            hint = r;
            break;
          }
        }
        break;
      case 2:  // below it (or equal), taken
        if (!model.rows.empty()) hint = PickEntry(model.rows, &rng)->first;
        break;
      case 3: hint = last; break;  // equal to the last rid (0 when empty)
      default: break;
    }
    Row row{Value::Int64(key), Value::String(rng.NextString(1))};
    StatusCode want = model.Insert(row, hint);
    auto got = t.Insert(row, hint);
    ASSERT_EQ(got.status().code(), want)
        << "step " << step << " key " << key << " hint " << hint << " "
        << got.status().ToString();
    if (got.ok()) {
      ASSERT_EQ(*got, model.pk.at(Row{Value::Int64(key)}));
    }
    ASSERT_EQ(DumpTable(t), model.Dump()) << "step " << step;
    collisions += want == StatusCode::kInternal;
    duplicates += want == StatusCode::kConstraint;
    mid_inserts += want == StatusCode::kOk && key > lo && key < hi &&
                   hint != 0 && hint < last;
  }
  // Every branch actually ran.
  EXPECT_GT(collisions, 50);
  EXPECT_GT(duplicates, 50);
  EXPECT_GT(mid_inserts, 50);

  // A key that is a duplicate PK *and* a taken RowId: the PK check wins,
  // and nothing changes.
  ASSERT_FALSE(model.rows.empty());
  RowId taken_rid = model.rows.begin()->first;
  const auto& [dup_key, dup_rid] = *model.pk.rbegin();
  ASSERT_NE(taken_rid, dup_rid);
  std::string before = DumpTable(t);
  Row both{dup_key[0], Value::String("x")};
  EXPECT_EQ(t.Insert(both, taken_rid).status().code(),
            StatusCode::kConstraint);
  EXPECT_EQ(model.Insert(both, taken_rid), StatusCode::kConstraint);
  EXPECT_EQ(DumpTable(t), before);
}

// An image whose PK order is not its RowId order decodes to the same table:
// the decode's inserts take the non-append PK branch, which a table keyed in
// insertion order (perfbench's KV) never reaches.
TEST(Table, ImageRoundTripWithPkOrderUnlikeRowIdOrder) {
  Rng rng(4242);
  Schema s;
  s.AddColumn(Column{"K", DataType::kInt64, false});
  s.AddColumn(Column{"G", DataType::kInt64, true});
  s.AddColumn(Column{"V", DataType::kString, true});
  Table t("SHUF", s, {0}, false);
  ASSERT_TRUE(t.CreateIndex("IG", {1}).ok());
  std::vector<int64_t> keys(400);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextBelow(i + 1)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(t.Insert(Row{Value::Int64(k), Value::Int64(k % 7),
                             Value::String(rng.NextString(6))})
                    .ok());
  }
  // Rows deleted at the high end: the image's next_rid outruns its last rid.
  for (RowId rid = 391; rid <= 400; ++rid) ASSERT_TRUE(t.Delete(rid).ok());
  // Updates that re-key rows, some to keys outside the original range.
  for (int i = 0; i < 60; ++i) {
    RowId rid = 1 + rng.NextBelow(390);
    const Row* cur = t.Find(rid);
    if (cur == nullptr) continue;
    int64_t nk = rng.NextBelow(2) ? 1000 + i : -1 - i;
    ASSERT_TRUE(t.Update(rid, Row{Value::Int64(nk), Value::Int64(nk % 5),
                                  (*cur)[2]})
                    .ok());
  }
  for (int i = 0; i < 30; ++i) (void)t.Delete(1 + rng.NextBelow(390));
  // Precondition: PK order really differs from RowId order.
  RowId prev = 0;
  bool rid_order = true;
  for (const auto& [key, rid] : t.pk_index()) {
    rid_order = rid_order && rid > prev;
    prev = rid;
  }
  ASSERT_FALSE(rid_order);

  Encoder enc;
  TableImageEncoder out(&enc, t, t.next_rid());
  for (const auto& [rid, row] : t.rows()) out.AddRow(rid, row);
  out.Finish(t.IndexDefs());
  Decoder dec(enc.data());
  auto back = Table::DecodeSnapshot(&dec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(t.next_rid(), 401u);
  EXPECT_EQ(DumpTable(**back), DumpTable(t));
}

// ---- v4 images: the chunk directory and parallel decode -------------------

constexpr uint64_t kChunk = kCheckpointChunkRows;

Schema MixedSchema() {
  Schema s;
  s.AddColumn(Column{"K", DataType::kInt64, false});
  s.AddColumn(Column{"S", DataType::kString, true});
  s.AddColumn(Column{"D", DataType::kDouble, true});
  s.AddColumn(Column{"B", DataType::kBool, true});
  return s;
}

Value MaybeNull(Rng* rng, Value v) {
  return rng->NextBool(0.2) ? Value::Null() : std::move(v);
}

/// Four tables whose images cover every decode branch: MIXED has >5 chunks,
/// shuffled keys (PK order unlike RowId order), NULLs, strings of varied
/// length, holes from deletes and two secondary indexes; EXACT has exactly
/// 6 * kChunk rows after its deletes and no PK; EMPTY has no rows but an
/// index; SMALL fits in one chunk.
void BuildImageStore(uint64_t seed, TableStore* store) {
  Rng rng(seed);
  Table* mixed = *store->CreateTable("MIXED", MixedSchema(), {0}, false);
  ASSERT_TRUE(mixed->CreateIndex("BY_S", {1}).ok());
  ASSERT_TRUE(mixed->CreateIndex("BY_B_D", {3, 2}).ok());
  std::vector<int64_t> keys(6 * kChunk + 700);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
  }
  for (int64_t k : keys) {
    Row row{Value::Int64(k),
            MaybeNull(&rng, Value::String(rng.NextString(rng.NextBelow(40)))),
            MaybeNull(&rng, Value::Double(rng.NextDouble())),
            MaybeNull(&rng, Value::Bool(rng.NextBool()))};
    ASSERT_TRUE(mixed->Insert(std::move(row)).ok());
  }
  for (int i = 0; i < 400; ++i) (void)mixed->Delete(1 + rng.NextBelow(keys.size()));

  Table* exact = *store->CreateTable("EXACT", KvSchema(), {}, false);
  for (uint64_t i = 0; i < 6 * kChunk + 50; ++i) {
    ASSERT_TRUE(exact->Insert(Row{Value::Int64(static_cast<int64_t>(i % 97)),
                                  Value::String(rng.NextString(8))})
                    .ok());
  }
  while (exact->num_rows() > 6 * kChunk) {
    (void)exact->Delete(1 + rng.NextBelow(exact->next_rid() - 1));
  }

  Table* empty = *store->CreateTable("EMPTY", KvSchema(), {0}, false);
  ASSERT_TRUE(empty->CreateIndex("BY_V", {1}).ok());

  Table* small = *store->CreateTable("SMALL", KvSchema(), {0}, false);
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(small->Insert(Row{Value::Int64(-k), Value::Null()}).ok());
  }
}

std::map<std::string, std::string> DumpStore(const TableStore& store) {
  std::map<std::string, std::string> out;
  for (const std::string& name : store.ListNames()) {
    out[name] = DumpTable(*store.Get(name));
  }
  return out;
}

Status DecodeStore(const std::string& image, size_t threads,
                   TableStore* store) {
  Decoder dec(image);
  if (threads <= 1) return store->DecodeSnapshot(&dec);
  net::WorkerPool pool({threads, threads * 4});
  return store->DecodeSnapshot(&dec, kImageVersion, &pool);
}

// Property: over seeded stores, a v4 image decodes to the same rows by
// RowId, PK index, secondary-index entries and next_rid at 1 and 4 threads,
// and both equal the table the image was taken from.
TEST(TableImage, ParallelDecodeMatchesSerialProperty) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TableStore src;
    BuildImageStore(seed, &src);
    ASSERT_GE(src.Get("MIXED")->num_rows(), 5 * kChunk);
    ASSERT_EQ(src.Get("EXACT")->num_rows(), 6 * kChunk);
    Encoder enc;
    src.EncodeSnapshot(&enc);
    TableStore serial, parallel;
    ASSERT_TRUE(DecodeStore(enc.data(), 1, &serial).ok());
    ASSERT_TRUE(DecodeStore(enc.data(), 4, &parallel).ok());
    EXPECT_EQ(DumpStore(serial), DumpStore(src));
    EXPECT_EQ(DumpStore(parallel), DumpStore(src));
  }
}

/// A one-table image of `num_chunks` full chunks of (k, "v") rows, rid ==
/// k + 1, with bad rows planted: row 10 of `dup_pk_chunk` repeats key 5,
/// row 20 of `collide_chunk` reuses rid 7 and row 30 of `arity_chunk` has
/// one column. A chunk number past the end plants nothing.
std::string PlantedImage(uint64_t num_chunks, uint64_t dup_pk_chunk,
                         uint64_t collide_chunk, uint64_t arity_chunk) {
  Table src("T", KvSchema(), {0}, false);
  Encoder enc;
  TableImageEncoder out(&enc, src, num_chunks * kChunk + 1);
  for (uint64_t i = 0; i < num_chunks * kChunk; ++i) {
    const uint64_t chunk = i / kChunk;
    const uint64_t at = i % kChunk;
    RowId rid = i + 1;
    Row row{Value::Int64(static_cast<int64_t>(i)), Value::String("v")};
    if (chunk == dup_pk_chunk && at == 10) row[0] = Value::Int64(5);
    if (chunk == collide_chunk && at == 20) rid = 7;
    if (chunk == arity_chunk && at == 30) row.pop_back();
    out.AddRow(rid, row);
  }
  out.Finish({});
  return enc.Take();
}

Status DecodeTable(const std::string& image, size_t threads) {
  Decoder dec(image);
  if (threads <= 1) return Table::DecodeSnapshot(&dec).status();
  net::WorkerPool pool({threads, threads * 4});
  return Table::DecodeSnapshot(&dec, kImageVersion, &pool).status();
}

// The first bad row in image order is the error, whichever thread decoded
// it and whichever check (CoerceRow, PK uniqueness, RowId collision) it
// fails.
TEST(TableImage, FirstBadRowInImageOrderWinsAtAnyThreadCount) {
  const std::string all = PlantedImage(6, 2, 4, 5);
  const std::string no_dup = PlantedImage(6, 99, 4, 5);
  const std::string arity_only = PlantedImage(6, 99, 99, 5);
  // A decode error after an insert error in the same chunk comes second.
  const std::string same_chunk = PlantedImage(6, 3, 99, 3);
  ASSERT_TRUE(DecodeTable(PlantedImage(6, 99, 99, 99), 4).ok());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Status st = DecodeTable(all, threads);
    EXPECT_EQ(st.code(), StatusCode::kConstraint) << st.ToString();
    EXPECT_NE(st.message().find("duplicate primary key (5)"),
              std::string::npos)
        << st.ToString();
    st = DecodeTable(no_dup, threads);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_NE(st.message().find("RowId collision"), std::string::npos);
    EXPECT_EQ(DecodeTable(arity_only, threads).code(), StatusCode::kSqlError);
    EXPECT_EQ(DecodeTable(same_chunk, threads).code(), StatusCode::kConstraint);
  }
}

void PutU32At(std::string* s, size_t at, uint32_t v) {
  std::memcpy(s->data() + at, &v, sizeof(v));  // little-endian host
}
void PutU64At(std::string* s, size_t at, uint64_t v) {
  std::memcpy(s->data() + at, &v, sizeof(v));
}
uint64_t U64At(const std::string& s, size_t at) {
  uint64_t v;
  std::memcpy(&v, s.data() + at, sizeof(v));
  return v;
}

// A directory that does not tile the row bytes — truncated, out of range,
// out of order, not summing to the row count, or with a boundary that is
// not a row boundary — is an IoError, never a crash or a partial table.
// So are row bytes left over after a chunk's last row.
TEST(TableImage, CorruptChunkDirectoryIsAnIoError) {
  const std::string image = PlantedImage(6, 99, 99, 99);
  // Locate the rows-bytes slot and the directory from the header.
  Decoder dec(image);
  ASSERT_TRUE(dec.GetString().ok());
  ASSERT_TRUE(dec.GetSchema().ok());
  uint32_t num_pk = *dec.GetU32();
  for (uint32_t i = 0; i < num_pk; ++i) ASSERT_TRUE(dec.GetI32().ok());
  ASSERT_TRUE(dec.GetU64().ok());  // next_rid
  ASSERT_EQ(*dec.GetU64(), 6 * kChunk);
  const size_t rows_bytes_at = dec.position();
  const uint64_t rows_bytes = U64At(image, rows_bytes_at);
  const size_t dir_at = rows_bytes_at + 8 + rows_bytes;
  auto entry = [&](size_t i) { return dir_at + 4 + 16 * i; };
  ASSERT_EQ(image.size(), entry(6) + 4);  // directory, then 0 indexes
  ASSERT_EQ(U64At(image, entry(0)), 0u);

  std::vector<std::pair<std::string, std::string>> cases;
  auto patched = [&](const char* what, auto edit) {
    std::string bad = image;
    edit(&bad);
    cases.emplace_back(what, std::move(bad));
  };
  cases.emplace_back("truncated entry", image.substr(0, entry(2) + 5));
  cases.emplace_back("truncated count", image.substr(0, dir_at + 2));
  patched("count past the end", [&](std::string* s) {
    PutU32At(s, dir_at, 0xFFFFFFFFu);
  });
  patched("no entries", [&](std::string* s) { PutU32At(s, dir_at, 0); });
  patched("rows bytes past the end", [&](std::string* s) {
    PutU64At(s, rows_bytes_at, uint64_t{1} << 62);
  });
  patched("first offset not 0", [&](std::string* s) {
    PutU64At(s, entry(0), 1);
  });
  patched("offset out of range", [&](std::string* s) {
    PutU64At(s, entry(5), rows_bytes + 100);
  });
  patched("offsets not increasing", [&](std::string* s) {
    PutU64At(s, entry(3), U64At(image, entry(2)));
  });
  patched("counts short of num_rows", [&](std::string* s) {
    PutU64At(s, entry(5) + 8, kChunk - 1);
  });
  patched("count overflows", [&](std::string* s) {
    PutU64At(s, entry(1) + 8, ~uint64_t{0});
  });
  patched("counts shifted between chunks", [&](std::string* s) {
    PutU64At(s, entry(0) + 8, kChunk - 1);
    PutU64At(s, entry(1) + 8, kChunk + 1);
  });
  patched("boundary inside a row", [&](std::string* s) {
    PutU64At(s, entry(2), U64At(image, entry(2)) + 3);
  });
  patched("bytes after the last row", [&](std::string* s) {
    s->insert(dir_at, 5, '\0');
    PutU64At(s, rows_bytes_at, rows_bytes + 5);
  });
  for (const auto& [what, bad] : cases) {
    for (size_t threads : {1u, 4u}) {
      Status st = DecodeTable(bad, threads);
      EXPECT_EQ(st.code(), StatusCode::kIoError)
          << what << " at " << threads << " threads: " << st.ToString();
    }
  }
}

// v1-v3 images carry no directory: they decode as one chunk, and a v3 image
// of a table decodes to the same table as its v4 image.
TEST(TableImage, V3ImageDecodesLikeV4) {
  TableStore src;
  BuildImageStore(21, &src);
  for (const std::string& name : src.ListNames()) {
    SCOPED_TRACE(name);
    const Table& t = *src.Get(name);
    std::string images[2];
    for (uint32_t version : {3u, 4u}) {
      Encoder enc;
      TableImageEncoder out(&enc, t, t.next_rid(), version);
      for (const auto& [rid, row] : t.rows()) out.AddRow(rid, row);
      out.Finish(t.IndexDefs());
      enc.PutU32(0xC0FFEE);  // the next table's bytes must stay unread
      images[version - 3] = enc.Take();
    }
    EXPECT_LT(images[0].size(), images[1].size());
    for (uint32_t version : {3u, 4u}) {
      Decoder dec(images[version - 3]);
      net::WorkerPool pool({4, 16});
      auto back = Table::DecodeSnapshot(&dec, version, &pool);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(DumpTable(**back), DumpTable(t)) << "v" << version;
      EXPECT_EQ(*dec.GetU32(), 0xC0FFEEu) << "v" << version;
    }
  }
}

}  // namespace
}  // namespace phoenix::storage
