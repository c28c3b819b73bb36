// Server-cursor semantics: static snapshots, keyset re-reads, dynamic
// membership, absolute seek.

#include "engine/database.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
    Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR)");
    for (int i = 1; i <= 10; ++i) {
      Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", 'v" +
           std::to_string(i) + "')");
    }
  }

  void Exec(const std::string& sql) {
    auto r = db_->ExecuteScript(sid_, sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  Cursor* Open(const std::string& sql, CursorType type) {
    auto r = db_->OpenCursor(sid_, sql, type);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : nullptr;
  }

  std::vector<Row> Fetch(Cursor* c, size_t n, bool* done) {
    auto r = db_->FetchCursor(sid_, c->id(), n, done);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : std::vector<Row>{};
  }

  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

TEST_F(CursorTest, StaticBlockFetch) {
  Cursor* c = Open("SELECT K FROM T ORDER BY K", CursorType::kStatic);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->known_size(), 10u);
  bool done = false;
  auto block1 = Fetch(c, 4, &done);
  ASSERT_EQ(block1.size(), 4u);
  EXPECT_FALSE(done);
  EXPECT_EQ(block1[0][0].AsInt64(), 1);
  auto block2 = Fetch(c, 100, &done);
  EXPECT_EQ(block2.size(), 6u);
  EXPECT_TRUE(done);
  EXPECT_TRUE(Fetch(c, 5, &done).empty());
}

TEST_F(CursorTest, StaticSnapshotIgnoresLaterChanges) {
  Cursor* c = Open("SELECT K, V FROM T", CursorType::kStatic);
  Exec("DELETE FROM T WHERE K <= 5");
  Exec("UPDATE T SET V = 'changed' WHERE K = 6");
  bool done = false;
  auto rows = Fetch(c, 100, &done);
  EXPECT_EQ(rows.size(), 10u);          // deletions invisible
  EXPECT_EQ(rows[5][1].AsString(), "v6");  // update invisible
}

TEST_F(CursorTest, StaticSeekAbsolute) {
  Cursor* c = Open("SELECT K FROM T ORDER BY K", CursorType::kStatic);
  ASSERT_TRUE(db_->SeekCursor(sid_, c->id(), 7).ok());
  bool done = false;
  auto rows = Fetch(c, 2, &done);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 8);
  // Seek past the end clamps.
  ASSERT_TRUE(db_->SeekCursor(sid_, c->id(), 999).ok());
  EXPECT_TRUE(Fetch(c, 1, &done).empty());
  EXPECT_TRUE(done);
  // Seek back to the beginning replays from row one.
  ASSERT_TRUE(db_->SeekCursor(sid_, c->id(), 0).ok());
  rows = Fetch(c, 1, &done);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
}

TEST_F(CursorTest, KeysetSeesUpdatesButFrozenMembership) {
  Cursor* c = Open("SELECT K, V FROM T WHERE K <= 5", CursorType::kKeyset);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->known_size(), 5u);
  // Update a member row and insert a new row that would have qualified.
  Exec("UPDATE T SET V = 'fresh' WHERE K = 3");
  Exec("INSERT INTO T VALUES (0, 'new')");
  bool done = false;
  auto rows = Fetch(c, 100, &done);
  ASSERT_EQ(rows.size(), 5u);  // insert NOT visible (membership frozen)
  EXPECT_EQ(rows[2][1].AsString(), "fresh");  // update IS visible
}

TEST_F(CursorTest, KeysetSkipsDeletedRows) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kKeyset);
  Exec("DELETE FROM T WHERE K = 2");
  Exec("DELETE FROM T WHERE K = 9");
  bool done = false;
  auto rows = Fetch(c, 100, &done);
  EXPECT_EQ(rows.size(), 8u);
}

TEST_F(CursorTest, KeysetSeek) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kKeyset);
  ASSERT_TRUE(db_->SeekCursor(sid_, c->id(), 8).ok());
  bool done = false;
  auto rows = Fetch(c, 10, &done);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 9);
}

TEST_F(CursorTest, DynamicSeesInsertsAheadOfPosition) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kDynamic);
  bool done = false;
  auto first = Fetch(c, 3, &done);  // delivers keys 1..3
  ASSERT_EQ(first.size(), 3u);
  // Insert behind (invisible) and ahead (visible) of the position.
  Exec("INSERT INTO T VALUES (2000, 'ahead')");
  Exec("INSERT INTO T VALUES (-5, 'behind')");
  std::vector<int64_t> rest;
  while (true) {
    auto rows = Fetch(c, 4, &done);
    for (const Row& r : rows) rest.push_back(r[0].AsInt64());
    if (done) break;
  }
  // 4..10 plus 2000; -5 sorts before the current position so is skipped.
  ASSERT_EQ(rest.size(), 8u);
  EXPECT_EQ(rest.front(), 4);
  EXPECT_EQ(rest.back(), 2000);
}

TEST_F(CursorTest, DynamicSeesDeletesAndUpdates) {
  Cursor* c = Open("SELECT K, V FROM T", CursorType::kDynamic);
  bool done = false;
  Fetch(c, 2, &done);  // position after key 2
  Exec("DELETE FROM T WHERE K = 5");
  Exec("UPDATE T SET V = 'mut' WHERE K = 7");
  std::vector<Row> rest;
  while (!done) {
    for (Row& r : Fetch(c, 3, &done)) rest.push_back(std::move(r));
  }
  ASSERT_EQ(rest.size(), 7u);  // 3,4,6,7,8,9,10
  EXPECT_EQ(rest[3][1].AsString(), "mut");
}

TEST_F(CursorTest, DynamicHonorsWherePredicate) {
  Cursor* c = Open("SELECT K FROM T WHERE K % 2 = 0", CursorType::kDynamic);
  bool done = false;
  std::vector<int64_t> keys;
  while (!done) {
    for (const Row& r : Fetch(c, 2, &done)) keys.push_back(r[0].AsInt64());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{2, 4, 6, 8, 10}));
}

TEST_F(CursorTest, DynamicSeekNotSupported) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kDynamic);
  EXPECT_EQ(db_->SeekCursor(sid_, c->id(), 3).code(),
            StatusCode::kNotSupported);
}

TEST_F(CursorTest, KeysetRequiresPrimaryKey) {
  Exec("CREATE TABLE NOPK (A INTEGER)");
  auto r = db_->OpenCursor(sid_, "SELECT A FROM NOPK", CursorType::kKeyset);
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(CursorTest, KeysetRejectsJoinsAndAggregates) {
  EXPECT_EQ(db_->OpenCursor(sid_, "SELECT COUNT(*) FROM T",
                            CursorType::kKeyset)
                .status()
                .code(),
            StatusCode::kNotSupported);
  Exec("CREATE TABLE T2 (K INTEGER PRIMARY KEY)");
  EXPECT_EQ(db_->OpenCursor(sid_, "SELECT T.K FROM T, T2",
                            CursorType::kDynamic)
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST_F(CursorTest, CursorWithProjectionExpressions) {
  Cursor* c = Open("SELECT K * 10 AS KX, UPPER(V) AS UV FROM T WHERE K <= 2",
                   CursorType::kKeyset);
  bool done = false;
  auto rows = Fetch(c, 10, &done);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[0][1].AsString(), "V1");
}

TEST(CursorMvccTest, KeysetRecycledKeyPhantom) {
  // Regression: keyset membership is frozen as *these rows*, yet a member
  // deleted after open and replaced by a fresh insert under the same key
  // used to resurface the newcomer on fetch and re-seek — a phantom. The
  // (key, rid) pairs recorded at open reject the impostor row.
  storage::SimDisk disk;
  Database db(&disk);
  ASSERT_TRUE(db.Open().ok());
  uint64_t sid = *db.CreateSession("t");
  auto exec = [&](const std::string& sql) {
    auto r = db.ExecuteScript(sid, sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR)");
  for (int i = 1; i <= 5; ++i) {
    exec("INSERT INTO T VALUES (" + std::to_string(i) + ", 'v" +
         std::to_string(i) + "')");
  }
  auto c = db.OpenCursor(sid, "SELECT K, V FROM T", CursorType::kKeyset);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  exec("DELETE FROM T WHERE K = 3");
  exec("INSERT INTO T VALUES (3, 'impostor')");

  bool done = false;
  auto rows = db.FetchCursor(sid, (*c)->id(), 100, &done);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // The row named at open is gone; its slot is a hole, not the impostor.
  ASSERT_EQ(rows->size(), 4u);
  for (const Row& r : *rows) EXPECT_NE(r[1].AsString(), "impostor");
  // Re-seek to the start and re-fetch: still no phantom.
  ASSERT_TRUE(db.SeekCursor(sid, (*c)->id(), 0).ok());
  auto again = db.FetchCursor(sid, (*c)->id(), 100, &done);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 4u);
}

TEST_F(CursorTest, CloseCursorFreesIt) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kStatic);
  uint64_t id = c->id();
  ASSERT_TRUE(db_->CloseCursor(sid_, id).ok());
  bool done;
  EXPECT_TRUE(db_->FetchCursor(sid_, id, 1, &done).status().IsNotFound());
  EXPECT_TRUE(db_->CloseCursor(sid_, id).IsNotFound());
}

TEST_F(CursorTest, CursorsDieWithSession) {
  Cursor* c = Open("SELECT K FROM T", CursorType::kStatic);
  uint64_t id = c->id();
  ASSERT_TRUE(db_->CloseSession(sid_).ok());
  sid_ = *db_->CreateSession("t2");
  bool done;
  EXPECT_FALSE(db_->FetchCursor(sid_, id, 1, &done).ok());
}

TEST_F(CursorTest, OpenCursorRejectsNonSelect) {
  EXPECT_FALSE(db_->OpenCursor(sid_, "DELETE FROM T", CursorType::kStatic)
                   .ok());
  EXPECT_FALSE(db_->OpenCursor(sid_, "SELECT K INTO X FROM T",
                               CursorType::kStatic)
                   .ok());
}

}  // namespace
}  // namespace phoenix::eng
