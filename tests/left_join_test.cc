// LEFT OUTER JOIN semantics in the executor.

#include "engine/database.h"

#include "sql/parser.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

class LeftJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
    Exec("CREATE TABLE CUST (ID INTEGER PRIMARY KEY, NAME VARCHAR)");
    Exec("CREATE TABLE ORD (OID INTEGER PRIMARY KEY, CUST_ID INTEGER, "
         "AMT DOUBLE)");
    Exec("INSERT INTO CUST VALUES (1, 'ann'), (2, 'bob'), (3, 'cat')");
    Exec("INSERT INTO ORD VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 3, 2.0)");
  }

  StatementResult Exec(const std::string& sql) {
    auto r = db_->ExecuteScript(sid_, sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return StatementResult{};
    return std::move(r->back());
  }

  Status TryExec(const std::string& sql) {
    return db_->ExecuteScript(sid_, sql).status();
  }

  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

TEST_F(LeftJoinTest, UnmatchedLeftRowsNullPadded) {
  StatementResult r = Exec(
      "SELECT NAME, OID, AMT FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "ORDER BY ID, OID");
  ASSERT_EQ(r.rows.size(), 4u);  // ann×2, bob×1 (padded), cat×1
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 10);
  EXPECT_EQ(r.rows[2][0].AsString(), "bob");
  EXPECT_TRUE(r.rows[2][1].is_null());
  EXPECT_TRUE(r.rows[2][2].is_null());
  EXPECT_EQ(r.rows[3][0].AsString(), "cat");
}

TEST_F(LeftJoinTest, CountOfJoinedColumnIgnoresPads) {
  StatementResult r = Exec(
      "SELECT NAME, COUNT(OID) AS N FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "GROUP BY NAME ORDER BY NAME");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 2);  // ann
  EXPECT_EQ(r.rows[1][1].AsInt64(), 0);  // bob: padded row, NULL not counted
  EXPECT_EQ(r.rows[2][1].AsInt64(), 1);  // cat
}

TEST_F(LeftJoinTest, WhereOnRightSideAppliesAfterPadding) {
  // Filtering the right side in WHERE keeps left-join-then-filter order:
  // padded rows have AMT NULL, so AMT >= 5 drops bob AND cat.
  StatementResult post = Exec(
      "SELECT NAME FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "WHERE AMT >= 5 ORDER BY OID");
  ASSERT_EQ(post.rows.size(), 2u);
  // Whereas putting the filter in the ON clause keeps all customers.
  StatementResult in_on = Exec(
      "SELECT NAME, OID FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "AND AMT >= 5 ORDER BY ID, OID");
  ASSERT_EQ(in_on.rows.size(), 4u);  // ann×2, bob padded, cat padded
  EXPECT_TRUE(in_on.rows[3][1].is_null());  // cat's order filtered by ON
}

TEST_F(LeftJoinTest, IsNullFindsChildlessParents) {
  StatementResult r = Exec(
      "SELECT NAME FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "WHERE OID IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
}

TEST_F(LeftJoinTest, NonEquiOnConditionUsesNestedLoop) {
  StatementResult r = Exec(
      "SELECT NAME, OID FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "AND AMT > 6 ORDER BY ID, OID");
  // ann matches order 11 only; bob and cat padded.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 11);
  EXPECT_TRUE(r.rows[1][1].is_null());
  EXPECT_TRUE(r.rows[2][1].is_null());
}

TEST_F(LeftJoinTest, ChainedInnerThenLeft) {
  Exec("CREATE TABLE NOTE (CUST_ID INTEGER, TXT VARCHAR)");
  Exec("INSERT INTO NOTE VALUES (1, 'vip')");
  StatementResult r = Exec(
      "SELECT C.NAME, O.OID, N.TXT FROM CUST C "
      "JOIN ORD O ON C.ID = O.CUST_ID "
      "LEFT JOIN NOTE N ON C.ID = N.CUST_ID "
      "ORDER BY O.OID");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][2].AsString(), "vip");
  EXPECT_TRUE(r.rows[2][2].is_null());  // cat's order, no note
}

TEST_F(LeftJoinTest, LeftJoinEmptyRightTable) {
  Exec("DELETE FROM ORD");
  StatementResult r = Exec(
      "SELECT NAME, OID FROM CUST LEFT JOIN ORD ON ID = CUST_ID ORDER BY ID");
  ASSERT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) EXPECT_TRUE(row[1].is_null());
}

TEST_F(LeftJoinTest, ToSqlRoundTripKeepsLeftJoin) {
  auto stmt = sql::Parser::ParseStatement(
      "SELECT NAME FROM CUST LEFT JOIN ORD ON ID = CUST_ID WHERE AMT > 1");
  ASSERT_TRUE(stmt.ok());
  std::string emitted = (*stmt)->ToSql();
  EXPECT_NE(emitted.find("LEFT JOIN ORD ON"), std::string::npos) << emitted;
  auto again = sql::Parser::ParseStatement(emitted);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(emitted, (*again)->ToSql());
}

TEST_F(LeftJoinTest, MetadataProbeWorksThroughLeftJoin) {
  StatementResult r = Exec(
      "SELECT NAME, OID FROM CUST LEFT JOIN ORD ON ID = CUST_ID "
      "WHERE 0 = 1");
  EXPECT_TRUE(r.has_rows);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.schema.num_columns(), 2u);
}

TEST_F(LeftJoinTest, PaddedColumnsReportNullable) {
  // ORD.OID is a NOT NULL primary key, but bob's padded row holds NULL
  // there: the joined schema must say so, while CUST.ID stays NOT NULL.
  const std::string q = "SELECT * FROM CUST LEFT JOIN ORD ON ID = CUST_ID";
  StatementResult r = Exec(q + " ORDER BY ID, OID");
  ASSERT_EQ(r.schema.num_columns(), 5u);
  EXPECT_EQ(r.schema.column(0).name, "ID");
  EXPECT_FALSE(r.schema.column(0).nullable);
  EXPECT_EQ(r.schema.column(2).name, "OID");
  EXPECT_TRUE(r.schema.column(2).nullable);
  EXPECT_TRUE(r.rows[2][2].is_null());  // bob
  // The WHERE 0=1 probe reports the same metadata without running the join.
  StatementResult probe = Exec(q + " WHERE 0 = 1");
  ASSERT_EQ(probe.schema.num_columns(), r.schema.num_columns());
  for (size_t i = 0; i < r.schema.num_columns(); ++i) {
    EXPECT_EQ(probe.schema.column(i).nullable, r.schema.column(i).nullable)
        << r.schema.column(i).name;
  }
}

TEST_F(LeftJoinTest, SelectStarIntoFromLeftJoin) {
  StatementResult r =
      Exec("SELECT * INTO CO FROM CUST LEFT JOIN ORD ON ID = CUST_ID");
  EXPECT_EQ(r.affected, 4);  // ann×2, bob padded, cat
  StatementResult copy = Exec(
      "SELECT NAME, OID FROM CO WHERE OID IS NULL");
  ASSERT_EQ(copy.rows.size(), 1u);
  EXPECT_EQ(copy.rows[0][0].AsString(), "bob");
}

TEST_F(LeftJoinTest, LeftWithoutJoinIsError) {
  EXPECT_FALSE(TryExec("SELECT * FROM CUST LEFT ORD").ok());
}

}  // namespace
}  // namespace phoenix::eng
