// Full-stack smoke tests: application → Phoenix DM → driver → wire → server
// → engine → storage, including a crash in the middle of a session.

#include "test_util.h"

#include "core/phoenix_driver_manager.h"
#include "odbc/odbc_api.h"

namespace phoenix {
namespace {

using core::PhoenixDriverManager;
using odbc::Hdbc;
using odbc::Henv;
using odbc::Hstmt;
using odbc::SqlReturn;
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

TEST(EndToEnd, PlainDriverManagerBasicSession) {
  TestCluster cluster;
  odbc::DriverManager dm(&cluster.network);
  Henv* env = dm.AllocEnv();
  Hdbc* dbc = dm.AllocConnect(env);
  ASSERT_EQ(dm.Connect(dbc, "testdb", "alice"), SqlReturn::kSuccess);

  MustExec(&dm, dbc,
           "CREATE TABLE T (ID INTEGER PRIMARY KEY, NAME VARCHAR)");
  EXPECT_EQ(MustExec(&dm, dbc,
                     "INSERT INTO T VALUES (1, 'one'), (2, 'two'), (3, "
                     "'three')"),
            3);
  std::vector<Row> rows =
      MustQuery(&dm, dbc, "SELECT NAME FROM T WHERE ID >= 2 ORDER BY ID");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "two");
  EXPECT_EQ(rows[1][0].AsString(), "three");

  EXPECT_EQ(dm.Disconnect(dbc), SqlReturn::kSuccess);
  dm.FreeEnv(env);
}

TEST(EndToEnd, PhoenixTransparentWithoutFailures) {
  TestCluster cluster;
  PhoenixDriverManager dm(&cluster.network);
  Henv* env = dm.AllocEnv();
  Hdbc* dbc = dm.AllocConnect(env);
  ASSERT_EQ(dm.Connect(dbc, "testdb", "alice"), SqlReturn::kSuccess);

  MustExec(&dm, dbc, "CREATE TABLE T (ID INTEGER PRIMARY KEY, V DOUBLE)");
  for (int i = 1; i <= 10; ++i) {
    MustExec(&dm, dbc, "INSERT INTO T VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i * 1.5) + ")");
  }
  // Five rows in blocks of two: delivered from a materialized result table.
  std::vector<Row> rows = MustQuery(
      &dm, dbc, "SELECT ID, V FROM T WHERE ID <= 5 ORDER BY ID DESC",
      /*block_size=*/2);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].AsInt64(), 5);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 7.5);
  EXPECT_EQ(dm.stats().materialized_results, 1u);

  EXPECT_EQ(dm.Disconnect(dbc), SqlReturn::kSuccess);
  dm.FreeEnv(env);
}

TEST(EndToEnd, PhoenixSurvivesCrashMidFetch) {
  TestCluster cluster;
  PhoenixDriverManager dm(&cluster.network,
                          testutil::AutoRestartConfig(&cluster.server));
  Henv* env = dm.AllocEnv();
  Hdbc* dbc = dm.AllocConnect(env);
  ASSERT_EQ(dm.Connect(dbc, "testdb", "alice"), SqlReturn::kSuccess);

  MustExec(&dm, dbc, "CREATE TABLE NUMS (N INTEGER PRIMARY KEY)");
  std::string insert = "INSERT INTO NUMS VALUES (1)";
  for (int i = 2; i <= 500; ++i) insert += ", (" + std::to_string(i) + ")";
  // Multi-row INSERT parses as one statement with many value rows.
  insert = "INSERT INTO NUMS VALUES (1)";
  {
    std::string values;
    for (int i = 1; i <= 500; ++i) {
      if (i > 1) values += ", ";
      values += "(" + std::to_string(i) + ")";
    }
    insert = "INSERT INTO NUMS VALUES " + values;
  }
  EXPECT_EQ(MustExec(&dm, dbc, insert), 500);

  Hstmt* stmt = dm.AllocStmt(dbc);
  ASSERT_EQ(dm.ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);

  // Read the first 200 rows, then the server dies.
  for (int i = 1; i <= 200; ++i) {
    ASSERT_EQ(dm.Fetch(stmt), SqlReturn::kSuccess) << "row " << i;
    Value v;
    dm.GetData(stmt, 0, &v);
    ASSERT_EQ(v.AsInt64(), i);
  }
  cluster.server.Crash();

  // The application keeps fetching; Phoenix recovers behind the scenes and
  // delivery resumes at row 201 with nothing skipped or repeated.
  for (int i = 201; i <= 500; ++i) {
    ASSERT_EQ(dm.Fetch(stmt), SqlReturn::kSuccess) << "row " << i;
    Value v;
    dm.GetData(stmt, 0, &v);
    ASSERT_EQ(v.AsInt64(), i) << "row " << i;
  }
  EXPECT_EQ(dm.Fetch(stmt), SqlReturn::kNoData);
  EXPECT_GE(dm.stats().recoveries, 1u);

  EXPECT_EQ(dm.Disconnect(dbc), SqlReturn::kSuccess);
  dm.FreeEnv(env);
}

}  // namespace
}  // namespace phoenix
