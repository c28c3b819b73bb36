// Absolute result positioning (SQLFetchScroll analogue) and multi-client
// recovery scenarios, including torn-WAL crashes.

#include "core/phoenix_driver_manager.h"
#include "test_util.h"

namespace phoenix::core {
namespace {

using odbc::CursorMode;
using odbc::DriverManager;
using odbc::Hdbc;
using odbc::Hstmt;
using odbc::SqlReturn;
using odbc::StmtAttr;
using testutil::AutoRestartConfig;
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

int64_t FetchOne(DriverManager* dm, Hstmt* stmt) {
  EXPECT_EQ(dm->Fetch(stmt), SqlReturn::kSuccess)
      << DriverManager::Diag(stmt).ToString();
  Value v;
  dm->GetData(stmt, 0, &v);
  return v.AsInt64();
}

class SeekTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dm_ = std::make_unique<PhoenixDriverManager>(
        &cluster_.network, AutoRestartConfig(&cluster_.server));
    dbc_ = dm_->AllocConnect(dm_->AllocEnv());
    ASSERT_EQ(dm_->Connect(dbc_, "testdb", "app"), SqlReturn::kSuccess);
    MustExec(dm_.get(), dbc_, "CREATE TABLE T (N INTEGER PRIMARY KEY)");
    std::string values;
    for (int i = 1; i <= 50; ++i) {
      if (i > 1) values += ", ";
      values += "(" + std::to_string(i) + ")";
    }
    MustExec(dm_.get(), dbc_, "INSERT INTO T VALUES " + values);
  }

  TestCluster cluster_;
  std::unique_ptr<PhoenixDriverManager> dm_;
  Hdbc* dbc_ = nullptr;
};

TEST_F(SeekTest, PlainDmSeeksBufferedResult) {
  DriverManager plain(&cluster_.network);
  Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
  ASSERT_EQ(plain.Connect(dbc, "testdb", "plain"), SqlReturn::kSuccess);
  Hstmt* stmt = plain.AllocStmt(dbc);
  ASSERT_EQ(plain.ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  ASSERT_EQ(plain.SeekRow(stmt, 30), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(&plain, stmt), 31);
  ASSERT_EQ(plain.SeekRow(stmt, 0), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(&plain, stmt), 1);
  // Past the end: next fetch reports no data.
  ASSERT_EQ(plain.SeekRow(stmt, 500), SqlReturn::kSuccess);
  EXPECT_EQ(plain.Fetch(stmt), SqlReturn::kNoData);
  plain.Disconnect(dbc);
}

TEST_F(SeekTest, PlainDmSeeksServerCursor) {
  DriverManager plain(&cluster_.network);
  Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
  ASSERT_EQ(plain.Connect(dbc, "testdb", "plain"), SqlReturn::kSuccess);
  Hstmt* stmt = plain.AllocStmt(dbc);
  plain.SetStmtAttr(stmt, StmtAttr::kCursorMode,
                    static_cast<int64_t>(CursorMode::kStaticCursor));
  plain.SetStmtAttr(stmt, StmtAttr::kBlockSize, 5);
  ASSERT_EQ(plain.ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  FetchOne(&plain, stmt);
  ASSERT_EQ(plain.SeekRow(stmt, 40), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(&plain, stmt), 41);
  plain.Disconnect(dbc);
}

TEST_F(SeekTest, SeekWithoutResultFails) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->SeekRow(stmt, 3), SqlReturn::kError);
}

TEST_F(SeekTest, PhoenixSeekMaterialized) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  // Fifty rows in blocks of ten: a materialized result, seeked server-side.
  dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 10);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  ASSERT_NE(PhoenixDriverManager::stmt_state(stmt), nullptr);
  EXPECT_EQ(PhoenixDriverManager::stmt_state(stmt)->kind,
            StmtState::Kind::kMaterialized);
  ASSERT_EQ(dm_->SeekRow(stmt, 25), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 26);
  // Seek backwards too.
  ASSERT_EQ(dm_->SeekRow(stmt, 10), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 11);
}

TEST_F(SeekTest, PhoenixSeekWholeResult) {
  // Fifty rows in one block: the whole result is buffered client-side and
  // seeks move within it without a server call.
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  EXPECT_EQ(PhoenixDriverManager::stmt_state(stmt), nullptr);
  uint64_t rts0 = dbc_->driver->channel()->stats().round_trips;
  ASSERT_EQ(dm_->SeekRow(stmt, 25), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 26);
  ASSERT_EQ(dm_->SeekRow(stmt, 10), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 11);
  EXPECT_EQ(dbc_->driver->channel()->stats().round_trips, rts0);
}

TEST_F(SeekTest, PhoenixSeekSurvivesCrash) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 5);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->SeekRow(stmt, 20), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 21);
  cluster_.server.Crash();
  // Seek right into the outage: recovery happens underneath.
  ASSERT_EQ(dm_->SeekRow(stmt, 45), SqlReturn::kSuccess)
      << DriverManager::Diag(stmt).ToString();
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 46);
  EXPECT_GE(dm_->stats().recoveries, 1u);
}

TEST_F(SeekTest, PhoenixSeekKeyset) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kKeysetCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM T"), SqlReturn::kSuccess);
  ASSERT_EQ(dm_->SeekRow(stmt, 47), SqlReturn::kSuccess);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 48);
  cluster_.server.Crash();
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 49);
  EXPECT_EQ(FetchOne(dm_.get(), stmt), 50);
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
}

TEST_F(SeekTest, PhoenixSeekDynamicRejected) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kDynamicCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM T"), SqlReturn::kSuccess);
  EXPECT_EQ(dm_->SeekRow(stmt, 3), SqlReturn::kError);
  EXPECT_EQ(DriverManager::Diag(stmt).code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------------
// Multiple Phoenix clients
// ---------------------------------------------------------------------------

TEST(MultiClient, TwoPhoenixSessionsRecoverIndependently) {
  TestCluster cluster;
  PhoenixDriverManager dm(&cluster.network,
                          AutoRestartConfig(&cluster.server));
  Hdbc* a = dm.AllocConnect(dm.AllocEnv());
  Hdbc* b = dm.AllocConnect(dm.AllocEnv());
  ASSERT_EQ(dm.Connect(a, "testdb", "alice"), SqlReturn::kSuccess);
  ASSERT_EQ(dm.Connect(b, "testdb", "bob"), SqlReturn::kSuccess);
  MustExec(&dm, a, "CREATE TABLE T (N INTEGER PRIMARY KEY)");
  std::string values = "(1)";
  for (int i = 2; i <= 40; ++i) values += ", (" + std::to_string(i) + ")";
  MustExec(&dm, a, "INSERT INTO T VALUES " + values);

  Hstmt* sa = dm.AllocStmt(a);
  Hstmt* sb = dm.AllocStmt(b);
  dm.SetStmtAttr(sa, StmtAttr::kBlockSize, 4);
  dm.SetStmtAttr(sb, StmtAttr::kBlockSize, 4);
  ASSERT_EQ(dm.ExecDirect(sa, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm.ExecDirect(sb, "SELECT N FROM T ORDER BY N DESC"),
            SqlReturn::kSuccess);
  for (int i = 0; i < 8; ++i) {
    FetchOne(&dm, sa);
    FetchOne(&dm, sb);
  }
  cluster.server.Crash();
  // Whichever touches the server first recovers its own connection; the
  // other performs its own recovery when it next calls.
  EXPECT_EQ(FetchOne(&dm, sa), 9);
  EXPECT_EQ(FetchOne(&dm, sb), 32);
  EXPECT_EQ(dm.stats().recoveries, 2u);
  // Both sessions remain fully usable.
  EXPECT_EQ(MustQuery(&dm, a, "SELECT COUNT(*) AS C FROM T")[0][0].AsInt64(),
            40);
  EXPECT_EQ(MustQuery(&dm, b, "SELECT COUNT(*) AS C FROM T")[0][0].AsInt64(),
            40);
  dm.Disconnect(a);
  dm.Disconnect(b);
}

TEST(MultiClient, TornWalTailCrashStillRecovers) {
  TestCluster cluster;
  PhoenixDriverManager dm(&cluster.network,
                          AutoRestartConfig(&cluster.server));
  Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  ASSERT_EQ(dm.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&dm, dbc, "CREATE TABLE T (N INTEGER PRIMARY KEY)");
  MustExec(&dm, dbc, "INSERT INTO T VALUES (1), (2), (3), (4), (5)");

  Hstmt* stmt = dm.AllocStmt(dbc);
  dm.SetStmtAttr(stmt, StmtAttr::kBlockSize, 2);
  ASSERT_EQ(dm.ExecDirect(stmt, "SELECT N FROM T ORDER BY N"),
            SqlReturn::kSuccess);
  FetchOne(&dm, stmt);
  FetchOne(&dm, stmt);
  // Crash with a partially flushed tail: every synced commit must still be
  // there; the torn frame is discarded by WAL recovery.
  cluster.server.CrashWithPartialFlush(0.6);
  ASSERT_TRUE(cluster.server.Restart().ok());
  EXPECT_EQ(FetchOne(&dm, stmt), 3);
  EXPECT_EQ(FetchOne(&dm, stmt), 4);
  EXPECT_EQ(FetchOne(&dm, stmt), 5);
  EXPECT_EQ(MustQuery(&dm, dbc, "SELECT COUNT(*) AS C FROM T")[0][0].AsInt64(),
            5);
}

TEST(MultiClient, CrashDuringAnotherClientsRecoveryWindow) {
  TestCluster cluster;
  PhoenixDriverManager dm(&cluster.network,
                          AutoRestartConfig(&cluster.server));
  Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  ASSERT_EQ(dm.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&dm, dbc, "CREATE TABLE T (N INTEGER PRIMARY KEY)");
  MustExec(&dm, dbc, "INSERT INTO T VALUES (1), (2), (3)");
  // Double crash in quick succession: recovery must be retried end-to-end.
  cluster.server.Crash();
  ASSERT_TRUE(cluster.server.Restart().ok());
  cluster.server.Crash();
  EXPECT_EQ(MustQuery(&dm, dbc, "SELECT COUNT(*) AS C FROM T")[0][0].AsInt64(),
            3);
}

}  // namespace
}  // namespace phoenix::core
