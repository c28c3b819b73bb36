// The plain ODBC stack: handles, attributes, execution, fetching, cursor
// modes, batches, diagnostics.

#include "odbc/odbc_api.h"

#include "test_util.h"

namespace phoenix::odbc {
namespace {

using testutil::TestCluster;

class OdbcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dm_ = std::make_unique<DriverManager>(&cluster_.network);
    env_ = dm_->AllocEnv();
    dbc_ = dm_->AllocConnect(env_);
    ASSERT_EQ(dm_->Connect(dbc_, "testdb", "tester"), SqlReturn::kSuccess);
    Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR)");
    Exec("INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')");
  }

  void Exec(const std::string& sql) {
    Hstmt* stmt = dm_->AllocStmt(dbc_);
    ASSERT_EQ(dm_->ExecDirect(stmt, sql), SqlReturn::kSuccess)
        << DriverManager::Diag(stmt).ToString();
    dm_->FreeStmt(stmt);
  }

  TestCluster cluster_;
  std::unique_ptr<DriverManager> dm_;
  Henv* env_ = nullptr;
  Hdbc* dbc_ = nullptr;
};

TEST_F(OdbcTest, FacadeFunctionsWork) {
  Henv* env = nullptr;
  ASSERT_EQ(SqlAllocEnv(dm_.get(), &env), SqlReturn::kSuccess);
  Hdbc* dbc = nullptr;
  ASSERT_EQ(SqlAllocConnect(dm_.get(), env, &dbc), SqlReturn::kSuccess);
  ASSERT_EQ(SqlConnect(dm_.get(), dbc, "testdb", "u2"), SqlReturn::kSuccess);
  Hstmt* stmt = nullptr;
  ASSERT_EQ(SqlAllocStmt(dm_.get(), dbc, &stmt), SqlReturn::kSuccess);
  ASSERT_EQ(SqlExecDirect(dm_.get(), stmt, "SELECT K FROM T ORDER BY K"),
            SqlReturn::kSuccess);
  size_t cols = 0;
  SqlNumResultCols(dm_.get(), stmt, &cols);
  EXPECT_EQ(cols, 1u);
  ASSERT_EQ(SqlFetch(dm_.get(), stmt), SqlReturn::kSuccess);
  Value v;
  SqlGetData(dm_.get(), stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 1);
  EXPECT_EQ(SqlCloseCursor(dm_.get(), stmt), SqlReturn::kSuccess);
  EXPECT_EQ(SqlFreeStmt(dm_.get(), stmt), SqlReturn::kSuccess);
  EXPECT_EQ(SqlDisconnect(dm_.get(), dbc), SqlReturn::kSuccess);
  EXPECT_EQ(SqlFreeConnect(dm_.get(), dbc), SqlReturn::kSuccess);
  SqlFreeEnv(dm_.get(), env);
}

TEST_F(OdbcTest, ConnectTwiceRejected) {
  EXPECT_EQ(dm_->Connect(dbc_, "testdb", "x"), SqlReturn::kError);
  StatusCode code = StatusCode::kOk;
  std::string message;
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), dbc_, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  EXPECT_NE(message.find("connected"), std::string::npos) << message;
}

TEST_F(OdbcTest, ConnectUnknownDsnFails) {
  Hdbc* dbc2 = dm_->AllocConnect(env_);
  EXPECT_EQ(dm_->Connect(dbc2, "wrong", "x"), SqlReturn::kError);
  StatusCode code = StatusCode::kOk;
  std::string message;
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), dbc2, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kNotFound);
  EXPECT_NE(message.find("wrong"), std::string::npos) << message;
}

TEST_F(OdbcTest, DescribeColReturnsMetadata) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K, V FROM T WHERE 0 = 1"),
            SqlReturn::kSuccess);
  size_t cols = 0;
  dm_->NumResultCols(stmt, &cols);
  ASSERT_EQ(cols, 2u);
  Column c;
  ASSERT_EQ(dm_->DescribeCol(stmt, 0, &c), SqlReturn::kSuccess);
  EXPECT_EQ(c.name, "K");
  EXPECT_EQ(c.type, DataType::kInt32);
  ASSERT_EQ(dm_->DescribeCol(stmt, 1, &c), SqlReturn::kSuccess);
  EXPECT_EQ(c.type, DataType::kString);
  EXPECT_EQ(dm_->DescribeCol(stmt, 9, &c), SqlReturn::kError);
  // Empty result: first fetch reports no data.
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
}

TEST_F(OdbcTest, RowCountForDml) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "UPDATE T SET V = 'x' WHERE K >= 3"),
            SqlReturn::kSuccess);
  int64_t n = 0;
  dm_->RowCount(stmt, &n);
  EXPECT_EQ(n, 2);
  size_t cols = 9;
  dm_->NumResultCols(stmt, &cols);
  EXPECT_EQ(cols, 0u);
}

TEST_F(OdbcTest, GetDataBeforeFetchFails) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess);
  Value v;
  EXPECT_EQ(dm_->GetData(stmt, 0, &v), SqlReturn::kError);
}

TEST_F(OdbcTest, BatchWithMoreResults) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(
                stmt, "SELECT COUNT(*) AS N FROM T; INSERT INTO T VALUES "
                      "(9, 'i'); SELECT COUNT(*) AS N FROM T"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 4);
  ASSERT_EQ(dm_->MoreResults(stmt), SqlReturn::kSuccess);  // the INSERT
  int64_t n = 0;
  dm_->RowCount(stmt, &n);
  EXPECT_EQ(n, 1);
  ASSERT_EQ(dm_->MoreResults(stmt), SqlReturn::kSuccess);  // second SELECT
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 5);
  EXPECT_EQ(dm_->MoreResults(stmt), SqlReturn::kNoData);
}

TEST_F(OdbcTest, ServerCursorModesDeliverSameRows) {
  for (CursorMode mode :
       {CursorMode::kStaticCursor, CursorMode::kKeysetCursor,
        CursorMode::kDynamicCursor}) {
    Hstmt* stmt = dm_->AllocStmt(dbc_);
    ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                               static_cast<int64_t>(mode)),
              SqlReturn::kSuccess);
    ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 2),
              SqlReturn::kSuccess);
    ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess)
        << DriverManager::Diag(stmt).ToString();
    std::vector<int64_t> keys;
    while (Succeeded(dm_->Fetch(stmt))) {
      Value v;
      dm_->GetData(stmt, 0, &v);
      keys.push_back(v.AsInt64());
    }
    EXPECT_EQ(keys.size(), 4u) << "mode " << static_cast<int>(mode);
    dm_->FreeStmt(stmt);
  }
}

TEST_F(OdbcTest, StaticCursorShipsItsFirstBlockWithTheOpen) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                             static_cast<int64_t>(CursorMode::kStaticCursor)),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 3),
            SqlReturn::kSuccess);
  auto rts = [&] { return dbc_->driver->channel()->stats().round_trips; };
  uint64_t rts0 = rts();
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T ORDER BY K"),
            SqlReturn::kSuccess);
  EXPECT_EQ(rts() - rts0, 1u);
  std::vector<int64_t> keys;
  auto fetch = [&] {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
    Value v;
    dm_->GetData(stmt, 0, &v);
    keys.push_back(v.AsInt64());
  };
  // Rows 1-3 came with the open: no fetch request yet.
  for (int i = 0; i < 3; ++i) fetch();
  EXPECT_EQ(rts() - rts0, 1u);
  // Row 4 takes one fetch, which also reports the end.
  fetch();
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
  EXPECT_EQ(rts() - rts0, 2u);
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3, 4}));
  dm_->FreeStmt(stmt);
}

TEST_F(OdbcTest, BadStmtAttrRejected) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode, 99),
            SqlReturn::kError);
  EXPECT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 0),
            SqlReturn::kError);
}

TEST_F(OdbcTest, SqlErrorsSurfaceInDiag) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->ExecDirect(stmt, "SELECT * FROM MISSING"), SqlReturn::kError);
  StatusCode code = StatusCode::kOk;
  std::string message;
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), stmt, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kSqlError);
  EXPECT_NE(message.find("MISSING"), std::string::npos) << message;
  EXPECT_EQ(dm_->ExecDirect(stmt, "THIS IS NOT SQL"), SqlReturn::kError);
}

TEST_F(OdbcTest, DiagRecAvailableOnAllThreeHandleTypes) {
  // No failure yet: every handle reports kNoData.
  StatusCode code = StatusCode::kOk;
  std::string message;
  EXPECT_EQ(SqlGetDiagRec(dm_.get(), env_, &code, &message),
            SqlReturn::kNoData);
  EXPECT_EQ(SqlGetDiagRec(dm_.get(), dbc_, &code, &message),
            SqlReturn::kNoData);
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(SqlGetDiagRec(dm_.get(), stmt, &code, &message),
            SqlReturn::kNoData);

  // A statement-level failure bubbles to its connection and environment, so
  // each handle type reports the most recent failing call beneath it.
  EXPECT_EQ(dm_->ExecDirect(stmt, "SELECT * FROM MISSING"), SqlReturn::kError);
  for (int handle = 0; handle < 3; ++handle) {
    code = StatusCode::kOk;
    message.clear();
    SqlReturn r = handle == 0   ? SqlGetDiagRec(dm_.get(), stmt, &code, &message)
                  : handle == 1 ? SqlGetDiagRec(dm_.get(), dbc_, &code, &message)
                                : SqlGetDiagRec(dm_.get(), env_, &code, &message);
    ASSERT_EQ(r, SqlReturn::kSuccess) << "handle " << handle;
    EXPECT_EQ(code, StatusCode::kSqlError) << "handle " << handle;
    EXPECT_NE(message.find("MISSING"), std::string::npos) << message;
  }

  // A newer connection-level failure supersedes the older record on dbc and
  // env but leaves the statement's record untouched.
  EXPECT_EQ(dm_->Connect(dbc_, "testdb", "x"), SqlReturn::kError);
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), dbc_, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), env_, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), stmt, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kSqlError);

  // Null handles are rejected, not dereferenced.
  EXPECT_EQ(SqlGetDiagRec(dm_.get(), static_cast<Henv*>(nullptr), &code,
                          &message),
            SqlReturn::kInvalidHandle);
  EXPECT_EQ(SqlGetDiagRec(dm_.get(), static_cast<Hstmt*>(nullptr), &code,
                          &message),
            SqlReturn::kInvalidHandle);
}

TEST_F(OdbcTest, SetConnectOptionReachesServer) {
  ASSERT_EQ(dm_->SetConnectOption(dbc_, "LOCK_TIMEOUT", "30"),
            SqlReturn::kSuccess);
  eng::Session* session = cluster_.server.database()->GetSession(
      dbc_->driver->session_id());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->options.at("LOCK_TIMEOUT"), "30");
}

TEST_F(OdbcTest, DisconnectClosesServerSession) {
  uint64_t sid = dbc_->driver->session_id();
  EXPECT_TRUE(cluster_.server.database()->HasSession(sid));
  ASSERT_EQ(dm_->Disconnect(dbc_), SqlReturn::kSuccess);
  EXPECT_FALSE(cluster_.server.database()->HasSession(sid));
}

TEST_F(OdbcTest, CrashWithoutPhoenixSurfacesCommError) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess);
  cluster_.server.Crash();
  // Default result set was fully buffered client-side, so fetching still
  // works...
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  // ...but any new server interaction fails hard — the paper's baseline.
  Hstmt* stmt2 = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->ExecDirect(stmt2, "SELECT K FROM T"), SqlReturn::kError);
  StatusCode code = StatusCode::kOk;
  std::string message;
  ASSERT_EQ(SqlGetDiagRec(dm_.get(), stmt2, &code, &message),
            SqlReturn::kSuccess);
  EXPECT_EQ(code, StatusCode::kCommError);
  EXPECT_FALSE(message.empty());
}

TEST_F(OdbcTest, ServerCursorCrashBreaksPlainDm) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kStaticCursor));
  dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 1);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  cluster_.Bounce();
  // Next block fetch needs the (dead) server cursor: plain ODBC cannot cope.
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kError);
}

}  // namespace
}  // namespace phoenix::odbc
