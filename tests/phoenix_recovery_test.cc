// The paper's central claims, tested: persistent database sessions that
// survive server crashes transparently — seamless result-set resumption,
// lost-reply recovery via testable state, request resubmission, temp-object
// survival, open-transaction replay, crash-vs-transient discrimination.

#include "core/phoenix_driver_manager.h"

#include <atomic>

#include "obs/metrics.h"
#include "test_util.h"

namespace phoenix::core {
namespace {

using odbc::CursorMode;
using odbc::DriverManager;
using odbc::Hdbc;
using odbc::Henv;
using odbc::Hstmt;
using odbc::SqlReturn;
using odbc::StmtAttr;
using testutil::AutoRestartConfig;
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

class PhoenixRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dm_ = std::make_unique<PhoenixDriverManager>(
        &cluster_.network, AutoRestartConfig(&cluster_.server));
    env_ = dm_->AllocEnv();
    dbc_ = dm_->AllocConnect(env_);
    ASSERT_EQ(dm_->Connect(dbc_, "testdb", "app"), SqlReturn::kSuccess);
    MustExec(dm_.get(), dbc_,
             "CREATE TABLE NUMS (N INTEGER PRIMARY KEY, SQ INTEGER)");
    std::string values;
    for (int i = 1; i <= 100; ++i) {
      if (i > 1) values += ", ";
      values +=
          "(" + std::to_string(i) + ", " + std::to_string(i * i) + ")";
    }
    MustExec(dm_.get(), dbc_, "INSERT INTO NUMS VALUES " + values);
  }

  void Crash() { cluster_.server.Crash(); }
  void CrashAndRestart() { cluster_.Bounce(); }

  TestCluster cluster_;
  std::unique_ptr<PhoenixDriverManager> dm_;
  Henv* env_ = nullptr;
  Hdbc* dbc_ = nullptr;
};

// --- Result-set persistence & seamless delivery ---------------------------

TEST_F(PhoenixRecoveryTest, FetchResumesExactlyWhereItStopped) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N, SQ FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  for (int i = 1; i <= 40; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  }
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  Crash();
  for (int i = 41; i <= 100; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess) << "row " << i;
    Value n, sq;
    dm_->GetData(stmt, 0, &n);
    dm_->GetData(stmt, 1, &sq);
    ASSERT_EQ(n.AsInt64(), i);
    ASSERT_EQ(sq.AsInt64(), i * i);
  }
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
  EXPECT_EQ(dm_->stats().recoveries, 1u);
  EXPECT_GT(dm_->stats().last_virtual_session_seconds, 0.0);
  EXPECT_GT(dm_->stats().last_sql_state_seconds, 0.0);

  // Rows 41..64 were already in the client block buffer (fetch_block = 64)
  // when the server died, so recovery fires at row 65: the 36 remaining
  // rows reach the app through the re-installed statement.
  EXPECT_EQ(dm_->stats().rows_redelivered, 36u);
  EXPECT_GT(dm_->stats().reconnect_attempts, 0u);
  EXPECT_EQ(dm_->stats().state_reinstalls, 1u);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(after.counter("core.rows_redelivered") -
                before.counter("core.rows_redelivered"),
            36u);
  EXPECT_GT(after.counter("core.reconnect_attempts"),
            before.counter("core.reconnect_attempts"));
  EXPECT_GT(after.counter("core.recoveries"), before.counter("core.recoveries"));
  EXPECT_GT(after.counter("core.state_reinstalls"),
            before.counter("core.state_reinstalls"));
}

TEST_F(PhoenixRecoveryTest, CrashBeforeFirstFetch) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  Crash();
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 1);
}

TEST_F(PhoenixRecoveryTest, ResultSurvivesEvenWhenBaseDataChanges) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  // Another client mutates the base table, then the server crashes. The
  // materialized result is a stable snapshot: the paper's point that it
  // "may be impossible to reliably re-create this state" by re-running.
  MustExec(dm_.get(), dbc_, "DELETE FROM NUMS WHERE N > 50");
  Crash();
  int rows = 10;
  while (dm_->Fetch(stmt) == SqlReturn::kSuccess) ++rows;
  EXPECT_EQ(rows, 100);  // full original result, not the mutated table
}

TEST_F(PhoenixRecoveryTest, MultipleCrashesDuringOneResultSet) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  // Small fetch blocks so every crash lands between server round trips.
  dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 5);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  int next = 1;
  for (int crash_at : {20, 50, 80}) {
    while (next <= crash_at) {
      ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
      Value v;
      dm_->GetData(stmt, 0, &v);
      ASSERT_EQ(v.AsInt64(), next++);
    }
    Crash();
  }
  while (next <= 100) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
    Value v;
    dm_->GetData(stmt, 0, &v);
    ASSERT_EQ(v.AsInt64(), next++);
  }
  EXPECT_EQ(dm_->stats().recoveries, 3u);
}

TEST_F(PhoenixRecoveryTest, TwoOpenStatementsBothRecovered) {
  Hstmt* s1 = dm_->AllocStmt(dbc_);
  Hstmt* s2 = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(s1, StmtAttr::kBlockSize, 5);
  dm_->SetStmtAttr(s2, StmtAttr::kBlockSize, 5);
  ASSERT_EQ(dm_->ExecDirect(s1, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->ExecDirect(s2, "SELECT N FROM NUMS ORDER BY N DESC"),
            SqlReturn::kSuccess);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(dm_->Fetch(s1), SqlReturn::kSuccess);
    ASSERT_EQ(dm_->Fetch(s2), SqlReturn::kSuccess);
  }
  Crash();
  Value v;
  ASSERT_EQ(dm_->Fetch(s1), SqlReturn::kSuccess);
  dm_->GetData(s1, 0, &v);
  EXPECT_EQ(v.AsInt64(), 6);
  ASSERT_EQ(dm_->Fetch(s2), SqlReturn::kSuccess);
  dm_->GetData(s2, 0, &v);
  EXPECT_EQ(v.AsInt64(), 95);
  EXPECT_EQ(dm_->stats().recoveries, 1u);  // one recovery fixed both
}

// --- New requests after a crash --------------------------------------------

TEST_F(PhoenixRecoveryTest, NewQueryAfterCrashJustWorks) {
  Crash();
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 100);
}

TEST_F(PhoenixRecoveryTest, ConnectionOptionsReplayedOnRecovery) {
  ASSERT_EQ(dm_->SetConnectOption(dbc_, "APP_NAME", "report-writer"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->SetConnectOption(dbc_, "LOCK_TIMEOUT", "5"),
            SqlReturn::kSuccess);
  Crash();
  MustQuery(dm_.get(), dbc_, "SELECT 1 AS X");  // triggers recovery
  eng::Session* session = cluster_.server.database()->GetSession(
      dbc_->driver->session_id());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->options.at("APP_NAME"), "report-writer");
  EXPECT_EQ(session->options.at("LOCK_TIMEOUT"), "5");
}

// --- DML: testable state, lost replies, resubmission -----------------------

TEST_F(PhoenixRecoveryTest, LostReplyRecoveredFromStatusTable) {
  // The reply to a committed DML vanishes (classic lost-message case).
  dbc_->driver->channel()->InjectLoseReplies(1);
  int64_t n = MustExec(dm_.get(), dbc_, "DELETE FROM NUMS WHERE N > 90");
  EXPECT_EQ(n, 10);  // the probe recovered the real affected count
  EXPECT_EQ(dm_->stats().lost_replies_recovered, 1u);
  EXPECT_EQ(dm_->stats().resubmissions, 0u);
  // And the delete really happened exactly once.
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  EXPECT_EQ(rows[0][0].AsInt64(), 90);
}

TEST_F(PhoenixRecoveryTest, LostMaterializationReplyResentExactlyOnce) {
  // The private script executes and commits, but its reply vanishes:
  // Phoenix re-sends the whole script, whose DROP TABLE IF EXISTS makes the
  // SELECT INTO start clean instead of doubling or colliding. Thirty rows
  // in blocks of ten overflow the first-block probe; the reply loss is
  // armed while the probe executes, so it hits the script that follows.
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  uint64_t priv_sid = cs->private_conn->session_id();
  auto armed = std::make_shared<std::atomic<bool>>(false);
  cluster_.before_dispatch = [cs, priv_sid, armed](const net::Request& req) {
    if (req.session_id == priv_sid &&
        req.sql.find("LIMIT") != std::string::npos && !armed->exchange(true)) {
      cs->private_conn->channel()->InjectLoseReplies(1);
    }
  };
  std::vector<Row> rows = MustQuery(
      dm_.get(), dbc_, "SELECT N FROM NUMS WHERE N <= 30 ORDER BY N", 10);
  EXPECT_TRUE(armed->load());
  ASSERT_EQ(rows.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(rows[i][0].AsInt64(), i + 1);
  EXPECT_GE(dm_->stats().transient_retries, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 1u);
  size_t result_tables = 0;
  for (const Row& row : MustQuery(dm_.get(), dbc_, "SHOW TABLES")) {
    if (row[0].AsString().rfind("PHX_RES_", 0) == 0) ++result_tables;
  }
  EXPECT_EQ(result_tables, 1u);
}

TEST_F(PhoenixRecoveryTest, LostProbeReplyReExecutedOnce) {
  // A whole-result read's only request is the probe. Its reply vanishes;
  // the application has seen nothing, so Phoenix runs it once more.
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  cs->private_conn->channel()->InjectLoseReplies(1);
  uint64_t priv0 = cs->private_conn->channel()->stats().round_trips;
  std::vector<Row> rows =
      MustQuery(dm_.get(), dbc_, "SELECT N FROM NUMS WHERE N <= 30 ORDER BY N");
  ASSERT_EQ(rows.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(rows[i][0].AsInt64(), i + 1);
  // The lost execution and its one re-execution.
  EXPECT_EQ(cs->private_conn->channel()->stats().round_trips - priv0, 2u);
  EXPECT_EQ(dm_->stats().transient_retries, 1u);
  EXPECT_EQ(dm_->stats().recoveries, 0u);
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 0u);
}

TEST_F(PhoenixRecoveryTest, CrashAfterWholeResultReadStillDeliversEveryRow) {
  // Ten rows fit one block: they arrived with ExecDirect, so the crash
  // takes nothing the application still needs.
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N, SQ FROM NUMS WHERE N <= 10 "
                                  "ORDER BY N"),
            SqlReturn::kSuccess);
  Crash();
  for (int i = 1; i <= 10; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess) << "row " << i;
    Value n, sq;
    dm_->GetData(stmt, 0, &n);
    dm_->GetData(stmt, 1, &sq);
    EXPECT_EQ(n.AsInt64(), i);
    EXPECT_EQ(sq.AsInt64(), i * i);
  }
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  // The session itself still recovers on its next server call.
  EXPECT_EQ(
      MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS")[0][0]
          .AsInt64(),
      100);
  EXPECT_EQ(dm_->stats().recoveries, 1u);
}

TEST_F(PhoenixRecoveryTest, CrashAfterFirstBlockResumesAtTheExactRow) {
  // Blocks of ten: the open shipped rows 1-10. The crash lands before the
  // first fetch request, which must re-open the result table at row 10.
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 10),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
    Value n;
    dm_->GetData(stmt, 0, &n);
    ASSERT_EQ(n.AsInt64(), i);
  }
  EXPECT_EQ(dm_->stats().recoveries, 0u);
  Crash();
  for (int i = 11; i <= 100; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess) << "row " << i;
    Value n;
    dm_->GetData(stmt, 0, &n);
    ASSERT_EQ(n.AsInt64(), i);
  }
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
  EXPECT_EQ(dm_->stats().recoveries, 1u);
  EXPECT_EQ(dm_->stats().state_reinstalls, 1u);
  EXPECT_EQ(dm_->stats().rows_redelivered, 90u);
}

TEST_F(PhoenixRecoveryTest, LostReplyOfAFailedMaterializationKeepsItsError) {
  // The script fails after its BEGIN (division by zero at N = 50) and the
  // error reply is lost. The re-sent copy meets the transaction the first
  // copy left open; Phoenix rolls it back and runs the script again, so
  // the application sees the real error and the private session ends up
  // outside any transaction. Without N = 50 the first-block probe runs
  // clean; another session puts the row back while the probe executes,
  // and arms the reply loss for the script that follows.
  MustExec(dm_.get(), dbc_, "DELETE FROM NUMS WHERE N = 50");
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  uint64_t priv_sid = cs->private_conn->session_id();
  eng::Database* db = cluster_.server.database();
  auto other = db->CreateSession("other");
  ASSERT_TRUE(other.ok());
  auto armed = std::make_shared<std::atomic<bool>>(false);
  cluster_.before_dispatch = [cs, db, priv_sid, sid = *other,
                              armed](const net::Request& req) {
    if (req.session_id == priv_sid &&
        req.sql.find("LIMIT") != std::string::npos && !armed->exchange(true)) {
      EXPECT_TRUE(
          db->ExecuteScript(sid, "INSERT INTO NUMS VALUES (50, 2500)").ok());
      cs->private_conn->channel()->InjectLoseReplies(1);
    }
  };
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->ExecDirect(stmt, "SELECT 10 / (N - 50) AS Q FROM NUMS"),
            SqlReturn::kError);
  EXPECT_NE(DriverManager::Diag(stmt).message().find("division by zero"),
            std::string::npos)
      << DriverManager::Diag(stmt).ToString();
  eng::Session* priv = cluster_.server.database()->GetSession(
      cs->private_conn->session_id());
  ASSERT_NE(priv, nullptr);
  EXPECT_EQ(priv->txn, nullptr);
  EXPECT_EQ(
      MustQuery(dm_.get(), dbc_, "SELECT N FROM NUMS WHERE N <= 3").size(),
      3u);
}

TEST_F(PhoenixRecoveryTest, DmlResubmittedWhenCrashPreemptedIt) {
  // Request is lost before reaching the server, then the server also
  // crashes: probe finds nothing, Phoenix resubmits.
  dbc_->driver->channel()->InjectDropRequests(1);
  Crash();
  int64_t n = MustExec(dm_.get(), dbc_, "DELETE FROM NUMS WHERE N > 90");
  EXPECT_EQ(n, 10);
  EXPECT_GE(dm_->stats().resubmissions, 1u);
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  EXPECT_EQ(rows[0][0].AsInt64(), 90);
}

TEST_F(PhoenixRecoveryTest, DmlNotAppliedTwice) {
  // Reply lost AND server crashes afterwards: the committed transaction is
  // recovered by the server; Phoenix must detect completion, not re-run.
  MustExec(dm_.get(), dbc_, "UPDATE NUMS SET SQ = 0 WHERE N = 1");
  dbc_->driver->channel()->InjectLoseReplies(1);
  int64_t n = MustExec(dm_.get(), dbc_, "UPDATE NUMS SET SQ = SQ + 7 WHERE N = 1");
  EXPECT_EQ(n, 1);
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT SQ FROM NUMS WHERE N = 1");
  EXPECT_EQ(rows[0][0].AsInt64(), 7);  // once, not 14
}

// --- Temp objects -----------------------------------------------------------

TEST_F(PhoenixRecoveryTest, TempTableSurvivesCrash) {
  MustExec(dm_.get(), dbc_, "CREATE TEMPORARY TABLE SCRATCH (A INTEGER)");
  MustExec(dm_.get(), dbc_, "INSERT INTO SCRATCH VALUES (1), (2), (3)");
  Crash();
  // Without Phoenix this table would be gone; rewritten to a persistent
  // stand-in it comes back through ordinary database recovery.
  auto rows =
      MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM SCRATCH");
  EXPECT_EQ(rows[0][0].AsInt64(), 3);
}

TEST_F(PhoenixRecoveryTest, TempProcedureSurvivesCrash) {
  MustExec(dm_.get(), dbc_,
           "CREATE TEMP PROCEDURE ZAP (@k INT) AS DELETE FROM NUMS "
           "WHERE N = @k");
  Crash();
  MustExec(dm_.get(), dbc_, "EXEC ZAP(50)");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  EXPECT_EQ(rows[0][0].AsInt64(), 99);
}

// --- Open transactions -------------------------------------------------------

TEST_F(PhoenixRecoveryTest, OpenTransactionReplayedAfterCrash) {
  MustExec(dm_.get(), dbc_, "BEGIN TRANSACTION");
  MustExec(dm_.get(), dbc_, "INSERT INTO NUMS VALUES (101, 10201)");
  MustExec(dm_.get(), dbc_, "UPDATE NUMS SET SQ = 1 WHERE N = 1");
  Crash();
  // The server rolled the transaction back; Phoenix replays it so the
  // application can keep going and commit.
  MustExec(dm_.get(), dbc_, "INSERT INTO NUMS VALUES (102, 10404)");
  MustExec(dm_.get(), dbc_, "COMMIT");
  EXPECT_GE(dm_->stats().txn_replays, 1u);
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  EXPECT_EQ(rows[0][0].AsInt64(), 102);
  EXPECT_EQ(MustQuery(dm_.get(), dbc_,
                      "SELECT SQ FROM NUMS WHERE N = 1")[0][0]
                .AsInt64(),
            1);
}

TEST_F(PhoenixRecoveryTest, CommitLostReplyNotAppliedTwice) {
  MustExec(dm_.get(), dbc_, "BEGIN");
  MustExec(dm_.get(), dbc_, "UPDATE NUMS SET SQ = SQ + 1 WHERE N = 2");
  dbc_->driver->channel()->InjectLoseReplies(1);
  MustExec(dm_.get(), dbc_, "COMMIT");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT SQ FROM NUMS WHERE N = 2");
  EXPECT_EQ(rows[0][0].AsInt64(), 5);  // 4+1, exactly once
}

TEST_F(PhoenixRecoveryTest, RollbackAfterCrashSucceeds) {
  MustExec(dm_.get(), dbc_, "BEGIN");
  MustExec(dm_.get(), dbc_, "DELETE FROM NUMS");
  Crash();
  MustExec(dm_.get(), dbc_, "ROLLBACK");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT COUNT(*) AS C FROM NUMS");
  EXPECT_EQ(rows[0][0].AsInt64(), 100);
}

// --- Cursor proxies across crashes ------------------------------------------

TEST_F(PhoenixRecoveryTest, KeysetCursorResumesAfterCrash) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kKeysetCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N, SQ FROM NUMS WHERE N <= 20"),
            SqlReturn::kSuccess);
  for (int i = 1; i <= 8; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Crash();
  for (int i = 9; i <= 20; ++i) {
    ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess) << "key " << i;
    Value v;
    dm_->GetData(stmt, 0, &v);
    ASSERT_EQ(v.AsInt64(), i);
  }
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
}

TEST_F(PhoenixRecoveryTest, DynamicCursorResumesAfterCrash) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kDynamicCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS WHERE N <= 30"),
            SqlReturn::kSuccess);
  for (int i = 1; i <= 10; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Crash();
  std::vector<int64_t> rest;
  while (dm_->Fetch(stmt) == SqlReturn::kSuccess) {
    Value v;
    dm_->GetData(stmt, 0, &v);
    rest.push_back(v.AsInt64());
  }
  ASSERT_EQ(rest.size(), 20u);
  EXPECT_EQ(rest.front(), 11);
  EXPECT_EQ(rest.back(), 30);
}

// --- Failure detection paths --------------------------------------------------

TEST_F(PhoenixRecoveryTest, TransientFaultRetriedWithoutRemap) {
  // Two rows in blocks of one: the read is materialized, so the dropped
  // requests are the main connection's cursor opens.
  dbc_->driver->channel()->InjectDropRequests(2);
  auto rows = MustQuery(dm_.get(), dbc_,
                        "SELECT N AS C FROM NUMS WHERE N >= 99 ORDER BY N DESC",
                        1);
  EXPECT_EQ(rows[0][0].AsInt64(), 100);
  EXPECT_EQ(dm_->stats().recoveries, 0u);
  EXPECT_GE(dm_->stats().transient_retries, 1u);
}

TEST_F(PhoenixRecoveryTest, ServerNeverReturnsGivesUpGracefully) {
  PhoenixConfig config;  // no auto-restart hook
  config.reconnect_attempts = 3;
  PhoenixDriverManager dm(&cluster_.network, config);
  Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  ASSERT_EQ(dm.Connect(dbc, "testdb", "doomed"), SqlReturn::kSuccess);
  cluster_.server.Crash();
  Hstmt* stmt = dm.AllocStmt(dbc);
  EXPECT_EQ(dm.ExecDirect(stmt, "SELECT 1 AS X"), SqlReturn::kError);
  EXPECT_TRUE(DriverManager::Diag(stmt).IsCommError());
  // The session is marked broken; later calls fail fast.
  EXPECT_EQ(dm.ExecDirect(stmt, "SELECT 1 AS X"), SqlReturn::kError);
  cluster_.server.Restart().ok();  // restore for other tests' teardown
}

TEST_F(PhoenixRecoveryTest, RecoveryAcrossCheckpointBoundary) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  for (int i = 0; i < 30; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  // Server checkpoints (result table included), then crashes.
  ASSERT_TRUE(cluster_.server.database()->Checkpoint().ok());
  Crash();
  int rest = 0;
  while (dm_->Fetch(stmt) == SqlReturn::kSuccess) ++rest;
  EXPECT_EQ(rest, 70);
}

TEST_F(PhoenixRecoveryTest, ClientSideRepositionAblationAlsoCorrect) {
  dm_->mutable_config()->server_side_reposition = false;
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess);
  for (int i = 1; i <= 60; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Crash();
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 61);
}

TEST_F(PhoenixRecoveryTest, ClientRoundTripMaterializationAblation) {
  dm_->mutable_config()->materialize_via_server = false;
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            SqlReturn::kSuccess)
      << DriverManager::Diag(stmt).ToString();
  for (int i = 1; i <= 25; ++i) ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Crash();
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 26);
}

// --- The paper's §2 walk-through, crash included ------------------------------

TEST_F(PhoenixRecoveryTest, CustomerOrderInvoiceScenario) {
  MustExec(dm_.get(), dbc_,
           "CREATE TABLE CUST (ID INTEGER PRIMARY KEY, LASTNAME VARCHAR)");
  MustExec(dm_.get(), dbc_,
           "CREATE TABLE ORD (OID INTEGER PRIMARY KEY, CUST_ID INTEGER, "
           "AMOUNT DOUBLE)");
  MustExec(dm_.get(), dbc_,
           "CREATE TABLE INVOICE (CUST_ID INTEGER PRIMARY KEY, "
           "TOTAL DOUBLE)");
  MustExec(dm_.get(), dbc_,
           "INSERT INTO CUST VALUES (1, 'Smith'), (2, 'Jones'), (3, 'Smith')");
  MustExec(dm_.get(), dbc_,
           "INSERT INTO ORD VALUES (10, 1, 25.0), (11, 1, 30.0), "
           "(12, 2, 99.0), (13, 3, 1.0)");

  // Step 2-3: result set over customers named Smith; fetch to find ours.
  Hstmt* cust = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(
                cust, "SELECT ID FROM CUST WHERE LASTNAME = 'Smith' ORDER BY ID"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(cust), SqlReturn::kSuccess);
  Value id;
  dm_->GetData(cust, 0, &id);
  ASSERT_EQ(id.AsInt64(), 1);

  // Step 4-5: cursor over the orders; crash mid-way through them.
  Hstmt* ord = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(
                ord, "SELECT AMOUNT FROM ORD WHERE CUST_ID = 1 ORDER BY OID"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(ord), SqlReturn::kSuccess);
  Value a1;
  dm_->GetData(ord, 0, &a1);
  Crash();  // <-- the server dies between fetches
  ASSERT_EQ(dm_->Fetch(ord), SqlReturn::kSuccess);
  Value a2;
  dm_->GetData(ord, 0, &a2);
  EXPECT_EQ(dm_->Fetch(ord), SqlReturn::kNoData);

  // Step 6-7: aggregate and update the invoice summary.
  double total = a1.AsDouble() + a2.AsDouble();
  EXPECT_DOUBLE_EQ(total, 55.0);
  MustExec(dm_.get(), dbc_,
           "INSERT INTO INVOICE VALUES (1, " + std::to_string(total) + ")");

  // Step 8: clean termination.
  ASSERT_EQ(dm_->Disconnect(dbc_), SqlReturn::kSuccess);
  auto* t = cluster_.server.database()->store()->Get("INVOICE");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 1u);
}

}  // namespace
}  // namespace phoenix::core
