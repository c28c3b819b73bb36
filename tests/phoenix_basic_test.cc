// Phoenix/ODBC in failure-free operation: transparency (identical results
// to the plain DM), materialization mechanics, temp-object redirection,
// DML wrapping, cleanup.

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
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

class PhoenixBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dm_ = std::make_unique<PhoenixDriverManager>(&cluster_.network);
    env_ = dm_->AllocEnv();
    dbc_ = dm_->AllocConnect(env_);
    ASSERT_EQ(dm_->Connect(dbc_, "testdb", "app"), SqlReturn::kSuccess);
    MustExec(dm_.get(), dbc_,
             "CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR, X DOUBLE)");
    MustExec(dm_.get(), dbc_,
             "INSERT INTO T VALUES (1, 'a', 1.5), (2, 'b', 2.5), "
             "(3, 'c', 3.5), (4, 'd', 4.5), (5, 'e', 5.5)");
    dm_->ResetStats();  // the setup INSERT was itself wrapped DML
  }

  eng::Database* ServerDb() { return cluster_.server.database(); }

  /// Phoenix result tables (PHX_RES_*) the server holds, per SHOW TABLES.
  size_t ResultTablesOnServer() {
    DriverManager native(&cluster_.network);
    Hdbc* ndbc = native.AllocConnect(native.AllocEnv());
    EXPECT_EQ(native.Connect(ndbc, "testdb", "inspect"), SqlReturn::kSuccess);
    size_t n = 0;
    for (const Row& row : MustQuery(&native, ndbc, "SHOW TABLES")) {
      if (row[0].AsString().rfind("PHX_RES_", 0) == 0) ++n;
    }
    native.Disconnect(ndbc);
    return n;
  }

  /// Reads every row of `sql` on `stmt`, then closes its cursor.
  std::vector<Row> ReadAndClose(Hstmt* stmt, const std::string& sql) {
    EXPECT_EQ(dm_->ExecDirect(stmt, sql), SqlReturn::kSuccess)
        << sql << " -> " << DriverManager::Diag(stmt).ToString();
    std::vector<Row> rows;
    size_t cols = 0;
    dm_->NumResultCols(stmt, &cols);
    while (dm_->Fetch(stmt) == SqlReturn::kSuccess) {
      Row row(cols);
      for (size_t i = 0; i < cols; ++i) dm_->GetData(stmt, i, &row[i]);
      rows.push_back(std::move(row));
    }
    dm_->CloseCursor(stmt);
    return rows;
  }

  TestCluster cluster_;
  std::unique_ptr<PhoenixDriverManager> dm_;
  Henv* env_ = nullptr;
  Hdbc* dbc_ = nullptr;
};

TEST_F(PhoenixBasicTest, ConnectCreatesPrivateConnectionAndProxy) {
  // Two server sessions: the app's and Phoenix's private one.
  EXPECT_EQ(ServerDb()->num_sessions(), 2u);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  ASSERT_NE(cs, nullptr);
  EXPECT_NE(ServerDb()->store()->Get(cs->proxy_table), nullptr);
  EXPECT_TRUE(ServerDb()->store()->Get(cs->proxy_table)->temporary());
}

TEST_F(PhoenixBasicTest, SelectIsMaterializedAsPersistentTable) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  // Three rows in blocks of two: larger than one block, so materialized.
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 2),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K, V FROM T WHERE K <= 3"),
            SqlReturn::kSuccess);
  StmtState* vs = PhoenixDriverManager::stmt_state(stmt);
  ASSERT_NE(vs, nullptr);
  EXPECT_EQ(vs->kind, StmtState::Kind::kMaterialized);
  storage::Table* t = ServerDb()->store()->Get(vs->result_table);
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->temporary());  // the point: it survives crashes
  EXPECT_EQ(t->num_rows(), 3u);
  // Application sees the original metadata, not the internal table's.
  size_t cols = 0;
  dm_->NumResultCols(stmt, &cols);
  EXPECT_EQ(cols, 2u);
  Column c;
  dm_->DescribeCol(stmt, 0, &c);
  EXPECT_EQ(c.name, "K");
}

TEST_F(PhoenixBasicTest, MaterializedReadIsTwoPrivateRoundTripsAndOneCommit) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  // Two-row results in blocks of one: each read overflows its probe.
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 1),
            SqlReturn::kSuccess);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  // The second read also drops the first read's retired table — inside
  // the same transaction, so it costs no extra round trip or commit.
  ReadAndClose(stmt, "SELECT V FROM T WHERE K >= 1 AND K <= 2 ORDER BY K");
  ASSERT_EQ(cs->retired_tables.size(), 1u);
  uint64_t main0 = dbc_->driver->channel()->stats().round_trips;
  uint64_t priv0 = cs->private_conn->channel()->stats().round_trips;
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  std::vector<Row> rows =
      ReadAndClose(stmt, "SELECT V FROM T WHERE K >= 3 AND K <= 4 ORDER BY K");
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "c");
  EXPECT_EQ(rows[1][0].AsString(), "d");
  uint64_t main_rts = dbc_->driver->channel()->stats().round_trips - main0;
  uint64_t priv_rts = cs->private_conn->channel()->stats().round_trips - priv0;
  // Private: the first-block probe, then the materialization script. Main:
  // the cursor open carrying the first block, one fetch for the second
  // block, the close.
  EXPECT_EQ(priv_rts, 2u);
  EXPECT_EQ(main_rts + priv_rts, 5u);
  EXPECT_EQ(after.counters["storage.wal.appends"] -
                before.counters["storage.wal.appends"],
            1u);
}

TEST_F(PhoenixBasicTest, WholeResultReadIsOneRoundTripAndNoTable) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  uint64_t main0 = dbc_->driver->channel()->stats().round_trips;
  uint64_t priv0 = cs->private_conn->channel()->stats().round_trips;
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT V FROM T WHERE K = 3"),
            SqlReturn::kSuccess);
  // Held like a native default result set: no Phoenix statement state.
  EXPECT_EQ(PhoenixDriverManager::stmt_state(stmt), nullptr);
  std::vector<std::string> rows;
  while (dm_->Fetch(stmt) == SqlReturn::kSuccess) {
    Value v;
    dm_->GetData(stmt, 0, &v);
    rows.push_back(v.AsString());
  }
  dm_->CloseCursor(stmt);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(rows, std::vector<std::string>{"c"});
  uint64_t main_rts = dbc_->driver->channel()->stats().round_trips - main0;
  uint64_t priv_rts = cs->private_conn->channel()->stats().round_trips - priv0;
  EXPECT_EQ(main_rts, 0u);
  EXPECT_EQ(priv_rts, 1u);
  EXPECT_EQ(after.counter("storage.wal.appends"),
            before.counter("storage.wal.appends"));
  EXPECT_EQ(
      after.counter("core.reads_whole") - before.counter("core.reads_whole"),
      1u);
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 0u);
  EXPECT_EQ(ResultTablesOnServer(), 0u);
  EXPECT_TRUE(cs->retired_tables.empty());
}

TEST_F(PhoenixBasicTest, BlockBoundaryDecidesWholeOrMaterialized) {
  auto read = [&](int64_t block, const std::string& sql) {
    Hstmt* stmt = dm_->AllocStmt(dbc_);
    EXPECT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, block),
              SqlReturn::kSuccess);
    std::vector<int64_t> keys;
    for (const Row& row : ReadAndClose(stmt, sql)) {
      keys.push_back(row[0].AsInt64());
    }
    dm_->FreeStmt(stmt);
    return keys;
  };
  const std::vector<int64_t> all = {1, 2, 3, 4, 5};
  // block_size rows: the whole result rides on the probe's reply.
  EXPECT_EQ(read(5, "SELECT K FROM T ORDER BY K"), all);
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 0u);
  // block_size + 1 rows: materialized, delivered complete and in order.
  EXPECT_EQ(read(4, "SELECT K FROM T ORDER BY K"), all);
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 1u);
  // A query's own LIMIT of at most one block: whole.
  EXPECT_EQ(read(2, "SELECT K FROM T ORDER BY K LIMIT 2"),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(dm_->stats().whole_results, 2u);
  // An own LIMIT past the block: materialized, the LIMIT still applied.
  EXPECT_EQ(read(2, "SELECT K FROM T ORDER BY K DESC LIMIT 3"),
            (std::vector<int64_t>{5, 4, 3}));
  EXPECT_EQ(dm_->stats().materialized_results, 2u);
  // An empty result is whole too.
  EXPECT_TRUE(read(1, "SELECT K FROM T WHERE K > 99").empty());
  EXPECT_EQ(dm_->stats().whole_results, 3u);
}

TEST_F(PhoenixBasicTest, ReadInOpenTransactionSeesItsOwnUpdateOnBothPaths) {
  MustExec(dm_.get(), dbc_, "BEGIN TRANSACTION");
  MustExec(dm_.get(), dbc_, "UPDATE T SET V = 'z' WHERE K = 1");
  // Whole: one row fits one block.
  std::vector<Row> whole =
      MustQuery(dm_.get(), dbc_, "SELECT V FROM T WHERE K = 1");
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0][0].AsString(), "z");
  // Materialized: five rows in blocks of two.
  std::vector<Row> table =
      MustQuery(dm_.get(), dbc_, "SELECT K, V FROM T ORDER BY K", 2);
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0][1].AsString(), "z");
  EXPECT_EQ(table[1][1].AsString(), "b");
  EXPECT_EQ(dm_->stats().whole_results, 1u);
  EXPECT_EQ(dm_->stats().materialized_results, 1u);
  MustExec(dm_.get(), dbc_, "ROLLBACK");
  std::vector<Row> after =
      MustQuery(dm_.get(), dbc_, "SELECT V FROM T WHERE K = 1");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0][0].AsString(), "a");
}

TEST_F(PhoenixBasicTest, MaterializedReadOfTwoBlocksDoesOneFetch) {
  obs::Counter* fetches =
      obs::MetricsRegistry::Default()->GetCounter("net.requests.fetch");
  uint64_t before = fetches->Value();
  // Five rows in blocks of three: the open ships rows 1-3, one fetch
  // brings rows 4-5 and reports the end.
  std::vector<Row> rows =
      MustQuery(dm_.get(), dbc_, "SELECT K FROM T ORDER BY K", 3);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[4][0].AsInt64(), 5);
  EXPECT_EQ(dm_->stats().materialized_results, 1u);
  EXPECT_EQ(fetches->Value() - before, 1u);
}

TEST_F(PhoenixBasicTest, RuntimeErrorRollsBackThePrivateTransaction) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  // Blocks of one row: every read below overflows its probe and runs the
  // materialization script.
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 1),
            SqlReturn::kSuccess);
  // Without K = 3 the first-block probe runs clean. Another session puts
  // the row back just before the script executes, so the SELECT INTO fails
  // at K = 3, after the script's BEGIN.
  MustExec(dm_.get(), dbc_, "DELETE FROM T WHERE K = 3");
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  uint64_t priv_sid = cs->private_conn->session_id();
  auto other = ServerDb()->CreateSession("other");
  ASSERT_TRUE(other.ok());
  auto fired = std::make_shared<std::atomic<bool>>(false);
  cluster_.before_dispatch = [this, priv_sid, sid = *other,
                              fired](const net::Request& req) {
    if (req.session_id == priv_sid &&
        req.sql.rfind("BEGIN TRANSACTION", 0) == 0 && !fired->exchange(true)) {
      EXPECT_TRUE(
          ServerDb()->ExecuteScript(sid, "INSERT INTO T VALUES (3, 'c', 3.5)")
              .ok());
    }
  };
  EXPECT_EQ(dm_->ExecDirect(stmt, "SELECT 10 / (K - 3) AS Q FROM T"),
            SqlReturn::kError);
  EXPECT_TRUE(fired->load());
  EXPECT_NE(DriverManager::Diag(stmt).message().find("division by zero"),
            std::string::npos)
      << DriverManager::Diag(stmt).ToString();
  eng::Session* priv = ServerDb()->GetSession(cs->private_conn->session_id());
  ASSERT_NE(priv, nullptr);
  EXPECT_EQ(priv->txn, nullptr);
  // The next read on the connection succeeds.
  EXPECT_EQ(ReadAndClose(stmt, "SELECT K FROM T ORDER BY K").size(), 5u);
  EXPECT_EQ(ResultTablesOnServer(), 1u);
}

TEST_F(PhoenixBasicTest, ClosedResultTablesAreDroppedByTheNextRead) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  for (int i = 0; i < 200; ++i) {
    int k = 1 + i % 5;
    std::vector<Row> rows =
        ReadAndClose(stmt, "SELECT K FROM T WHERE K = " + std::to_string(k));
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0][0].AsInt64(), k);
  }
  // The status table plus the last read's retired result table.
  EXPECT_LE(cs->artifact_tables.size(), 2u);
  EXPECT_LE(ResultTablesOnServer(), 2u);
  ASSERT_EQ(dm_->Disconnect(dbc_), SqlReturn::kSuccess);
  EXPECT_EQ(ResultTablesOnServer(), 0u);
}

TEST_F(PhoenixBasicTest, ReExecutingAStatementClosesItsCursor) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  obs::Gauge* oldest_pin =
      obs::MetricsRegistry::Default()->GetGauge("engine.mvcc.oldest_pin_lsn");
  int64_t first_pin = 0;
  // Five rows in blocks of two: every execution is materialized.
  ASSERT_EQ(dm_->SetStmtAttr(stmt, StmtAttr::kBlockSize, 2),
            SqlReturn::kSuccess);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K, V FROM T"), SqlReturn::kSuccess);
    if (i == 0) first_pin = oldest_pin->Value();
  }
  eng::Session* app = ServerDb()->GetSession(dbc_->driver->session_id());
  ASSERT_NE(app, nullptr);
  EXPECT_LE(app->cursors.size(), 1u);
  EXPECT_LE(cs->artifact_tables.size(), 2u);
  // The first cursor's snapshot pin was released, so the oldest pin moved
  // on with the later materializations' commits.
  EXPECT_GT(oldest_pin->Value(), first_pin);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
}

TEST_F(PhoenixBasicTest, ResultsIdenticalToNativeOdbc) {
  // Transparency: through the probe + SELECT INTO materialization the
  // application sees the native DM's metadata (DescribeCol) and rows.
  MustExec(dm_.get(), dbc_,
           "CREATE TABLE U (K INTEGER PRIMARY KEY, W VARCHAR NOT NULL)");
  MustExec(dm_.get(), dbc_,
           "INSERT INTO U VALUES (1, 'x'), (3, 'y'), (9, 'z')");
  DriverManager native(&cluster_.network);
  Hdbc* ndbc = native.AllocConnect(native.AllocEnv());
  ASSERT_EQ(native.Connect(ndbc, "testdb", "native"), SqlReturn::kSuccess);

  struct Case {
    const char* sql;
    CursorMode mode;
  };
  const Case kCases[] = {
      {"SELECT * FROM T ORDER BY K", CursorMode::kDefaultResultSet},
      {"SELECT V, X * 2 AS XX FROM T WHERE K % 2 = 1 ORDER BY K DESC",
       CursorMode::kDefaultResultSet},
      {"SELECT COUNT(*) AS N, SUM(X) AS S FROM T",
       CursorMode::kDefaultResultSet},
      {"SELECT V FROM T WHERE K BETWEEN 2 AND 4 ORDER BY V",
       CursorMode::kDefaultResultSet},
      {"SELECT DISTINCT UPPER(V) AS U FROM T ORDER BY U",
       CursorMode::kDefaultResultSet},
      {"SELECT K AS KK, V, X * 2 AS XX, UPPER(V), K + X FROM T ORDER BY K",
       CursorMode::kStaticCursor},
      {"SELECT COUNT(*) AS N, SUM(X), MAX(V) AS TOP_V FROM T",
       CursorMode::kStaticCursor},
      {"SELECT V, COUNT(*) FROM T GROUP BY V ORDER BY V",
       CursorMode::kStaticCursor},
      {"SELECT DISTINCT K % 2 AS PARITY FROM T ORDER BY PARITY",
       CursorMode::kStaticCursor},
      {"SELECT K, X FROM T ORDER BY X DESC LIMIT 2", CursorMode::kStaticCursor},
      {"SELECT * FROM T JOIN U ON T.K = U.K ORDER BY T.K",
       CursorMode::kStaticCursor},
      {"SELECT * FROM T LEFT JOIN U ON T.K = U.K ORDER BY T.K",
       CursorMode::kStaticCursor},
      {"SELECT K, V FROM T WHERE K <= 4", CursorMode::kKeysetCursor},
  };
  for (const Case& c : kCases) {
    Hstmt* ps = dm_->AllocStmt(dbc_);
    Hstmt* ns = native.AllocStmt(ndbc);
    dm_->SetStmtAttr(ps, StmtAttr::kCursorMode, static_cast<int64_t>(c.mode));
    native.SetStmtAttr(ns, StmtAttr::kCursorMode, static_cast<int64_t>(c.mode));
    ASSERT_EQ(dm_->ExecDirect(ps, c.sql), SqlReturn::kSuccess)
        << c.sql << " -> " << DriverManager::Diag(ps).ToString();
    ASSERT_EQ(native.ExecDirect(ns, c.sql), SqlReturn::kSuccess)
        << c.sql << " -> " << DriverManager::Diag(ns).ToString();
    size_t pcols = 0, ncols = 0;
    dm_->NumResultCols(ps, &pcols);
    native.NumResultCols(ns, &ncols);
    ASSERT_EQ(pcols, ncols) << c.sql;
    for (size_t i = 0; i < ncols; ++i) {
      Column pc, nc;
      dm_->DescribeCol(ps, i, &pc);
      native.DescribeCol(ns, i, &nc);
      EXPECT_EQ(pc.name, nc.name) << c.sql << " col " << i;
      EXPECT_EQ(pc.type, nc.type) << c.sql << " col " << i;
      EXPECT_EQ(pc.nullable, nc.nullable) << c.sql << " col " << nc.name;
    }
    size_t n = 0;
    while (true) {
      SqlReturn pr = dm_->Fetch(ps);
      SqlReturn nr = native.Fetch(ns);
      ASSERT_EQ(pr, nr) << c.sql << " row " << n;
      if (nr != SqlReturn::kSuccess) break;
      for (size_t i = 0; i < ncols; ++i) {
        Value pv, nv;
        dm_->GetData(ps, i, &pv);
        native.GetData(ns, i, &nv);
        EXPECT_EQ(pv.is_null(), nv.is_null()) << c.sql << " row " << n;
        EXPECT_EQ(pv.Compare(nv), 0)
            << c.sql << " row " << n << ": " << pv.ToString() << " vs "
            << nv.ToString();
      }
      ++n;
    }
    EXPECT_GT(n, 0u) << c.sql;
    dm_->FreeStmt(ps);
    native.FreeStmt(ns);
  }
  native.Disconnect(ndbc);
}

TEST_F(PhoenixBasicTest, DmlWrappedWithStatusRecord) {
  int64_t n = MustExec(dm_.get(), dbc_, "UPDATE T SET X = 0 WHERE K >= 4");
  EXPECT_EQ(n, 2);
  EXPECT_EQ(dm_->stats().dml_wrapped, 1u);
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  storage::Table* status = ServerDb()->store()->Get(cs->status_table);
  ASSERT_NE(status, nullptr);
  ASSERT_GE(status->num_rows(), 1u);
  // Affected count persisted server-side matches what the app saw: the
  // newest status row is this request's.
  const Row& row = status->rows().rbegin()->second;
  EXPECT_EQ(row[1].AsInt64(), 2);
}

TEST_F(PhoenixBasicTest, SelectIntoTreatedAsDml) {
  int64_t n =
      MustExec(dm_.get(), dbc_, "SELECT K, V INTO KEEP FROM T WHERE K <= 2");
  EXPECT_EQ(n, 2);
  EXPECT_EQ(dm_->stats().dml_wrapped, 1u);
  EXPECT_EQ(MustQuery(dm_.get(), dbc_, "SELECT * FROM KEEP").size(), 2u);
}

TEST_F(PhoenixBasicTest, TempTableRedirectedToPersistent) {
  MustExec(dm_.get(), dbc_, "CREATE TEMPORARY TABLE SCRATCH (A INTEGER)");
  MustExec(dm_.get(), dbc_, "INSERT INTO SCRATCH VALUES (1), (2)");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT A FROM SCRATCH ORDER BY A");
  ASSERT_EQ(rows.size(), 2u);
  // Under the covers the table is persistent with a Phoenix name; the
  // app-visible name does not exist server-side.
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  EXPECT_EQ(ServerDb()->store()->Get("SCRATCH"), nullptr);
  std::string actual = cs->temp_table_map.at("SCRATCH");
  ASSERT_NE(ServerDb()->store()->Get(actual), nullptr);
  EXPECT_FALSE(ServerDb()->store()->Get(actual)->temporary());
}

TEST_F(PhoenixBasicTest, HashPrefixTempTableAlsoRedirected) {
  MustExec(dm_.get(), dbc_, "CREATE TABLE #w (A INTEGER)");
  MustExec(dm_.get(), dbc_, "INSERT INTO #w VALUES (9)");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT #w.A FROM #w");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 9);
  MustExec(dm_.get(), dbc_, "DROP TABLE #w");
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  EXPECT_TRUE(cs->temp_table_map.empty());
}

TEST_F(PhoenixBasicTest, TempProcedureRedirected) {
  MustExec(dm_.get(), dbc_,
           "CREATE TEMPORARY PROCEDURE BUMP (@k INT) AS "
           "UPDATE T SET X = X + 1 WHERE K = @k");
  MustExec(dm_.get(), dbc_, "EXEC BUMP(1)");
  auto rows = MustQuery(dm_.get(), dbc_, "SELECT X FROM T WHERE K = 1");
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 2.5);
}

TEST_F(PhoenixBasicTest, DisconnectCleansUpAllArtifacts) {
  MustQuery(dm_.get(), dbc_, "SELECT * FROM T");  // creates a result table
  MustExec(dm_.get(), dbc_, "UPDATE T SET X = 0 WHERE K = 1");  // status tbl
  MustExec(dm_.get(), dbc_, "CREATE TEMP TABLE SCRATCH (A INTEGER)");
  ASSERT_EQ(dm_->Disconnect(dbc_), SqlReturn::kSuccess);
  // Only the application's base table remains (plus engine internals).
  for (const std::string& name : ServerDb()->store()->ListNames()) {
    EXPECT_EQ(name.rfind("PHX_", 0), std::string::npos)
        << "leaked artifact: " << name;
  }
  EXPECT_EQ(ServerDb()->num_sessions(), 0u);
}

TEST_F(PhoenixBasicTest, StatementReuseDropsOldState) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT V FROM T WHERE K = 1"),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsString(), "a");
}

TEST_F(PhoenixBasicTest, ExplicitTxnPassesThroughAndLogs) {
  MustExec(dm_.get(), dbc_, "BEGIN TRANSACTION");
  MustExec(dm_.get(), dbc_, "INSERT INTO T VALUES (6, 'f', 6.5)");
  ConnState* cs = PhoenixDriverManager::conn_state(dbc_);
  EXPECT_TRUE(cs->in_txn);
  EXPECT_EQ(cs->txn_log.size(), 1u);
  MustExec(dm_.get(), dbc_, "COMMIT");
  EXPECT_FALSE(cs->in_txn);
  EXPECT_TRUE(cs->txn_log.empty());
  EXPECT_EQ(MustQuery(dm_.get(), dbc_, "SELECT * FROM T").size(), 6u);
}

TEST_F(PhoenixBasicTest, RollbackWorksThroughPhoenix) {
  MustExec(dm_.get(), dbc_, "BEGIN");
  MustExec(dm_.get(), dbc_, "DELETE FROM T");
  MustExec(dm_.get(), dbc_, "ROLLBACK");
  EXPECT_EQ(MustQuery(dm_.get(), dbc_, "SELECT * FROM T").size(), 5u);
}

TEST_F(PhoenixBasicTest, KeysetCursorThroughPhoenix) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kKeysetCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K, V FROM T WHERE K <= 4"),
            SqlReturn::kSuccess)
      << DriverManager::Diag(stmt).ToString();
  EXPECT_EQ(dm_->stats().keyset_cursors, 1u);
  // Key table persisted server-side.
  StmtState* vs = PhoenixDriverManager::stmt_state(stmt);
  ASSERT_NE(vs, nullptr);
  EXPECT_EQ(vs->kind, StmtState::Kind::kKeyset);
  EXPECT_EQ(ServerDb()->store()->Get(vs->result_table)->num_rows(), 4u);
  // Updates between fetches are visible (keyset property).
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  MustExec(dm_.get(), dbc_, "UPDATE T SET V = 'patched' WHERE K = 3");
  Value v;
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);  // K=2
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);  // K=3
  dm_->GetData(stmt, 1, &v);
  EXPECT_EQ(v.AsString(), "patched");
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);  // K=4
  EXPECT_EQ(dm_->Fetch(stmt), SqlReturn::kNoData);
}

TEST_F(PhoenixBasicTest, KeysetSkipsRowsDeletedMidScan) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kKeysetCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);  // K=1
  MustExec(dm_.get(), dbc_, "DELETE FROM T WHERE K = 2");
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
  Value v;
  dm_->GetData(stmt, 0, &v);
  EXPECT_EQ(v.AsInt64(), 3);  // 2 skipped
}

TEST_F(PhoenixBasicTest, DynamicCursorSeesInsertsInRange) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  dm_->SetStmtAttr(stmt, StmtAttr::kCursorMode,
                   static_cast<int64_t>(CursorMode::kDynamicCursor));
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T"), SqlReturn::kSuccess)
      << DriverManager::Diag(stmt).ToString();
  EXPECT_EQ(dm_->stats().dynamic_cursors, 1u);
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);  // K=1
  // Delete a not-yet-delivered member and insert a row mid-range: a dynamic
  // cursor reflects both.
  MustExec(dm_.get(), dbc_, "DELETE FROM T WHERE K = 3");
  MustExec(dm_.get(), dbc_,
           "INSERT INTO T (K, V, X) VALUES (3, 'resurrected', 0.0)");
  MustExec(dm_.get(), dbc_, "DELETE FROM T WHERE K = 4");
  std::vector<int64_t> seen{1};
  while (true) {
    SqlReturn r = dm_->Fetch(stmt);
    if (r == SqlReturn::kNoData) break;
    ASSERT_EQ(r, SqlReturn::kSuccess);
    Value v;
    dm_->GetData(stmt, 0, &v);
    seen.push_back(v.AsInt64());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3, 5}));
}

TEST_F(PhoenixBasicTest, UnknownColumnInWhereReachesTheApplication) {
  // The engine's unresolvable-predicate error surfaces through the Phoenix
  // read path; the application gets the error, not T's rows.
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->ExecDirect(stmt, "SELECT K FROM T WHERE NOSUCH = 1"),
            SqlReturn::kError);
  EXPECT_EQ(DriverManager::Diag(stmt).code(), StatusCode::kSqlError);
  EXPECT_NE(dm_->Fetch(stmt), SqlReturn::kSuccess);
}

TEST_F(PhoenixBasicTest, GarbageSqlPassedThroughForServerDiagnostics) {
  Hstmt* stmt = dm_->AllocStmt(dbc_);
  EXPECT_EQ(dm_->ExecDirect(stmt, "COMPLETELY ~ INVALID"), SqlReturn::kError);
  EXPECT_EQ(DriverManager::Diag(stmt).code(), StatusCode::kSqlError);
}

TEST_F(PhoenixBasicTest, MultipleConnectionsGetDistinctNamespaces) {
  Hdbc* dbc2 = dm_->AllocConnect(env_);
  ASSERT_EQ(dm_->Connect(dbc2, "testdb", "app2"), SqlReturn::kSuccess);
  MustExec(dm_.get(), dbc_, "CREATE TEMP TABLE W (A INTEGER)");
  MustExec(dm_.get(), dbc2, "CREATE TEMP TABLE W (A INTEGER)");
  MustExec(dm_.get(), dbc_, "INSERT INTO W VALUES (1)");
  MustExec(dm_.get(), dbc2, "INSERT INTO W VALUES (2)");
  MustExec(dm_.get(), dbc2, "INSERT INTO W VALUES (3)");
  EXPECT_EQ(MustQuery(dm_.get(), dbc_, "SELECT * FROM W").size(), 1u);
  EXPECT_EQ(MustQuery(dm_.get(), dbc2, "SELECT * FROM W").size(), 2u);
  dm_->Disconnect(dbc2);
}

}  // namespace
}  // namespace phoenix::core
