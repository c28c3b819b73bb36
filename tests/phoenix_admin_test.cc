// Administrative features around the Phoenix layer: SHOW PROCEDURES and
// the orphaned-artifact garbage collector.

#include "core/phoenix_driver_manager.h"
#include "test_util.h"

namespace phoenix::core {
namespace {

using odbc::DriverManager;
using odbc::Hdbc;
using odbc::SqlReturn;
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

TEST(ShowProcedures, ListsTempAndPersistent) {
  TestCluster cluster;
  DriverManager dm(&cluster.network);
  Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  ASSERT_EQ(dm.Connect(dbc, "testdb", "u"), SqlReturn::kSuccess);
  MustExec(&dm, dbc, "CREATE PROCEDURE PERSISTENT_P AS SELECT 1");
  MustExec(&dm, dbc, "CREATE TEMPORARY PROCEDURE TEMP_P AS SELECT 2");
  auto rows = MustQuery(&dm, dbc, "SHOW PROCEDURES");
  std::set<std::string> names;
  for (const Row& r : rows) names.insert(r[0].AsString());
  EXPECT_TRUE(names.count("PERSISTENT_P"));
  EXPECT_TRUE(names.count("TEMP_P"));
}

class OrphanGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dm_ = std::make_unique<PhoenixDriverManager>(&cluster_.network);
  }

  /// Number of PHX_-prefixed tables on the server.
  int PhoenixTables() {
    int n = 0;
    for (const std::string& name :
         cluster_.server.database()->store()->ListNames()) {
      if (name.rfind("PHX_", 0) == 0) ++n;
    }
    return n;
  }

  TestCluster cluster_;
  std::unique_ptr<PhoenixDriverManager> dm_;
};

TEST_F(OrphanGcTest, DropsArtifactsOfDeadClients) {
  // A client creates artifacts and then "dies" (client process gone, no
  // Disconnect): simulate by closing its server sessions directly.
  Hdbc* dbc = dm_->AllocConnect(dm_->AllocEnv());
  ASSERT_EQ(dm_->Connect(dbc, "testdb", "doomed"), SqlReturn::kSuccess);
  MustExec(dm_.get(), dbc, "CREATE TABLE BASE (K INTEGER PRIMARY KEY)");
  MustExec(dm_.get(), dbc, "INSERT INTO BASE VALUES (1), (2)");
  // Two rows in blocks of one: the read leaves a result table artifact.
  MustQuery(dm_.get(), dbc, "SELECT * FROM BASE", /*block_size=*/1);
  MustExec(dm_.get(), dbc, "CREATE TEMP TABLE W (A INTEGER)");  // stand-in
  MustExec(dm_.get(), dbc,
           "CREATE TEMP PROCEDURE TP AS SELECT 1");  // proc stand-in
  ASSERT_GE(PhoenixTables(), 3);  // result + status + tmp stand-in

  // Kill the client the hard way: its sessions evaporate server-side (as
  // they would when the client machine dies and the server times it out).
  ConnState* cs = PhoenixDriverManager::conn_state(dbc);
  std::string dead_tag = cs->tag;
  eng::Database* db = cluster_.server.database();
  std::vector<uint64_t> session_ids;
  for (uint64_t id = 1; id < 100; ++id) {
    if (db->HasSession(id)) session_ids.push_back(id);
  }
  for (uint64_t id : session_ids) ASSERT_TRUE(db->CloseSession(id).ok());
  ASSERT_GE(PhoenixTables(), 3);  // artifacts really are orphaned

  auto dropped = PhoenixDriverManager::CleanupOrphans(&cluster_.network,
                                                      "testdb", "admin");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_GE(*dropped, 3);
  EXPECT_EQ(PhoenixTables(), 0);
  // The application's own table is untouched.
  EXPECT_NE(db->store()->Get("BASE"), nullptr);
  (void)dead_tag;
}

TEST_F(OrphanGcTest, SparesArtifactsOfLiveClients) {
  Hdbc* live = dm_->AllocConnect(dm_->AllocEnv());
  ASSERT_EQ(dm_->Connect(live, "testdb", "alive"), SqlReturn::kSuccess);
  MustExec(dm_.get(), live, "CREATE TABLE BASE (K INTEGER PRIMARY KEY)");
  MustExec(dm_.get(), live, "INSERT INTO BASE VALUES (1), (2)");

  // An open result set (two rows in blocks of one, so it is materialized)
  // whose table must survive the sweep.
  odbc::Hstmt* stmt = dm_->AllocStmt(live);
  ASSERT_EQ(dm_->SetStmtAttr(stmt, odbc::StmtAttr::kBlockSize, 1),
            SqlReturn::kSuccess);
  ASSERT_EQ(dm_->ExecDirect(stmt, "SELECT * FROM BASE"), SqlReturn::kSuccess);
  StmtState* vs = PhoenixDriverManager::stmt_state(stmt);
  ASSERT_NE(vs, nullptr);

  auto dropped = PhoenixDriverManager::CleanupOrphans(&cluster_.network,
                                                      "testdb", "admin");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0);
  EXPECT_NE(cluster_.server.database()->store()->Get(vs->result_table),
            nullptr);
  // The live client keeps working.
  ASSERT_EQ(dm_->Fetch(stmt), SqlReturn::kSuccess);
}

TEST_F(OrphanGcTest, MixedLiveAndDeadClients) {
  Hdbc* live = dm_->AllocConnect(dm_->AllocEnv());
  ASSERT_EQ(dm_->Connect(live, "testdb", "alive"), SqlReturn::kSuccess);
  MustExec(dm_.get(), live, "CREATE TABLE BASE (K INTEGER PRIMARY KEY)");
  MustExec(dm_.get(), live, "INSERT INTO BASE VALUES (1), (2)");
  // Both clients' reads are materialized: two rows in blocks of one.
  MustQuery(dm_.get(), live, "SELECT * FROM BASE", /*block_size=*/1);

  Hdbc* doomed = dm_->AllocConnect(dm_->AllocEnv());
  ASSERT_EQ(dm_->Connect(doomed, "testdb", "doomed"), SqlReturn::kSuccess);
  MustQuery(dm_.get(), doomed, "SELECT * FROM BASE", /*block_size=*/1);
  // Kill only the doomed client's sessions.
  eng::Database* db = cluster_.server.database();
  uint64_t doomed_main = doomed->driver->session_id();
  ConnState* doomed_cs = PhoenixDriverManager::conn_state(doomed);
  uint64_t doomed_priv = doomed_cs->private_conn->session_id();
  ASSERT_TRUE(db->CloseSession(doomed_main).ok());
  ASSERT_TRUE(db->CloseSession(doomed_priv).ok());

  ConnState* live_cs = PhoenixDriverManager::conn_state(live);
  auto dropped = PhoenixDriverManager::CleanupOrphans(&cluster_.network,
                                                      "testdb", "admin");
  ASSERT_TRUE(dropped.ok());
  EXPECT_GE(*dropped, 1);
  // Doomed artifacts gone, live ones intact.
  int live_tables = 0;
  for (const std::string& name : db->store()->ListNames()) {
    if (name.find("_" + doomed_cs->tag + "_") != std::string::npos) {
      ADD_FAILURE() << "orphan survived: " << name;
    }
    if (name.find("_" + live_cs->tag + "_") != std::string::npos) {
      ++live_tables;
    }
  }
  EXPECT_GE(live_tables, 1);
}

TEST_F(OrphanGcTest, IdempotentOnCleanServer) {
  auto first = PhoenixDriverManager::CleanupOrphans(&cluster_.network,
                                                    "testdb", "admin");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  auto second = PhoenixDriverManager::CleanupOrphans(&cluster_.network,
                                                     "testdb", "admin");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0);
}

}  // namespace
}  // namespace phoenix::core
