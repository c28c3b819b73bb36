// Regression tests for recovery-path bugs fixed alongside the chaos harness:
//  - busy-wait between reconnect attempts -> capped exponential backoff,
//  - silent cursor misposition when the result table is short,
//  - stale commit-marker id leaking into a replayed transaction,
//  - recovery pass dying when the server crashes again mid-recovery,
//  - crash between checkpoint image and WAL truncation bricking the server.
// Each test documents the pre-fix failure it guards against.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/phoenix_driver_manager.h"
#include "storage/recovery.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"

#include "test_util.h"

namespace phoenix::core {
namespace {

using odbc::DriverManager;
using odbc::Hdbc;
using odbc::Henv;
using odbc::Hstmt;
using odbc::SqlReturn;
using testutil::AutoRestartConfig;
using testutil::MustExec;
using testutil::MustQuery;
using testutil::TestCluster;

// --- RecoveryBackoffUs ----------------------------------------------------

TEST(RecoveryBackoff, FirstAttemptIsImmediate) {
  RecoveryConfig cfg;
  EXPECT_EQ(RecoveryBackoffUs(cfg, 0, nullptr), 0u);
  EXPECT_EQ(RecoveryBackoffUs(cfg, -1, nullptr), 0u);
}

TEST(RecoveryBackoff, GrowsExponentiallyToCap) {
  RecoveryConfig cfg;
  cfg.initial_backoff_us = 200;
  cfg.max_backoff_us = 10000;
  cfg.backoff_multiplier = 2.0;
  cfg.jitter = 0.0;
  EXPECT_EQ(RecoveryBackoffUs(cfg, 1, nullptr), 200u);
  EXPECT_EQ(RecoveryBackoffUs(cfg, 2, nullptr), 400u);
  EXPECT_EQ(RecoveryBackoffUs(cfg, 3, nullptr), 800u);
  EXPECT_EQ(RecoveryBackoffUs(cfg, 4, nullptr), 1600u);
  // Past the cap the curve flattens instead of overflowing.
  EXPECT_EQ(RecoveryBackoffUs(cfg, 10, nullptr), 10000u);
  EXPECT_EQ(RecoveryBackoffUs(cfg, 60, nullptr), 10000u);
}

TEST(RecoveryBackoff, JitterIsBoundedAndDeterministic) {
  RecoveryConfig cfg;
  cfg.jitter = 0.25;
  RecoveryConfig flat = cfg;
  flat.jitter = 0.0;
  Rng a(42);
  Rng b(42);
  for (int attempt = 1; attempt <= 12; ++attempt) {
    uint64_t ja = RecoveryBackoffUs(cfg, attempt, &a);
    uint64_t jb = RecoveryBackoffUs(cfg, attempt, &b);
    EXPECT_EQ(ja, jb) << "same seed, attempt " << attempt;
    uint64_t base = RecoveryBackoffUs(flat, attempt, nullptr);
    uint64_t spread = base / 4 + 1;
    EXPECT_GE(ja, base - spread) << "attempt " << attempt;
    EXPECT_LE(ja, std::min(cfg.max_backoff_us, base + spread))
        << "attempt " << attempt;
  }
}

// The give-up path (server never comes back) must finish in bounded wall
// time. Before the fix the default retry_wait busy-spun; now it sleeps the
// capped backoff, so 20 attempts cost at most ~20 * 10ms.
TEST(RecoveryBackoff, GiveUpPathSleepsInsteadOfSpinning) {
  TestCluster cluster;
  PhoenixConfig config;  // default retry_wait: the real backoff sleep
  config.reconnect_attempts = 20;
  PhoenixDriverManager phoenix(&cluster.network, config);
  Hdbc* dbc = phoenix.AllocConnect(phoenix.AllocEnv());
  ASSERT_EQ(phoenix.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&phoenix, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY)");
  cluster.server.Crash();  // and it stays down

  auto start = std::chrono::steady_clock::now();
  Hstmt* stmt = phoenix.AllocStmt(dbc);
  EXPECT_EQ(phoenix.ExecDirect(stmt, "INSERT INTO T VALUES (1)"),
            SqlReturn::kError);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  EXPECT_LT(secs, 5.0) << "give-up path took " << secs << "s for 20 attempts";
  EXPECT_GE(phoenix.stats().reconnect_attempts, 20u);
}

// --- RepositionCursor short-discard --------------------------------------

// Regression: the client-side reposition ablation counted discarded rows but
// never compared the count against the target position, so a short result
// table (rows lost, wrong table, corrupted state) silently produced a cursor
// at the wrong position. It must fail loudly instead.
TEST(RepositionRegression, RepositionPastEndFailsLoudly) {
  TestCluster cluster;
  PhoenixConfig config = AutoRestartConfig(&cluster.server);
  config.server_side_reposition = false;  // the ablation path under test
  PhoenixDriverManager phoenix(&cluster.network, config);
  Hdbc* dbc = phoenix.AllocConnect(phoenix.AllocEnv());
  ASSERT_EQ(phoenix.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&phoenix, dbc, "CREATE TABLE R (K INTEGER PRIMARY KEY)");
  MustExec(&phoenix, dbc, "INSERT INTO R VALUES (1), (2), (3)");

  uint64_t cursor_id = 0;
  // Within range (including exactly at the end): fine.
  PHX_ASSERT_OK(phoenix.RepositionCursorForTest(dbc, "R", 2, &cursor_id));
  PHX_ASSERT_OK(phoenix.RepositionCursorForTest(dbc, "R", 3, &cursor_id));
  // Past the end: only 3 rows exist but the client already consumed 10.
  // Before the fix this returned Ok with a mispositioned cursor.
  Status st = phoenix.RepositionCursorForTest(dbc, "R", 10, &cursor_id);
  EXPECT_FALSE(st.ok()) << "reposition past the end silently succeeded";
}

// --- Stale commit marker on rollback-replay ------------------------------

// Regression: when recovery finds the commit marker absent (the crash beat
// the COMMIT) it rolls the transaction back and replays it. The pending
// marker id from the failed attempt used to survive into the replayed
// transaction; a later code path probing that id would see "absent" and
// mis-resolve. The replay branch must clear it so the commit retry mints a
// fresh marker.
TEST(RecoveryRegression, ReplayBranchClearsStaleCommitMarker) {
  TestCluster cluster;
  PhoenixConfig config = AutoRestartConfig(&cluster.server);
  auto dbc_holder = std::make_shared<Hdbc*>(nullptr);
  auto observed = std::make_shared<std::vector<uint64_t>>();
  config.recovery_point_hook = [dbc_holder, observed](RecoveryPoint pt) {
    if (pt == RecoveryPoint::kSqlStateReinstalled && *dbc_holder != nullptr) {
      observed->push_back(
          PhoenixDriverManager::conn_state(*dbc_holder)->pending_commit_req);
    }
  };
  PhoenixDriverManager phoenix(&cluster.network, config);
  Hdbc* dbc = phoenix.AllocConnect(phoenix.AllocEnv());
  *dbc_holder = dbc;
  ASSERT_EQ(phoenix.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&phoenix, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY)");
  MustExec(&phoenix, dbc, "BEGIN TRANSACTION");
  MustExec(&phoenix, dbc, "INSERT INTO T VALUES (1)");
  cluster.server.Crash();
  // The COMMIT hits the dead server: its marker never lands, recovery takes
  // the rollback-replay branch, and the retried commit must succeed.
  MustExec(&phoenix, dbc, "COMMIT");

  ASSERT_FALSE(observed->empty()) << "recovery never reinstalled SQL state";
  for (uint64_t pending : *observed) {
    EXPECT_EQ(pending, 0u)
        << "stale commit-marker id survived into the replayed transaction";
  }
  // Exactly-once: the replayed transaction committed a single row.
  auto rows = MustQuery(&phoenix, dbc, "SELECT K FROM T ORDER BY K");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_GE(phoenix.stats().txn_replays, 1u);
}

// --- Re-crash during recovery --------------------------------------------

// Regression: a server crash while a recovery pass was mid-flight surfaced
// the comm error to the application. The recovery driver must restart the
// whole pass (detection + Phase 1 + Phase 2) and count the re-crash.
TEST(RecoveryRegression, RecrashDuringRecoveryIsRetried) {
  TestCluster cluster;
  PhoenixConfig config = AutoRestartConfig(&cluster.server);
  auto armed = std::make_shared<int>(1);
  net::DbServer* server = &cluster.server;
  config.recovery_point_hook = [server, armed](RecoveryPoint pt) {
    if (pt == RecoveryPoint::kDetected && (*armed)-- > 0) {
      server->Crash();  // the server dies again, mid-recovery
    }
  };
  PhoenixDriverManager phoenix(&cluster.network, config);
  Hdbc* dbc = phoenix.AllocConnect(phoenix.AllocEnv());
  ASSERT_EQ(phoenix.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&phoenix, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY)");
  MustExec(&phoenix, dbc, "INSERT INTO T VALUES (7)");
  cluster.server.Crash();

  // Before the fix this query failed; now the second recovery round wins.
  auto rows = MustQuery(&phoenix, dbc, "SELECT K FROM T");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 7);
  EXPECT_GE(phoenix.stats().recovery_recrashes, 1u);
  EXPECT_GE(phoenix.stats().recoveries, 1u);
}

TEST(RecoveryRegression, UnrecoverableSessionGivesUpAfterMaxRounds) {
  TestCluster cluster;
  PhoenixConfig config = AutoRestartConfig(&cluster.server);
  config.recovery.max_recovery_rounds = 2;
  // The hook keeps killing the server at every detection, forever.
  net::DbServer* server = &cluster.server;
  config.recovery_point_hook = [server](RecoveryPoint pt) {
    if (pt == RecoveryPoint::kDetected) server->Crash();
  };
  PhoenixDriverManager phoenix(&cluster.network, config);
  Hdbc* dbc = phoenix.AllocConnect(phoenix.AllocEnv());
  ASSERT_EQ(phoenix.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&phoenix, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY)");
  cluster.server.Crash();

  Hstmt* stmt = phoenix.AllocStmt(dbc);
  EXPECT_EQ(phoenix.ExecDirect(stmt, "INSERT INTO T VALUES (1)"),
            SqlReturn::kError);
  EXPECT_GE(phoenix.stats().recovery_recrashes, 1u);
  // The session is marked broken: later calls fail fast, no hang.
  Hstmt* stmt2 = phoenix.AllocStmt(dbc);
  EXPECT_EQ(phoenix.ExecDirect(stmt2, "SELECT K FROM T"), SqlReturn::kError);
}

// --- Mid-checkpoint crash, end to end ------------------------------------

// Regression: a crash after the checkpoint image became durable but before
// the WAL was truncated used to leave the server unable to restart (the WAL
// replayed CREATE TABLE onto the image's copy of the table). Restart must
// succeed, skip the subsumed records, and present the data exactly once.
TEST(RecoveryRegression, MidCheckpointCrashRestartsCleanly) {
  TestCluster cluster;
  DriverManager native(&cluster.network);
  Hdbc* dbc = native.AllocConnect(native.AllocEnv());
  ASSERT_EQ(native.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&native, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)");
  for (int i = 1; i <= 5; ++i) {
    MustExec(&native, dbc,
             "INSERT INTO T VALUES (" + std::to_string(i) + ", " +
                 std::to_string(i * 10) + ")");
  }
  ASSERT_TRUE(cluster.server.CrashMidCheckpoint())
      << "checkpoint image was not written before the crash";
  PHX_ASSERT_OK(cluster.server.Restart());
  EXPECT_GT(cluster.server.database()->recovery_info().records_skipped, 0u);

  DriverManager after(&cluster.network);
  Hdbc* dbc2 = after.AllocConnect(after.AllocEnv());
  ASSERT_EQ(after.Connect(dbc2, "testdb", "app"), SqlReturn::kSuccess);
  auto rows = MustQuery(&after, dbc2, "SELECT K, V FROM T ORDER BY K");
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(rows[i - 1][0].AsInt64(), i);
    EXPECT_EQ(rows[i - 1][1].AsInt64(), i * 10);
  }
}

// Regression for the split checkpoint protocol: a crash after the in-memory
// snapshot was taken but before its image reached the disk must leave no
// trace — no checkpoint file, no WAL truncation — so the restart replays the
// full log. (A bug here would be a fence recorded somewhere durable while
// the image it guards never landed.)
TEST(RecoveryRegression, CrashAfterSnapshotBeforeImageReplaysFullWal) {
  TestCluster cluster;
  DriverManager native(&cluster.network);
  Hdbc* dbc = native.AllocConnect(native.AllocEnv());
  ASSERT_EQ(native.Connect(dbc, "testdb", "app"), SqlReturn::kSuccess);
  MustExec(&native, dbc, "CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)");
  for (int i = 1; i <= 5; ++i) {
    MustExec(&native, dbc,
             "INSERT INTO T VALUES (" + std::to_string(i) + ", " +
                 std::to_string(i * 10) + ")");
  }
  // The snapshot exists only in the dying process's memory: no image.
  EXPECT_FALSE(cluster.server.CrashMidCheckpoint(
      eng::CheckpointCrashPoint::kPostSnapshot));
  EXPECT_FALSE(cluster.disk.Exists("phxdb.ckpt"));
  PHX_ASSERT_OK(cluster.server.Restart());
  const storage::RecoveryInfo& info =
      cluster.server.database()->recovery_info();
  EXPECT_FALSE(info.had_checkpoint);
  EXPECT_EQ(info.records_skipped, 0u);
  EXPECT_EQ(info.records_replayed, 6u);  // CREATE TABLE + 5 inserts

  DriverManager after(&cluster.network);
  Hdbc* dbc2 = after.AllocConnect(after.AllocEnv());
  ASSERT_EQ(after.Connect(dbc2, "testdb", "app"), SqlReturn::kSuccess);
  auto rows = MustQuery(&after, dbc2, "SELECT K, V FROM T ORDER BY K");
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(rows[i - 1][0].AsInt64(), i);
    EXPECT_EQ(rows[i - 1][1].AsInt64(), i * 10);
  }
}

// --- Group commit: the append-to-sync crash window ------------------------

// The durability hole group commit opens if the ack contract is sloppy: a
// commit's frame is appended to the device inside a coalesced batch, the
// process dies before the batch's single sync, and the record is gone. The
// client must have seen an ERROR for that commit — acking on enqueue (or on
// append) would claim a commit the crash then erases.
TEST(GroupCommitRegression, CrashBetweenBatchAppendAndSyncNeverAcks) {
  storage::SimDisk disk;
  {
    eng::Database db(&disk);
    PHX_ASSERT_OK(db.Open());
    auto sid = db.CreateSession("app");
    PHX_ASSERT_OK_RESULT(sid);
    auto res = db.ExecuteScript(*sid, "CREATE TABLE T (K INTEGER PRIMARY KEY)");
    PHX_ASSERT_OK_RESULT(res);  // acked: must survive

    // Arm the crash window: the next batch is appended but never synced.
    db.durability()->wal_writer()->set_before_sync_hook([] { return false; });
    auto doomed = db.ExecuteScript(*sid, "INSERT INTO T VALUES (1)");
    EXPECT_FALSE(doomed.ok())
        << "commit acked although its batch was never synced";
    db.durability()->wal_writer()->set_before_sync_hook(nullptr);
  }
  disk.Crash();  // the unsynced batch bytes vanish

  eng::Database after(&disk);
  PHX_ASSERT_OK(after.Open());
  auto sid = after.CreateSession("verify");
  PHX_ASSERT_OK_RESULT(sid);
  // The acked CREATE TABLE survived; the un-acked INSERT did not — and
  // neither invariant direction is violated.
  auto rows = after.ExecuteScript(*sid, "SELECT K FROM T");
  PHX_ASSERT_OK_RESULT(rows);
  EXPECT_TRUE(rows->at(0).rows.empty())
      << "un-acked commit reappeared after the crash";
}

// Early lock release is the default commit path: a commit waits for its WAL
// fsync only after dropping the exclusive data lock, so a plain SELECT on
// another session is never stuck behind someone else's fsync. Before group
// commit became the only pipeline, the default synced inside the lock and
// the reader below waited for the whole parked fsync.
TEST(GroupCommitRegression, ReaderNotBlockedByCommitInFsync) {
  storage::SimDisk disk;
  eng::Database db(&disk);
  PHX_ASSERT_OK(db.Open());
  auto a = db.CreateSession("a");
  auto b = db.CreateSession("b");
  PHX_ASSERT_OK_RESULT(a);
  PHX_ASSERT_OK_RESULT(b);
  PHX_ASSERT_OK(
      db.ExecuteScript(*a, "CREATE TABLE T (K INTEGER PRIMARY KEY)").status());

  // Park the next WAL fsync until the test releases it.
  std::atomic<bool> armed{true};
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  storage::DiskHooks hooks;
  hooks.pre_sync = [&](const std::string&, uint64_t, size_t tail_bytes) {
    if (armed.exchange(false)) {
      parked.set_value();
      released.wait();
    }
    return tail_bytes;
  };
  disk.set_hooks(hooks);

  auto insert = std::async(std::launch::async, [&] {
    return db.ExecuteScript(*a, "INSERT INTO T VALUES (1)").status();
  });
  if (parked.get_future().wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    armed = false;
    release.set_value();
    FAIL() << "the INSERT never reached its WAL fsync";
  }
  auto select = std::async(std::launch::async, [&] {
    return db.ExecuteScript(*b, "SELECT K FROM T").status();
  });
  bool select_done =
      select.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  release.set_value();
  EXPECT_TRUE(select_done)
      << "SELECT blocked while another session's commit was in fsync";
  PHX_EXPECT_OK(select.get());
  PHX_EXPECT_OK(insert.get());  // acked only once the fsync returned
  disk.set_hooks({});
}

// Load test of the same contract through the full server stack: many client
// threads commit through coalesced batches while the server is killed.
// Every INSERT the clients saw succeed must be present after restart.
TEST(GroupCommitRegression, AckedCommitsSurviveServerCrashUnderLoad) {
  net::ServerOptions sopts;
  sopts.worker_threads = 8;
  TestCluster cluster(sopts);
  // Real fsync service time so batches actually coalesce under load.
  cluster.disk.set_sync_latency_us(100);

  auto connect_req = [](const std::string& user) {
    net::Request r;
    r.kind = net::Request::Kind::kConnect;
    r.user = user;
    return r;
  };
  auto exec_req = [](uint64_t sid, std::string sql) {
    net::Request r;
    r.kind = net::Request::Kind::kExecScript;
    r.session_id = sid;
    r.sql = std::move(sql);
    return r;
  };

  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(connect_req("ddl"));
    ASSERT_TRUE(conn.ok());
    auto r = chan->RoundTrip(
        exec_req(conn->session_id, "CREATE TABLE L (K INTEGER PRIMARY KEY)"));
    ASSERT_TRUE(r.ok() && r->ToStatus().ok());
  }

  constexpr int kThreads = 8;
  std::mutex acked_mu;
  std::vector<int> acked;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chan = cluster.network.Connect("testdb").take();
      auto conn = chan->RoundTrip(connect_req("w" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) return;
      for (int i = 0; !stop.load(); ++i) {
        int key = t * 100000 + i;
        auto r = chan->RoundTrip(exec_req(
            conn->session_id,
            "INSERT INTO L VALUES (" + std::to_string(key) + ")"));
        if (r.ok() && r->ToStatus().ok()) {
          std::lock_guard<std::mutex> lk(acked_mu);
          acked.push_back(key);
        } else {
          break;  // server crashed under us; this commit was NOT acked
        }
      }
    });
  }
  // Let commits coalesce, then kill the server mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.server.Crash();
  stop.store(true);
  for (auto& th : threads) th.join();

  PHX_ASSERT_OK(cluster.server.Restart());
  eng::Database* db = cluster.server.database();
  auto sid = db->CreateSession("verify");
  PHX_ASSERT_OK_RESULT(sid);
  auto res = db->ExecuteScript(*sid, "SELECT K FROM L ORDER BY K");
  PHX_ASSERT_OK_RESULT(res);
  std::set<int64_t> recovered;
  for (const Row& row : res->at(0).rows) recovered.insert(row[0].AsInt64());
  ASSERT_FALSE(acked.empty()) << "no commit was ever acked before the crash";
  for (int key : acked) {
    EXPECT_TRUE(recovered.count(key)) << "acked commit " << key << " vanished";
  }
}

// --- Clear-on-error ---------------------------------------------------------

// Regression: Recover() used to leave the half-replayed tables behind when
// replay hit an error mid-log. A caller that retried, degraded to read-only,
// or reported-and-continued would then observe — and possibly serve —
// partially applied state (tables present, rows missing). A failed recovery
// must leave the store exactly empty, in both serial and parallel replay.
TEST(RecoverErrorPath, FailedRecoveryClearsTheStore) {
  for (uint64_t threads : {uint64_t{1}, uint64_t{4}}) {
    storage::SimDisk disk;
    storage::DurabilityManager dm(&disk, "db");
    Schema schema;
    schema.AddColumn(Column{"K", DataType::kInt64, false});

    storage::WalCommitRecord create;
    create.txn_id = 1;
    create.ops.push_back(storage::WalOp::CreateTable("T", schema, {0}));
    PHX_ASSERT_OK(dm.LogCommit(create));
    storage::WalCommitRecord insert;
    insert.txn_id = 2;
    insert.ops.push_back(storage::WalOp::Insert("T", 1, Row{Value::Int64(7)}));
    PHX_ASSERT_OK(dm.LogCommit(insert));
    // A commit whose op targets a table that never existed: replay applies
    // the two commits above, then errors here.
    storage::WalCommitRecord bad;
    bad.txn_id = 3;
    bad.ops.push_back(
        storage::WalOp::Insert("MISSING", 1, Row{Value::Int64(9)}));
    PHX_ASSERT_OK(dm.LogCommit(bad));
    disk.Crash();

    dm.set_recovery_threads(threads);
    storage::TableStore store;
    storage::RecoveryInfo info;
    Status st = dm.Recover(&store, &info);
    ASSERT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_EQ(store.size(), 0u)
        << "half-replayed state leaked out of a failed recovery (threads="
        << threads << ")";
  }
}

}  // namespace
}  // namespace phoenix::core
