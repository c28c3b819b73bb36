// Transaction semantics: explicit BEGIN/COMMIT/ROLLBACK, statement-level
// atomicity, DDL undo, temp-object undo.

#include "engine/database.h"

#include "obs/metrics.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
    Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)");
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

  int64_t Count() {
    return Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64();
  }

  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

TEST_F(TxnTest, CommitMakesChangesVisible) {
  Exec("BEGIN TRANSACTION");
  Exec("INSERT INTO T VALUES (1, 10)");
  Exec("INSERT INTO T VALUES (2, 20)");
  Exec("COMMIT");
  EXPECT_EQ(Count(), 2);
}

TEST_F(TxnTest, RollbackUndoesEverything) {
  Exec("INSERT INTO T VALUES (1, 10)");
  Exec("BEGIN TRANSACTION");
  Exec("INSERT INTO T VALUES (2, 20)");
  Exec("UPDATE T SET V = 99 WHERE K = 1");
  Exec("DELETE FROM T WHERE K = 1");
  Exec("ROLLBACK");
  EXPECT_EQ(Count(), 1);
  EXPECT_EQ(Exec("SELECT V FROM T WHERE K = 1").rows[0][0].AsInt64(), 10);
}

TEST_F(TxnTest, RollbackRestoresUpdatesInReverseOrder) {
  Exec("INSERT INTO T VALUES (1, 10)");
  Exec("BEGIN");
  Exec("UPDATE T SET V = 11 WHERE K = 1");
  Exec("UPDATE T SET V = 12 WHERE K = 1");
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT V FROM T WHERE K = 1").rows[0][0].AsInt64(), 10);
}

TEST_F(TxnTest, NestedBeginRejected) {
  Exec("BEGIN");
  EXPECT_EQ(TryExec("BEGIN").code(), StatusCode::kSqlError);
  Exec("ROLLBACK");
}

TEST_F(TxnTest, CommitWithoutBeginRejected) {
  EXPECT_EQ(TryExec("COMMIT").code(), StatusCode::kSqlError);
  EXPECT_EQ(TryExec("ROLLBACK").code(), StatusCode::kSqlError);
}

TEST_F(TxnTest, FailedStatementInsideTxnRollsBackOnlyItself) {
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1, 10)");
  // This statement fails mid-way (third row collides with the first).
  Status st = TryExec("INSERT INTO T VALUES (2, 20), (3, 30), (1, 0)");
  EXPECT_EQ(st.code(), StatusCode::kConstraint);
  // The transaction is still alive and holds only the first insert.
  Exec("INSERT INTO T VALUES (4, 40)");
  Exec("COMMIT");
  EXPECT_EQ(Count(), 2);
  EXPECT_TRUE(Exec("SELECT * FROM T WHERE K = 2").rows.empty());
}

TEST_F(TxnTest, DdlIsTransactional) {
  Exec("BEGIN");
  Exec("CREATE TABLE T2 (A INTEGER)");
  Exec("INSERT INTO T2 VALUES (1)");
  Exec("ROLLBACK");
  EXPECT_EQ(TryExec("SELECT * FROM T2").code(), StatusCode::kSqlError);
}

TEST_F(TxnTest, DropTableRollbackRestoresContents) {
  Exec("INSERT INTO T VALUES (1, 10), (2, 20)");
  Exec("BEGIN");
  Exec("DROP TABLE T");
  EXPECT_EQ(TryExec("SELECT * FROM T").code(), StatusCode::kSqlError);
  Exec("ROLLBACK");
  EXPECT_EQ(Count(), 2);
  // PK index must be restored too.
  EXPECT_EQ(TryExec("INSERT INTO T VALUES (1, 0)").code(),
            StatusCode::kConstraint);
}

TEST_F(TxnTest, DropTableRollbackReinstallsTheSameTable) {
  Exec("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)");
  Exec("CREATE INDEX I1 ON T (V)");
  Exec("CREATE INDEX I2 ON T (K, V)");
  Exec("DELETE FROM T WHERE K = 3");
  const storage::Table* before = db_->store()->Get("T");
  const storage::RowId next_rid = before->next_rid();
  Exec("BEGIN");
  Exec("DROP TABLE T");
  Exec("ROLLBACK");
  const storage::Table* after = db_->store()->Get("T");
  EXPECT_EQ(after, before);
  // The rid counter survives, so a deleted row's rid is never handed out
  // again, and the indexes keep their declaration order.
  EXPECT_EQ(after->next_rid(), next_rid);
  ASSERT_EQ(after->indexes().size(), 2u);
  EXPECT_EQ(after->indexes()[0].name, "I1");
  EXPECT_EQ(after->indexes()[1].name, "I2");
}

TEST_F(TxnTest, CommitReachesATableParkedByAnotherSessionsDrop) {
  // This session's insert commits while another session's open DROP TABLE
  // holds T in its undo record. The commit must still finalize the row's
  // version on that table object, or the row would stay invisible to
  // snapshot reads — and to checkpoints — once the drop rolls back.
  uint64_t other = *db_->CreateSession("other");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1, 10)");
  ASSERT_TRUE(db_->ExecuteScript(other, "BEGIN; DROP TABLE T").ok());
  Exec("COMMIT");
  ASSERT_TRUE(db_->ExecuteScript(other, "ROLLBACK").ok());
  EXPECT_EQ(Count(), 1);

  ASSERT_TRUE(db_->Checkpoint().ok());
  Database db2(&disk_);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.store()->Get("T")->num_rows(), 1u);
}

TEST_F(TxnTest, TempProcCreateRollsBack) {
  Exec("BEGIN");
  Exec("CREATE TEMPORARY PROCEDURE TP AS SELECT 1");
  Exec("ROLLBACK");
  EXPECT_EQ(TryExec("EXEC TP").code(), StatusCode::kNotFound);
}

TEST_F(TxnTest, TempProcDropRollsBack) {
  Exec("CREATE TEMPORARY PROCEDURE TP AS SELECT 7 AS X");
  Exec("BEGIN");
  Exec("DROP PROCEDURE TP");
  Exec("ROLLBACK");
  StatementResult r = Exec("EXEC TP");
  ASSERT_TRUE(r.has_rows);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 7);
}

TEST_F(TxnTest, PersistentProcIsTransactional) {
  Exec("BEGIN");
  Exec("CREATE PROCEDURE PP AS SELECT 1 AS X");
  Exec("ROLLBACK");
  EXPECT_EQ(TryExec("EXEC PP").code(), StatusCode::kNotFound);
}

TEST_F(TxnTest, SessionCloseRollsBackOpenTxn) {
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1, 10)");
  ASSERT_TRUE(db_->CloseSession(sid_).ok());
  sid_ = *db_->CreateSession("t2");
  EXPECT_EQ(Count(), 0);
}

TEST_F(TxnTest, TwoSessionsInterleave) {
  uint64_t other = *db_->CreateSession("other");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1, 10)");
  // The other session inserts and commits independently (autocommit).
  ASSERT_TRUE(db_->ExecuteScript(other, "INSERT INTO T VALUES (2, 20)").ok());
  Exec("ROLLBACK");
  EXPECT_EQ(Count(), 1);
  EXPECT_EQ(Exec("SELECT K FROM T").rows[0][0].AsInt64(), 2);
}

TEST_F(TxnTest, CheckpointDuringActiveTxnExcludesUncommittedEffects) {
  // Non-quiescent checkpoints: an open transaction does not block
  // Checkpoint(), and the image must hold committed state only — the
  // checkpoint's MVCC snapshot does not see the open transaction's writes.
  Exec("INSERT INTO T VALUES (1, 10)");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (2, 20)");
  Exec("UPDATE T SET V = 99 WHERE K = 1");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec("ROLLBACK");

  // A "crashed" replacement process sees the checkpoint image (the WAL was
  // truncated up to the fence): only the committed row, with its committed
  // value.
  Database db2(&disk_);
  ASSERT_TRUE(db2.Open().ok());
  uint64_t sid2 = *db2.CreateSession("t2");
  auto rows = db2.ExecuteScript(sid2, "SELECT K, V FROM T");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->back().rows.size(), 1u);
  EXPECT_EQ(rows->back().rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows->back().rows[0][1].AsInt64(), 10);
}

TEST_F(TxnTest, CheckpointDuringActiveTxnKeepsLiveStateIntact) {
  // The checkpoint only reads through its snapshot; the live store must
  // still hold the open transaction's uncommitted effects afterwards.
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (7, 70)");
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_EQ(Count(), 1);
  Exec("COMMIT");
  EXPECT_EQ(Count(), 1);
}

TEST_F(TxnTest, CheckpointKeepsPositionOfIndexDroppedByOpenTxn) {
  // The planner breaks cost ties by index declaration order, so an image
  // must list the indexes exactly as the committed catalog does — even when
  // an open transaction has dropped one of them at checkpoint time.
  Exec("CREATE INDEX I1 ON T (V)");
  Exec("CREATE INDEX I2 ON T (V)");
  Exec("BEGIN");
  Exec("DROP INDEX I1 ON T");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec("ROLLBACK");
  auto names = [](const storage::Table& t) {
    std::vector<std::string> out;
    for (const storage::SecondaryIndex& idx : t.indexes()) {
      out.push_back(idx.name);
    }
    return out;
  };
  const std::vector<std::string> want = {"I1", "I2"};
  EXPECT_EQ(names(*db_->store()->Get("T")), want);

  // The WAL was truncated to the fence, so the recovered catalog is the
  // image's alone.
  Database db2(&disk_);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.recovery_info().records_replayed, 0u);
  EXPECT_EQ(names(*db2.store()->Get("T")), want);
}

TEST_F(TxnTest, AutoCheckpointAfterNCommits) {
  storage::SimDisk disk;
  DatabaseOptions opts;
  opts.checkpoint_every_n_commits = 3;
  Database db(&disk, opts);
  ASSERT_TRUE(db.Open().ok());
  uint64_t sid = *db.CreateSession("x");
  ASSERT_TRUE(db.ExecuteScript(sid, "CREATE TABLE C (A INTEGER)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.ExecuteScript(sid, "INSERT INTO C VALUES (1)").ok());
  }
  // With background checkpoints the image write is asynchronous; wait for
  // the pipeline to drain before asserting durability.
  db.WaitForCheckpointIdle();
  // At least one checkpoint happened: the image exists on disk.
  EXPECT_TRUE(disk.Exists("phxdb.ckpt"));
}

TEST_F(TxnTest, CheckpointCadenceCountsOnlyLoggedCommits) {
  // The cadence counts commits that wrote a WAL record — the unit
  // Database::Open seeds it with (records replayed). Read-only autocommits
  // and an empty BEGIN…COMMIT used to count too, so a read-heavy workload
  // checkpointed far more often than configured.
  storage::SimDisk disk;
  DatabaseOptions opts;
  opts.checkpoint_every_n_commits = 3;
  Database db(&disk, opts);
  ASSERT_TRUE(db.Open().ok());
  uint64_t sid = *db.CreateSession("x");
  auto exec = [&](const std::string& sql) {
    auto r = db.ExecuteScript(sid, sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE C (A INTEGER)");  // logged commit 1
  for (int i = 0; i < 3; ++i) exec("SELECT A FROM C");
  exec("BEGIN TRANSACTION");
  exec("COMMIT");
  exec("INSERT INTO C VALUES (1)");  // logged commit 2
  db.WaitForCheckpointIdle();
  EXPECT_FALSE(disk.Exists("phxdb.ckpt"));

  exec("INSERT INTO C VALUES (2)");  // logged commit 3: due
  db.WaitForCheckpointIdle();
  EXPECT_TRUE(disk.Exists("phxdb.ckpt"));
}

TEST_F(TxnTest, FailedBackgroundImageWriteRetriesOnNextLoggedCommit) {
  storage::SimDisk disk;
  DatabaseOptions opts;
  opts.checkpoint_every_n_commits = 3;
  auto db = std::make_unique<Database>(&disk, opts);
  ASSERT_TRUE(db->Open().ok());
  uint64_t sid = *db->CreateSession("x");
  auto exec = [&](const std::string& sql) {
    auto r = db->ExecuteScript(sid, sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  obs::Counter* failures = obs::MetricsRegistry::Default()->GetCounter(
      "storage.checkpoint.bg_write_failures");
  uint64_t failures0 = failures->Value();

  disk.InjectSyncFailures(1, "phxdb.ckpt");
  exec("CREATE TABLE C (A INTEGER)");
  exec("INSERT INTO C VALUES (1)");
  exec("INSERT INTO C VALUES (2)");  // due: the image write fails
  db->WaitForCheckpointIdle();
  EXPECT_EQ(failures->Value(), failures0 + 1);
  EXPECT_FALSE(disk.Exists("phxdb.ckpt"));

  // One logged commit — not another three — retries, and its snapshot
  // lands: the image holds all four commits and the WAL is truncated.
  exec("INSERT INTO C VALUES (3)");
  db->WaitForCheckpointIdle();
  EXPECT_EQ(failures->Value(), failures0 + 1);
  ASSERT_TRUE(disk.Exists("phxdb.ckpt"));
  db.reset();
  disk.Crash();
  db = std::make_unique<Database>(&disk, opts);
  ASSERT_TRUE(db->Open().ok());
  EXPECT_EQ(db->recovery_info().records_replayed, 0u);
  sid = *db->CreateSession("y");
  auto rows = db->ExecuteScript(sid, "SELECT COUNT(*) AS N FROM C");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0].rows[0][0].AsInt64(), 3);
}

TEST_F(TxnTest, EmptyTxnCommitWritesNothing) {
  uint64_t syncs = disk_.sync_count();
  Exec("BEGIN");
  Exec("SELECT * FROM T");
  Exec("COMMIT");
  EXPECT_EQ(disk_.sync_count(), syncs);  // read-only txn forces no WAL
}

}  // namespace
}  // namespace phoenix::eng
