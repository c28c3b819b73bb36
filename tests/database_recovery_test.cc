// Engine-level crash/restart semantics: exactly the guarantees Phoenix
// builds on — committed state (including "ordinary tables" Phoenix writes)
// survives, volatile session state does not.

#include "engine/database.h"

#include "common/rng.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

class DatabaseRecoveryTest : public ::testing::Test {
 protected:
  void Start() {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
  }

  void CrashAndRestart() {
    db_.reset();     // the server process dies
    disk_.Crash();   // unsynced bytes die with it
    Start();         // a new process recovers from the disk
  }

  void SetUp() override { Start(); }

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

TEST_F(DatabaseRecoveryTest, CommittedAutocommitSurvives) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR)");
  Exec("INSERT INTO T VALUES (1, 'one'), (2, 'two')");
  CrashAndRestart();
  StatementResult r = Exec("SELECT V FROM T ORDER BY K");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[1][0].AsString(), "two");
}

TEST_F(DatabaseRecoveryTest, CommittedExplicitTxnSurvives) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1)");
  Exec("INSERT INTO T VALUES (2)");
  Exec("COMMIT");
  CrashAndRestart();
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), 2);
}

TEST_F(DatabaseRecoveryTest, OpenTxnRolledBackByCrash) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (1)");
  CrashAndRestart();
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), 0);
}

TEST_F(DatabaseRecoveryTest, TempTablesVanishOnCrash) {
  Exec("CREATE TEMPORARY TABLE SCRATCH (A INTEGER)");
  Exec("INSERT INTO SCRATCH VALUES (1)");
  CrashAndRestart();
  EXPECT_EQ(TryExec("SELECT * FROM SCRATCH").code(), StatusCode::kSqlError);
}

TEST_F(DatabaseRecoveryTest, SessionsVanishOnCrash) {
  uint64_t old_sid = sid_;
  db_.reset();
  disk_.Crash();
  db_ = std::make_unique<Database>(&disk_);
  ASSERT_TRUE(db_->Open().ok());
  EXPECT_FALSE(db_->HasSession(old_sid));
  auto r = db_->ExecuteScript(old_sid, "SELECT 1");
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(DatabaseRecoveryTest, PersistentProceduresSurvive) {
  Exec("CREATE TABLE T (A INTEGER)");
  Exec("CREATE PROCEDURE BUMP (@x INT) AS INSERT INTO T VALUES (@x)");
  CrashAndRestart();
  StatementResult r = Exec("EXEC BUMP(5)");
  EXPECT_EQ(r.affected, 1);
  EXPECT_EQ(Exec("SELECT A FROM T").rows[0][0].AsInt64(), 5);
}

TEST_F(DatabaseRecoveryTest, TempProceduresDoNot) {
  Exec("CREATE TEMPORARY PROCEDURE TP AS SELECT 1");
  CrashAndRestart();
  EXPECT_EQ(TryExec("EXEC TP").code(), StatusCode::kNotFound);
}

TEST_F(DatabaseRecoveryTest, DroppedTableStaysDropped) {
  Exec("CREATE TABLE T (A INTEGER)");
  Exec("DROP TABLE T");
  CrashAndRestart();
  EXPECT_EQ(TryExec("SELECT * FROM T").code(), StatusCode::kSqlError);
}

TEST_F(DatabaseRecoveryTest, UpdatesAndDeletesReplayCorrectly) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)");
  Exec("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)");
  Exec("UPDATE T SET V = 21 WHERE K = 2");
  Exec("DELETE FROM T WHERE K = 1");
  CrashAndRestart();
  StatementResult r = Exec("SELECT K, V FROM T ORDER BY K");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 21);
  EXPECT_EQ(r.rows[1][1].AsInt64(), 30);
}

TEST_F(DatabaseRecoveryTest, RecoveryAfterCheckpointPlusTail) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  Exec("INSERT INTO T VALUES (1)");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec("INSERT INTO T VALUES (2)");
  CrashAndRestart();
  EXPECT_TRUE(db_->recovery_info().had_checkpoint);
  EXPECT_EQ(db_->recovery_info().records_replayed, 1u);
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), 2);
}

TEST_F(DatabaseRecoveryTest, RepeatedCrashes) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  for (int round = 1; round <= 5; ++round) {
    Exec("INSERT INTO T VALUES (" + std::to_string(round) + ")");
    CrashAndRestart();
    EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), round);
  }
}

TEST_F(DatabaseRecoveryTest, CheckpointCadenceSurvivesRestarts) {
  // A server restarted more often than every N commits must still
  // checkpoint: the commit counter resumes from the replayed records
  // instead of starting over at 0.
  constexpr uint64_t kEvery = 10;
  auto start = [&] {
    DatabaseOptions opts;
    opts.checkpoint_every_n_commits = kEvery;
    db_ = std::make_unique<Database>(&disk_, opts);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
  };
  start();
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  int next = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 9; ++i) {
      Exec("INSERT INTO T VALUES (" + std::to_string(next++) + ")");
    }
    db_->WaitForCheckpointIdle();  // a written image, not a dropped one
    db_.reset();
    disk_.Crash();
    start();
    EXPECT_LT(db_->recovery_info().records_replayed, kEvery)
        << "round " << round;
  }
  // Counted once at the end: an autocommit read is a commit too, and one
  // per round would hand the counter its 10th commit on its own.
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), next);
}

TEST_F(DatabaseRecoveryTest, RowIdsStableAcrossRecovery) {
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY)");
  Exec("INSERT INTO T VALUES (1), (2), (3)");
  Exec("DELETE FROM T WHERE K = 2");
  CrashAndRestart();
  // Inserting after recovery must not collide with recovered RowIds.
  Exec("INSERT INTO T VALUES (4)");
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), 3);
}

// Property: a random committed workload equals its recovered image,
// regardless of where an (unsynced-tail) crash lands.
TEST_F(DatabaseRecoveryTest, RandomWorkloadSurvivesProperty) {
  Rng rng(808);
  Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)");
  std::map<int64_t, int64_t> model;
  for (int step = 0; step < 200; ++step) {
    int64_t k = static_cast<int64_t>(rng.NextBelow(50));
    int64_t v = static_cast<int64_t>(rng.NextBelow(1000));
    switch (rng.NextBelow(4)) {
      case 0:
      case 1:
        if (!model.count(k)) {
          Exec("INSERT INTO T VALUES (" + std::to_string(k) + ", " +
               std::to_string(v) + ")");
          model[k] = v;
        }
        break;
      case 2:
        if (model.count(k)) {
          Exec("UPDATE T SET V = " + std::to_string(v) +
               " WHERE K = " + std::to_string(k));
          model[k] = v;
        }
        break;
      default:
        if (model.count(k)) {
          Exec("DELETE FROM T WHERE K = " + std::to_string(k));
          model.erase(k);
        }
        break;
    }
    if (step % 37 == 36) CrashAndRestart();
  }
  CrashAndRestart();
  StatementResult r = Exec("SELECT K, V FROM T ORDER BY K");
  ASSERT_EQ(r.rows.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(r.rows[i][0].AsInt64(), k);
    EXPECT_EQ(r.rows[i][1].AsInt64(), v);
    ++i;
  }
}

}  // namespace
}  // namespace phoenix::eng
