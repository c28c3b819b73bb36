// Ordered secondary indexes + the cost-aware access-path planner: plan
// selection (asserted through EXPLAIN), result equivalence with the planner
// on and off, index maintenance through DML/rollback/DDL-undo, recovery of
// index definitions from the WAL and from v3 checkpoint images, and
// backward acceptance of pre-index (v2) images.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

bool SameKey(const Row& a, const Row& b) {
  storage::RowLess lt;
  return !lt(a, b) && !lt(b, a);
}

/// The index-consistency oracle: every index's entry tree must equal the
/// tree rebuilt from the base rows.
testing::AssertionResult IndexesConsistent(const storage::Table& t) {
  for (const storage::SecondaryIndex& idx : t.indexes()) {
    std::map<Row, std::set<storage::RowId>, storage::RowLess> want;
    for (const auto& [rid, row] : t.rows()) {
      want[storage::Table::KeyFor(idx.columns, row)].insert(rid);
    }
    if (want.size() != idx.entries.size()) {
      return testing::AssertionFailure()
             << "index " << idx.name << " has " << idx.entries.size()
             << " keys, rows imply " << want.size();
    }
    auto it = idx.entries.begin();
    for (const auto& [key, rids] : want) {
      if (!SameKey(key, it->first) || rids != it->second) {
        return testing::AssertionFailure()
               << "index " << idx.name << " diverges from its base rows";
      }
      ++it;
    }
  }
  return testing::AssertionSuccess();
}

class PlannerTest : public ::testing::Test {
 protected:
  void Start() {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
  }

  void CrashAndRestart() {
    db_.reset();
    disk_.Crash();
    Start();
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

  /// 64 rows: K unique (PK), V = K % 8 (selective), W = K % 2 (not).
  void SeedT() {
    Exec("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER, W INTEGER)");
    std::string ins = "INSERT INTO T VALUES ";
    for (int k = 0; k < 64; ++k) {
      if (k > 0) ins += ", ";
      ins += "(" + std::to_string(k) + ", " + std::to_string(k % 8) + ", " +
             std::to_string(k % 2) + ")";
    }
    Exec(ins);
  }

  std::string ExplainText(const std::string& select) {
    StatementResult r = Exec("EXPLAIN " + select);
    EXPECT_TRUE(r.has_rows);
    std::string out;
    for (const Row& row : r.rows) {
      out += row[0].AsString();
      out += "\n";
    }
    return out;
  }

  /// Runs `sql` with the planner on and off; the result rows must agree
  /// cell for cell.
  void ExpectSameRows(const std::string& sql) {
    db_->set_index_planner(true);
    std::vector<Row> on = Exec(sql).rows;
    db_->set_index_planner(false);
    std::vector<Row> off = Exec(sql).rows;
    db_->set_index_planner(true);
    ASSERT_EQ(on.size(), off.size()) << sql;
    for (size_t i = 0; i < on.size(); ++i) {
      ASSERT_EQ(on[i].size(), off[i].size()) << sql;
      for (size_t j = 0; j < on[i].size(); ++j) {
        EXPECT_EQ(on[i][j].Compare(off[i][j]), 0)
            << sql << " row " << i << " col " << j;
      }
    }
  }

  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

// ---- Plan selection (EXPLAIN) -------------------------------------------

TEST_F(PlannerTest, ExplainPointQueryPicksSecondaryIndex) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  std::string plan = ExplainText("SELECT K FROM T WHERE V = 3");
  EXPECT_NE(plan.find("INDEX EQ IV"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainPkRangePicksPrimary) {
  SeedT();
  std::string plan =
      ExplainText("SELECT K FROM T WHERE K >= 10 AND K <= 20");
  EXPECT_NE(plan.find("INDEX RANGE PRIMARY"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainPkPointPicksPrimaryEq) {
  SeedT();
  std::string plan = ExplainText("SELECT V FROM T WHERE K = 17");
  EXPECT_NE(plan.find("INDEX EQ PRIMARY"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainNonSelectivePredicateStaysSequential) {
  SeedT();
  Exec("CREATE INDEX IW ON T (W)");  // 2 distinct values over 64 rows
  std::string plan = ExplainText("SELECT K FROM T WHERE W = 1");
  EXPECT_NE(plan.find("SEQ SCAN"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainSmallTableStaysSequential) {
  Exec("CREATE TABLE S (K INTEGER PRIMARY KEY, V INTEGER)");
  Exec("INSERT INTO S VALUES (1, 1), (2, 2), (3, 3)");
  Exec("CREATE INDEX SV ON S (V)");
  std::string plan = ExplainText("SELECT K FROM S WHERE V = 2");
  EXPECT_NE(plan.find("SEQ SCAN"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainPlannerOffReportsItself) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  db_->set_index_planner(false);
  std::string plan = ExplainText("SELECT K FROM T WHERE V = 3");
  EXPECT_NE(plan.find("planner: off"), std::string::npos) << plan;
  EXPECT_NE(plan.find("SEQ SCAN"), std::string::npos) << plan;
  db_->set_index_planner(true);
}

TEST_F(PlannerTest, ExplainOrderByIndexedColumn) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  std::string plan = ExplainText("SELECT V FROM T ORDER BY V");
  EXPECT_NE(plan.find("order by: INDEX IV"), std::string::npos) << plan;
  std::string desc = ExplainText("SELECT V FROM T ORDER BY V DESC");
  EXPECT_NE(desc.find("order by: INDEX IV DESC"), std::string::npos) << desc;
}

TEST_F(PlannerTest, ExplainJoinPicksIndexNestedLoopOnPk) {
  Exec("CREATE TABLE L (ID INTEGER PRIMARY KEY, RK INTEGER)");
  Exec("CREATE TABLE R (K INTEGER PRIMARY KEY, P INTEGER)");
  std::string insl = "INSERT INTO L VALUES ";
  for (int i = 0; i < 16; ++i) {
    if (i > 0) insl += ", ";
    insl += "(" + std::to_string(i) + ", " + std::to_string(i * 16) + ")";
  }
  Exec(insl);
  std::string insr = "INSERT INTO R VALUES ";
  for (int i = 0; i < 256; ++i) {
    if (i > 0) insr += ", ";
    insr += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  Exec(insr);
  std::string plan =
      ExplainText("SELECT L.ID, R.P FROM L, R WHERE L.RK = R.K");
  EXPECT_NE(plan.find("INDEX NESTED LOOP (PRIMARY)"), std::string::npos)
      << plan;
  // And the join actually produces the right rows both ways.
  ExpectSameRows("SELECT L.ID, R.P FROM L, R WHERE L.RK = R.K ORDER BY L.ID");
}

TEST_F(PlannerTest, ExplainErrorsLikeSelectOnMissingTable) {
  EXPECT_EQ(TryExec("EXPLAIN SELECT * FROM NOPE").code(),
            StatusCode::kSqlError);
}

// ---- Execution equivalence ----------------------------------------------

TEST_F(PlannerTest, ResultsMatchWithPlannerOnAndOff) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  ExpectSameRows("SELECT K FROM T WHERE V = 3");
  ExpectSameRows("SELECT K FROM T WHERE V = 3 AND K > 20");
  ExpectSameRows("SELECT K FROM T WHERE K BETWEEN 5 AND 25");
  ExpectSameRows("SELECT K FROM T WHERE K = 41");
  ExpectSameRows("SELECT K FROM T WHERE V = 99");       // no match
  ExpectSameRows("SELECT K FROM T WHERE V = NULL");     // never true
  ExpectSameRows("SELECT K, V FROM T ORDER BY V, K");
  ExpectSameRows("SELECT K FROM T ORDER BY K DESC");
  ExpectSameRows("SELECT V, COUNT(*) AS N FROM T WHERE V >= 2 "
                 "GROUP BY V ORDER BY V");
}

TEST_F(PlannerTest, OrderByIndexReturnsSortedRows) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  StatementResult r = Exec("SELECT V FROM T ORDER BY V");
  ASSERT_EQ(r.rows.size(), 64u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][0].AsInt64(), r.rows[i][0].AsInt64());
  }
  StatementResult d = Exec("SELECT V FROM T ORDER BY V DESC");
  for (size_t i = 1; i < d.rows.size(); ++i) {
    EXPECT_GE(d.rows[i - 1][0].AsInt64(), d.rows[i][0].AsInt64());
  }
}

TEST_F(PlannerTest, IndexScanHonorsCrossTypeComparisons) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  // A double literal probing an integer index must agree with the filter.
  ExpectSameRows("SELECT K FROM T WHERE V = 3.0");
  ExpectSameRows("SELECT K FROM T WHERE V > 5.5");
}

// ---- Index maintenance through every mutation path ----------------------

TEST_F(PlannerTest, IndexMaintainedAcrossInsertUpdateDelete) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("INSERT INTO T VALUES (100, 7, 0)");
  Exec("UPDATE T SET V = 5 WHERE K = 100");
  Exec("UPDATE T SET V = 6 WHERE V = 2");  // moves eight rids between keys
  Exec("DELETE FROM T WHERE V = 6");
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(IndexesConsistent(*t));
  // Probe through the index after the churn.
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE V = 5").rows[0][0]
                .AsInt64(),
            9);  // eight seeded (K%8==5) plus the updated K=100
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE V = 6").rows[0][0]
                .AsInt64(),
            0);
}

TEST_F(PlannerTest, RollbackRestoresIndexEntries) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (200, 3, 0)");
  Exec("UPDATE T SET V = 0 WHERE V = 3");
  Exec("DELETE FROM T WHERE V = 1");
  Exec("ROLLBACK");
  const storage::Table* t = db_->store()->Get("T");
  EXPECT_TRUE(IndexesConsistent(*t));
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE V = 3").rows[0][0]
                .AsInt64(),
            8);
}

TEST_F(PlannerTest, CreateIndexRollsBack) {
  SeedT();
  Exec("BEGIN");
  Exec("CREATE INDEX IV ON T (V)");
  EXPECT_NE(db_->store()->Get("T")->FindIndex("IV"), nullptr);
  Exec("ROLLBACK");
  EXPECT_EQ(db_->store()->Get("T")->FindIndex("IV"), nullptr);
}

TEST_F(PlannerTest, DropIndexRollsBackWithEntriesRebuilt) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("BEGIN");
  Exec("DROP INDEX IV ON T");
  EXPECT_EQ(db_->store()->Get("T")->FindIndex("IV"), nullptr);
  Exec("ROLLBACK");
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_NE(t->FindIndex("IV"), nullptr);
  EXPECT_TRUE(IndexesConsistent(*t));
}

TEST_F(PlannerTest, DropIndexRollbackRestoresPosition) {
  // Regression: rolling back a DROP INDEX used to re-append the index at
  // the tail of the table's index list instead of its original slot. Two
  // indexes over the same column have identical cost, and the planner
  // breaks the tie by list position — so the rollback silently changed
  // which index EXPLAIN picks. The undo record now carries the slot.
  SeedT();
  Exec("CREATE INDEX IA ON T (V)");
  Exec("CREATE INDEX IB ON T (V)");
  std::string before = ExplainText("SELECT K FROM T WHERE V = 3");
  EXPECT_NE(before.find("INDEX EQ IA"), std::string::npos) << before;
  Exec("BEGIN");
  Exec("DROP INDEX IA ON T");
  std::string during = ExplainText("SELECT K FROM T WHERE V = 3");
  EXPECT_NE(during.find("INDEX EQ IB"), std::string::npos) << during;
  Exec("ROLLBACK");
  std::string after = ExplainText("SELECT K FROM T WHERE V = 3");
  EXPECT_NE(after.find("INDEX EQ IA"), std::string::npos) << after;
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_EQ(t->indexes().size(), 2u);
  EXPECT_EQ(t->indexes()[0].name, "IA");
  EXPECT_TRUE(IndexesConsistent(*t));
}

TEST_F(PlannerTest, DropTableRollbackRestoresIndexDefinitions) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("BEGIN");
  Exec("DROP TABLE T");
  Exec("ROLLBACK");
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->FindIndex("IV"), nullptr);
  EXPECT_TRUE(IndexesConsistent(*t));
}

// ---- DDL surface / errors -----------------------------------------------

TEST_F(PlannerTest, CreateIndexValidation) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  EXPECT_EQ(TryExec("CREATE INDEX IV ON T (W)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(TryExec("CREATE INDEX IX ON T (NOPE)").code(),
            StatusCode::kSqlError);
  EXPECT_EQ(TryExec("CREATE INDEX IX ON NOPE (V)").code(),
            StatusCode::kSqlError);
  EXPECT_EQ(TryExec("DROP INDEX MISSING ON T").code(),
            StatusCode::kSqlError);
  EXPECT_TRUE(TryExec("DROP INDEX IF EXISTS MISSING ON T").ok());
  EXPECT_TRUE(TryExec("DROP INDEX IV ON T").ok());
  EXPECT_EQ(db_->store()->Get("T")->FindIndex("IV"), nullptr);
}

TEST_F(PlannerTest, MultiColumnIndexPrefixQueries) {
  SeedT();
  Exec("CREATE INDEX IVW ON T (V, W)");
  std::string plan = ExplainText("SELECT K FROM T WHERE V = 3 AND W = 1");
  EXPECT_NE(plan.find("INDEX EQ IVW"), std::string::npos) << plan;
  ExpectSameRows("SELECT K FROM T WHERE V = 3 AND W = 1");
  ExpectSameRows("SELECT K FROM T WHERE V = 3");  // prefix only
  const storage::Table* t = db_->store()->Get("T");
  EXPECT_TRUE(IndexesConsistent(*t));
}

// ---- Recovery: WAL replay and checkpoint images -------------------------

TEST_F(PlannerTest, IndexDdlReplayedFromWal) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("INSERT INTO T VALUES (300, 4, 0)");
  CrashAndRestart();
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->FindIndex("IV"), nullptr);
  EXPECT_TRUE(IndexesConsistent(*t));
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE V = 4").rows[0][0]
                .AsInt64(),
            9);
}

TEST_F(PlannerTest, DropIndexReplayedFromWal) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  Exec("DROP INDEX IV ON T");
  CrashAndRestart();
  EXPECT_EQ(db_->store()->Get("T")->FindIndex("IV"), nullptr);
}

TEST_F(PlannerTest, IndexSurvivesCheckpointImage) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec("INSERT INTO T VALUES (400, 2, 0)");  // post-image WAL tail
  CrashAndRestart();
  const storage::Table* t = db_->store()->Get("T");
  ASSERT_NE(t->FindIndex("IV"), nullptr);
  EXPECT_TRUE(IndexesConsistent(*t));
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE V = 2").rows[0][0]
                .AsInt64(),
            9);
}

TEST_F(PlannerTest, V2CheckpointImageStillAccepted) {
  Exec("CREATE TABLE T2 (K INTEGER PRIMARY KEY, V INTEGER)");
  Exec("INSERT INTO T2 VALUES (1, 10), (2, 20)");
  // Hand-craft a pre-index (v2) image: same header, tables without index
  // definitions. The fence covers the whole WAL so nothing is replayed.
  uint64_t fence = db_->durability()->wal_writer()->last_assigned_lsn();
  Encoder enc;
  enc.PutU32(0x50485843);  // "PHXC"
  enc.PutU32(2);
  enc.PutU64(100);  // next_txn_id
  enc.PutU64(fence);
  enc.PutU32(1);
  db_->store()->Get("T2")->EncodeSnapshot(&enc, /*with_indexes=*/false);
  std::string file = db_->durability()->ckpt_file();
  ASSERT_TRUE(disk_.WriteAtomic(file, enc.Take()).ok());
  CrashAndRestart();
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T2").rows[0][0].AsInt64(), 2);
  EXPECT_TRUE(db_->store()->Get("T2")->indexes().empty());
}

// ---- Keyset cursors through the planner ---------------------------------

TEST_F(PlannerTest, KeysetCursorUsesIndexAndKeepsPkOrder) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  auto cur = db_->OpenCursor(sid_, "SELECT K, V FROM T WHERE V = 3",
                             CursorType::kKeyset);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  bool done = false;
  auto rows = db_->FetchCursor(sid_, (*cur)->id(), 100, &done);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 8u);
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i][0].AsInt64(), static_cast<int64_t>(i * 8 + 3));
    EXPECT_EQ((*rows)[i][1].AsInt64(), 3);
  }
}

}  // namespace
}  // namespace phoenix::eng
