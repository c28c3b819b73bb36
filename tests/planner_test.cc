// Ordered secondary indexes + the cost-aware access-path planner: plan
// selection (asserted through EXPLAIN), result equivalence with the planner
// on and off for SELECT and for UPDATE/DELETE (down to the WAL bytes), the
// rows a keyed UPDATE/DELETE examines, index maintenance through
// DML/rollback/DDL-undo, recovery of index definitions from the WAL and
// from v3 checkpoint images, and backward acceptance of pre-index (v2)
// images.

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace phoenix::eng {
namespace {

bool SameKey(const Row& a, const Row& b) {
  storage::RowLess lt;
  return !lt(a, b) && !lt(b, a);
}

/// The index-consistency oracle: the PK index and every secondary index's
/// entry tree must equal the tree rebuilt from the base rows.
testing::AssertionResult IndexesConsistent(const storage::Table& t) {
  if (!t.pk_columns().empty()) {
    if (t.pk_index().size() != t.num_rows()) {
      return testing::AssertionFailure()
             << "PK index has " << t.pk_index().size() << " keys for "
             << t.num_rows() << " rows";
    }
    for (const auto& [rid, row] : t.rows()) {
      auto it = t.pk_index().find(storage::Table::KeyFor(t.pk_columns(), row));
      if (it == t.pk_index().end() || it->second != rid) {
        return testing::AssertionFailure()
               << "PK index diverges from its base rows at rid " << rid;
      }
    }
  }
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

TEST_F(PlannerTest, ExplainDmlReportsThePlanItRuns) {
  SeedT();
  Exec("CREATE INDEX IV ON T (V)");
  EXPECT_NE(ExplainText("UPDATE T SET W = 0 WHERE K = 1")
                .find("UPDATE T: INDEX EQ PRIMARY"),
            std::string::npos);
  EXPECT_NE(ExplainText("DELETE FROM T WHERE V = 3")
                .find("DELETE T: INDEX EQ IV"),
            std::string::npos);
  EXPECT_NE(ExplainText("DELETE FROM T WHERE K BETWEEN 3 AND 9")
                .find("INDEX RANGE PRIMARY"),
            std::string::npos);
  EXPECT_NE(ExplainText("UPDATE T SET W = 0 WHERE W = 1").find("SEQ SCAN"),
            std::string::npos);
  EXPECT_NE(ExplainText("DELETE FROM T").find("SEQ SCAN"), std::string::npos);

  db_->set_index_planner(false);
  std::string off = ExplainText("UPDATE T SET W = 0 WHERE K = 1");
  EXPECT_NE(off.find("planner: off"), std::string::npos) << off;
  EXPECT_NE(off.find("UPDATE T: SEQ SCAN"), std::string::npos) << off;
  db_->set_index_planner(true);

  Exec("CREATE TABLE S (K INTEGER PRIMARY KEY, V INTEGER)");
  Exec("INSERT INTO S VALUES (1, 1), (2, 2), (3, 3)");
  EXPECT_NE(ExplainText("UPDATE S SET V = 0 WHERE K = 1").find("SEQ SCAN"),
            std::string::npos);

  // None of the explained statements ran.
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T WHERE W = 0").rows[0][0]
                .AsInt64(),
            32);
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM S WHERE V = 0").rows[0][0]
                .AsInt64(),
            0);
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

/// A seeded random script of UPDATE/DELETE/INSERT over T (K primary key,
/// V indexed with duplicate keys and NULLs, W unindexed), with statements
/// grouped into BEGIN..ROLLBACK and BEGIN..COMMIT blocks. Every WHERE shape
/// the planner can turn into an index probe appears, next to shapes it must
/// leave to the filter.
std::vector<std::string> RandomDmlScript(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto num = [](int v) { return std::to_string(v); };
  std::vector<std::string> script;
  int txn_left = 0;  // statements until the open block ends; 0 = autocommit
  for (int i = 0; i < n; ++i) {
    if (txn_left == 0 && pick(0, 9) == 0) {
      script.push_back("BEGIN");
      txn_left = pick(2, 8);
    }
    std::string k = num(pick(0, 249));
    int a = pick(0, 240);
    std::string lo = num(a), hi = num(a + pick(0, 12));
    int vi = pick(0, 18);
    std::string v = num(vi);
    switch (pick(0, 17)) {
      case 0:
        script.push_back("UPDATE T SET W = W + 1 WHERE K = " + k);
        break;
      case 1:  // flipped operands
        script.push_back("UPDATE T SET W = W + 2 WHERE " + k + " = K");
        break;
      case 2:  // a double probing the integer PK
        script.push_back("UPDATE T SET W = 7 WHERE K = " + k + ".0");
        break;
      case 3: script.push_back("DELETE FROM T WHERE K = " + k); break;
      case 4: script.push_back("UPDATE T SET W = 0 WHERE K = NULL"); break;
      case 5:
        script.push_back("UPDATE T SET W = W * 2 WHERE K >= " + lo +
                         " AND K < " + hi);
        break;
      case 6:
        script.push_back("DELETE FROM T WHERE K BETWEEN " + lo + " AND " + hi);
        break;
      case 7: script.push_back("UPDATE T SET W = W - 1 WHERE V = " + v); break;
      case 8:
        script.push_back("DELETE FROM T WHERE V = " + v + " AND W > 3");
        break;
      case 9:
        script.push_back("UPDATE T SET V = V + 1 WHERE V > " + v +
                         " AND V <= " + num(vi + 2));
        break;
      case 10:
        script.push_back("UPDATE T SET V = NULL WHERE K = " + k +
                         " AND W % 2 = 0");
        break;
      case 11:  // a key no statement creates
        script.push_back("DELETE FROM T WHERE K = -1" + k);
        break;
      case 12:
        script.push_back("UPDATE T SET K = K + 1000 WHERE K BETWEEN " + lo +
                         " AND " + hi);
        break;
      case 13:
        // Colliding unless the range is sparse: K = a moves onto a + 1.
        script.push_back("UPDATE T SET K = K + 1 WHERE K >= " + lo +
                         " AND K <= " + num(a + 5));
        break;
      case 14:
        script.push_back("INSERT INTO T VALUES (" + k + ", " + v + ", " +
                         num(pick(0, 9)) + ")");
        break;
      case 15:
        script.push_back("UPDATE T SET W = W + 1 WHERE V = NULL");
        break;
      case 16:  // fails on the first row the WHERE is evaluated on
        script.push_back("DELETE FROM T WHERE NOSUCH = 1 AND K = " + k);
        break;
      default:
        script.push_back("UPDATE T SET W = W + 3 WHERE K < " + lo +
                         " AND V >= " + v);
        break;
    }
    if (txn_left > 0 && --txn_left == 0) {
      script.push_back(pick(0, 3) == 0 ? "COMMIT" : "ROLLBACK");
    }
  }
  if (txn_left > 0) script.push_back("ROLLBACK");
  return script;
}

uint64_t DmlRowsExamined() {
  return obs::MetricsRegistry::Default()
      ->GetCounter("engine.dml.rows_examined")
      ->Value();
}

// UPDATE/DELETE pick their rows through the planner; with it off they scan
// the heap. Both must affect the same rows, fail the same statements and
// log byte-identical WALs — candidates are applied in RowId order, the
// order of the heap scan.
TEST(PlannerDmlTest, DifferentialAgainstPlannerOffDownToWalBytes) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    storage::SimDisk disk_on, disk_off;
    Database on(&disk_on), off(&disk_off);
    ASSERT_TRUE(on.Open().ok());
    ASSERT_TRUE(off.Open().ok());
    off.set_index_planner(false);
    uint64_t sid_on = *on.CreateSession("t");
    uint64_t sid_off = *off.CreateSession("t");

    std::vector<std::string> script = {
        "CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER, W INTEGER)",
        "CREATE INDEX IV ON T (V)"};
    std::string ins = "INSERT INTO T VALUES ";
    for (int k = 0; k < 200; ++k) {
      if (k > 0) ins += ", ";
      ins += "(" + std::to_string(k) + ", " +
             (k % 23 == 0 ? "NULL" : std::to_string(k % 17)) + ", " +
             std::to_string(k % 5) + ")";
    }
    script.push_back(ins);
    for (std::string& sql : RandomDmlScript(seed, 300)) {
      script.push_back(std::move(sql));
    }

    uint64_t examined_on = 0, examined_off = 0;
    int failures = 0;
    for (const std::string& sql : script) {
      uint64_t before = DmlRowsExamined();
      auto r_on = on.ExecuteScript(sid_on, sql);
      uint64_t mid = DmlRowsExamined();
      auto r_off = off.ExecuteScript(sid_off, sql);
      examined_on += mid - before;
      examined_off += DmlRowsExamined() - mid;
      ASSERT_EQ(r_on.status().ToString(), r_off.status().ToString()) << sql;
      if (!r_on.ok()) {
        ++failures;
        continue;
      }
      ASSERT_EQ(r_on->back().affected, r_off->back().affected) << sql;
      const storage::Table* t_on = on.store()->Get("T");
      ASSERT_NE(t_on, nullptr);
      ASSERT_TRUE(IndexesConsistent(*t_on)) << sql;
      ASSERT_TRUE(IndexesConsistent(*off.store()->Get("T"))) << sql;
    }
    // The script must exercise statement failure and the index path.
    EXPECT_GT(failures, 0);
    EXPECT_LT(examined_on * 4, examined_off);

    const storage::Table* t_on = on.store()->Get("T");
    const storage::Table* t_off = off.store()->Get("T");
    ASSERT_EQ(t_on->num_rows(), t_off->num_rows());
    auto it = t_off->rows().begin();
    for (const auto& [rid, row] : t_on->rows()) {
      ASSERT_EQ(rid, it->first);
      ASSERT_TRUE(SameKey(row, it->second)) << "rid " << rid;
      ++it;
    }
    auto wal_on = disk_on.Read("phxdb.wal");
    auto wal_off = disk_off.Read("phxdb.wal");
    ASSERT_TRUE(wal_on.ok());
    ASSERT_TRUE(wal_off.ok());
    EXPECT_GT(wal_on->size(), 0u);
    EXPECT_TRUE(*wal_on == *wal_off) << "WAL bytes differ";
  }
}

// A keyed UPDATE/DELETE examines only the rows its index probe yields; the
// counter pins that the executor takes the path EXPLAIN reports.
TEST_F(PlannerTest, KeyedDmlExaminesOnlyProbedRows) {
  Exec("CREATE TABLE KV (ID INTEGER PRIMARY KEY, VAL INTEGER)");
  std::string ins = "INSERT INTO KV VALUES ";
  for (int k = 0; k < 20000; ++k) {
    if (k > 0) ins += ", ";
    ins += "(" + std::to_string(k) + ", 0)";
  }
  Exec(ins);
  auto examined = [&](const std::string& sql, int64_t want_affected) {
    uint64_t before = DmlRowsExamined();
    EXPECT_EQ(Exec(sql).affected, want_affected) << sql;
    return DmlRowsExamined() - before;
  };
  const std::string upd = "UPDATE KV SET VAL = VAL + 1 WHERE ID = 12345";
  const std::string miss = "DELETE FROM KV WHERE ID = 20000";
  EXPECT_NE(ExplainText(upd).find("INDEX EQ PRIMARY"), std::string::npos);
  EXPECT_EQ(examined(upd, 1), 1u);
  EXPECT_EQ(examined(miss, 0), 0u);

  db_->set_index_planner(false);
  EXPECT_NE(ExplainText(upd).find("SEQ SCAN"), std::string::npos);
  EXPECT_EQ(examined(upd, 1), 20000u);
  EXPECT_EQ(examined(miss, 0), 20000u);
  db_->set_index_planner(true);
  EXPECT_EQ(Exec("SELECT VAL FROM KV WHERE ID = 12345").rows[0][0].AsInt64(),
            2);
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
