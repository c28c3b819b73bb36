// SQL executor semantics, tested directly against the engine (no network).

#include "engine/database.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(&disk_);
    ASSERT_TRUE(db_->Open().ok());
    auto sid = db_->CreateSession("tester");
    ASSERT_TRUE(sid.ok());
    sid_ = *sid;
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

  void MakeSample() {
    Exec("CREATE TABLE EMP (ID INTEGER PRIMARY KEY, NAME VARCHAR, "
         "DEPT VARCHAR, SALARY DOUBLE, HIRED DATE)");
    Exec("INSERT INTO EMP VALUES "
         "(1, 'ann', 'eng', 100.0, DATE '1990-01-05'), "
         "(2, 'bob', 'eng', 90.0, DATE '1992-07-20'), "
         "(3, 'cat', 'sales', 80.0, DATE '1991-03-14'), "
         "(4, 'dan', 'sales', 85.0, DATE '1995-11-30'), "
         "(5, 'eve', 'hr', 70.0, DATE '1993-06-01')");
  }

  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

TEST_F(ExecutorTest, SelectConstantNoFrom) {
  StatementResult r = Exec("SELECT 1 + 1 AS TWO, 'x' AS S");
  ASSERT_TRUE(r.has_rows);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.schema.column(0).name, "TWO");
}

TEST_F(ExecutorTest, WhereZeroEqualsOneYieldsEmptyWithMetadata) {
  MakeSample();
  StatementResult r = Exec("SELECT ID, NAME FROM EMP WHERE 0 = 1");
  ASSERT_TRUE(r.has_rows);
  EXPECT_TRUE(r.rows.empty());
  ASSERT_EQ(r.schema.num_columns(), 2u);
  EXPECT_EQ(r.schema.column(0).name, "ID");
  EXPECT_EQ(r.schema.column(0).type, DataType::kInt32);
  EXPECT_EQ(r.schema.column(1).type, DataType::kString);
}

TEST_F(ExecutorTest, SelectStar) {
  MakeSample();
  StatementResult r = Exec("SELECT * FROM EMP");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.schema.num_columns(), 5u);
}

TEST_F(ExecutorTest, FilterAndProjection) {
  MakeSample();
  StatementResult r =
      Exec("SELECT NAME, SALARY * 2 AS DOUBLE_PAY FROM EMP WHERE DEPT = 'eng'"
           " ORDER BY ID");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 200.0);
}

TEST_F(ExecutorTest, OrderByMultiKeyWithDesc) {
  MakeSample();
  StatementResult r = Exec("SELECT NAME FROM EMP ORDER BY DEPT, SALARY DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");   // eng 100
  EXPECT_EQ(r.rows[1][0].AsString(), "bob");   // eng 90
  EXPECT_EQ(r.rows[2][0].AsString(), "eve");   // hr 70
  EXPECT_EQ(r.rows[3][0].AsString(), "dan");   // sales 85
  EXPECT_EQ(r.rows[4][0].AsString(), "cat");   // sales 80
}

TEST_F(ExecutorTest, OrderByAliasAndHiddenColumn) {
  MakeSample();
  // ORDER BY an output alias.
  StatementResult by_alias =
      Exec("SELECT NAME, SALARY AS PAY FROM EMP ORDER BY PAY DESC LIMIT 1");
  EXPECT_EQ(by_alias.rows[0][0].AsString(), "ann");
  // ORDER BY a column that is not projected.
  StatementResult hidden = Exec("SELECT NAME FROM EMP ORDER BY HIRED");
  EXPECT_EQ(hidden.rows[0][0].AsString(), "ann");
  EXPECT_EQ(hidden.rows[4][0].AsString(), "dan");
}

TEST_F(ExecutorTest, LimitAndDistinct) {
  MakeSample();
  EXPECT_EQ(Exec("SELECT NAME FROM EMP LIMIT 3").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT DISTINCT DEPT FROM EMP").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT NAME FROM EMP LIMIT 0").rows.size(), 0u);
}

TEST_F(ExecutorTest, LimitStopsTheScanOnlyWhereNoLaterStageNeedsTheRest) {
  Exec("CREATE TABLE N (K INTEGER PRIMARY KEY, V INTEGER)");
  std::string values;
  for (int k = 1; k <= 100; ++k) {
    if (k > 1) values += ", ";
    values += "(" + std::to_string(k) + ", " + std::to_string((k * 37) % 11) +
              ")";
  }
  Exec("INSERT INTO N VALUES " + values);
  // Every LIMIT returns the first rows of the same query without it.
  const std::pair<const char*, int> kCases[] = {
      {"SELECT K, V FROM N", 5},
      {"SELECT K, V FROM N WHERE K >= 40 ORDER BY K", 5},
      {"SELECT K, V FROM N WHERE K >= 40 ORDER BY K DESC", 5},
      {"SELECT K, V FROM N WHERE V > 3", 4},
      {"SELECT K, V FROM N ORDER BY V, K", 6},
      {"SELECT DISTINCT V FROM N", 3},
      {"SELECT V, COUNT(*) AS C FROM N GROUP BY V ORDER BY V", 2},
  };
  auto check_prefixes = [&] {
    for (const auto& [sql, n] : kCases) {
      StatementResult all = Exec(sql);
      StatementResult some = Exec(std::string(sql) + " LIMIT " +
                                  std::to_string(n));
      ASSERT_EQ(some.rows.size(), static_cast<size_t>(n)) << sql;
      for (int i = 0; i < n; ++i) {
        for (size_t c = 0; c < all.rows[i].size(); ++c) {
          EXPECT_EQ(some.rows[i][c].Compare(all.rows[i][c]), 0)
              << sql << " row " << i;
        }
      }
    }
  };
  check_prefixes();
  // Again while another session holds a pending write, so reads resolve
  // through the version chains.
  auto other = db_->CreateSession("writer");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(db_->ExecuteScript(*other, "BEGIN TRANSACTION; "
                                         "UPDATE N SET V = 99 WHERE K = 42")
                  .ok());
  check_prefixes();
  ASSERT_TRUE(db_->ExecuteScript(*other, "ROLLBACK").ok());

  // Rows past the LIMIT of a scan in final order are never evaluated...
  StatementResult early =
      Exec("SELECT K, 10 / (K - 50) AS Q FROM N WHERE K >= 40 ORDER BY K "
           "LIMIT 5");
  ASSERT_EQ(early.rows.size(), 5u);
  EXPECT_EQ(early.rows[4][0].AsInt64(), 44);
  // ...but a sort needs every row, so its projection still meets K = 50.
  EXPECT_FALSE(
      TryExec("SELECT K, 10 / (K - 50) AS Q FROM N ORDER BY V LIMIT 5").ok());
}

TEST_F(ExecutorTest, Aggregates) {
  MakeSample();
  StatementResult r = Exec(
      "SELECT COUNT(*) AS N, SUM(SALARY) AS S, AVG(SALARY) AS A, "
      "MIN(SALARY) AS LO, MAX(SALARY) AS HI FROM EMP");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 425.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 85.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 70.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 100.0);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  MakeSample();
  StatementResult r =
      Exec("SELECT COUNT(*) AS N, SUM(SALARY) AS S FROM EMP WHERE ID > 99");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  MakeSample();
  StatementResult r = Exec(
      "SELECT DEPT, COUNT(*) AS N, SUM(SALARY) AS S FROM EMP "
      "GROUP BY DEPT HAVING COUNT(*) > 1 ORDER BY DEPT");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 2);
  EXPECT_EQ(r.rows[1][0].AsString(), "sales");
  EXPECT_DOUBLE_EQ(r.rows[1][2].AsDouble(), 165.0);
}

TEST_F(ExecutorTest, OrderByAggregate) {
  MakeSample();
  StatementResult r = Exec(
      "SELECT DEPT FROM EMP GROUP BY DEPT ORDER BY SUM(SALARY) DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");    // 190
  EXPECT_EQ(r.rows[1][0].AsString(), "sales");  // 165
  EXPECT_EQ(r.rows[2][0].AsString(), "hr");     // 70
}

TEST_F(ExecutorTest, CountDistinct) {
  MakeSample();
  StatementResult r = Exec("SELECT COUNT(DISTINCT DEPT) AS N FROM EMP");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
}

TEST_F(ExecutorTest, JoinCommaStyle) {
  MakeSample();
  Exec("CREATE TABLE DEPT_INFO (DEPT VARCHAR PRIMARY KEY, FLOOR INTEGER)");
  Exec("INSERT INTO DEPT_INFO VALUES ('eng', 3), ('sales', 1), ('hr', 2)");
  StatementResult r = Exec(
      "SELECT E.NAME, D.FLOOR FROM EMP E, DEPT_INFO D "
      "WHERE E.DEPT = D.DEPT AND D.FLOOR > 1 ORDER BY E.ID");
  ASSERT_EQ(r.rows.size(), 3u);  // ann, bob (floor 3), eve (floor 2)
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[2][0].AsString(), "eve");
}

TEST_F(ExecutorTest, JoinExplicitSyntax) {
  MakeSample();
  Exec("CREATE TABLE DEPT_INFO (DEPT VARCHAR PRIMARY KEY, FLOOR INTEGER)");
  Exec("INSERT INTO DEPT_INFO VALUES ('eng', 3), ('sales', 1), ('hr', 2)");
  StatementResult r = Exec(
      "SELECT E.NAME FROM EMP E JOIN DEPT_INFO D ON E.DEPT = D.DEPT "
      "WHERE D.FLOOR = 3 ORDER BY E.NAME");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  MakeSample();
  Exec("CREATE TABLE DEPT_INFO (DEPT VARCHAR PRIMARY KEY, FLOOR INTEGER)");
  Exec("INSERT INTO DEPT_INFO VALUES ('eng', 3), ('sales', 1), ('hr', 2)");
  Exec("CREATE TABLE FLOOR_INFO (FLOOR INTEGER PRIMARY KEY, CITY VARCHAR)");
  Exec("INSERT INTO FLOOR_INFO VALUES (1, 'nyc'), (2, 'sea'), (3, 'sfo')");
  StatementResult r = Exec(
      "SELECT E.NAME, F.CITY FROM EMP E, DEPT_INFO D, FLOOR_INFO F "
      "WHERE E.DEPT = D.DEPT AND D.FLOOR = F.FLOOR AND E.SALARY >= 85 "
      "ORDER BY E.ID");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsString(), "sfo");  // ann/eng/floor3
  EXPECT_EQ(r.rows[2][1].AsString(), "nyc");  // dan/sales/floor1
}

TEST_F(ExecutorTest, CrossJoinWhenNoEquiPredicate) {
  Exec("CREATE TABLE A (X INTEGER)");
  Exec("CREATE TABLE B (Y INTEGER)");
  Exec("INSERT INTO A VALUES (1), (2)");
  Exec("INSERT INTO B VALUES (10), (20), (30)");
  StatementResult r = Exec("SELECT X, Y FROM A, B ORDER BY X, Y");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(ExecutorTest, SingleTableWhereWithUnknownColumnIsAnError) {
  // Regression: the single-table scan used to drop a conjunct it could not
  // resolve and return every row; it must fail like the two-table form.
  MakeSample();
  for (const char* sql :
       {"SELECT ID FROM EMP WHERE NOSUCH = 1",
        "SELECT ID FROM EMP WHERE Z.ID = 1",
        "SELECT ID FROM EMP WHERE ID = 1 AND NOSUCH = 2",
        "SELECT COUNT(*) AS N FROM EMP WHERE NOSUCH = 1",
        "SELECT ID FROM EMP WHERE NOSUCH = 1 ORDER BY ID LIMIT 2"}) {
    Status st = TryExec(sql);
    EXPECT_EQ(st.code(), StatusCode::kSqlError) << sql << " -> "
                                                 << st.ToString();
  }
  // Qualified references that do resolve still filter.
  EXPECT_EQ(Exec("SELECT ID FROM EMP WHERE EMP.ID = 2").rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT ID FROM EMP E WHERE E.DEPT = 'eng'").rows.size(), 2u);
}

TEST_F(ExecutorTest, SelfJoinWithAliases) {
  MakeSample();
  StatementResult r = Exec(
      "SELECT A.NAME, B.NAME FROM EMP A, EMP B "
      "WHERE A.DEPT = B.DEPT AND A.ID < B.ID ORDER BY A.ID");
  ASSERT_EQ(r.rows.size(), 2u);  // (ann,bob), (cat,dan)
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_EQ(r.rows[0][1].AsString(), "bob");
}

TEST_F(ExecutorTest, InsertWithColumnList) {
  MakeSample();
  StatementResult r =
      Exec("INSERT INTO EMP (ID, NAME, DEPT, SALARY, HIRED) "
           "VALUES (6, 'fred', 'eng', 95.5, DATE '1999-01-01')");
  EXPECT_EQ(r.affected, 1);
  // Partial column list: unlisted nullable columns become NULL.
  Exec("CREATE TABLE SPARSE (A INTEGER, B VARCHAR, C DOUBLE)");
  Exec("INSERT INTO SPARSE (A) VALUES (1)");
  StatementResult check = Exec("SELECT B, C FROM SPARSE");
  EXPECT_TRUE(check.rows[0][0].is_null());
  EXPECT_TRUE(check.rows[0][1].is_null());
}

TEST_F(ExecutorTest, InsertSelect) {
  MakeSample();
  Exec("CREATE TABLE ENG (ID INTEGER, NAME VARCHAR)");
  StatementResult r =
      Exec("INSERT INTO ENG SELECT ID, NAME FROM EMP WHERE DEPT = 'eng'");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(Exec("SELECT * FROM ENG").rows.size(), 2u);
}

TEST_F(ExecutorTest, SelectInto) {
  MakeSample();
  StatementResult r =
      Exec("SELECT ID, NAME INTO COPYCAT FROM EMP WHERE SALARY > 80");
  EXPECT_EQ(r.affected, 3);
  StatementResult check = Exec("SELECT * FROM COPYCAT ORDER BY ID");
  EXPECT_EQ(check.rows.size(), 3u);
  EXPECT_EQ(check.schema.column(1).name, "NAME");
}

TEST_F(ExecutorTest, UpdateSeesOldValuesInRhs) {
  Exec("CREATE TABLE P (A INTEGER, B INTEGER)");
  Exec("INSERT INTO P VALUES (1, 10)");
  // Both assignments must read the pre-update row.
  Exec("UPDATE P SET A = B, B = A");
  StatementResult r = Exec("SELECT A, B FROM P");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
}

TEST_F(ExecutorTest, UpdateWithWhereCountsAffected) {
  MakeSample();
  StatementResult r =
      Exec("UPDATE EMP SET SALARY = SALARY + 5 WHERE DEPT = 'sales'");
  EXPECT_EQ(r.affected, 2);
  StatementResult check =
      Exec("SELECT SUM(SALARY) AS S FROM EMP WHERE DEPT = 'sales'");
  EXPECT_DOUBLE_EQ(check.rows[0][0].AsDouble(), 175.0);
}

TEST_F(ExecutorTest, DeleteCountsAffected) {
  MakeSample();
  EXPECT_EQ(Exec("DELETE FROM EMP WHERE SALARY < 85").affected, 2);
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM EMP").rows[0][0].AsInt64(), 3);
  EXPECT_EQ(Exec("DELETE FROM EMP").affected, 3);
}

TEST_F(ExecutorTest, PrimaryKeyViolationRejectsStatementAtomically) {
  Exec("CREATE TABLE U (K INTEGER PRIMARY KEY)");
  Exec("INSERT INTO U VALUES (1)");
  // Multi-row insert where the third row collides: nothing must stick.
  Status st = TryExec("INSERT INTO U VALUES (2), (3), (1)");
  EXPECT_EQ(st.code(), StatusCode::kConstraint);
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM U").rows[0][0].AsInt64(), 1);
}

TEST_F(ExecutorTest, NotNullViolation) {
  Exec("CREATE TABLE NN (A INTEGER NOT NULL)");
  EXPECT_EQ(TryExec("INSERT INTO NN VALUES (NULL)").code(),
            StatusCode::kConstraint);
}

TEST_F(ExecutorTest, DdlErrors) {
  Exec("CREATE TABLE T1 (A INTEGER)");
  EXPECT_EQ(TryExec("CREATE TABLE T1 (A INTEGER)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(TryExec("DROP TABLE NOPE").code(), StatusCode::kSqlError);
  EXPECT_TRUE(TryExec("DROP TABLE IF EXISTS NOPE").ok());
  EXPECT_EQ(TryExec("SELECT * FROM NOPE").code(), StatusCode::kSqlError);
  EXPECT_EQ(TryExec("CREATE TABLE BADPK (A INTEGER, PRIMARY KEY (ZZZ))").code(),
            StatusCode::kSqlError);
}

TEST_F(ExecutorTest, StoredProcedureRoundTrip) {
  Exec("CREATE TABLE LOG_T (N INTEGER, WHO VARCHAR)");
  Exec("CREATE PROCEDURE ADD_LOG (@n INT, @who VARCHAR) AS "
       "INSERT INTO LOG_T VALUES (@n, @who)");
  StatementResult r = Exec("EXEC ADD_LOG(7, 'ann')");
  EXPECT_EQ(r.affected, 1);
  Exec("EXEC ADD_LOG(8, 'bob')");
  StatementResult check = Exec("SELECT N, WHO FROM LOG_T ORDER BY N");
  ASSERT_EQ(check.rows.size(), 2u);
  EXPECT_EQ(check.rows[1][1].AsString(), "bob");
}

TEST_F(ExecutorTest, ProcedureWithResultSetAndMultipleStatements) {
  Exec("CREATE TABLE T (A INTEGER)");
  Exec("CREATE PROCEDURE P (@x INT) AS BEGIN "
       "INSERT INTO T VALUES (@x); "
       "SELECT A FROM T ORDER BY A; "
       "INSERT INTO T VALUES (@x + 1); END");
  StatementResult r = Exec("EXEC P(10)");
  EXPECT_TRUE(r.has_rows);
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.affected, 2);  // two inserts
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM T").rows[0][0].AsInt64(), 2);
}

TEST_F(ExecutorTest, ProcedureErrors) {
  Exec("CREATE PROCEDURE P (@x INT) AS SELECT @x");
  EXPECT_EQ(TryExec("EXEC P(1, 2)").code(), StatusCode::kSqlError);
  EXPECT_EQ(TryExec("EXEC MISSING_PROC(1)").code(), StatusCode::kNotFound);
  EXPECT_EQ(TryExec("CREATE PROCEDURE P (@y INT) AS SELECT @y").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(TryExec("DROP PROCEDURE P").ok());
  EXPECT_EQ(TryExec("DROP PROCEDURE P").code(), StatusCode::kSqlError);
  EXPECT_TRUE(TryExec("DROP PROCEDURE IF EXISTS P").ok());
}

TEST_F(ExecutorTest, TransactionControlInsideProcedureRejected) {
  EXPECT_TRUE(TryExec("CREATE PROCEDURE BADP AS BEGIN "
                      "BEGIN TRANSACTION; COMMIT; END")
                  .ok());  // definition parses...
  EXPECT_EQ(TryExec("EXEC BADP").code(), StatusCode::kNotSupported);
}

TEST_F(ExecutorTest, ShowKeysAndTables) {
  MakeSample();
  StatementResult keys = Exec("SHOW KEYS EMP");
  ASSERT_EQ(keys.rows.size(), 1u);
  EXPECT_EQ(keys.rows[0][0].AsString(), "ID");
  Exec("CREATE TABLE NOPK (A INTEGER)");
  EXPECT_TRUE(Exec("SHOW KEYS NOPK").rows.empty());
  StatementResult tables = Exec("SHOW TABLES");
  EXPECT_GE(tables.rows.size(), 2u);
}

TEST_F(ExecutorTest, RowcountTracksLastDml) {
  Exec("CREATE TABLE T (A INTEGER)");
  Exec("INSERT INTO T VALUES (1), (2), (3)");
  StatementResult r = Exec("SELECT ROWCOUNT() AS N");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
  Exec("DELETE FROM T WHERE A > 1");
  EXPECT_EQ(Exec("SELECT ROWCOUNT() AS N").rows[0][0].AsInt64(), 2);
}

TEST_F(ExecutorTest, TempTableVisibleAndSessionScoped) {
  Exec("CREATE TEMPORARY TABLE SCRATCH (A INTEGER)");
  Exec("INSERT INTO SCRATCH VALUES (1)");
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM SCRATCH").rows[0][0].AsInt64(), 1);
  // Closing the session drops the temp table.
  ASSERT_TRUE(db_->CloseSession(sid_).ok());
  auto sid2 = db_->CreateSession("tester2");
  ASSERT_TRUE(sid2.ok());
  sid_ = *sid2;
  EXPECT_EQ(TryExec("SELECT * FROM SCRATCH").code(), StatusCode::kSqlError);
}

TEST_F(ExecutorTest, BatchExecutesInOrderAndStopsOnError) {
  auto r = db_->ExecuteScript(
      sid_, "CREATE TABLE B (A INTEGER); INSERT INTO B VALUES (1); "
            "SELECT A FROM B");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  EXPECT_TRUE(r->back().has_rows);
  // Error in the middle: earlier statements took effect, later never ran.
  auto bad = db_->ExecuteScript(
      sid_, "INSERT INTO B VALUES (2); SELECT * FROM NOPE; "
            "INSERT INTO B VALUES (3)");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) AS N FROM B").rows[0][0].AsInt64(), 2);
}

TEST_F(ExecutorTest, InPredicateAndLikeInQueries) {
  MakeSample();
  EXPECT_EQ(Exec("SELECT NAME FROM EMP WHERE DEPT IN ('eng', 'hr')")
                .rows.size(),
            3u);
  EXPECT_EQ(
      Exec("SELECT NAME FROM EMP WHERE NAME LIKE '%a%'").rows.size(),
      3u);  // ann, cat, dan
}

}  // namespace
}  // namespace phoenix::eng
