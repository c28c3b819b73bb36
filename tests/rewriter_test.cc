// Classifier and SQL-rewriter units: the paper's §3 tricks in isolation.

#include "core/rewriter.h"

#include "core/classifier.h"
#include "core/state_store.h"
#include "sql/parser.h"

#include "gtest/gtest.h"

namespace phoenix::core {
namespace {

std::unique_ptr<sql::SelectStmt> ParseSelect(const std::string& sql) {
  auto s = sql::Parser::ParseStatement(sql);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ((*s)->kind, sql::StmtKind::kSelect);
  return std::move((*s)->select);
}

RequestClass ClassOf(const std::string& sql) {
  auto c = Classify(sql);
  EXPECT_TRUE(c.ok()) << sql << ": " << c.status().ToString();
  return c.ok() ? c->cls : RequestClass::kPassthrough;
}

TEST(Classifier, AllClasses) {
  EXPECT_EQ(ClassOf("SELECT * FROM t"), RequestClass::kSelect);
  EXPECT_EQ(ClassOf("SELECT a INTO u FROM t"), RequestClass::kSelectInto);
  EXPECT_EQ(ClassOf("INSERT INTO t VALUES (1)"), RequestClass::kDml);
  EXPECT_EQ(ClassOf("UPDATE t SET a = 1"), RequestClass::kDml);
  EXPECT_EQ(ClassOf("DELETE FROM t"), RequestClass::kDml);
  EXPECT_EQ(ClassOf("CREATE TEMP TABLE t (a INT)"),
            RequestClass::kCreateTempTable);
  EXPECT_EQ(ClassOf("CREATE TABLE #t (a INT)"),
            RequestClass::kCreateTempTable);
  EXPECT_EQ(ClassOf("CREATE TABLE t (a INT)"), RequestClass::kPassthrough);
  EXPECT_EQ(ClassOf("CREATE TEMP PROCEDURE p AS SELECT 1"),
            RequestClass::kCreateTempProc);
  EXPECT_EQ(ClassOf("CREATE PROCEDURE p AS SELECT 1"),
            RequestClass::kPassthrough);
  EXPECT_EQ(ClassOf("DROP TABLE t"), RequestClass::kDropObject);
  EXPECT_EQ(ClassOf("DROP PROCEDURE p"), RequestClass::kDropObject);
  EXPECT_EQ(ClassOf("BEGIN TRANSACTION"), RequestClass::kBegin);
  EXPECT_EQ(ClassOf("COMMIT"), RequestClass::kCommit);
  EXPECT_EQ(ClassOf("ROLLBACK"), RequestClass::kRollback);
  EXPECT_EQ(ClassOf("SELECT 1; SELECT 2"), RequestClass::kBatch);
  EXPECT_EQ(ClassOf("SHOW TABLES"), RequestClass::kPassthrough);
  EXPECT_EQ(ClassOf("EXEC p(1)"), RequestClass::kPassthrough);
}

TEST(Classifier, ParseFailureReturnsError) {
  EXPECT_FALSE(Classify("NOT REALLY SQL").ok());
}

TEST(Rewriter, MetadataProbeForcesEmptyResult) {
  auto sel = ParseSelect("SELECT a, b FROM t WHERE a > 5 ORDER BY b LIMIT 3");
  auto probe = MakeMetadataProbe(*sel);
  std::string sql = probe->ToSql();
  EXPECT_NE(sql.find("(0 = 1)"), std::string::npos);
  EXPECT_NE(sql.find("a > 5"), std::string::npos);  // original kept (ANDed)
  EXPECT_EQ(sql.find("ORDER BY"), std::string::npos);
  EXPECT_EQ(sql.find("LIMIT"), std::string::npos);
}

TEST(Rewriter, MetadataProbeWithoutWhere) {
  auto sel = ParseSelect("SELECT a FROM t");
  std::string sql = MakeMetadataProbe(*sel)->ToSql();
  EXPECT_NE(sql.find("WHERE (0 = 1)"), std::string::npos);
}

TEST(Rewriter, CreateTableFromMetadataSanitizesNames) {
  Schema metadata;
  metadata.AddColumn(Column{"GOOD_NAME", DataType::kInt64, true});
  metadata.AddColumn(Column{"SUM(L_QTY)", DataType::kDouble, true});
  metadata.AddColumn(Column{"", DataType::kString, true});
  metadata.AddColumn(Column{"good_name", DataType::kDate, true});  // dup
  sql::CreateTableStmt ct = MakeCreateTableFromMetadata("PHX_RES_1", metadata);
  EXPECT_EQ(ct.table, "PHX_RES_1");
  EXPECT_FALSE(ct.temporary);
  ASSERT_EQ(ct.columns.size(), 4u);
  EXPECT_EQ(ct.columns[0].name, "GOOD_NAME");
  EXPECT_EQ(ct.columns[1].name, "SUML_QTY");
  EXPECT_EQ(ct.columns[2].name, "C3");
  EXPECT_EQ(ct.columns[3].name, "good_name_2");
  // The DDL must itself parse.
  EXPECT_TRUE(sql::Parser::ParseStatement(ct.ToSql()).ok());
}

TEST(Rewriter, FirstBlockProbeCapsTheLimitOneRowPastTheBlock) {
  auto sel = ParseSelect("SELECT a, b FROM t WHERE a > 1 ORDER BY b");
  auto probe = MakeFirstBlockProbe(*sel, 64);
  // The application's own query, ORDER BY and WHERE kept, LIMIT block + 1.
  EXPECT_EQ(probe->limit, 65);
  EXPECT_EQ(probe->order_by.size(), 1u);
  EXPECT_NE(probe->ToSql().find("a > 1"), std::string::npos);
  EXPECT_EQ(probe->ToSql().find("(0 = 1)"), std::string::npos);
  // An own LIMIT below the cap is kept; one above it is capped.
  EXPECT_EQ(MakeFirstBlockProbe(*ParseSelect("SELECT a FROM t LIMIT 10"), 64)
                ->limit,
            10);
  EXPECT_EQ(MakeFirstBlockProbe(*ParseSelect("SELECT a FROM t LIMIT 500"), 64)
                ->limit,
            65);
  // No overflow at the largest block size.
  EXPECT_EQ(MakeFirstBlockProbe(*sel, INT64_MAX)->limit, INT64_MAX);
  EXPECT_TRUE(sql::Parser::ParseStatement(probe->ToSql()).ok());
}

TEST(Rewriter, MaterializeScriptIsOneTransaction) {
  auto sel = ParseSelect("SELECT a, b FROM t WHERE a > 1 ORDER BY b LIMIT 5");
  std::string sql =
      MakeMaterializeScript(*sel, "PHX_RES_9", {"PHX_RES_7", "PHX_KEY_8"});
  auto stmts = sql::Parser::ParseScript(sql);
  ASSERT_TRUE(stmts.ok()) << sql;
  // No metadata probe: the first-block probe already returned the schema.
  ASSERT_EQ(stmts->size(), 6u) << sql;
  EXPECT_EQ((*stmts)[0]->kind, sql::StmtKind::kBeginTxn);
  // Retired tables first, then the target itself: a re-sent script starts
  // clean.
  EXPECT_EQ((*stmts)[1]->ToSql(), "DROP TABLE IF EXISTS PHX_RES_7");
  EXPECT_EQ((*stmts)[2]->ToSql(), "DROP TABLE IF EXISTS PHX_KEY_8");
  EXPECT_EQ((*stmts)[3]->ToSql(), "DROP TABLE IF EXISTS PHX_RES_9");
  // The SELECT keeps its ORDER BY/LIMIT and gains the INTO.
  const sql::SelectStmt& into = *(*stmts)[4]->select;
  EXPECT_EQ(into.into_table, "PHX_RES_9");
  EXPECT_EQ(into.limit, 5);
  EXPECT_EQ(into.order_by.size(), 1u);
  EXPECT_EQ((*stmts)[5]->kind, sql::StmtKind::kCommit);
}

TEST(Rewriter, MaterializeScriptSelectsTheKeySource) {
  auto shown = ParseSelect("SELECT v FROM t WHERE v > 3");
  auto keys = MakeSelectKeys(*shown, {"K"});
  std::string sql = MakeMaterializeScript(*keys, "PHX_KEY_1", {});
  auto stmts = sql::Parser::ParseScript(sql);
  ASSERT_TRUE(stmts.ok()) << sql;
  ASSERT_EQ(stmts->size(), 4u) << sql;
  EXPECT_EQ((*stmts)[2]->select->items[0].expr->ToSql(), "K");
  EXPECT_EQ((*stmts)[2]->select->into_table, "PHX_KEY_1");
}

TEST(Rewriter, SelectKeysOrdersByPk) {
  auto sel = ParseSelect("SELECT v FROM t WHERE v > 3");
  auto keys = MakeSelectKeys(*sel, {"K1", "K2"});
  std::string sql = keys->ToSql();
  EXPECT_NE(sql.find("SELECT K1, K2"), std::string::npos);
  EXPECT_NE(sql.find("ORDER BY K1, K2"), std::string::npos);
  EXPECT_NE(sql.find("v > 3"), std::string::npos);
}

TEST(Rewriter, KeyLookupBuildsPkEquality) {
  auto sel = ParseSelect("SELECT v FROM t WHERE v > 3");
  Row key{Value::Int64(7), Value::String("x")};
  std::string sql = MakeKeyLookup(*sel, {"A", "B"}, key)->ToSql();
  EXPECT_NE(sql.find("A = 7"), std::string::npos);
  EXPECT_NE(sql.find("B = 'x'"), std::string::npos);
  // The original WHERE is NOT applied — keyset re-reads by key only.
  EXPECT_EQ(sql.find("v > 3"), std::string::npos);
}

TEST(Rewriter, RangeLookupKeepsPredicateAndBounds) {
  auto sel = ParseSelect("SELECT v FROM t WHERE v > 3");
  Value low = Value::Int64(5);
  Value high = Value::Int64(9);
  std::string sql = MakeRangeLookup(*sel, "K", &low, high)->ToSql();
  EXPECT_NE(sql.find("K > 5"), std::string::npos);
  EXPECT_NE(sql.find("K <= 9"), std::string::npos);
  EXPECT_NE(sql.find("v > 3"), std::string::npos);
  EXPECT_NE(sql.find("ORDER BY K"), std::string::npos);
  // First range has no lower bound.
  std::string first = MakeRangeLookup(*sel, "K", nullptr, high)->ToSql();
  EXPECT_EQ(first.find("K > "), std::string::npos);
}

TEST(Rewriter, DmlWrapShape) {
  auto dml = sql::Parser::ParseStatement("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(dml.ok());
  std::string sql = MakeDmlWrap("PHX_ST_1", 42, **dml);
  EXPECT_EQ(sql.rfind("BEGIN TRANSACTION; ", 0), 0u);
  EXPECT_NE(sql.find("DELETE FROM t"), std::string::npos);
  EXPECT_NE(sql.find("VALUES (42, ROWCOUNT())"), std::string::npos);
  EXPECT_NE(sql.find("COMMIT"), std::string::npos);
  // The whole wrap parses as a 4-statement batch.
  auto parsed = sql::Parser::ParseScript(sql);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 4u);
}

TEST(Rewriter, StatusProbeAndDdlParse) {
  EXPECT_TRUE(sql::Parser::ParseStatement(MakeStatusProbe("PHX_ST_1", 3)).ok());
  EXPECT_TRUE(sql::Parser::ParseStatement(MakeStatusTableDdl("PHX_ST_1")).ok());
}

TEST(Rewriter, RenameObjectsInSelectAddsAlias) {
  std::map<std::string, std::string> tables{{"#TMP", "PHX_TMP_1_TMP"}};
  auto stmt = sql::Parser::ParseStatement(
      "SELECT #tmp.a FROM #tmp WHERE #tmp.a > 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(RenameObjects(stmt->get(), tables, {}));
  std::string sql = (*stmt)->ToSql();
  EXPECT_NE(sql.find("FROM PHX_TMP_1_TMP #tmp"), std::string::npos) << sql;
  // Qualifier still resolves because the original name became the alias.
  EXPECT_NE(sql.find("#tmp.a"), std::string::npos);
}

TEST(Rewriter, RenameObjectsCoversAllStatementKinds) {
  std::map<std::string, std::string> tables{{"T", "X"}};
  std::map<std::string, std::string> procs{{"P", "Q"}};
  struct Case {
    const char* sql;
    const char* expect;
  } cases[] = {
      {"INSERT INTO t VALUES (1)", "INSERT INTO X"},
      {"INSERT INTO t SELECT * FROM t", "INSERT INTO X SELECT * FROM X t"},
      {"UPDATE t SET a = 1", "UPDATE X"},
      {"DELETE FROM t", "DELETE FROM X"},
      {"DROP TABLE t", "DROP TABLE X"},
      {"DROP PROCEDURE p", "DROP PROCEDURE Q"},
      {"EXEC p(1)", "EXEC Q"},
      {"SHOW KEYS t", "SHOW KEYS X"},
      {"SELECT a INTO t FROM u", "INTO X"},
  };
  for (const Case& c : cases) {
    auto stmt = sql::Parser::ParseStatement(c.sql);
    ASSERT_TRUE(stmt.ok()) << c.sql;
    RenameObjects(stmt->get(), tables, procs);
    EXPECT_NE((*stmt)->ToSql().find(c.expect), std::string::npos)
        << c.sql << " -> " << (*stmt)->ToSql();
  }
}

TEST(Rewriter, RenameLeavesUnmappedAlone) {
  std::map<std::string, std::string> tables{{"OTHER", "X"}};
  auto stmt = sql::Parser::ParseStatement("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(RenameObjects(stmt->get(), tables, {}));
  EXPECT_NE((*stmt)->ToSql().find("FROM t"), std::string::npos);
}

TEST(Rewriter, RenameInsideProcBody) {
  std::map<std::string, std::string> tables{{"T", "X"}};
  auto stmt = sql::Parser::ParseStatement(
      "CREATE PROCEDURE p AS BEGIN INSERT INTO t VALUES (1); END");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(RenameObjects(stmt->get(), tables, {}));
  EXPECT_NE((*stmt)->ToSql().find("INSERT INTO X"), std::string::npos);
}

TEST(StateStore, NamesEmbedTagAndCounter) {
  PhoenixConfig config;
  ConnState conn;
  conn.tag = "77";
  EXPECT_EQ(NextResultTableName(config, &conn), "PHX_RES_77_1");
  EXPECT_EQ(NextKeyTableName(config, &conn), "PHX_KEY_77_2");
  EXPECT_EQ(StatusTableName(config, conn), "PHX_ST_77");
  EXPECT_EQ(ProxyTableName(config, conn), "PHX_PROXY_77");
  EXPECT_EQ(TempStandInName(config, conn, "#scratch"), "PHX_TMP_77_SCRATCH");
}

TEST(StateStore, ConnTagsUnique) {
  std::string a = MakeConnTag();
  std::string b = MakeConnTag();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace phoenix::core
