#ifndef PHOENIX_TESTS_TEST_UTIL_H_
#define PHOENIX_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/phoenix_driver_manager.h"
#include "net/channel.h"
#include "net/db_server.h"
#include "odbc/driver_manager.h"
#include "storage/sim_disk.h"

#include "gtest/gtest.h"

namespace phoenix::testutil {

/// ASSERT-style helpers for Status / Result.
#define PHX_ASSERT_OK(expr)                                  \
  do {                                                       \
    auto _st = (expr);                                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

#define PHX_EXPECT_OK(expr)                                  \
  do {                                                       \
    auto _st = (expr);                                       \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

#define PHX_ASSERT_OK_RESULT(expr)                           \
  do {                                                       \
    auto& _r = (expr);                                       \
    ASSERT_TRUE(_r.ok()) << _r.status().ToString();          \
  } while (0)

/// A disk + server + network trio, the standard test substrate.
struct TestCluster {
  storage::SimDisk disk;
  /// Runs on the thread handling the request just before it executes
  /// (after any pre_dispatch_hook in the options). Set it before issuing
  /// the requests it should see.
  std::function<void(const net::Request&)> before_dispatch;
  net::DbServer server;
  net::Network network;

  explicit TestCluster(net::ServerOptions opts = {})
      : server(&disk, WithBeforeDispatch(std::move(opts))) {
    auto st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    network.RegisterServer("testdb", &server);
  }

  net::ServerOptions WithBeforeDispatch(net::ServerOptions opts) {
    opts.pre_dispatch_hook = [this, prev = std::move(opts.pre_dispatch_hook)](
                                 const net::Request& req) {
      if (prev) prev(req);
      if (before_dispatch) before_dispatch(req);
    };
    return opts;
  }

  /// Crash + immediate restart (volatile state gone, durable state back).
  void Bounce() {
    server.Crash();
    auto st = server.Restart();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

/// A Phoenix config whose recovery loop restarts the server automatically
/// after `after_attempts` reconnect attempts — lets single-threaded tests
/// exercise the "ping until the server comes back" path.
inline core::PhoenixConfig AutoRestartConfig(net::DbServer* server,
                                             int after_attempts = 3) {
  core::PhoenixConfig config;
  auto counter = std::make_shared<int>(0);
  config.retry_wait = [server, counter, after_attempts]() {
    if (++*counter >= after_attempts && !server->alive()) {
      auto st = server->Restart();
      EXPECT_TRUE(st.ok()) << st.ToString();
      *counter = 0;
    }
  };
  return config;
}

/// Runs a SQL batch on a fresh statement; fails the test on error. Returns
/// fetched rows for queries (empty for non-queries). A `block_size` > 0 sets
/// the statement's fetch block first: through Phoenix, a result larger than
/// one block is materialized as a server table.
inline std::vector<Row> MustQuery(odbc::DriverManager* dm, odbc::Hdbc* dbc,
                                  const std::string& sql,
                                  int64_t block_size = 0) {
  odbc::Hstmt* stmt = dm->AllocStmt(dbc);
  if (block_size > 0) {
    EXPECT_EQ(dm->SetStmtAttr(stmt, odbc::StmtAttr::kBlockSize, block_size),
              odbc::SqlReturn::kSuccess);
  }
  EXPECT_TRUE(Succeeded(dm->ExecDirect(stmt, sql)))
      << sql << " -> " << odbc::DriverManager::Diag(stmt).ToString();
  std::vector<Row> rows;
  size_t cols = 0;
  dm->NumResultCols(stmt, &cols);
  if (cols > 0) {
    while (Succeeded(dm->Fetch(stmt))) {
      Row row;
      for (size_t i = 0; i < cols; ++i) {
        Value v;
        dm->GetData(stmt, i, &v);
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }
  dm->FreeStmt(stmt);
  return rows;
}

/// Executes a non-query; returns affected rows; fails the test on error.
inline int64_t MustExec(odbc::DriverManager* dm, odbc::Hdbc* dbc,
                        const std::string& sql) {
  odbc::Hstmt* stmt = dm->AllocStmt(dbc);
  EXPECT_TRUE(Succeeded(dm->ExecDirect(stmt, sql)))
      << sql << " -> " << odbc::DriverManager::Diag(stmt).ToString();
  int64_t n = 0;
  dm->RowCount(stmt, &n);
  dm->FreeStmt(stmt);
  return n;
}

}  // namespace phoenix::testutil

#endif  // PHOENIX_TESTS_TEST_UTIL_H_
