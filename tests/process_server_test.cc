// End-to-end over a real wire against an out-of-process phoenixd: spawn,
// round trips over TCP and Unix sockets, SIGKILL at seeded points (idle,
// mid-request, mid-commit-fsync, mid-checkpoint) via the rendezvous
// protocol, restart, and recovery verification against the reborn process.
//
// Every test skips gracefully when the phoenixd binary is missing (set
// PHX_SERVER_BIN) or the sandbox denies sockets — sandboxed no-network
// runners filter the whole binary out with `ctest -LE socket` instead.

#include "net/process_server.h"

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "core/phoenix_driver_manager.h"
#include "net/channel.h"
#include "net/protocol.h"

#include "gtest/gtest.h"

namespace phoenix::net {
namespace {

using core::PhoenixConfig;
using core::PhoenixDriverManager;

/// mkdtemp wrapper; removes the (flat) directory on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/phx_pst_XXXXXX";
    char* got = ::mkdtemp(tmpl);
    if (got != nullptr) path = got;
  }
  ~TempDir() {
    if (path.empty()) return;
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

/// One phoenixd child over `transport`, plus a Network that resolves
/// "procdb" to it. `ok == false` carries a skip reason: binary missing or
/// the sandbox refused the socket.
struct ProcFixture {
  TempDir dir;
  std::unique_ptr<ProcessServerHandle> handle;
  Network network;
  bool ok = false;
  std::string skip;

  explicit ProcFixture(const std::string& transport,
                       uint64_t ckpt_every = 0) {
    std::string bin = FindServerBinary("");
    if (bin.empty()) {
      skip = "phoenixd binary not found (set PHX_SERVER_BIN)";
      return;
    }
    if (dir.path.empty()) {
      skip = "mkdtemp failed";
      return;
    }
    ProcessServerOptions opts;
    opts.binary = bin;
    opts.transport = transport;
    opts.data_dir = dir.path;
    opts.checkpoint_every_n_commits = ckpt_every;
    handle = std::make_unique<ProcessServerHandle>(opts);
    Status st = handle->Start();
    if (!st.ok()) {
      skip = "cannot spawn phoenixd: " + st.ToString();
      return;
    }
    network.config()->rpc_timeout_ms = 8000;
    network.config()->connect_timeout_ms = 4000;
    network.RegisterRemote("procdb", handle->endpoint());
    ok = true;
  }

  ~ProcFixture() {
    if (handle) handle->Terminate(5.0);
  }

  std::unique_ptr<Channel> Connect() {
    auto c = network.Connect("procdb");
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? c.take() : nullptr;
  }
  Response Call(Channel* ch, const Request& req) {
    auto r = ch->RoundTrip(req);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : Response{};
  }
};

#define SKIP_UNLESS_RUNNING(fx) \
  if (!(fx).ok) GTEST_SKIP() << (fx).skip

Request ConnectReq(const std::string& user = "u") {
  Request r;
  r.kind = Request::Kind::kConnect;
  r.user = user;
  return r;
}

Request ExecReq(uint64_t sid, const std::string& sql) {
  Request r;
  r.kind = Request::Kind::kExecScript;
  r.session_id = sid;
  r.sql = sql;
  return r;
}

Request ArmReq(const std::string& spec) {
  Request r;
  r.kind = Request::Kind::kAdmin;
  r.name = kAdminRendezvous;
  r.value = spec;
  return r;
}

int64_t CountRows(ProcFixture* fx, Channel* ch, uint64_t sid,
                  const std::string& table) {
  Response r =
      fx->Call(ch, ExecReq(sid, "SELECT COUNT(*) AS N FROM " + table));
  if (r.results.empty() || r.results[0].rows.empty()) return -1;
  return r.results[0].rows[0][0].AsInt64();
}

// ---------------------------------------------------------------------------
// Plain lifecycle: spawn, execute, graceful terminate — both transports.
// ---------------------------------------------------------------------------

void SpawnExecuteTerminate(const std::string& transport) {
  ProcFixture fx(transport);
  SKIP_UNLESS_RUNNING(fx);
  EXPECT_EQ(fx.handle->endpoint().rfind(transport + ":", 0), 0u)
      << fx.handle->endpoint();
  auto ch = fx.Connect();
  ASSERT_NE(ch, nullptr);
  Response conn = fx.Call(ch.get(), ConnectReq());
  ASSERT_EQ(conn.kind, Response::Kind::kConnected);
  uint64_t sid = conn.session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (1)"));
  EXPECT_EQ(CountRows(&fx, ch.get(), sid, "T"), 1);
  ch->Disconnect();
  EXPECT_TRUE(fx.handle->Terminate(5.0).ok());
  EXPECT_FALSE(fx.handle->running());
}

TEST(ProcessServer, SpawnExecuteTerminateUnix) {
  SpawnExecuteTerminate("unix");
}

TEST(ProcessServer, SpawnExecuteTerminateTcp) {
  SpawnExecuteTerminate("tcp");
}

// ---------------------------------------------------------------------------
// SIGKILL while idle: durable data survives, endpoint is stable, session
// ids from the reborn process live in a fresh boot partition.
// ---------------------------------------------------------------------------

TEST(ProcessServer, KillIdleRestartPreservesCommittedData) {
  ProcFixture fx("unix");
  SKIP_UNLESS_RUNNING(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (1)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (2)"));

  std::string endpoint_before = fx.handle->endpoint();
  fx.handle->Kill();
  EXPECT_FALSE(fx.handle->running());

  // The dead connection surfaces kCommError (connection dead), not
  // kTimeout (reply lost) — this is what Phoenix's failure detector keys on.
  auto dead = ch->RoundTrip(ExecReq(sid, "SELECT A FROM T"));
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsCommError()) << dead.status().ToString();

  ASSERT_TRUE(fx.handle->Restart().ok());
  EXPECT_EQ(fx.handle->endpoint(), endpoint_before);

  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  // Session ids are partitioned by boot count (boot << 32): a reborn server
  // can never hand out an id an old client still holds.
  EXPECT_GT(sid2 >> 32, sid >> 32);
  EXPECT_EQ(CountRows(&fx, ch2.get(), sid2, "T"), 2);
  // The SIGKILLed incarnation's session is gone — stale ids are rejected,
  // which is the crash signal Phoenix's proxy-table probe relies on.
  auto stale = ch2->RoundTrip(ExecReq(sid, "SELECT A FROM T"));
  if (stale.ok()) {
    EXPECT_EQ(stale->kind, Response::Kind::kError);
  }
}

// ---------------------------------------------------------------------------
// SIGKILL mid-fsync (the paper's power-cut analogue): the child blocks
// inside the commit's WAL sync and dies holding it.
// ---------------------------------------------------------------------------

void MidFsyncKillRecovers(const std::string& transport) {
  ProcFixture fx(transport);
  SKIP_UNLESS_RUNNING(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (1)"));

  // Arm: the NEXT WAL-file sync signals the parent and blocks mid-fsync.
  Response armed = fx.Call(ch.get(), ArmReq("wal_sync:1"));
  ASSERT_EQ(armed.kind, Response::Kind::kOk);
  fx.handle->ArmKillOnRendezvous();

  // This commit's durability boundary is the rendezvous point: the request
  // reaches the server and executes, but the process dies inside Sync().
  auto doomed = ch->RoundTrip(ExecReq(sid, "INSERT INTO T VALUES (2)"));
  ASSERT_FALSE(doomed.ok());
  EXPECT_TRUE(doomed.status().IsCommError() || doomed.status().IsTimeout())
      << doomed.status().ToString();

  EXPECT_TRUE(fx.handle->WaitRendezvousKill(15.0));
  EXPECT_EQ(fx.handle->rendezvous_kills(), 1u);
  EXPECT_FALSE(fx.handle->running());

  ASSERT_TRUE(fx.handle->Restart().ok());
  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  // Row 1 committed before the kill and MUST survive; row 2's commit died
  // mid-fsync, so it may be either in or out — but never torn state.
  int64_t n = CountRows(&fx, ch2.get(), sid2, "T");
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 2);
  Response sel = fx.Call(ch2.get(), ExecReq(sid2, "SELECT A FROM T WHERE A = 1"));
  ASSERT_FALSE(sel.results.empty());
  EXPECT_EQ(sel.results[0].rows.size(), 1u);
}

// The kill-path wait sleeps until the child is gone: it returns false after
// its timeout while the child lives, true once a death it did not cause
// happens, and true at once when the child is already dead.
TEST(ProcessServer, WaitRendezvousKillWakesOnDeathAndKeepsItsTimeout) {
  ProcFixture fx("unix");
  SKIP_UNLESS_RUNNING(fx);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fx.handle->WaitRendezvousKill(0.1));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(95));
  EXPECT_TRUE(fx.handle->running());

  pid_t pid = fx.handle->pid();
  std::thread killer([pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(pid, SIGKILL);
  });
  EXPECT_TRUE(fx.handle->WaitRendezvousKill(15.0));
  killer.join();
  EXPECT_FALSE(fx.handle->running());
  EXPECT_EQ(fx.handle->rendezvous_kills(), 0u);
  EXPECT_TRUE(fx.handle->WaitRendezvousKill(0.0));
}

TEST(ProcessServer, MidFsyncKillRecoversUnix) { MidFsyncKillRecovers("unix"); }

TEST(ProcessServer, MidFsyncKillRecoversTcp) { MidFsyncKillRecovers("tcp"); }

// ---------------------------------------------------------------------------
// SIGKILL mid-request: the process dies BEFORE dispatching the statement,
// so the row is deterministically absent after restart.
// ---------------------------------------------------------------------------

TEST(ProcessServer, MidRequestKillLeavesRowAbsent) {
  ProcFixture fx("unix");
  SKIP_UNLESS_RUNNING(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (1)"));

  Response armed = fx.Call(ch.get(), ArmReq("exec:1"));
  ASSERT_EQ(armed.kind, Response::Kind::kOk);
  fx.handle->ArmKillOnRendezvous();

  auto doomed = ch->RoundTrip(ExecReq(sid, "INSERT INTO T VALUES (2)"));
  ASSERT_FALSE(doomed.ok());
  ASSERT_TRUE(fx.handle->WaitRendezvousKill(15.0));

  ASSERT_TRUE(fx.handle->Restart().ok());
  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  EXPECT_EQ(CountRows(&fx, ch2.get(), sid2, "T"), 1);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-checkpoint, both windows: before the atomic rename (image
// lost, WAL carries everything) and after it (image durable, WAL not yet
// truncated). Committed data must survive either way.
// ---------------------------------------------------------------------------

TEST(ProcessServer, MidCheckpointKillBothWindows) {
  // Every third commit checkpoints: the CREATE and the first INSERT never
  // do, so that INSERT is acknowledged before any checkpoint can reach the
  // armed rendezvous. (At 2, the first INSERT's own checkpoint could hit
  // it and the kill beat the INSERT's reply.)
  ProcFixture fx("unix", /*ckpt_every=*/3);
  SKIP_UNLESS_RUNNING(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));

  // Window 1: die between the checkpoint temp-write and its rename.
  ASSERT_EQ(fx.Call(ch.get(), ArmReq("ckpt_pre:1")).kind, Response::Kind::kOk);
  fx.handle->ArmKillOnRendezvous();
  int inserted = 0;
  for (int i = 1; i <= 6; ++i) {
    auto r = ch->RoundTrip(ExecReq(sid, "INSERT INTO T VALUES (" +
                                            std::to_string(i) + ")"));
    if (!r.ok() || r->kind == Response::Kind::kError) break;
    ++inserted;
  }
  ASSERT_TRUE(fx.handle->WaitRendezvousKill(15.0))
      << "checkpoint rendezvous never fired (inserted=" << inserted << ")";
  ASSERT_GT(inserted, 0);

  ASSERT_TRUE(fx.handle->Restart().ok());
  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  // Every acknowledged commit survives: the checkpoint image was lost, so
  // recovery rebuilt the state from the intact WAL.
  int64_t n1 = CountRows(&fx, ch2.get(), sid2, "T");
  EXPECT_GE(n1, inserted) << "acknowledged commits lost across ckpt_pre kill";

  // Window 2: die after the rename, before WAL truncation completes.
  ASSERT_EQ(fx.Call(ch2.get(), ArmReq("ckpt_post:1")).kind,
            Response::Kind::kOk);
  fx.handle->ArmKillOnRendezvous();
  int inserted2 = 0;
  for (int i = 7; i <= 12; ++i) {
    auto r = ch2->RoundTrip(ExecReq(sid2, "INSERT INTO T VALUES (" +
                                              std::to_string(i) + ")"));
    if (!r.ok() || r->kind == Response::Kind::kError) break;
    ++inserted2;
  }
  ASSERT_TRUE(fx.handle->WaitRendezvousKill(15.0));

  ASSERT_TRUE(fx.handle->Restart().ok());
  auto ch3 = fx.Connect();
  uint64_t sid3 = fx.Call(ch3.get(), ConnectReq()).session_id;
  int64_t n2 = CountRows(&fx, ch3.get(), sid3, "T");
  EXPECT_GE(n2, n1 + inserted2)
      << "acknowledged commits lost across ckpt_post kill";
}

// ---------------------------------------------------------------------------
// The paper's end-to-end claim over a real wire: a Phoenix virtual session
// rides through SIGKILL + process restart transparently.
// ---------------------------------------------------------------------------

TEST(ProcessServer, PhoenixSessionSurvivesSigkillOfServerProcess) {
  ProcFixture fx("unix");
  SKIP_UNLESS_RUNNING(fx);

  std::atomic<int> probes{0};
  PhoenixConfig config;
  config.retry_wait = [&fx, &probes] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Model an ops-restart arriving while the client retries: after a few
    // probe failures, bring the server process back on the same endpoint.
    if (++probes >= 3 && !fx.handle->running()) {
      ASSERT_TRUE(fx.handle->Restart().ok());
    }
  };
  PhoenixDriverManager dm(&fx.network, config);
  auto* env = dm.AllocEnv();
  auto* dbc = dm.AllocConnect(env);
  ASSERT_EQ(dm.Connect(dbc, "procdb", "app"), odbc::SqlReturn::kSuccess);

  auto* ddl = dm.AllocStmt(dbc);
  ASSERT_EQ(dm.ExecDirect(ddl, "CREATE TABLE NUMS (N INTEGER PRIMARY KEY)"),
            odbc::SqlReturn::kSuccess);
  std::string values;
  for (int i = 1; i <= 100; ++i) {
    if (i > 1) values += ", ";
    values += "(" + std::to_string(i) + ")";
  }
  ASSERT_EQ(dm.ExecDirect(ddl, "INSERT INTO NUMS VALUES " + values),
            odbc::SqlReturn::kSuccess);

  auto* stmt = dm.AllocStmt(dbc);
  ASSERT_EQ(dm.ExecDirect(stmt, "SELECT N FROM NUMS ORDER BY N"),
            odbc::SqlReturn::kSuccess);
  for (int i = 1; i <= 40; ++i) {
    ASSERT_EQ(dm.Fetch(stmt), odbc::SqlReturn::kSuccess);
  }

  fx.handle->Kill();  // real SIGKILL of the server process

  // The application keeps fetching; Phoenix detects the dead wire, redials
  // the reborn process, reinstalls the session, and resumes the cursor
  // exactly where it stopped — rows past the client block buffer can only
  // come from the REBORN process's recovered result table.
  Value v;
  for (int i = 41; i <= 100; ++i) {
    ASSERT_EQ(dm.Fetch(stmt), odbc::SqlReturn::kSuccess) << "row " << i;
    dm.GetData(stmt, 0, &v);
    ASSERT_EQ(v.AsInt64(), i);
  }
  EXPECT_EQ(dm.Fetch(stmt), odbc::SqlReturn::kNoData);
  EXPECT_GE(dm.stats().recoveries, 1u);
  EXPECT_GT(dm.stats().reconnect_attempts, 0u);
  EXPECT_GT(dm.stats().rows_redelivered, 0u);

  // And the session keeps working for writes after recovery.
  ASSERT_EQ(dm.ExecDirect(ddl, "INSERT INTO NUMS VALUES (101)"),
            odbc::SqlReturn::kSuccess);
  auto* check = dm.AllocStmt(dbc);
  ASSERT_EQ(dm.ExecDirect(check, "SELECT COUNT(*) AS N FROM NUMS"),
            odbc::SqlReturn::kSuccess);
  ASSERT_EQ(dm.Fetch(check), odbc::SqlReturn::kSuccess);
  dm.GetData(check, 0, &v);
  EXPECT_EQ(v.AsInt64(), 101);
}

// ---------------------------------------------------------------------------
// Restart discipline: boot counter climbs monotonically, epochs with it.
// ---------------------------------------------------------------------------

TEST(ProcessServer, BootPartitionClimbsAcrossRepeatedKills) {
  ProcFixture fx("unix");
  SKIP_UNLESS_RUNNING(fx);
  uint64_t last_boot = 0;
  for (int round = 0; round < 3; ++round) {
    auto ch = fx.Connect();
    ASSERT_NE(ch, nullptr);
    uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
    uint64_t boot = sid >> 32;
    EXPECT_GT(boot, last_boot) << "round " << round;
    last_boot = boot;
    fx.handle->Kill();
    ASSERT_TRUE(fx.handle->Restart().ok());
  }
}

}  // namespace
}  // namespace phoenix::net
