// Concurrency tests for the worker-pool DbServer: many client threads and
// sessions against one server, with and without crash/restart mid-flight.
// The invariants under test:
//   - no DML outcome is lost or duplicated (a success the client saw is
//     durable; a key is never inserted twice),
//   - requests naming one session id exclude each other, and the server
//     keeps no per-session lock state once they finish,
//   - a single injected fault token fires exactly once regardless of how
//     many threads share the channel (the per-request claim regression).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

#include "test_util.h"

namespace phoenix::net {
namespace {

using testutil::TestCluster;

Request Connect(const std::string& user) {
  Request r;
  r.kind = Request::Kind::kConnect;
  r.user = user;
  return r;
}

Request Exec(uint64_t sid, std::string sql) {
  Request r;
  r.kind = Request::Kind::kExecScript;
  r.session_id = sid;
  r.sql = std::move(sql);
  return r;
}

/// Round-trips `req` and returns the server's status (transport and SQL
/// errors collapsed — these tests only care about success/failure).
Status Try(Channel* chan, const Request& req) {
  auto res = chan->RoundTrip(req);
  if (!res.ok()) return res.status();
  return res.value().ToStatus();
}

TEST(ConcurrentServer, ParallelSessionsNoLostOrDuplicatedDml) {
  ServerOptions opts;
  opts.worker_threads = 4;
  TestCluster cluster(opts);

  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(Connect("ddl"));
    ASSERT_TRUE(conn.ok());
    PHX_ASSERT_OK(Try(chan.get(),
                      Exec(conn->session_id,
                           "CREATE TABLE T (K INTEGER PRIMARY KEY, "
                           "OWNER INTEGER, V INTEGER)")));
  }

  constexpr int kThreads = 8;
  constexpr int kOpsEach = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chan = cluster.network.Connect("testdb").take();
      auto conn = chan->RoundTrip(Connect("worker-" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t sid = conn->session_id;
      for (int i = 0; i < kOpsEach; ++i) {
        int key = t * 1000 + i;
        Status st = Try(chan.get(),
                        Exec(sid, "INSERT INTO T VALUES (" +
                                      std::to_string(key) + ", " +
                                      std::to_string(t) + ", 0)"));
        if (!st.ok()) failures.fetch_add(1);
        // Interleave reads so shared and exclusive lock paths mix.
        if (i % 5 == 0) {
          st = Try(chan.get(), Exec(sid, "SELECT COUNT(*) AS N FROM T"));
          if (!st.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every key exactly once: COUNT(*) == COUNT(DISTINCT K) == threads * ops.
  eng::Database* db = cluster.server.database();
  auto sid = db->CreateSession("verify");
  ASSERT_TRUE(sid.ok());
  auto res = db->ExecuteScript(*sid, "SELECT COUNT(*) AS N FROM T");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value()[0].rows.size(), 1u);
  EXPECT_EQ(res.value()[0].rows[0][0].AsInt64(), kThreads * kOpsEach);
}

TEST(ConcurrentServer, WriteHeavyAutoCheckpointFiresAndLosesNothing) {
  // Satellite of the non-blocking checkpoint work: under a write-heavy
  // multi-session load with a tight cadence, auto-checkpoints must actually
  // complete (non-quiescent — concurrent commits and open cursors no longer
  // suppress them), and a restart over the checkpoint + fenced WAL replay
  // must present every acked row exactly once.
  ServerOptions opts;
  opts.worker_threads = 8;
  opts.db.checkpoint_every_n_commits = 5;
  TestCluster cluster(opts);
  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(Connect("ddl"));
    ASSERT_TRUE(conn.ok());
    PHX_ASSERT_OK(Try(chan.get(),
                      Exec(conn->session_id,
                           "CREATE TABLE W (K INTEGER PRIMARY KEY)")));
  }

  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  constexpr int kThreads = 8;
  constexpr int kOpsEach = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chan = cluster.network.Connect("testdb").take();
      auto conn = chan->RoundTrip(Connect("w" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsEach; ++i) {
        int key = t * 1000 + i;
        Status st = Try(chan.get(),
                        Exec(conn->session_id, "INSERT INTO W VALUES (" +
                                                   std::to_string(key) + ")"));
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  cluster.server.database()->WaitForCheckpointIdle();

  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_GT(after.counter("storage.checkpoints") -
                before.counter("storage.checkpoints"),
            0u)
      << "write-heavy load never completed an auto-checkpoint";
  EXPECT_TRUE(cluster.disk.Exists("phxdb.ckpt"));

  // Everything was acked; a crash+restart must recover all of it.
  cluster.server.Crash();
  PHX_ASSERT_OK(cluster.server.Restart());
  eng::Database* db = cluster.server.database();
  auto sid = db->CreateSession("verify");
  ASSERT_TRUE(sid.ok());
  auto res = db->ExecuteScript(*sid, "SELECT COUNT(*) AS N FROM W");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()[0].rows[0][0].AsInt64(), kThreads * kOpsEach);
}

TEST(ConcurrentServer, SharedSessionIdRequestsExcludeEachOther) {
  // Any connection may name any session id; requests naming the same one
  // must still never run side by side on that session's state.
  ServerOptions opts;
  opts.worker_threads = 4;
  TestCluster cluster(opts);
  auto chan = cluster.network.Connect("testdb").take();
  auto conn = chan->RoundTrip(Connect("shared"));
  ASSERT_TRUE(conn.ok());
  uint64_t sid = conn->session_id;
  PHX_ASSERT_OK(Try(chan.get(),
                    Exec(sid, "CREATE TABLE S (K INTEGER PRIMARY KEY, "
                              "V INTEGER); INSERT INTO S VALUES (1, 0)")));

  constexpr int kThreads = 8;
  constexpr int kStepsEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto own = cluster.network.Connect("testdb").take();
      for (int i = 0; i < kStepsEach; ++i) {
        // A two-statement transaction: interleaved with another request on
        // the same session it would commit or roll back the other's work.
        Status st = Try(own.get(), Exec(sid, "BEGIN TRANSACTION; UPDATE S SET "
                                             "V = V + 1 WHERE K = 1; COMMIT"));
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto check = chan->RoundTrip(Exec(sid, "SELECT V FROM S WHERE K = 1"));
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->results[0].rows.size(), 1u);
  EXPECT_EQ(check->results[0].rows[0][0].AsInt64(), kThreads * kStepsEach);
  EXPECT_EQ(cluster.server.stats().session_locks, 0u);
}

TEST(ConcurrentServer, SessionLockStateIsBoundedByRequestsInFlight) {
  // Lock entries exist only while a request for the session is queued or
  // running: session churn and ids that were never opened leave nothing.
  TestCluster cluster;
  auto chan = cluster.network.Connect("testdb").take();
  constexpr int kCycles = 1000;
  for (int i = 0; i < kCycles; ++i) {
    auto conn = chan->RoundTrip(Connect("churn"));
    ASSERT_TRUE(conn.ok());
    Request bye;
    bye.kind = Request::Kind::kDisconnect;
    bye.session_id = conn->session_id;
    PHX_ASSERT_OK(Try(chan.get(), bye));
  }
  for (int i = 0; i < kCycles; ++i) {
    Status st = Try(chan.get(), Exec((uint64_t{1} << 40) + i, "SELECT 1"));
    EXPECT_FALSE(st.ok());
  }
  EXPECT_EQ(cluster.server.stats().session_locks, 0u);
}

TEST(ConcurrentServer, CrashRestartMidFlightLosesNoAcknowledgedWrite) {
  ServerOptions opts;
  opts.worker_threads = 4;
  TestCluster cluster(opts);

  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(Connect("ddl"));
    ASSERT_TRUE(conn.ok());
    PHX_ASSERT_OK(Try(chan.get(),
                      Exec(conn->session_id,
                           "CREATE TABLE W (K INTEGER PRIMARY KEY)")));
  }

  constexpr int kThreads = 4;
  constexpr int kKeysEach = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> acknowledged{0};

  // Clients: insert unique keys, reconnecting and retrying the same key on
  // any failure. A retry after an unacknowledged success would hit the PK
  // and show up as a duplicate — which the drain semantics make impossible:
  // the server answers every request it accepted before dying.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<Channel> chan;
      uint64_t sid = 0;
      auto reconnect = [&] {
        while (true) {
          if (cluster.server.alive()) {
            chan = cluster.network.Connect("testdb").take();
            auto conn = chan->RoundTrip(Connect("w" + std::to_string(t)));
            if (conn.ok() && conn->ToStatus().ok()) {
              sid = conn->session_id;
              return;
            }
          }
          std::this_thread::yield();
        }
      };
      reconnect();
      for (int i = 0; i < kKeysEach; ++i) {
        int key = t * 1000 + i;
        while (true) {
          Status st = Try(chan.get(), Exec(sid, "INSERT INTO W VALUES (" +
                                                    std::to_string(key) + ")"));
          if (st.ok()) {
            acknowledged.fetch_add(1);
            break;
          }
          // Ambiguity-free by construction: a failed response here means the
          // insert did not commit (comm errors happen only before dispatch).
          reconnect();
        }
      }
    });
  }

  // The saboteur: crash + restart the server while inserts are in flight.
  std::thread saboteur([&] {
    for (int round = 0; round < 5 && !stop.load(); ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      cluster.server.Crash();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto st = cluster.server.Restart();
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  });

  for (auto& t : threads) t.join();
  stop.store(true);
  saboteur.join();
  if (!cluster.server.alive()) {
    PHX_ASSERT_OK(cluster.server.Restart());
  }

  EXPECT_EQ(acknowledged.load(), kThreads * kKeysEach);
  eng::Database* db = cluster.server.database();
  auto sid = db->CreateSession("verify");
  ASSERT_TRUE(sid.ok());
  auto res = db->ExecuteScript(*sid, "SELECT COUNT(*) AS N FROM W");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value()[0].rows[0][0].AsInt64(), kThreads * kKeysEach);
}

TEST(ConcurrentServer, InjectedLostReplyFiresExactlyOnce) {
  TestCluster cluster;
  auto chan = cluster.network.Connect("testdb").take();

  // Regression: with the pre-claim design, two concurrent round trips could
  // both observe the same injected token and both time out. The token is
  // now claimed atomically per request — exactly one of N threads sharing
  // the channel loses its reply.
  constexpr int kThreads = 8;
  chan->InjectLoseReplies(1);
  std::atomic<int> timeouts{0}, oks{0}, others{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Request ping;
      ping.kind = Request::Kind::kPing;
      auto r = chan->RoundTrip(ping);
      if (r.ok()) {
        oks.fetch_add(1);
      } else if (r.status().code() == StatusCode::kTimeout) {
        timeouts.fetch_add(1);
      } else {
        others.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(oks.load(), kThreads - 1);
  EXPECT_EQ(others.load(), 0);
  EXPECT_EQ(chan->stats().faults_injected, 1u);
}

TEST(ConcurrentServer, WorkerPoolDrainsAcceptedTasksOnCrash) {
  ServerOptions opts;
  opts.worker_threads = 2;
  TestCluster cluster(opts);
  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(Connect("drain"));
    ASSERT_TRUE(conn.ok());
    PHX_ASSERT_OK(Try(chan.get(), Exec(conn->session_id,
                                       "CREATE TABLE D (K INTEGER PRIMARY KEY)")));
  }

  // Clients on their own connections insert until the crash stops them.
  // Every round trip must resolve — with the executed result (it beat the
  // crash) or "server is down" — and none may hang or be dropped.
  constexpr int kThreads = 4;
  std::atomic<int> acknowledged{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chan = cluster.network.Connect("testdb").take();
      auto conn = chan->RoundTrip(Connect("d" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) return;
      for (int i = 0;; ++i) {
        Status st = Try(chan.get(),
                        Exec(conn->session_id, "INSERT INTO D VALUES (" +
                                                   std::to_string(t * 100000 + i) +
                                                   ")"));
        if (!st.ok()) return;
        acknowledged.fetch_add(1);
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (acknowledged.load() < 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  cluster.server.Crash();
  for (auto& t : threads) t.join();
  EXPECT_GE(acknowledged.load(), 20);
  PHX_ASSERT_OK(cluster.server.Restart());

  // The durable row count equals the number of acknowledged inserts.
  eng::Database* db = cluster.server.database();
  auto vsid = db->CreateSession("verify");
  ASSERT_TRUE(vsid.ok());
  auto res = db->ExecuteScript(*vsid, "SELECT COUNT(*) AS N FROM D");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()[0].rows[0][0].AsInt64(), acknowledged.load());
}

}  // namespace
}  // namespace phoenix::net
