// Concurrency tests for the DbServer: many client threads and sessions
// against one server, with and without crash/restart mid-flight. The
// invariants under test:
//   - no DML outcome is lost or duplicated (a success the client saw is
//     durable; a key is never inserted twice),
//   - requests naming one session id exclude each other, and the server
//     keeps no per-session lock state once they finish,
//   - a request runs on the thread that hands it in, and no more than
//     `worker_threads` run at once; Crash() lets the admitted ones finish,
//     turns the waiting ones away, and is not starved by busy clients,
//   - a single injected fault token fires exactly once regardless of how
//     many threads share the channel (the per-request claim regression).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
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

TEST(ConcurrentServer, CrashDrainsAcceptedRequests) {
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

TEST(ConcurrentServer, RequestRunsOnTheCallingThread) {
  TestCluster cluster;
  std::thread::id ran_on;
  cluster.before_dispatch = [&](const Request&) {
    ran_on = std::this_thread::get_id();
  };
  auto chan = cluster.network.Connect("testdb").take();
  Request ping;
  ping.kind = Request::Kind::kPing;
  PHX_ASSERT_OK(Try(chan.get(), ping));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ConcurrentServer, AdmissionCapBoundsConcurrentExecution) {
  ServerOptions opts;
  opts.worker_threads = 2;
  TestCluster cluster(opts);
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<Channel>> chans;
  std::vector<uint64_t> sids;
  for (int i = 0; i < kClients; ++i) {
    chans.push_back(cluster.network.Connect("testdb").take());
    auto conn = chans.back()->RoundTrip(Connect("c" + std::to_string(i)));
    ASSERT_TRUE(conn.ok());
    sids.push_back(conn->session_id);
  }
  PHX_ASSERT_OK(Try(chans[0].get(),
                    Exec(sids[0], "CREATE TABLE A (K INTEGER PRIMARY KEY); "
                                  "INSERT INTO A VALUES (7)")));

  // Every SELECT parks in the hook until released.
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0, max_inside = 0, entered = 0;
  bool release = false;
  cluster.before_dispatch = [&](const Request& req) {
    if (req.sql.rfind("SELECT", 0) != 0) return;
    std::unique_lock<std::mutex> lk(mu);
    ++entered;
    max_inside = std::max(max_inside, ++inside);
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
    --inside;
  };
  auto* waits =
      obs::MetricsRegistry::Default()->GetCounter("server.pool.submit_waits");
  const uint64_t waits_before = waits->Value();
  const uint64_t stat_waits_before = cluster.server.stats().admission_waits;

  std::vector<Result<Response>> replies(kClients, Status::Internal("unset"));
  std::atomic<int> returned{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = chans[i]->RoundTrip(Exec(sids[i], "SELECT K FROM A"));
      returned.fetch_add(1);
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto until = [&](const std::function<bool()>& done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_until(lk, deadline, [&] { return inside == 2; }));
  }
  // The other two found both slots taken and are waiting for one.
  ASSERT_TRUE(until([&] { return waits->Value() - waits_before == 2; }));
  EXPECT_EQ(cluster.server.stats().admission_waits - stat_waits_before, 2u);
  EXPECT_EQ(returned.load(), 0);

  // Crash with two requests admitted and two waiting: the waiting ones are
  // turned away without executing; the crash then waits for the admitted.
  std::atomic<bool> crashed{false};
  std::thread crasher([&] {
    cluster.server.Crash();
    crashed.store(true);
  });
  EXPECT_TRUE(until([&] { return returned.load() == 2; }));
  EXPECT_FALSE(crashed.load());
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : clients) t.join();
  crasher.join();

  int executed = 0, down = 0;
  for (const auto& r : replies) {
    if (r.ok() && r->kind == Response::Kind::kResults) {
      ASSERT_EQ(r->results[0].rows.size(), 1u);
      EXPECT_EQ(r->results[0].rows[0][0].AsInt64(), 7);
      ++executed;
    } else if (!r.ok() && r.status().IsCommError()) {
      ++down;
    }
  }
  EXPECT_EQ(executed, 2);
  EXPECT_EQ(down, 2);
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(entered, 2);  // the turned-away requests never reached the hook
}

TEST(ConcurrentServer, CrashIsNotStarvedByBusyClients) {
  TestCluster cluster;  // 4 slots for 6 busy clients
  {
    auto chan = cluster.network.Connect("testdb").take();
    auto conn = chan->RoundTrip(Connect("ddl"));
    ASSERT_TRUE(conn.ok());
    PHX_ASSERT_OK(Try(chan.get(),
                      Exec(conn->session_id,
                           "CREATE TABLE R (K INTEGER PRIMARY KEY); "
                           "INSERT INTO R VALUES (1), (2), (3)")));
  }
  constexpr int kThreads = 6;
  std::atomic<int> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto chan = cluster.network.Connect("testdb").take();
      auto conn = chan->RoundTrip(Connect("r" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) return;
      while (Try(chan.get(), Exec(conn->session_id,
                                  "SELECT COUNT(*) AS N FROM R")).ok()) {
        reads.fetch_add(1);
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(reads.load(), 200);
  auto start = std::chrono::steady_clock::now();
  cluster.server.Crash();
  auto took = std::chrono::steady_clock::now() - start;
  for (auto& t : threads) t.join();
  EXPECT_LT(took, std::chrono::seconds(2));
  EXPECT_FALSE(cluster.server.alive());
}

}  // namespace
}  // namespace phoenix::net
