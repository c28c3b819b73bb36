// Group-commit sweep: 1..8 commit-heavy clients against one DbServer running
// the WAL group-commit pipeline.
//
// The disk charges a realistic fsync service time (SimDisk sync latency). A
// lone client pays one sync per commit — every batch holds one record — so
// the 1-client row is the per-commit-sync baseline; concurrent clients pay
// one sync per coalesced batch. The syncs-saved column is read straight from
// the storage.wal.* counters. Acceptance: >= 3x commit throughput at 8
// concurrent clients over 1 client, with storage.wal.syncs per commit
// reduced proportionally. Results land in BENCH_group_commit.json.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace phoenix::bench {
namespace {

constexpr uint64_t kSyncLatencyUs = 400;  // fsync service time
constexpr int kCommitsPerClient = 150;    // every op is an autocommit INSERT

struct PhaseResult {
  int clients = 0;
  int commits = 0;
  double elapsed_s = 0;
  double commits_per_sec = 0;
  uint64_t wal_syncs = 0;
  uint64_t gc_batches = 0;
  uint64_t gc_syncs_saved = 0;
};

/// One client's life: connect, commit kCommitsPerClient single-row inserts.
void RunClient(net::Network* network, int client_id, int key_base,
               std::atomic<bool>* go, std::atomic<int>* commits) {
  auto chan_res = network->Connect("tpch");
  BenchEnv::Check(chan_res.status(), "connect channel");
  std::unique_ptr<net::Channel> chan = std::move(chan_res.value());

  net::Request connect;
  connect.kind = net::Request::Kind::kConnect;
  connect.user = "client-" + std::to_string(client_id);
  auto conn = chan->RoundTrip(connect);
  BenchEnv::Check(conn.status(), "connect session");
  uint64_t sid = conn.value().session_id;

  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kCommitsPerClient; ++i) {
    net::Request req;
    req.kind = net::Request::Kind::kExecScript;
    req.session_id = sid;
    int key = key_base + client_id * 100000 + i;
    req.sql = "INSERT INTO HITS VALUES (" + std::to_string(key) + ", " +
              std::to_string(client_id) + ")";
    auto res = chan->RoundTrip(req);
    BenchEnv::Check(res.status(), "round trip");
    BenchEnv::Check(res.value().ToStatus(), req.sql.c_str());
    commits->fetch_add(1);
  }
}

PhaseResult RunPhase(int clients) {
  // Fresh disk + server per phase: no cross-phase WAL growth, clean counters.
  storage::SimDisk disk;
  disk.set_sync_latency_us(kSyncLatencyUs);
  net::ServerOptions opts;
  opts.worker_threads = 16;
  net::DbServer server(&disk, opts);
  BenchEnv::Check(server.Start(), "server start");
  net::Network network;
  network.RegisterServer("tpch", &server);

  {
    odbc::DriverManager dm(&network);
    odbc::Hdbc* dbc = Connect(&dm, "loader");
    MustDrain(&dm, dbc,
              "CREATE TABLE HITS (K INTEGER PRIMARY KEY, CLIENT INTEGER)");
  }

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  uint64_t syncs0 = reg->GetCounter("storage.wal.syncs")->Value();
  uint64_t batches0 =
      reg->GetCounter("storage.wal.group_commit.batches")->Value();
  uint64_t saved0 =
      reg->GetCounter("storage.wal.group_commit.syncs_saved")->Value();

  std::atomic<bool> go{false};
  std::atomic<int> commits{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(
        [&, c] { RunClient(&network, c, 1000000, &go, &commits); });
  }
  StopWatch watch;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double elapsed = watch.ElapsedSeconds();

  PhaseResult r;
  r.clients = clients;
  r.commits = commits.load();
  r.elapsed_s = elapsed;
  r.commits_per_sec = r.commits / elapsed;
  r.wal_syncs = reg->GetCounter("storage.wal.syncs")->Value() - syncs0;
  r.gc_batches =
      reg->GetCounter("storage.wal.group_commit.batches")->Value() - batches0;
  r.gc_syncs_saved =
      reg->GetCounter("storage.wal.group_commit.syncs_saved")->Value() - saved0;
  return r;
}

void Main() {
  std::printf("Group-commit sweep: %d commits/client, %lluus fsync latency\n",
              kCommitsPerClient,
              static_cast<unsigned long long>(kSyncLatencyUs));
  PrintRule(70);
  std::printf("%8s %9s %12s %10s %9s %11s\n", "clients", "commits",
              "commits/sec", "wal syncs", "batches", "syncs saved");
  PrintRule(70);

  std::vector<PhaseResult> results;
  for (int clients : {1, 2, 4, 8}) {
    PhaseResult r = RunPhase(clients);
    std::printf("%8d %9d %12.0f %10llu %9llu %11llu\n", r.clients, r.commits,
                r.commits_per_sec,
                static_cast<unsigned long long>(r.wal_syncs),
                static_cast<unsigned long long>(r.gc_batches),
                static_cast<unsigned long long>(r.gc_syncs_saved));
    results.push_back(std::move(r));
  }
  PrintRule(70);
  const PhaseResult& one = results.front();
  const PhaseResult& eight = results.back();
  double speedup = eight.commits_per_sec / one.commits_per_sec;
  auto syncs_per_commit = [](const PhaseResult& r) {
    return r.commits > 0 ? static_cast<double>(r.wal_syncs) / r.commits : 0;
  };
  std::printf(
      "commit throughput: 8 clients %.0f/s vs 1 client %.0f/s = %.2fx "
      "(acceptance floor: 3x)\n",
      eight.commits_per_sec, one.commits_per_sec, speedup);
  std::printf("wal syncs per commit: 1 client %.2f -> 8 clients %.2f\n",
              syncs_per_commit(one), syncs_per_commit(eight));

  // Machine-readable dump for the trajectory scraper / EXPERIMENTS.md.
  std::string json = "{\n  \"sync_latency_us\": " +
                     std::to_string(kSyncLatencyUs) +
                     ",\n  \"commits_per_client\": " +
                     std::to_string(kCommitsPerClient) + ",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"clients\": " + std::to_string(r.clients) +
            ", \"commits\": " + std::to_string(r.commits) +
            ", \"elapsed_s\": " + std::to_string(r.elapsed_s) +
            ", \"commits_per_sec\": " + std::to_string(r.commits_per_sec) +
            ", \"wal_syncs\": " + std::to_string(r.wal_syncs) +
            ", \"gc_batches\": " + std::to_string(r.gc_batches) +
            ", \"gc_syncs_saved\": " + std::to_string(r.gc_syncs_saved) + "}";
  }
  json += "\n  ],\n  \"acceptance\": {\"speedup_8_clients\": " +
          std::to_string(speedup) +
          ", \"floor\": 3.0, \"pass\": " + (speedup >= 3.0 ? "true" : "false") +
          "}\n}";
  std::printf("\nBENCH_JSON bench_group_commit %s\n", json.c_str());
  if (std::FILE* f = std::fopen("BENCH_group_commit.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  DumpMetrics("bench_group_commit");
}

}  // namespace
}  // namespace phoenix::bench

int main() {
  phoenix::bench::Main();
  return 0;
}
