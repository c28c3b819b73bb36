// Checkpoint-stall bench: commit-latency tail under auto-checkpoints, 8
// concurrent clients. Two phases over identical workloads:
//
//   no-checkpoint     — cadence off: the latency floor,
//   ckpt-background   — commits only pay the brief snapshot clone; encode +
//                       write run on the dedicated checkpoint thread.
//
// The store is preloaded so each image is meaningfully large, and the disk
// charges a realistic fsync service time. Acceptance: background p99 commit
// latency within 2x of the no-checkpoint floor. Results land in
// BENCH_checkpoint.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace phoenix::bench {
namespace {

constexpr uint64_t kSyncLatencyUs = 200;    // fsync service time
constexpr int kPreloadRows = 6000;        // image size driver
constexpr int kClients = 8;
constexpr int kCommitsPerClient = 120;
constexpr uint64_t kCheckpointEveryN = 25;  // fires ~38x per phase

struct Mode {
  const char* name;
  uint64_t checkpoint_every_n;
};

struct PhaseResult {
  std::string mode;
  int commits = 0;
  double elapsed_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  uint64_t checkpoints = 0;
  uint64_t skipped = 0;
};

double Percentile(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us.size()));
  if (idx >= sorted_us.size()) idx = sorted_us.size() - 1;
  return sorted_us[idx];
}

void RunClient(net::Network* network, int client_id, std::atomic<bool>* go,
               std::vector<double>* latencies_us, std::mutex* latencies_mu) {
  auto chan_res = network->Connect("tpch");
  BenchEnv::Check(chan_res.status(), "connect channel");
  std::unique_ptr<net::Channel> chan = std::move(chan_res.value());

  net::Request connect;
  connect.kind = net::Request::Kind::kConnect;
  connect.user = "client-" + std::to_string(client_id);
  auto conn = chan->RoundTrip(connect);
  BenchEnv::Check(conn.status(), "connect session");
  uint64_t sid = conn.value().session_id;

  std::vector<double> local;
  local.reserve(kCommitsPerClient);
  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kCommitsPerClient; ++i) {
    net::Request req;
    req.kind = net::Request::Kind::kExecScript;
    req.session_id = sid;
    int key = 1000000 + client_id * 100000 + i;
    req.sql = "INSERT INTO HITS VALUES (" + std::to_string(key) + ", " +
              std::to_string(client_id) + ")";
    StopWatch watch;
    auto res = chan->RoundTrip(req);
    double us = watch.ElapsedSeconds() * 1e6;
    BenchEnv::Check(res.status(), "round trip");
    BenchEnv::Check(res.value().ToStatus(), req.sql.c_str());
    local.push_back(us);
  }
  std::lock_guard<std::mutex> lk(*latencies_mu);
  latencies_us->insert(latencies_us->end(), local.begin(), local.end());
}

PhaseResult RunPhase(const Mode& mode) {
  // Fresh disk + server per phase: identical starting state, clean counters.
  storage::SimDisk disk;
  disk.set_sync_latency_us(kSyncLatencyUs);
  net::ServerOptions opts;
  opts.db.checkpoint_every_n_commits = mode.checkpoint_every_n;
  opts.worker_threads = 16;
  opts.queue_capacity = 256;
  net::DbServer server(&disk, opts);
  BenchEnv::Check(server.Start(), "server start");
  net::Network network;
  network.RegisterServer("tpch", &server);

  {
    odbc::DriverManager dm(&network);
    odbc::Hdbc* dbc = Connect(&dm, "loader");
    MustDrain(&dm, dbc,
              "CREATE TABLE HITS (K INTEGER PRIMARY KEY, CLIENT INTEGER)");
    // Preload so each checkpoint image is a real encode, not a few bytes.
    for (int base = 0; base < kPreloadRows; base += 500) {
      std::string sql = "INSERT INTO HITS VALUES ";
      for (int k = base; k < base + 500; ++k) {
        if (k != base) sql += ", ";
        sql += "(" + std::to_string(k) + ", -1)";
      }
      MustDrain(&dm, dbc, sql);
    }
  }

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  uint64_t ckpts0 = reg->GetCounter("storage.checkpoints")->Value();
  uint64_t skipped0 = reg->GetCounter("storage.checkpoint.skipped")->Value();

  std::atomic<bool> go{false};
  std::vector<double> latencies_us;
  std::mutex latencies_mu;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { RunClient(&network, c, &go, &latencies_us, &latencies_mu); });
  }
  StopWatch watch;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double elapsed = watch.ElapsedSeconds();
  server.database()->WaitForCheckpointIdle();

  std::sort(latencies_us.begin(), latencies_us.end());
  PhaseResult r;
  r.mode = mode.name;
  r.commits = static_cast<int>(latencies_us.size());
  r.elapsed_s = elapsed;
  r.p50_us = Percentile(latencies_us, 0.50);
  r.p95_us = Percentile(latencies_us, 0.95);
  r.p99_us = Percentile(latencies_us, 0.99);
  r.max_us = latencies_us.empty() ? 0 : latencies_us.back();
  r.checkpoints = reg->GetCounter("storage.checkpoints")->Value() - ckpts0;
  r.skipped =
      reg->GetCounter("storage.checkpoint.skipped")->Value() - skipped0;
  return r;
}

void Main() {
  std::printf(
      "Checkpoint-stall sweep: %d clients x %d commits, %d preloaded rows, "
      "ckpt every %llu commits, %lluus fsync latency\n",
      kClients, kCommitsPerClient, kPreloadRows,
      static_cast<unsigned long long>(kCheckpointEveryN),
      static_cast<unsigned long long>(kSyncLatencyUs));
  PrintRule(96);
  std::printf("%-18s %8s %10s %10s %10s %10s %10s %6s %8s\n", "mode",
              "commits", "p50(us)", "p95(us)", "p99(us)", "max(us)",
              "elapsed(s)", "ckpts", "skipped");
  PrintRule(96);

  const Mode modes[] = {
      {"no-checkpoint", 0},
      {"ckpt-background", kCheckpointEveryN},
  };
  std::vector<PhaseResult> results;
  for (const Mode& mode : modes) {
    PhaseResult r = RunPhase(mode);
    std::printf("%-18s %8d %10.0f %10.0f %10.0f %10.0f %10.2f %6llu %8llu\n",
                r.mode.c_str(), r.commits, r.p50_us, r.p95_us, r.p99_us,
                r.max_us, r.elapsed_s,
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.skipped));
    results.push_back(std::move(r));
  }
  PrintRule(96);
  double floor_p99 = results[0].p99_us;
  double bg_p99 = results[1].p99_us;
  double bg_ratio = floor_p99 > 0 ? bg_p99 / floor_p99 : 0;
  std::printf("p99 vs no-checkpoint floor: background %.2fx "
              "(acceptance ceiling: 2x)\n",
              bg_ratio);

  std::string json =
      "{\n  \"clients\": " + std::to_string(kClients) +
      ",\n  \"commits_per_client\": " + std::to_string(kCommitsPerClient) +
      ",\n  \"preload_rows\": " + std::to_string(kPreloadRows) +
      ",\n  \"checkpoint_every_n\": " + std::to_string(kCheckpointEveryN) +
      ",\n  \"sync_latency_us\": " + std::to_string(kSyncLatencyUs) +
      ",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const PhaseResult& r = results[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"mode\": \"" + r.mode +
            "\", \"commits\": " + std::to_string(r.commits) +
            ", \"elapsed_s\": " + std::to_string(r.elapsed_s) +
            ", \"p50_us\": " + std::to_string(r.p50_us) +
            ", \"p95_us\": " + std::to_string(r.p95_us) +
            ", \"p99_us\": " + std::to_string(r.p99_us) +
            ", \"max_us\": " + std::to_string(r.max_us) +
            ", \"checkpoints\": " + std::to_string(r.checkpoints) +
            ", \"skipped\": " + std::to_string(r.skipped) + "}";
  }
  json += "\n  ],\n  \"acceptance\": {\"bg_p99_over_floor\": " +
          std::to_string(bg_ratio) + ", \"ceiling\": 2.0, \"pass\": " +
          (bg_ratio <= 2.0 && bg_ratio > 0 ? "true" : "false") + "}\n}";
  std::printf("\nBENCH_JSON bench_checkpoint_stall %s\n", json.c_str());
  if (std::FILE* f = std::fopen("BENCH_checkpoint.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  DumpMetrics("bench_checkpoint_stall");
}

}  // namespace
}  // namespace phoenix::bench

int main() {
  phoenix::bench::Main();
  return 0;
}
