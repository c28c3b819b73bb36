// Multi-client scaling sweep: N concurrent clients, each with its own
// Channel and session, hammer one DbServer with a read-mostly workload.
// With the worker-pool dispatcher, throughput should scale well past 2x
// from 1 to 8 clients — the paper's client/server sessions are independent,
// so only the short mutation sections serialize.
//
// Uses the sleep wire model (NetworkConfig::sleep_wire): clients spend most
// of each round trip descheduled in simulated LAN latency, so their wire
// time overlaps even on a single-core host. Busy-wait latency would
// serialize on the CPU and measure core count, not server concurrency.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace phoenix::bench {
namespace {

constexpr uint64_t kRoundTripLatencyUs = 200;
constexpr int kOpsPerClient = 250;
constexpr int kInsertEvery = 8;  // 1 insert per 8 ops; the rest are SELECTs

/// One client's life: connect, run the op mix, disconnect. Returns ops done.
int RunClient(net::Network* network, int client_id, int key_base,
              std::atomic<bool>* go) {
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

  int done = 0;
  for (int i = 0; i < kOpsPerClient; ++i) {
    net::Request req;
    req.kind = net::Request::Kind::kExecScript;
    req.session_id = sid;
    if (i % kInsertEvery == 0) {
      int key = key_base + client_id * 100000 + i;
      req.sql = "INSERT INTO HITS VALUES (" + std::to_string(key) + ", " +
                std::to_string(client_id) + ")";
    } else {
      req.sql = "SELECT COUNT(*) AS N FROM ITEMS WHERE K <= " +
                std::to_string((i % 50) + 1);
    }
    auto res = chan->RoundTrip(req);
    BenchEnv::Check(res.status(), "round trip");
    BenchEnv::Check(res.value().ToStatus(), req.sql.c_str());
    ++done;
  }

  net::Request bye;
  bye.kind = net::Request::Kind::kDisconnect;
  bye.session_id = sid;
  chan->RoundTrip(bye);
  return done;
}

// ---- Read-while-write mix: snapshot reads against a hot writer ----------
//
// One writer commits single-row UPDATEs non-stop over a hot 100-key range
// while 1..16 reader clients point-read keys from the same range. Readers
// overlap their wire time (sleep_wire, like the sweep above), so read
// throughput should keep scaling with the client count even though every
// read races the writer's exclusive sections and the readers pin snapshots
// and resolve the hot keys through version chains. One JSON line per cell
// is written to BENCH_mvcc.json.

constexpr int kMixRows = 2000;
constexpr int kMixHotKeys = 100;  // writer's UPDATE range; readers hit it too
constexpr double kMixSecondsPerCell = 0.35;
constexpr uint64_t kMixLatencyUs = 200;

struct MixCell {
  int readers = 0;
  uint64_t reads = 0;
  uint64_t commits = 0;
  double read_ops_per_sec = 0;
  double speedup = 0;  // vs the 1-reader cell
  double commit_p99_ms = 0;
};

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  double pos = p * static_cast<double>(samples->size() - 1);
  size_t idx = static_cast<size_t>(pos + 0.5);
  return (*samples)[std::min(idx, samples->size() - 1)];
}

/// Connects a raw channel + session to `network`; aborts on failure.
std::unique_ptr<net::Channel> OpenMixSession(net::Network* network,
                                             const std::string& user,
                                             uint64_t* sid) {
  auto chan_res = network->Connect("tpch");
  BenchEnv::Check(chan_res.status(), "connect channel");
  std::unique_ptr<net::Channel> chan = std::move(chan_res.value());
  net::Request connect;
  connect.kind = net::Request::Kind::kConnect;
  connect.user = user;
  auto conn = chan->RoundTrip(connect);
  BenchEnv::Check(conn.status(), "connect session");
  *sid = conn.value().session_id;
  return chan;
}

MixCell RunMixCell(int readers) {
  storage::SimDisk disk;
  net::ServerOptions opts;
  opts.worker_threads = static_cast<size_t>(readers) + 2;
  net::DbServer server(&disk, opts);
  BenchEnv::Check(server.Start(), "server start");
  net::Network network;
  network.RegisterServer("tpch", &server);
  network.config()->round_trip_latency_us = kMixLatencyUs;
  network.config()->sleep_wire = true;

  {
    odbc::DriverManager dm(&network);
    odbc::Hdbc* dbc = Connect(&dm, "loader");
    MustDrain(&dm, dbc, "CREATE TABLE MIX (K INTEGER PRIMARY KEY, V INTEGER)");
    for (int base = 0; base < kMixRows; base += 500) {
      std::string sql = "INSERT INTO MIX VALUES ";
      for (int i = base; i < base + 500; ++i) {
        if (i > base) sql += ", ";
        sql += "(" + std::to_string(i) + ", 1)";
      }
      MustDrain(&dm, dbc, sql);
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers) + 1);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      uint64_t sid = 0;
      auto chan =
          OpenMixSession(&network, "reader-" + std::to_string(r), &sid);
      net::Request req;
      req.kind = net::Request::Kind::kExecScript;
      req.session_id = sid;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Alternate between the writer's hot range and the cold tail.
        int key = (i % 2 == 0) ? (r * 13 + i * 7) % kMixHotKeys
                               : kMixHotKeys + (r * 29 + i * 11) %
                                                   (kMixRows - kMixHotKeys);
        ++i;
        req.sql = "SELECT V FROM MIX WHERE K = " + std::to_string(key);
        auto res = chan->RoundTrip(req);
        BenchEnv::Check(res.status(), "reader round trip");
        BenchEnv::Check(res.value().ToStatus(), "reader select");
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<double> commit_ms;
  std::atomic<uint64_t> commits{0};
  threads.emplace_back([&] {
    uint64_t sid = 0;
    auto chan = OpenMixSession(&network, "writer", &sid);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    int k = 0;
    while (!stop.load(std::memory_order_acquire)) {
      net::Request req;
      req.kind = net::Request::Kind::kExecScript;
      req.session_id = sid;
      req.sql = "UPDATE MIX SET V = V + 1 WHERE K = " +
                std::to_string(k++ % kMixHotKeys);
      auto t0 = std::chrono::steady_clock::now();
      auto res = chan->RoundTrip(req);
      auto t1 = std::chrono::steady_clock::now();
      BenchEnv::Check(res.status(), "writer round trip");
      BenchEnv::Check(res.value().ToStatus(), "writer update");
      commit_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  StopWatch watch;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kMixSecondsPerCell));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double elapsed = watch.ElapsedSeconds();

  MixCell cell;
  cell.readers = readers;
  cell.reads = reads.load();
  cell.commits = commits.load();
  cell.read_ops_per_sec = static_cast<double>(cell.reads) / elapsed;
  cell.commit_p99_ms = Percentile(&commit_ms, 0.99);
  return cell;
}

void RunReadWhileWriteMix() {
  std::printf("\nRead-while-write mix: point readers vs one autocommit "
              "writer over %d hot keys, %lluus wire\n",
              kMixHotKeys, static_cast<unsigned long long>(kMixLatencyUs));
  PrintRule();
  std::printf("%8s %10s %12s %9s %14s %10s\n", "readers", "reads",
              "reads/sec", "speedup", "commit p99 ms", "commits");
  PrintRule();

  std::FILE* json = std::fopen("BENCH_mvcc.json", "w");
  double baseline = 0;
  double scale16 = 0;
  double p99_16 = 0;
  for (int readers : {1, 2, 4, 8, 16}) {
    MixCell cell = RunMixCell(readers);
    if (readers == 1) baseline = cell.read_ops_per_sec;
    cell.speedup = baseline > 0 ? cell.read_ops_per_sec / baseline : 0;
    if (readers == 16) {
      scale16 = cell.speedup;
      p99_16 = cell.commit_p99_ms;
    }
    std::printf("%8d %10llu %12.0f %8.2fx %14.3f %10llu\n", cell.readers,
                static_cast<unsigned long long>(cell.reads),
                cell.read_ops_per_sec, cell.speedup, cell.commit_p99_ms,
                static_cast<unsigned long long>(cell.commits));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\": \"mvcc_read_while_write\", "
                  "\"readers\": %d, \"reads_per_sec\": %.0f, "
                  "\"read_speedup\": %.2f, \"commit_p99_ms\": %.3f, "
                  "\"commits\": %llu}",
                  cell.readers, cell.read_ops_per_sec, cell.speedup,
                  cell.commit_p99_ms,
                  static_cast<unsigned long long>(cell.commits));
    std::printf("BENCH_MVCC_JSON %s\n", line);
    if (json != nullptr) {
      std::fputs(line, json);
      std::fputc('\n', json);
    }
  }
  if (json != nullptr) std::fclose(json);
  PrintRule();
  std::printf("1 -> 16 reader speedup: %.2fx (acceptance floor: 6x); "
              "commit p99 at 16 readers: %.3fms\n",
              scale16, p99_16);
}

void Main() {
  storage::SimDisk disk;
  net::ServerOptions opts;
  opts.worker_threads = 8;
  net::DbServer server(&disk, opts);
  BenchEnv::Check(server.Start(), "server start");
  net::Network network;
  network.RegisterServer("tpch", &server);
  network.config()->round_trip_latency_us = kRoundTripLatencyUs;
  network.config()->sleep_wire = true;

  {
    odbc::DriverManager dm(&network);
    odbc::Hdbc* dbc = Connect(&dm, "loader");
    MustDrain(&dm, dbc,
              "CREATE TABLE ITEMS (K INTEGER PRIMARY KEY, V INTEGER)");
    MustDrain(&dm, dbc,
              "CREATE TABLE HITS (K INTEGER PRIMARY KEY, CLIENT INTEGER)");
    std::string sql = "INSERT INTO ITEMS VALUES ";
    for (int i = 1; i <= 50; ++i) {
      if (i > 1) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i * 7) + ")";
    }
    MustDrain(&dm, dbc, sql);
  }

  std::printf("Multi-client scaling: %d ops/client, %lluus RT latency, "
              "%zu requests executing at once\n",
              kOpsPerClient,
              static_cast<unsigned long long>(kRoundTripLatencyUs),
              opts.worker_threads);
  PrintRule();
  std::printf("%8s %10s %12s %12s %10s\n", "clients", "ops", "elapsed (s)",
              "ops/sec", "speedup");
  PrintRule();

  double baseline_ops_per_sec = 0;
  double speedup_1_to_8 = 0;
  int sweep = 0;
  for (int clients : {1, 2, 4, 8, 16}) {
    int key_base = 1000000 * ++sweep;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    std::atomic<int> total_ops{0};
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        total_ops.fetch_add(RunClient(&network, c, key_base, &go));
      });
    }
    StopWatch watch;
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    double elapsed = watch.ElapsedSeconds();
    double ops_per_sec = total_ops.load() / elapsed;
    if (clients == 1) baseline_ops_per_sec = ops_per_sec;
    double speedup = ops_per_sec / baseline_ops_per_sec;
    if (clients == 8) speedup_1_to_8 = speedup;
    std::printf("%8d %10d %12.3f %12.0f %9.2fx\n", clients, total_ops.load(),
                elapsed, ops_per_sec, speedup);
  }
  PrintRule();
  std::printf("1 -> 8 client speedup: %.2fx (acceptance floor: 2x)\n",
              speedup_1_to_8);
  net::ServerStats stats = server.stats();
  std::printf("admission: %llu requests executed, %llu waited for a slot\n",
              static_cast<unsigned long long>(stats.requests_executed),
              static_cast<unsigned long long>(stats.admission_waits));

  RunReadWhileWriteMix();

  DumpMetrics("bench_multiclient_scale");
}

}  // namespace
}  // namespace phoenix::bench

int main() {
  phoenix::bench::Main();
  return 0;
}
