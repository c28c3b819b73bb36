// Reproduces **Figure 2** of the paper: "Elapsed time for session recovery
// over varying result sizes", decomposed into the Virtual Session phase
// (reconnect + option replay + handle re-mapping — constant, 0.37 s in the
// paper) and the SQL State phase (re-open the persistent result table and
// advance to the interrupted position server-side — nearly flat in result
// size).
//
// Protocol per point: run a query returning N rows through Phoenix, fetch
// to within a few tuples of the end, kill the server, let Phoenix recover
// on the next fetch, and read the per-phase timings off PhoenixStats.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "storage/recovery.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"

namespace phoenix::bench {
namespace {

constexpr uint64_t kRoundTripLatencyUs = 500;  // recovery is round-trip bound
constexpr int kRepetitions = 5;

struct Point {
  int rows;
  double detect = 0;
  double virtual_session = 0;
  double sql_state = 0;
};

void Main() {
  BenchEnv env(kRoundTripLatencyUs);
  odbc::DriverManager native(&env.network);
  odbc::Hdbc* loader = Connect(&native, "loader");

  // One wide table; each measurement selects a prefix of it.
  MustDrain(&native, loader,
            "CREATE TABLE R (N INTEGER PRIMARY KEY, PAYLOAD VARCHAR)");
  const int kMaxRows = 16000;
  for (int base = 0; base < kMaxRows; base += 500) {
    std::string sql = "INSERT INTO R VALUES ";
    for (int i = 1; i <= 500; ++i) {
      if (i > 1) sql += ", ";
      int n = base + i;
      sql += "(" + std::to_string(n) + ", 'payload-row-" + std::to_string(n) +
             "-0123456789abcdef')";
    }
    MustDrain(&native, loader, sql);
  }

  // Fetch block size divides every fetch target below, so the client-side
  // block buffer is exactly drained when the crash hits: the next SQLFetch
  // must go to the server, and the recovery we time is the one the
  // application experiences on its outstanding request.
  constexpr int kBlock = 50;

  std::vector<Point> points;
  for (int rows : {500, 1000, 2000, 4000, 8000, 16000}) {
    Point p;
    p.rows = rows;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // Fresh virtual session per run: artifacts cleaned at disconnect,
      // checkpoint keeps the server's own restart time flat.
      core::PhoenixDriverManager phoenix(&env.network,
                                         AutoRestart(&env.server));
      odbc::Hdbc* dbc = Connect(&phoenix, "app");
      odbc::Hstmt* stmt = phoenix.AllocStmt(dbc);
      phoenix.SetStmtAttr(stmt, odbc::StmtAttr::kBlockSize, kBlock);
      std::string q = "SELECT N, PAYLOAD FROM R WHERE N <= " +
                      std::to_string(rows) + " ORDER BY N";
      Check(Succeeded(phoenix.ExecDirect(stmt, q)), "exec",
            odbc::DriverManager::Diag(stmt));
      // Fetch until one block of tuples remains unread (paper protocol:
      // "begin fetching tuples until we near the end of the result set").
      for (int i = 0; i < rows - kBlock; ++i) {
        Check(Succeeded(phoenix.Fetch(stmt)), "fetch",
              odbc::DriverManager::Diag(stmt));
      }
      BenchEnv::Check(env.server.database()->Checkpoint(), "checkpoint");
      env.server.Crash();
      // The outstanding fetch triggers detection + two-phase recovery.
      Check(Succeeded(phoenix.Fetch(stmt)), "post-crash fetch",
            odbc::DriverManager::Diag(stmt));
      Check(phoenix.stats().recoveries == 1, "exactly one recovery");
      p.detect += phoenix.stats().last_detect_seconds;
      p.virtual_session += phoenix.stats().last_virtual_session_seconds;
      p.sql_state += phoenix.stats().last_sql_state_seconds;
      while (phoenix.Fetch(stmt) == odbc::SqlReturn::kSuccess) {
      }
      phoenix.FreeStmt(stmt);
      phoenix.Disconnect(dbc);
    }
    p.detect /= kRepetitions;
    p.virtual_session /= kRepetitions;
    p.sql_state /= kRepetitions;
    points.push_back(p);
  }

  std::printf("Figure 2. Elapsed time for session recovery over varying "
              "result sizes\n");
  std::printf("(seconds; mean of %d recoveries per point; the server-outage\n"
              " column is the time the server itself took to come back and "
              "is\n excluded from the paper's recovery figure)\n",
              kRepetitions);
  PrintRule();
  std::printf("%10s %16s %12s %12s | %14s\n", "Result", "Virtual Session",
              "SQL State", "Recovery", "Server outage");
  std::printf("%10s %16s %12s %12s | %14s\n", "(tuples)", "(s)", "(s)", "(s)",
              "(s)");
  PrintRule();
  for (const Point& p : points) {
    std::printf("%10d %16.6f %12.6f %12.6f | %14.6f\n", p.rows,
                p.virtual_session, p.sql_state,
                p.virtual_session + p.sql_state, p.detect);
  }
  PrintRule();
  std::printf("\nStacked-bar view of recovery time (50 chars = largest):\n");
  double max_total = 0;
  for (const Point& p : points) {
    max_total = std::max(max_total, p.virtual_session + p.sql_state);
  }
  for (const Point& p : points) {
    int vs_chars = static_cast<int>(50 * p.virtual_session / max_total + 0.5);
    int sql_chars = static_cast<int>(50 * p.sql_state / max_total + 0.5);
    std::printf("%7d | ", p.rows);
    for (int i = 0; i < vs_chars; ++i) std::putchar('V');
    for (int i = 0; i < sql_chars; ++i) std::putchar('S');
    std::printf("\n");
  }
  std::printf("          V = virtual session, S = SQL state\n");
  std::printf(
      "\nPaper reference: virtual-session phase constant (0.37 s on 1999 "
      "hardware);\nSQL-state phase grows only mildly with result size "
      "because re-positioning\nhappens server-side without shipping "
      "tuples.\n");

  // ---- Reposition-strategy ablation ------------------------------------
  // The paper's Figure 2 numbers are "when Phoenix/ODBC re-positions the
  // result set using a stored procedure that advances ... without passing
  // tuples to the client". The alternative — re-fetching from the start and
  // discarding client-side — pays delivery for every already-seen tuple.
  std::printf("\nAblation: SQL-state phase, server-side seek vs client "
              "refetch+discard\n");
  PrintRule();
  std::printf("%10s %18s %22s %8s\n", "Result", "server seek (s)",
              "client refetch (s)", "ratio");
  PrintRule();
  for (int rows : {1000, 4000, 16000}) {
    double by_mode[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      for (int rep = 0; rep < kRepetitions; ++rep) {
        core::PhoenixDriverManager phoenix(&env.network,
                                           AutoRestart(&env.server));
        phoenix.mutable_config()->server_side_reposition = (mode == 0);
        odbc::Hdbc* dbc = Connect(&phoenix, "app");
        odbc::Hstmt* stmt = phoenix.AllocStmt(dbc);
        phoenix.SetStmtAttr(stmt, odbc::StmtAttr::kBlockSize, kBlock);
        Check(Succeeded(phoenix.ExecDirect(
                  stmt, "SELECT N, PAYLOAD FROM R WHERE N <= " +
                            std::to_string(rows) + " ORDER BY N")),
              "exec", odbc::DriverManager::Diag(stmt));
        for (int i = 0; i < rows - kBlock; ++i) {
          Check(Succeeded(phoenix.Fetch(stmt)), "fetch",
                odbc::DriverManager::Diag(stmt));
        }
        BenchEnv::Check(env.server.database()->Checkpoint(), "checkpoint");
        env.server.Crash();
        Check(Succeeded(phoenix.Fetch(stmt)), "post-crash fetch",
              odbc::DriverManager::Diag(stmt));
        by_mode[mode] += phoenix.stats().last_sql_state_seconds;
        while (phoenix.Fetch(stmt) == odbc::SqlReturn::kSuccess) {
        }
        phoenix.FreeStmt(stmt);
        phoenix.Disconnect(dbc);
      }
      by_mode[mode] /= kRepetitions;
    }
    std::printf("%10d %18.6f %22.6f %7.1fx\n", rows, by_mode[0], by_mode[1],
                by_mode[1] / by_mode[0]);
  }
  PrintRule();
}

constexpr char kRecoveryParallelJson[] = "BENCH_recovery_parallel.json";

/// One JSON object line per sweep point, appended to
/// BENCH_recovery_parallel.json (and tagged on stdout for scrapers) — the
/// serial-vs-partitioned replay record. The sweep truncates the file first,
/// so it holds exactly one run.
void AppendRecoveryParallelJson(const std::string& json) {
  std::printf("\nBENCH_RECOVERY_PARALLEL_JSON %s\n", json.c_str());
  if (std::FILE* f = std::fopen(kRecoveryParallelJson, "a")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

// ---- Parallel WAL replay sweep -------------------------------------------
// The storage-level complement to Figure 2: the paper's recovery story
// assumes the database side of a restart is fast; this sweep measures the
// WAL-replay half of that restart as the log grows, serial vs partitioned
// across 4 worker threads (PHX_RECOVERY_THREADS=4). 32 tables, two
// secondary indexes each, so replay cost is dominated by applying ops
// (index maintenance) rather than decoding frames — the regime where
// partitioning by table pays.

/// Median, min and max of one timing's runs.
struct Spread {
  double median, min, max;
};

Spread SpreadOf(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  size_t n = runs.size();
  double median = n % 2 ? runs[n / 2] : (runs[n / 2 - 1] + runs[n / 2]) / 2;
  return Spread{median, runs.front(), runs.back()};
}

std::string SpreadJson(const char* name, const Spread& s) {
  return ",\"" + std::string(name) + "_s\":" + std::to_string(s.median) +
         ",\"" + name + "_min_s\":" + std::to_string(s.min) + ",\"" + name +
         "_max_s\":" + std::to_string(s.max);
}

void WalReplaySweep() {
  constexpr int kTables = 32;
  constexpr uint64_t kThreads = 4;
  constexpr int kOpsPerCommit = 4;
  // Runs per timing: one run cannot resolve a 10-20% change on a shared
  // host, so each figure is a median with its min and max.
  constexpr int kReplayRuns = 5;

  if (std::FILE* f = std::fopen(kRecoveryParallelJson, "w")) std::fclose(f);
  const unsigned nproc = std::thread::hardware_concurrency();

  std::printf("\nParallel WAL replay sweep (%d tables, 2 secondary indexes "
              "each; median [min, max] of %d runs, serial and 4-thread "
              "runs alternating)\n",
              kTables, kReplayRuns);
  PrintRule();
  std::printf("%8s %7s %9s %26s %26s %8s\n", "Records", "WAL MB", "scan (s)",
              "serial (s)", "4-thread (s)", "speedup");
  PrintRule();

  for (int records : {8000, 32000, 96000}) {
    storage::SimDisk disk;
    storage::DurabilityManager dm(&disk, "db");
    Schema schema;
    schema.AddColumn(Column{"K", DataType::kInt64, false});
    schema.AddColumn(Column{"V", DataType::kInt64, true});
    schema.AddColumn(Column{"W", DataType::kInt64, true});
    uint64_t txn = 1;
    for (int t = 0; t < kTables; ++t) {
      std::string name = "T" + std::to_string(t);
      storage::WalCommitRecord rec;
      rec.txn_id = txn++;
      rec.ops.push_back(storage::WalOp::CreateTable(name, schema, {0}));
      rec.ops.push_back(storage::WalOp::CreateIndex(name, name + "_V", {1}));
      rec.ops.push_back(storage::WalOp::CreateIndex(name, name + "_W", {2}));
      BenchEnv::Check(dm.LogCommit(rec), "log DDL");
    }
    Rng rng(17);
    std::vector<uint64_t> next_rid(kTables, 1);
    uint64_t op_counter = 0;
    for (int i = 0; i < records; ++i) {
      storage::WalCommitRecord rec;
      rec.txn_id = txn++;
      for (int o = 0; o < kOpsPerCommit; ++o) {
        int t = static_cast<int>(op_counter++ % kTables);
        std::string name = "T" + std::to_string(t);
        uint64_t rid = next_rid[t];
        if (rid > 1 && rng.NextBool(0.25)) {
          // Update: pk stays put, both indexed columns move — two erase +
          // two insert on the index trees.
          uint64_t target = 1 + rng.NextBelow(rid - 1);
          rec.ops.push_back(storage::WalOp::Update(
              name, target,
              Row{Value::Int64(static_cast<int64_t>(target)),
                  Value::Int64(static_cast<int64_t>(rng.NextBelow(1000))),
                  Value::Int64(static_cast<int64_t>(rng.NextBelow(1000)))}));
        } else {
          rec.ops.push_back(storage::WalOp::Insert(
              name, rid,
              Row{Value::Int64(static_cast<int64_t>(rid)),
                  Value::Int64(static_cast<int64_t>(rng.NextBelow(1000))),
                  Value::Int64(static_cast<int64_t>(rng.NextBelow(1000)))}));
          ++next_rid[t];
        }
      }
      BenchEnv::Check(dm.LogCommit(rec), "log commit");
    }
    const uint64_t wal_bytes = disk.ReadDurable(dm.wal_file())->size();

    auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    // Decode floor: a scan that drops every record on the floor. This is the
    // serial fraction no amount of replay parallelism can remove (Amdahl).
    auto scan_seconds = [&] {
      storage::WalScanStats stats;
      auto t0 = std::chrono::steady_clock::now();
      BenchEnv::Check(
          storage::WalReader::Scan(disk, dm.wal_file(), &stats,
                                   [](storage::WalCommitRecord&&) {
                                     return Status::Ok();
                                   }),
          "scan");
      return seconds_since(t0);
    };
    auto replay_seconds = [&](uint64_t threads) {
      storage::DurabilityManager r(&disk, "db");
      r.set_recovery_threads(threads);
      storage::TableStore store;
      storage::RecoveryInfo info;
      auto t0 = std::chrono::steady_clock::now();
      BenchEnv::Check(r.Recover(&store, &info), "replay");
      return seconds_since(t0);
    };
    std::vector<double> scans, serials, parallels;
    for (int run = 0; run < kReplayRuns; ++run) {
      scans.push_back(scan_seconds());
      serials.push_back(replay_seconds(1));
      parallels.push_back(replay_seconds(kThreads));
    }
    Spread scan = SpreadOf(scans);
    Spread serial = SpreadOf(serials);
    Spread parallel = SpreadOf(parallels);

    std::printf("%8d %7.2f %9.4f %8.4f [%6.4f, %6.4f] %8.4f [%6.4f, %6.4f] "
                "%7.2fx\n",
                records, static_cast<double>(wal_bytes) / 1e6, scan.median,
                serial.median, serial.min, serial.max, parallel.median,
                parallel.min, parallel.max, serial.median / parallel.median);
    AppendRecoveryParallelJson(
        "{\"bench\":\"recovery_parallel\",\"records\":" +
        std::to_string(records) + ",\"threads\":" + std::to_string(kThreads) +
        ",\"nproc\":" + std::to_string(nproc) +
        ",\"runs\":" + std::to_string(kReplayRuns) +
        ",\"wal_bytes\":" + std::to_string(wal_bytes) +
        SpreadJson("scan_only", scan) + SpreadJson("serial", serial) +
        SpreadJson("parallel", parallel) +
        ",\"speedup\":" + std::to_string(serial.median / parallel.median) +
        "}");
  }
  PrintRule();
}

}  // namespace
}  // namespace phoenix::bench

int main() {
  phoenix::bench::Main();
  phoenix::bench::WalReplaySweep();
  phoenix::bench::DumpMetrics("bench_fig2_recovery");
  return 0;
}
