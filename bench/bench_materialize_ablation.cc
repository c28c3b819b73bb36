// Ablation A1 (DESIGN.md): the paper materializes result sets with a
// server-side stored procedure — "all data is moved locally at the server,
// not sent first to the client... a single round-trip message" — instead of
// pulling rows to the client and pushing them back. This bench quantifies
// that choice across result sizes: time to ExecDirect (materialization
// included) and bytes crossing the wire, for both strategies.

#include <cstdio>

#include "bench_util.h"

namespace phoenix::bench {
namespace {

constexpr uint64_t kRoundTripLatencyUs = 200;
constexpr int kRepetitions = 3;

struct Sample {
  double seconds = 0;
  uint64_t wire_bytes = 0;
};

Sample Measure(BenchEnv* env, bool via_server, int rows) {
  core::PhoenixDriverManager phoenix(&env->network);
  phoenix.mutable_config()->materialize_via_server = via_server;
  odbc::Hdbc* dbc = Connect(&phoenix, "app");
  core::ConnState* cs = core::PhoenixDriverManager::conn_state(dbc);
  Sample s;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    odbc::Hstmt* stmt = phoenix.AllocStmt(dbc);
    net::ChannelStats before = cs->private_conn->channel()->stats();
    uint64_t bytes_before = before.bytes_sent + before.bytes_received;
    StopWatch w;
    std::string q =
        "SELECT N, PAYLOAD FROM R WHERE N <= " + std::to_string(rows);
    Check(Succeeded(phoenix.ExecDirect(stmt, q)), "exec",
          odbc::DriverManager::Diag(stmt));
    s.seconds += w.ElapsedSeconds();
    net::ChannelStats after = cs->private_conn->channel()->stats();
    s.wire_bytes += after.bytes_sent + after.bytes_received - bytes_before;
    phoenix.FreeStmt(stmt);
  }
  phoenix.Disconnect(dbc);
  s.seconds /= kRepetitions;
  s.wire_bytes /= kRepetitions;
  return s;
}

void Main() {
  BenchEnv env(kRoundTripLatencyUs);
  odbc::DriverManager native(&env.network);
  odbc::Hdbc* loader = Connect(&native, "loader");
  MustDrain(&native, loader,
            "CREATE TABLE R (N INTEGER PRIMARY KEY, PAYLOAD VARCHAR)");
  for (int base = 0; base < 16000; base += 500) {
    std::string sql = "INSERT INTO R VALUES ";
    for (int i = 1; i <= 500; ++i) {
      if (i > 1) sql += ", ";
      int n = base + i;
      sql += "(" + std::to_string(n) + ", 'row-" + std::to_string(n) +
             "-payload-0123456789abcdefghij')";
    }
    MustDrain(&native, loader, sql);
  }

  std::printf("Ablation A1: result-set materialization strategy\n");
  std::printf("(ExecDirect latency incl. materialization; private-channel "
              "bytes)\n");
  PrintRule();
  std::printf("%8s | %14s %12s | %14s %12s | %7s\n", "rows",
              "server-side(s)", "bytes", "client-trip(s)", "bytes",
              "speedup");
  PrintRule();
  for (int rows : {100, 500, 2000, 8000, 16000}) {
    Sample server = Measure(&env, /*via_server=*/true, rows);
    Sample client = Measure(&env, /*via_server=*/false, rows);
    std::printf("%8d | %14.6f %12llu | %14.6f %12llu | %6.2fx\n", rows,
                server.seconds,
                static_cast<unsigned long long>(server.wire_bytes),
                client.seconds,
                static_cast<unsigned long long>(client.wire_bytes),
                client.seconds / server.seconds);
  }
  PrintRule();
  std::printf(
      "\nPaper reference: the server-side SELECT..INTO (their stored\n"
      "procedure P) keeps the data on the server; the client round trip\n"
      "ships every tuple twice and should lose by a growing margin.\n");
}

}  // namespace
}  // namespace phoenix::bench

int main() {
  phoenix::bench::Main();
  phoenix::bench::DumpMetrics("bench_materialize_ablation");
  return 0;
}
