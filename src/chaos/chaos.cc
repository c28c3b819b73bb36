#include "chaos/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <dirent.h>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "core/phoenix_driver_manager.h"
#include "engine/database.h"
#include "net/channel.h"
#include "net/db_server.h"
#include "net/process_server.h"
#include "odbc/driver_manager.h"
#include "storage/recovery.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"

namespace phoenix::chaos {

namespace {

using core::PhoenixDriverManager;
using odbc::DriverManager;
using odbc::Hdbc;
using odbc::Hstmt;
using odbc::SqlReturn;

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

struct ChaosOp {
  enum class Kind : uint8_t { kSql, kOpenCursor, kFetchCursor, kCloseCursor };
  Kind kind = Kind::kSql;
  std::string sql;       // kSql / kOpenCursor
  bool is_query = false; // kSql only
  uint64_t fetch_n = 0;  // kFetchCursor only
};

/// Deterministic workload. Distinct generator from the gtest suites so the
/// harness does not share their blind spots; the load-bearing addition is
/// the long-lived cursor fetched in small blocks across many ops, so fault
/// events land *between* block fetches and recovery must re-position a
/// half-delivered result set.
std::vector<ChaosOp> MakeWorkload(Rng* rng, int n_ops) {
  std::vector<ChaosOp> ops;
  auto sql = [&ops](std::string s, bool q = false) {
    ops.push_back({ChaosOp::Kind::kSql, std::move(s), q, 0});
  };
  sql("CREATE TABLE ACCT (K INTEGER PRIMARY KEY, V INTEGER, NOTE VARCHAR)");
  sql("CREATE TEMPORARY TABLE SIDE (N INTEGER)");
  int64_t next_key = 1;
  for (int i = 0; i < 8; ++i) {  // cursors always have rows to deliver
    sql("INSERT INTO ACCT VALUES (" + std::to_string(next_key++) + ", " +
        std::to_string(rng->NextBelow(1000)) + ", 'n" +
        std::to_string(rng->NextBelow(7)) + "')");
  }
  // A secondary index exists from the start, so every later fault lands on a
  // server whose WAL replay must maintain it; the workload keeps toggling it
  // with CREATE/DROP so crashes also land *between* index DDL and data ops.
  sql("CREATE INDEX ACCT_V ON ACCT (V)");
  bool idx_exists = true;
  bool cursor_open = false;
  while (static_cast<int>(ops.size()) < n_ops) {
    if (!cursor_open && rng->NextBool(0.18)) {
      ops.push_back({ChaosOp::Kind::kOpenCursor,
                     "SELECT K, V, NOTE FROM ACCT ORDER BY K", false, 0});
      cursor_open = true;
      continue;
    }
    if (cursor_open && rng->NextBool(0.45)) {
      if (rng->NextBool(0.2)) {
        ops.push_back({ChaosOp::Kind::kCloseCursor, "", false, 0});
        cursor_open = false;
      } else {
        ops.push_back({ChaosOp::Kind::kFetchCursor, "", false,
                       1 + rng->NextBelow(5)});
      }
      continue;
    }
    switch (rng->NextBelow(9)) {
      case 0:
      case 1:
        sql("INSERT INTO ACCT VALUES (" + std::to_string(next_key++) + ", " +
            std::to_string(rng->NextBelow(1000)) + ", 'n" +
            std::to_string(rng->NextBelow(7)) + "')");
        break;
      case 2:
        sql("UPDATE ACCT SET V = V + " +
            std::to_string(1 + rng->NextBelow(40)) + " WHERE K = " +
            std::to_string(1 + rng->NextBelow(static_cast<uint64_t>(next_key))));
        break;
      case 3:
        sql("DELETE FROM ACCT WHERE K = " +
            std::to_string(1 + rng->NextBelow(static_cast<uint64_t>(next_key))));
        break;
      case 4:
        sql("SELECT K, V, NOTE FROM ACCT ORDER BY K", true);
        break;
      case 5: {  // explicit transaction, sometimes rolled back
        bool commit = rng->NextBool(0.65);
        sql("BEGIN TRANSACTION");
        for (int i = 1 + static_cast<int>(rng->NextBelow(3)); i > 0; --i) {
          sql("UPDATE ACCT SET V = V * 2 WHERE K = " +
              std::to_string(
                  1 + rng->NextBelow(static_cast<uint64_t>(next_key))));
        }
        sql(commit ? "COMMIT" : "ROLLBACK");
        break;
      }
      case 6:  // index DDL, so faults land adjacent to CREATE/DROP INDEX
        sql(idx_exists ? "DROP INDEX ACCT_V ON ACCT"
                       : "CREATE INDEX ACCT_V ON ACCT (V)");
        idx_exists = !idx_exists;
        break;
      case 7:  // selective predicate: takes the index path when it exists
        sql("SELECT K, V FROM ACCT WHERE V < " +
            std::to_string(1 + rng->NextBelow(1000)) + " ORDER BY K",
            true);
        break;
      default:
        sql("INSERT INTO SIDE VALUES (" + std::to_string(rng->NextBelow(90)) +
            ")");
        sql("SELECT COUNT(*) AS C, SUM(N) AS S FROM SIDE", true);
        break;
    }
  }
  if (cursor_open) ops.push_back({ChaosOp::Kind::kCloseCursor, "", false, 0});
  sql("SELECT K, V, NOTE FROM ACCT ORDER BY K", true);
  sql("SELECT COUNT(*) AS C FROM SIDE", true);
  return ops;
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

struct Fault {
  enum class Kind : uint8_t {
    kCrash,
    kPartialFlush,
    kTorn,
    kMidCheckpoint,
    kRecoveryCrash,
    kLostReply,
    kDroppedRequest,
    kReplayKill,
  };
  size_t at_op = 0;
  Kind kind = Kind::kCrash;
  double fraction = 0.0;              // kPartialFlush
  uint64_t sub_seed = 0;              // kTorn
  core::RecoveryPoint point = core::RecoveryPoint::kDetected;  // kRecoveryCrash
};

const char* FaultName(Fault::Kind k) {
  switch (k) {
    case Fault::Kind::kCrash: return "crash";
    case Fault::Kind::kPartialFlush: return "partial-flush";
    case Fault::Kind::kTorn: return "torn";
    case Fault::Kind::kMidCheckpoint: return "mid-checkpoint";
    case Fault::Kind::kRecoveryCrash: return "recovery-crash";
    case Fault::Kind::kLostReply: return "lost-reply";
    case Fault::Kind::kDroppedRequest: return "dropped-request";
    case Fault::Kind::kReplayKill: return "replay-kill";
  }
  return "?";
}

std::vector<Fault> MakeFaultPlan(Rng* rng, const ChaosOptions& opts,
                                 size_t n_ops) {
  std::vector<Fault::Kind> kinds;
  if (opts.allow_crash) kinds.push_back(Fault::Kind::kCrash);
  if (opts.allow_partial_flush) kinds.push_back(Fault::Kind::kPartialFlush);
  if (opts.allow_torn) kinds.push_back(Fault::Kind::kTorn);
  if (opts.allow_mid_checkpoint) kinds.push_back(Fault::Kind::kMidCheckpoint);
  if (opts.allow_recovery_crash) kinds.push_back(Fault::Kind::kRecoveryCrash);
  if (opts.allow_lost_reply) kinds.push_back(Fault::Kind::kLostReply);
  if (opts.allow_dropped_request) kinds.push_back(Fault::Kind::kDroppedRequest);
  if (opts.allow_replay_kill && opts.transport != Transport::kInproc) {
    // Process transports only: the fault re-kills the REBORN child during
    // its boot-time WAL replay, which needs a real process to SIGKILL.
    kinds.push_back(Fault::Kind::kReplayKill);
  }
  std::vector<Fault> plan;
  if (kinds.empty() || n_ops < 14) return plan;
  // Distinct op indices past the fixed workload preamble.
  std::set<size_t> sites;
  while (static_cast<int>(sites.size()) < opts.n_faults) {
    sites.insert(11 + rng->NextBelow(n_ops - 12));
  }
  for (size_t at : sites) {
    Fault f;
    f.at_op = at;
    f.kind = kinds[rng->NextBelow(kinds.size())];
    f.fraction = rng->NextDouble();
    f.sub_seed = rng->Next();
    f.point = rng->NextBool() ? core::RecoveryPoint::kDetected
                              : core::RecoveryPoint::kVirtualSessionRemapped;
    plan.push_back(f);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Client driving + observation capture
// ---------------------------------------------------------------------------

struct Observation {
  bool ok = true;
  std::string error;
  int64_t affected = -1;
  std::vector<Row> rows;
};

struct Client {
  DriverManager* dm = nullptr;
  Hdbc* dbc = nullptr;
  Hstmt* cursor = nullptr;  // the long-lived cursor statement
};

void FetchRows(DriverManager* dm, Hstmt* stmt, uint64_t limit,
               std::vector<Row>* out) {
  size_t cols = 0;
  dm->NumResultCols(stmt, &cols);
  uint64_t n = 0;
  while ((limit == 0 || n < limit) && Succeeded(dm->Fetch(stmt))) {
    Row row;
    for (size_t c = 0; c < cols; ++c) {
      Value v;
      dm->GetData(stmt, c, &v);
      row.push_back(std::move(v));
    }
    out->push_back(std::move(row));
    ++n;
  }
}

Observation RunOp(Client* cl, const ChaosOp& op) {
  Observation obs;
  switch (op.kind) {
    case ChaosOp::Kind::kSql: {
      Hstmt* stmt = cl->dm->AllocStmt(cl->dbc);
      if (cl->dm->ExecDirect(stmt, op.sql) != SqlReturn::kSuccess) {
        obs.ok = false;
        obs.error = DriverManager::Diag(stmt).ToString();
      } else if (op.is_query) {
        FetchRows(cl->dm, stmt, 0, &obs.rows);
      } else {
        cl->dm->RowCount(stmt, &obs.affected);
      }
      cl->dm->FreeStmt(stmt);
      return obs;
    }
    case ChaosOp::Kind::kOpenCursor: {
      if (cl->cursor != nullptr) {
        cl->dm->FreeStmt(cl->cursor);
        cl->cursor = nullptr;
      }
      cl->cursor = cl->dm->AllocStmt(cl->dbc);
      if (cl->dm->ExecDirect(cl->cursor, op.sql) != SqlReturn::kSuccess) {
        obs.ok = false;
        obs.error = DriverManager::Diag(cl->cursor).ToString();
      }
      return obs;
    }
    case ChaosOp::Kind::kFetchCursor: {
      if (cl->cursor == nullptr) {
        obs.ok = false;
        obs.error = "no open cursor";
        return obs;
      }
      FetchRows(cl->dm, cl->cursor, op.fetch_n, &obs.rows);
      return obs;
    }
    case ChaosOp::Kind::kCloseCursor: {
      if (cl->cursor != nullptr) {
        cl->dm->FreeStmt(cl->cursor);
        cl->cursor = nullptr;
      }
      return obs;
    }
  }
  obs.ok = false;
  obs.error = "bad op kind";
  return obs;
}

/// Appends the first observable divergence to `why`; true when identical.
bool SameObservation(const Observation& ref, const Observation& got,
                     std::string* why) {
  if (ref.ok != got.ok) {
    *why = ref.ok ? "op failed under chaos: " + got.error
                  : "op failed on the oracle: " + ref.error;
    return false;
  }
  if (ref.affected != got.affected) {
    *why = "affected mismatch: oracle " + std::to_string(ref.affected) +
           " vs chaos " + std::to_string(got.affected);
    return false;
  }
  if (ref.rows.size() != got.rows.size()) {
    *why = "row-count mismatch: oracle " + std::to_string(ref.rows.size()) +
           " vs chaos " + std::to_string(got.rows.size());
    return false;
  }
  for (size_t r = 0; r < ref.rows.size(); ++r) {
    if (ref.rows[r].size() != got.rows[r].size()) {
      *why = "row " + std::to_string(r) + " width mismatch";
      return false;
    }
    for (size_t c = 0; c < ref.rows[r].size(); ++c) {
      if (ref.rows[r][c].Compare(got.rows[r][c]) != 0) {
        *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": oracle " + ref.rows[r][c].ToString() + " vs chaos " +
               got.rows[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

/// One-shot arming state for the crash-at-RecoveryPoint fault.
struct RecoveryCrashArm {
  bool armed = false;
  core::RecoveryPoint point = core::RecoveryPoint::kDetected;
};

// ---------------------------------------------------------------------------
// Index-consistency oracle
// ---------------------------------------------------------------------------

/// Every secondary index must equal the tree rebuilt from its base rows —
/// the invariant DML, undo, and WAL replay are all required to maintain.
/// Returns an empty string when consistent, else the first divergence.
std::string IndexInconsistency(const storage::TableStore& store) {
  storage::RowLess lt;
  for (const std::string& name : store.ListNames()) {
    const storage::Table* t = store.Get(name);
    if (t == nullptr) continue;
    for (const storage::SecondaryIndex& idx : t->indexes()) {
      std::map<Row, std::set<storage::RowId>, storage::RowLess> want;
      for (const auto& [rid, row] : t->rows()) {
        want[storage::Table::KeyFor(idx.columns, row)].insert(rid);
      }
      if (want.size() != idx.entries.size()) {
        return "index " + idx.name + " on " + name + " has " +
               std::to_string(idx.entries.size()) + " keys, rows imply " +
               std::to_string(want.size());
      }
      auto it = idx.entries.begin();
      for (const auto& [key, rids] : want) {
        if (lt(key, it->first) || lt(it->first, key) ||
            rids != it->second) {
          return "index " + idx.name + " on " + name +
                 " diverges from its base rows";
        }
        ++it;
      }
    }
  }
  return "";
}

/// Flat-directory cleanup for an owned chaos data dir.
void RemoveDirRecursive(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Process mode: the chaos server is a phoenixd child, faults are SIGKILLs
// ---------------------------------------------------------------------------

/// Same schedule shape as the in-process runner, but the server under test
/// is a real phoenixd child reached over a Unix or TCP socket, and every
/// server-death fault is a genuine SIGKILL. Plain kills land between ops;
/// the tail-tearing kinds are delivered via the SIGKILL rendezvous protocol
/// (a kAdmin request arms a point inside the child — Nth WAL fsync with a
/// torn prefix, checkpoint rename, request dispatch — the child signals the
/// parent from inside that window and the watcher kills it there). The
/// fault-kind mapping:
///
///   kCrash          → immediate SIGKILL (idle: between two ops)
///   kPartialFlush   → wal_sync rendezvous, keep_permille from `fraction`
///                     (torn WAL tail + death mid-fsync)
///   kTorn           → exec rendezvous (death mid-request dispatch)
///   kMidCheckpoint  → ckpt_pre / ckpt_post rendezvous by sub_seed
///   kRecoveryCrash  → SIGKILL now, SIGKILL again at the armed RecoveryPoint
///   kLostReply / kDroppedRequest → client-side channel injection, unchanged
///
/// The shadow oracle stays in-process and fault-free, as always.
ChaosReport RunProcessChaosSchedule(const ChaosOptions& opts) {
  ChaosReport report;
  report.seed = opts.seed;
  auto fail = [&report](const std::string& what) {
    if (report.ok) {
      report.ok = false;
      report.failure = "seed=" + std::to_string(report.seed) + ": " + what;
    }
  };

  Rng rng(opts.seed);
  std::vector<ChaosOp> ops = MakeWorkload(&rng, opts.n_ops);
  std::vector<Fault> plan = MakeFaultPlan(&rng, opts, ops.size());

  // ---- Shadow oracle: native driver, fault-free in-process server -------
  storage::SimDisk ref_disk;
  net::DbServer ref_server(&ref_disk);
  if (Status st = ref_server.Start(); !st.ok()) {
    fail("oracle server start: " + st.ToString());
    return report;
  }
  net::Network ref_net;
  ref_net.RegisterServer("refdb", &ref_server);
  DriverManager native(&ref_net);
  Client ref_client{&native, native.AllocConnect(native.AllocEnv()), nullptr};
  if (native.Connect(ref_client.dbc, "refdb", "oracle") !=
      SqlReturn::kSuccess) {
    fail("oracle connect failed");
    return report;
  }
  std::vector<Observation> oracle;
  oracle.reserve(ops.size());
  for (const ChaosOp& op : ops) {
    oracle.push_back(RunOp(&ref_client, op));
    if (!oracle.back().ok) {
      fail("oracle run rejected op \"" + op.sql +
           "\": " + oracle.back().error);
      return report;
    }
  }

  // ---- The phoenixd child ----------------------------------------------
  std::string data_dir = opts.data_dir;
  bool own_dir = false;
  if (data_dir.empty()) {
    char tmpl[] = "/tmp/phx_chaos_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      fail("mkdtemp failed");
      return report;
    }
    data_dir = tmpl;
    own_dir = true;
  }
  net::ProcessServerOptions popts;
  popts.binary = opts.server_binary;
  popts.transport = opts.transport == Transport::kTcp ? "tcp" : "unix";
  popts.data_dir = data_dir;
  popts.checkpoint_every_n_commits = opts.checkpoint_every_n_commits;
  // Pin the child's replay-thread count explicitly (the in-proc runner pins
  // it on ServerOptions); unset, it inherits this process's environment, so
  // sanitizer lanes flip the child the same way they flip everything.
  if (opts.recovery_threads.has_value()) {
    popts.env["PHX_RECOVERY_THREADS"] = std::to_string(*opts.recovery_threads);
  }
  net::ProcessServerHandle handle(popts);

  // Failover mode: a second group member over the SAME data dir. Boot it
  // once now, while the dir is still empty and the primary is not yet
  // alive, purely to discover its resolved endpoint (tcp picks a kernel
  // port), then stop it — active-passive means at most one server lives.
  std::unique_ptr<net::ProcessServerHandle> standby;
  std::string standby_endpoint;
  if (opts.failover) {
    net::ProcessServerOptions sopts = popts;
    sopts.server_id = 1;
    standby = std::make_unique<net::ProcessServerHandle>(sopts);
    if (Status st = standby->Start(); !st.ok()) {
      fail("standby phoenixd start: " + st.ToString());
      if (own_dir) RemoveDirRecursive(data_dir);
      return report;
    }
    standby_endpoint = standby->endpoint();
    standby->Terminate(5.0);
  }

  if (Status st = handle.Start(); !st.ok()) {
    fail("phoenixd start: " + st.ToString());
    if (own_dir) RemoveDirRecursive(data_dir);
    return report;
  }

  net::Network net;
  // Short RPC deadline so a lost reply resolves in test time, not 30 s.
  net.config()->rpc_timeout_ms = 4000;
  net.config()->connect_timeout_ms = 2000;
  net.RegisterRemote("chaosdb", handle.endpoint());

  // The server the session is (or should be) on right now. Failover mode
  // kills whichever is current and restarts the OTHER one, forcing the
  // session to migrate; without failover, current is always `handle` and
  // this degenerates to the single-server schedule.
  auto current = std::make_shared<net::ProcessServerHandle*>(&handle);
  auto other =
      std::make_shared<net::ProcessServerHandle*>(standby.get());

  auto kill_child = [current, &report]() {
    if ((*current)->running()) {
      (*current)->Kill();
      ++report.sigkills;
      ++report.server_crashes;
    }
  };
  // Arms `spec` in the current child over a throwaway admin connection,
  // then arms the parent watcher that turns the child's signal into a
  // SIGKILL. Dials the endpoint directly so the armed server is always the
  // one the session is on, registered name or not.
  auto arm_rendezvous = [current, &net](const std::string& spec) {
    auto ch = net.Connect((*current)->endpoint());
    if (!ch.ok()) return false;
    net::Request req;
    req.kind = net::Request::Kind::kAdmin;
    req.name = net::kAdminRendezvous;
    req.value = spec;
    auto resp = ch.value()->RoundTrip(req);
    bool ok = resp.ok() && resp->kind == net::Response::Kind::kOk;
    ch.value()->Disconnect();
    if (ok) (*current)->ArmKillOnRendezvous();
    return ok;
  };

  core::PhoenixConfig config;
  config.server_side_reposition = opts.server_side_reposition;
  if (opts.failover) {
    // The virtual session's server group: the primary's registered name
    // (the connect DSN) plus the standby's raw endpoint. The recovery
    // sweep dials both and lands on whichever the harness brought up.
    config.server_group = {"chaosdb", standby_endpoint};
  }
  auto restart_error = std::make_shared<std::string>();
  auto probe_count = std::make_shared<int>(0);
  // Set by the kReplayKill fault: the NEXT restart boots with an armed
  // "recovery" rendezvous, so it is EXPECTED to die mid-replay before
  // READY. The first failed restart after arming is that kill, not an
  // error; the spec is cleared and the retry after it boots clean.
  auto replay_kill_armed = std::make_shared<bool>(false);
  ChaosReport* rep = &report;
  config.retry_wait = [current, other, restart_error, probe_count,
                       replay_kill_armed, rep]() {
    // A fired rendezvous holds the child parked for the few ms it takes the
    // watcher to deliver the SIGKILL; give it a beat before concluding the
    // child needs rebooting.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (++*probe_count >= 3 && !(*current)->running()) {
      // Failover mode: the dead server stays down and the OTHER group
      // member comes up over the shared data dir — its boot-time
      // DurabilityManager::Recover replays the WAL, then Phoenix's sweep
      // finds it and migrates the session.
      if (*other != nullptr) std::swap(*current, *other);
      Status st = (*current)->Restart();
      if (*replay_kill_armed) {
        *replay_kill_armed = false;
        (*current)->mutable_options()->rendezvous.clear();
        if (!st.ok()) {
          // The armed recovery rendezvous killed the child mid-replay (the
          // notify pipe EOFed before READY). The half-replayed state is the
          // point of the fault; the next retry restarts over it cleanly.
          ++rep->replay_kills;
          st = Status::Ok();
        }
        // If the WAL was too short to reach the armed replay event, the
        // child booted normally and the stale spec never fires; fine.
      }
      if (!st.ok() && restart_error->empty()) *restart_error = st.ToString();
      *probe_count = 0;
    }
  };
  auto arm = std::make_shared<RecoveryCrashArm>();
  config.recovery_point_hook = [&kill_child, arm](core::RecoveryPoint pt) {
    if (arm->armed && pt == arm->point) {
      arm->armed = false;
      kill_child();
    }
  };
  PhoenixDriverManager phoenix(&net, config);
  Client chaos_client{&phoenix, phoenix.AllocConnect(phoenix.AllocEnv()),
                      nullptr};
  if (phoenix.Connect(chaos_client.dbc, "chaosdb", "chaos") !=
      SqlReturn::kSuccess) {
    fail("chaos connect failed");
    if (own_dir) RemoveDirRecursive(data_dir);
    return report;
  }

  size_t next_fault = 0;
  std::sort(plan.begin(), plan.end(),
            [](const Fault& a, const Fault& b) { return a.at_op < b.at_op; });
  for (size_t i = 0; i < ops.size(); ++i) {
    while (next_fault < plan.size() && plan[next_fault].at_op == i) {
      const Fault& f = plan[next_fault++];
      ++report.faults_injected;
      switch (f.kind) {
        case Fault::Kind::kCrash:
          kill_child();
          break;
        case Fault::Kind::kPartialFlush:
          arm_rendezvous(
              "wal_sync:1:" +
              std::to_string(static_cast<uint64_t>(f.fraction * 1000.0)));
          break;
        case Fault::Kind::kTorn:
          arm_rendezvous("exec:1");
          break;
        case Fault::Kind::kMidCheckpoint:
          arm_rendezvous(f.sub_seed % 2 == 0 ? "ckpt_pre:1" : "ckpt_post:1");
          break;
        case Fault::Kind::kRecoveryCrash:
          arm->armed = true;
          arm->point = f.point;
          kill_child();
          break;
        case Fault::Kind::kLostReply:
          chaos_client.dbc->driver->channel()->InjectLoseReplies(1);
          break;
        case Fault::Kind::kDroppedRequest:
          chaos_client.dbc->driver->channel()->InjectDropRequests(1);
          break;
        case Fault::Kind::kReplayKill:
          // Kill the child now, then arrange for its NEXT incarnation to be
          // killed again *during* parallel WAL replay: the spawn carries an
          // armed "recovery" rendezvous (Nth replay progress event) plus
          // PHX_RECOVERY_THREADS=4, and the watcher is armed between spawn
          // and READY (the child parks in recovery, before it ever reports
          // ready). retry_wait treats the resulting failed restart as the
          // expected kill and reboots clean on the retry after it.
          kill_child();
          (*current)->mutable_options()->rendezvous =
              "recovery:" + std::to_string(2 + f.sub_seed % 4);
          (*current)->mutable_options()->env["PHX_RECOVERY_THREADS"] = "4";
          (*current)->ArmKillOnNextStart();
          *replay_kill_armed = true;
          break;
      }
    }
    Observation got = RunOp(&chaos_client, ops[i]);
    ++report.ops_run;
    std::string why;
    if (!SameObservation(oracle[i], got, &why)) {
      const Fault* last = next_fault > 0 ? &plan[next_fault - 1] : nullptr;
      fail("op " + std::to_string(i) + " (" +
           (ops[i].sql.empty() ? std::string("cursor op") : ops[i].sql) +
           ") after fault " + (last ? FaultName(last->kind) : "none") + ": " +
           why);
      break;
    }
    if (!restart_error->empty()) {
      fail("phoenixd restart failed mid-schedule: " + *restart_error);
      break;
    }
  }

  // ---- Post-run oracle checks ------------------------------------------
  core::ConnState* cs = PhoenixDriverManager::conn_state(chaos_client.dbc);
  if (report.ok && cs != nullptr && cs->status_table_created) {
    Observation ids = RunOp(
        &chaos_client,
        {ChaosOp::Kind::kSql,
         "SELECT REQ_ID FROM " + cs->status_table + " ORDER BY REQ_ID", true,
         0});
    if (!ids.ok) {
      fail("status-table audit failed: " + ids.error);
    } else {
      std::set<int64_t> seen;
      for (const Row& row : ids.rows) {
        if (!seen.insert(row[0].AsInt64()).second) {
          fail("duplicate request id " + row[0].ToString() +
               " in the status table (double-applied request)");
          break;
        }
      }
    }
  }

  if (report.ok) {
    // Durability agreement across one last real SIGKILL: restart the child
    // over the same files and the reborn server's ACCT must equal the
    // oracle's.
    Observation ref_final =
        RunOp(&ref_client,
              {ChaosOp::Kind::kSql, "SELECT K, V, NOTE FROM ACCT ORDER BY K",
               true, 0});
    kill_child();
    Status st = (*current)->Restart();
    if (!st.ok() && *replay_kill_armed) {
      // The schedule ended with a replay-kill still pending: this restart
      // was the one armed to die mid-replay. Count it and reboot clean.
      *replay_kill_armed = false;
      (*current)->mutable_options()->rendezvous.clear();
      ++report.replay_kills;
      st = (*current)->Restart();
    }
    if (!st.ok()) {
      fail("restart after final SIGKILL failed (catalog/WAL disagreement): " +
           st.ToString());
    } else {
      // The session may have migrated; point the audit DSN at whichever
      // server the final restart brought back.
      net.RegisterRemote("chaosdb", (*current)->endpoint());
      DriverManager post(&net);
      Client post_client{&post, post.AllocConnect(post.AllocEnv()), nullptr};
      if (post.Connect(post_client.dbc, "chaosdb", "audit") !=
          SqlReturn::kSuccess) {
        fail("post-crash audit connect failed");
      } else {
        Observation got_final = RunOp(
            &post_client,
            {ChaosOp::Kind::kSql, "SELECT K, V, NOTE FROM ACCT ORDER BY K",
             true, 0});
        std::string why;
        if (!SameObservation(ref_final, got_final, &why)) {
          fail("post-crash durable state diverged: " + why);
        }
        post.Disconnect(post_client.dbc);
      }
    }
  }

  // Graceful shutdown, then an independent storage-level recovery over the
  // surviving files — the child's own code path is out of the loop here.
  handle.Terminate(5.0);
  if (standby != nullptr) standby->Terminate(5.0);
  {
    storage::SimDisk audit_disk(data_dir);
    storage::DurabilityManager audit(&audit_disk,
                                     eng::DatabaseOptions().disk_prefix);
    storage::TableStore store;
    storage::RecoveryInfo info;
    if (Status st = audit.Recover(&store, &info); !st.ok()) {
      fail("independent storage recovery failed: " + st.ToString());
    } else {
      report.wal_records_skipped += info.records_skipped;
      report.wal_tear_detected |= info.wal_scan.tear_detected;
      if (std::string bad = IndexInconsistency(store); !bad.empty()) {
        fail("independent recovery index audit: " + bad);
      }
    }
    if (opts.post_run_disk_audit) {
      opts.post_run_disk_audit(&audit_disk, eng::DatabaseOptions().disk_prefix);
    }
  }

  report.rendezvous_kills =
      handle.rendezvous_kills() +
      (standby != nullptr ? standby->rendezvous_kills() : 0);
  report.sigkills += report.rendezvous_kills;
  report.server_crashes += report.rendezvous_kills;
  report.recoveries = phoenix.stats().recoveries;
  report.recovery_recrashes = phoenix.stats().recovery_recrashes;
  report.lost_replies_recovered = phoenix.stats().lost_replies_recovered;
  report.failovers = phoenix.stats().failovers;

  if (cs != nullptr) cs->broken = true;
  phoenix.Disconnect(chaos_client.dbc);
  native.Disconnect(ref_client.dbc);
  if (own_dir) {
    if (report.ok) {
      RemoveDirRecursive(data_dir);
    } else {
      report.failure += " (data kept: " + data_dir + ")";
    }
  }
  return report;
}

}  // namespace

std::string ChaosReport::DebugString() const {
  std::string s = "ChaosReport{seed=" + std::to_string(seed) +
                  " ok=" + (ok ? "true" : "false") +
                  " ops=" + std::to_string(ops_run) +
                  " faults=" + std::to_string(faults_injected) +
                  " crashes=" + std::to_string(server_crashes) +
                  " mid_ckpt=" + std::to_string(mid_ckpt_images) +
                  " recoveries=" + std::to_string(recoveries) +
                  " recrashes=" + std::to_string(recovery_recrashes) +
                  " lost_replies=" + std::to_string(lost_replies_recovered) +
                  " wal_skipped=" + std::to_string(wal_records_skipped) +
                  " tear=" + (wal_tear_detected ? "true" : "false") +
                  " sigkills=" + std::to_string(sigkills) +
                  " rdv_kills=" + std::to_string(rendezvous_kills) +
                  " replay_kills=" + std::to_string(replay_kills) +
                  " failovers=" + std::to_string(failovers);
  if (!failure.empty()) s += " failure=\"" + failure + "\"";
  return s + "}";
}

ChaosReport RunChaosSchedule(const ChaosOptions& opts) {
  if (opts.transport != Transport::kInproc) {
    return RunProcessChaosSchedule(opts);
  }
  ChaosReport report;
  report.seed = opts.seed;
  auto fail = [&report](const std::string& what) {
    if (report.ok) {
      report.ok = false;
      report.failure =
          "seed=" + std::to_string(report.seed) + ": " + what;
    }
  };

  Rng rng(opts.seed);
  std::vector<ChaosOp> ops = MakeWorkload(&rng, opts.n_ops);
  std::vector<Fault> plan = MakeFaultPlan(&rng, opts, ops.size());

  // ---- Shadow oracle: native driver, fault-free server ------------------
  storage::SimDisk ref_disk;
  net::DbServer ref_server(&ref_disk);
  if (Status st = ref_server.Start(); !st.ok()) {
    fail("oracle server start: " + st.ToString());
    return report;
  }
  net::Network ref_net;
  ref_net.RegisterServer("refdb", &ref_server);
  DriverManager native(&ref_net);
  Client ref_client{&native, native.AllocConnect(native.AllocEnv()), nullptr};
  if (native.Connect(ref_client.dbc, "refdb", "oracle") !=
      SqlReturn::kSuccess) {
    fail("oracle connect failed");
    return report;
  }
  std::vector<Observation> oracle;
  oracle.reserve(ops.size());
  for (const ChaosOp& op : ops) {
    oracle.push_back(RunOp(&ref_client, op));
    if (!oracle.back().ok) {
      fail("oracle run rejected op \"" + op.sql +
           "\": " + oracle.back().error);
      return report;
    }
  }

  // ---- Chaos run: Phoenix over a server the fault plan keeps killing ----
  storage::SimDisk disk;
  net::ServerOptions sopts;
  sopts.db.checkpoint_every_n_commits = opts.checkpoint_every_n_commits;
  if (opts.recovery_threads.has_value()) {
    sopts.db.recovery_threads = *opts.recovery_threads;
  }
  net::DbServer server(&disk, sopts);
  if (Status st = server.Start(); !st.ok()) {
    fail("chaos server start: " + st.ToString());
    return report;
  }
  net::Network net;
  net.RegisterServer("chaosdb", &server);

  // The WAL file of the chaos server, for in-flight-commit fault injection.
  const std::string wal_file =
      storage::DurabilityManager(&disk, sopts.db.disk_prefix).wal_file();

  core::PhoenixConfig config;
  config.server_side_reposition = opts.server_side_reposition;
  ChaosReport* rep = &report;
  // Reconnect loop: restart the dead server after a few probe attempts
  // (the single-threaded stand-in for "the operator reboots the machine").
  // Each successful restart folds that recovery's WAL accounting into the
  // report — tears and checkpoint-subsumed records are consumed (repaired /
  // skipped) by the restart itself, so a final audit alone would miss them.
  auto restart_error = std::make_shared<std::string>();
  auto probe_count = std::make_shared<int>(0);
  config.retry_wait = [&server, restart_error, probe_count, rep]() {
    if (++*probe_count >= 3 && !server.alive()) {
      Status st = server.Restart();
      if (!st.ok() && restart_error->empty()) {
        *restart_error = st.ToString();
      }
      if (st.ok() && server.database() != nullptr) {
        const storage::RecoveryInfo& ri = server.database()->recovery_info();
        rep->wal_records_skipped += ri.records_skipped;
        rep->wal_tear_detected |= ri.wal_scan.tear_detected;
      }
      *probe_count = 0;
    }
  };
  // Crash-at-RecoveryPoint: armed by the fault plan, fires exactly once.
  auto arm = std::make_shared<RecoveryCrashArm>();
  config.recovery_point_hook = [&server, arm, rep](core::RecoveryPoint pt) {
    if (arm->armed && pt == arm->point) {
      arm->armed = false;
      server.Crash();
      ++rep->server_crashes;
    }
  };
  PhoenixDriverManager phoenix(&net, config);
  Client chaos_client{&phoenix, phoenix.AllocConnect(phoenix.AllocEnv()),
                      nullptr};
  if (phoenix.Connect(chaos_client.dbc, "chaosdb", "chaos") !=
      SqlReturn::kSuccess) {
    fail("chaos connect failed");
    return report;
  }

  size_t next_fault = 0;
  std::sort(plan.begin(), plan.end(),
            [](const Fault& a, const Fault& b) { return a.at_op < b.at_op; });
  for (size_t i = 0; i < ops.size(); ++i) {
    while (next_fault < plan.size() && plan[next_fault].at_op == i) {
      const Fault& f = plan[next_fault++];
      ++report.faults_injected;
      switch (f.kind) {
        case Fault::Kind::kCrash:
          server.Crash();
          ++report.server_crashes;
          break;
        case Fault::Kind::kPartialFlush: {
          // A commit was in flight: its frame bytes sit unsynced in the
          // page cache and only a prefix reaches the platter.
          Rng tear_rng(f.sub_seed);
          (void)disk.Append(wal_file,
                            tear_rng.NextString(12 + tear_rng.NextBelow(48)));
          server.CrashWithPartialFlush(f.fraction);
          ++report.server_crashes;
          break;
        }
        case Fault::Kind::kTorn: {
          // Same in-flight commit, but torn byte-granularly and possibly
          // with a corrupted byte in the surviving part.
          Rng tear_rng(f.sub_seed);
          (void)disk.Append(wal_file,
                            tear_rng.NextString(12 + tear_rng.NextBelow(48)));
          storage::SimDisk::TornCrashSpec spec;
          spec.seed = f.sub_seed;
          server.CrashTorn(spec);
          ++report.server_crashes;
          break;
        }
        case Fault::Kind::kMidCheckpoint: {
          // The sub-seed picks which of the three crash windows of the
          // split checkpoint protocol the death lands in; only the
          // post-image window can leave a new image behind.
          auto point = static_cast<eng::CheckpointCrashPoint>(f.sub_seed % 3);
          if (server.CrashMidCheckpoint(point)) ++report.mid_ckpt_images;
          ++report.server_crashes;
          break;
        }
        case Fault::Kind::kRecoveryCrash:
          arm->armed = true;
          arm->point = f.point;
          server.Crash();
          ++report.server_crashes;
          break;
        case Fault::Kind::kLostReply:
          chaos_client.dbc->driver->channel()->InjectLoseReplies(1);
          break;
        case Fault::Kind::kDroppedRequest:
          chaos_client.dbc->driver->channel()->InjectDropRequests(1);
          break;
        case Fault::Kind::kReplayKill:
          // Never drawn for the in-proc transport (there is no child to
          // re-kill mid-boot); degrade to a plain crash if a plan somehow
          // carries one.
          server.Crash();
          ++report.server_crashes;
          break;
      }
    }
    Observation got = RunOp(&chaos_client, ops[i]);
    ++report.ops_run;
    std::string why;
    if (!SameObservation(oracle[i], got, &why)) {
      const Fault* last =
          next_fault > 0 ? &plan[next_fault - 1] : nullptr;
      fail("op " + std::to_string(i) + " (" +
           (ops[i].sql.empty() ? std::string("cursor op") : ops[i].sql) +
           ") after fault " +
           (last ? FaultName(last->kind) : "none") + ": " + why);
      break;
    }
    if (!restart_error->empty()) {
      fail("server restart failed mid-schedule: " + *restart_error);
      break;
    }
  }

  // ---- Post-run oracle checks ------------------------------------------
  core::ConnState* cs = PhoenixDriverManager::conn_state(chaos_client.dbc);
  if (report.ok && cs != nullptr && cs->status_table_created) {
    // Exactly-once sentinel: a duplicated REQ_ID would mean a wrapped DML
    // or commit marker was applied twice.
    Observation ids = RunOp(
        &chaos_client,
        {ChaosOp::Kind::kSql,
         "SELECT REQ_ID FROM " + cs->status_table + " ORDER BY REQ_ID", true,
         0});
    if (!ids.ok) {
      fail("status-table audit failed: " + ids.error);
    } else {
      std::set<int64_t> seen;
      for (const Row& row : ids.rows) {
        if (!seen.insert(row[0].AsInt64()).second) {
          fail("duplicate request id " + row[0].ToString() +
               " in the status table (double-applied request)");
          break;
        }
      }
    }
  }

  if (report.ok) {
    // Durability agreement: whatever the app saw committed must survive one
    // last crash, and the restarted server's ACCT must equal the oracle's.
    Observation ref_final =
        RunOp(&ref_client,
              {ChaosOp::Kind::kSql, "SELECT K, V, NOTE FROM ACCT ORDER BY K",
               true, 0});
    server.Crash();
    ++report.server_crashes;
    if (Status st = server.Restart(); !st.ok()) {
      fail("restart after final crash failed (catalog/WAL disagreement): " +
           st.ToString());
    } else {
      const storage::RecoveryInfo& ri = server.database()->recovery_info();
      report.wal_records_skipped += ri.records_skipped;
      report.wal_tear_detected |= ri.wal_scan.tear_detected;
      DriverManager post(&net);
      Client post_client{&post, post.AllocConnect(post.AllocEnv()), nullptr};
      if (post.Connect(post_client.dbc, "chaosdb", "audit") !=
          SqlReturn::kSuccess) {
        fail("post-crash audit connect failed");
      } else {
        Observation got_final = RunOp(
            &post_client,
            {ChaosOp::Kind::kSql, "SELECT K, V, NOTE FROM ACCT ORDER BY K",
             true, 0});
        std::string why;
        if (!SameObservation(ref_final, got_final, &why)) {
          fail("post-crash durable state diverged: " + why);
        }
        if (std::string bad = IndexInconsistency(*server.database()->store());
            !bad.empty()) {
          fail("post-crash index audit: " + bad);
        }
        post.Disconnect(post_client.dbc);
      }
    }
  }

  {
    // Catalog/WAL agreement, independent of the server: a from-scratch
    // storage recovery over the same disk must succeed.
    storage::DurabilityManager audit(&disk, sopts.db.disk_prefix);
    storage::TableStore store;
    storage::RecoveryInfo info;
    if (Status st = audit.Recover(&store, &info); !st.ok()) {
      fail("independent storage recovery failed: " + st.ToString());
    } else {
      report.wal_records_skipped += info.records_skipped;
      report.wal_tear_detected |= info.wal_scan.tear_detected;
      if (std::string bad = IndexInconsistency(store); !bad.empty()) {
        fail("independent recovery index audit: " + bad);
      }
    }
    if (opts.post_run_disk_audit) {
      opts.post_run_disk_audit(&disk, sopts.db.disk_prefix);
    }
  }

  report.recoveries = phoenix.stats().recoveries;
  report.recovery_recrashes = phoenix.stats().recovery_recrashes;
  report.lost_replies_recovered = phoenix.stats().lost_replies_recovered;

  // Teardown: the chaos session died with the final crash; mark it broken
  // so Disconnect skips server-side artifact cleanup instead of recovering.
  if (cs != nullptr) cs->broken = true;
  phoenix.Disconnect(chaos_client.dbc);
  native.Disconnect(ref_client.dbc);
  return report;
}

// ---------------------------------------------------------------------------
// MVCC snapshot-visibility schedules
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kVisRows = 16;
constexpr int64_t kVisHalf = kVisRows / 2;
/// Written by deliberately-aborted transactions; a reader observing it saw
/// either a pending write or a rolled-back one.
constexpr int64_t kVisSentinel = 1 << 30;

}  // namespace

std::string MvccVisibilityReport::DebugString() const {
  std::string s = "MvccVisibilityReport{seed=" + std::to_string(seed);
  s += mvcc ? " mvcc=on" : " mvcc=off";
  s += " ok=" + std::string(ok ? "true" : "false");
  if (!ok) s += " failure=\"" + failure + "\"";
  s += " reads=" + std::to_string(reads);
  s += " torn_reads=" + std::to_string(torn_reads);
  s += " recoveries=" + std::to_string(recoveries);
  s += "}";
  return s;
}

MvccVisibilityReport RunMvccVisibilitySchedule(
    const MvccVisibilityOptions& opts) {
  MvccVisibilityReport report;
  report.seed = opts.seed;
  auto fail = [&report](const std::string& why) {
    if (!report.ok) return;
    report.ok = false;
    report.failure = why + " (seed " + std::to_string(report.seed) + ")";
  };

  storage::SimDisk disk;
  eng::DatabaseOptions dopts;
  dopts.disk_prefix = "mvccvis";
  if (opts.mvcc.has_value()) dopts.mvcc = *opts.mvcc;
  const bool mvcc_on = dopts.mvcc;
  report.mvcc = mvcc_on;

  auto db = std::make_unique<eng::Database>(&disk, dopts);
  if (Status st = db->Open(); !st.ok()) {
    fail("open failed: " + st.ToString());
    return report;
  }

  auto exec = [&](uint64_t sid, const std::string& sql) -> Status {
    return db->ExecuteScript(sid, sql).status();
  };
  auto min_max = [&](uint64_t sid, int64_t* lo, int64_t* hi) -> Status {
    auto r = db->ExecuteScript(sid, "SELECT MIN(G) AS LO, MAX(G) AS HI FROM VIS");
    if (!r.ok()) return r.status();
    if ((*r)[0].rows.empty()) return Status::Internal("aggregate returned no row");
    *lo = (*r)[0].rows[0][0].AsInt64();
    *hi = (*r)[0].rows[0][1].AsInt64();
    return Status::Ok();
  };

  auto wsid_r = db->CreateSession("vis-writer");
  if (!wsid_r.ok()) {
    fail("writer session: " + wsid_r.status().ToString());
    return report;
  }
  uint64_t wsid = *wsid_r;
  {
    Status st = exec(wsid, "CREATE TABLE VIS (K INTEGER PRIMARY KEY, G INTEGER)");
    for (int64_t k = 1; st.ok() && k <= kVisRows; ++k) {
      st = exec(wsid, "INSERT INTO VIS VALUES (" + std::to_string(k) + ", 0)");
    }
    if (!st.ok()) {
      fail("seed data: " + st.ToString());
      return report;
    }
  }

  // Readers spin on the uniformity invariant. With MVCC on, any torn or
  // sentinel-bearing observation is an oracle violation; with MVCC off the
  // tear is the documented classification-mode behavior and only counted.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> torn{0};
  std::mutex violation_mu;
  std::string violation;
  auto record_violation = [&](const std::string& why) {
    std::lock_guard<std::mutex> lk(violation_mu);
    if (violation.empty()) violation = why;
  };
  std::vector<std::thread> readers;
  auto spawn_readers = [&]() {
    stop.store(false, std::memory_order_release);
    for (int i = 0; i < opts.n_readers; ++i) {
      readers.emplace_back([&]() {
        auto sid = db->CreateSession("vis-reader");
        if (!sid.ok()) {
          record_violation("reader session: " + sid.status().ToString());
          return;
        }
        while (!stop.load(std::memory_order_acquire)) {
          int64_t lo = 0, hi = 0;
          if (Status st = min_max(*sid, &lo, &hi); !st.ok()) {
            record_violation("reader select: " + st.ToString());
            break;
          }
          reads.fetch_add(1, std::memory_order_relaxed);
          if (lo != hi || hi == kVisSentinel) {
            torn.fetch_add(1, std::memory_order_relaxed);
            if (mvcc_on) {
              record_violation("snapshot reader observed torn state: MIN(G)=" +
                               std::to_string(lo) + " MAX(G)=" +
                               std::to_string(hi));
              break;
            }
          }
        }
        db->CloseSession(*sid);
      });
    }
  };
  auto join_readers = [&]() {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    readers.clear();
  };

  Rng rng(opts.seed ^ 0x51AB);
  const int crash_before = opts.crash_midway ? opts.n_txns / 2 + 1 : -1;
  spawn_readers();
  for (int g = 1; report.ok && g <= opts.n_txns; ++g) {
    if (g == crash_before) {
      // Die with a transaction open and half the table dirtied: recovery
      // replays committed transactions only, so the restarted image must sit
      // uniformly at some committed G.
      (void)exec(wsid, "BEGIN TRANSACTION");
      (void)exec(wsid, "UPDATE VIS SET G = " + std::to_string(kVisSentinel) +
                           " WHERE K <= " + std::to_string(kVisHalf));
      join_readers();
      db.reset();
      db = std::make_unique<eng::Database>(&disk, dopts);
      if (Status st = db->Open(); !st.ok()) {
        fail("recovery failed: " + st.ToString());
        break;
      }
      ++report.recoveries;
      auto sid = db->CreateSession("vis-writer");
      if (!sid.ok()) {
        fail("post-recovery session: " + sid.status().ToString());
        break;
      }
      wsid = *sid;
      int64_t lo = 0, hi = 0;
      if (Status st = min_max(wsid, &lo, &hi); !st.ok()) {
        fail("post-recovery read: " + st.ToString());
        break;
      }
      if (lo != hi || hi == kVisSentinel || hi >= g) {
        fail("recovered state not at a committed boundary: MIN(G)=" +
             std::to_string(lo) + " MAX(G)=" + std::to_string(hi));
        break;
      }
      spawn_readers();
    }
    if (rng.NextBool(0.2)) {
      // Aborted sentinel transaction: pending while open, gone after.
      Status st = exec(wsid, "BEGIN TRANSACTION");
      if (st.ok()) {
        st = exec(wsid, "UPDATE VIS SET G = " + std::to_string(kVisSentinel) +
                            " WHERE K <= " + std::to_string(kVisHalf));
      }
      std::this_thread::yield();
      if (st.ok()) st = exec(wsid, "ROLLBACK");
      if (!st.ok()) {
        fail("abort txn: " + st.ToString());
        break;
      }
    }
    // The committed transaction, torn across two statements: between them
    // the live heap holds half old-G, half new-G.
    Status st = exec(wsid, "BEGIN TRANSACTION");
    if (st.ok()) {
      st = exec(wsid, "UPDATE VIS SET G = " + std::to_string(g) +
                          " WHERE K <= " + std::to_string(kVisHalf));
    }
    std::this_thread::yield();
    if (st.ok()) {
      st = exec(wsid, "UPDATE VIS SET G = " + std::to_string(g) +
                          " WHERE K > " + std::to_string(kVisHalf));
    }
    if (st.ok()) st = exec(wsid, "COMMIT");
    if (!st.ok()) {
      fail("writer txn " + std::to_string(g) + ": " + st.ToString());
      break;
    }
    {
      std::lock_guard<std::mutex> lk(violation_mu);
      if (!violation.empty()) break;
    }
  }
  join_readers();

  report.reads = reads.load();
  report.torn_reads = torn.load();
  {
    std::lock_guard<std::mutex> lk(violation_mu);
    if (!violation.empty()) fail(violation);
  }

  if (report.ok) {
    auto r = db->ExecuteScript(wsid, "SELECT K, G FROM VIS ORDER BY K");
    if (!r.ok()) {
      fail("final image read: " + r.status().ToString());
    } else {
      for (const Row& row : (*r)[0].rows) {
        report.final_image += std::to_string(row[0].AsInt64()) + ":" +
                              std::to_string(row[1].AsInt64()) + ",";
      }
    }
  }
  return report;
}

}  // namespace phoenix::chaos
