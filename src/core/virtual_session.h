#ifndef PHOENIX_CORE_VIRTUAL_SESSION_H_
#define PHOENIX_CORE_VIRTUAL_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "common/value.h"
#include "odbc/driver.h"
#include "sql/ast.h"

namespace phoenix::core {

/// Milestones inside one crash-recovery pass. Fault harnesses register a
/// PhoenixConfig::recovery_point_hook to crash the server *at* one of these
/// points, exercising re-crash-during-recovery.
enum class RecoveryPoint : uint8_t {
  /// A real crash was confirmed (proxy table gone); Phase 1 is about to run.
  kDetected = 0,
  /// Phase 1 done: virtual session remapped onto a fresh connection.
  kVirtualSessionRemapped,
  /// Phase 2 done: SQL state (txn, cursors) reinstalled.
  kSqlStateReinstalled,
};

/// Retry/backoff policy for crash recovery. Replaces the old busy-spin
/// between reconnect attempts with a real sleep growing exponentially to a
/// cap, plus seeded jitter so simultaneous clients do not reconnect in
/// lockstep — while every run stays reproducible.
struct RecoveryConfig {
  /// Sleep before the second reconnect attempt (the first is immediate).
  uint64_t initial_backoff_us = 200;
  /// Backoff ceiling. Kept small so the give-up path (reconnect_attempts
  /// exhausted) stays fast in tests.
  uint64_t max_backoff_us = 10000;
  /// Growth factor per attempt.
  double backoff_multiplier = 2.0;
  /// Uniform jitter as a fraction of the backoff: sleep is drawn from
  /// [backoff*(1-j), backoff*(1+j)], clamped to max_backoff_us.
  double jitter = 0.25;
  /// Seeds the deterministic jitter stream.
  uint64_t jitter_seed = 1;
  /// Full recovery passes to attempt when recovery *itself* dies on a crash
  /// signal (server crashed again mid-Phase-1/2) before declaring the
  /// session unrecoverable.
  int max_recovery_rounds = 5;
};

/// Deterministic backoff for reconnect `attempt` (0-based): capped
/// exponential plus seeded jitter from `rng` (pass nullptr for none).
uint64_t RecoveryBackoffUs(const RecoveryConfig& cfg, int attempt, Rng* rng);

/// Tuning & policy knobs for the Phoenix layer.
struct PhoenixConfig {
  /// Env-seeded defaults (PHX_ENDPOINTS → server_group), same pattern as
  /// eng::DatabaseOptions; explicit field assignment overrides as usual.
  PhoenixConfig() : server_group(Options::FromEnv().endpoints) {}

  /// Reconnect attempts before giving up and surfacing the comm error.
  int reconnect_attempts = 200;
  /// Invoked between reconnect attempts. Test harnesses and benches restart
  /// the server from here; by default recovery sleeps per `recovery`'s
  /// capped exponential backoff.
  std::function<void()> retry_wait;

  /// Reconnect backoff + recovery-retry policy.
  RecoveryConfig recovery;

  /// Fault-injection hook fired at each RecoveryPoint milestone. Chaos
  /// tests crash the server from here to model re-crash during recovery.
  std::function<void(RecoveryPoint)> recovery_point_hook;

  /// Rows per block fetch on Phoenix-internal server cursors.
  uint64_t fetch_block = 64;

  /// Reposition recovered result sets server-side via cursor Seek (the
  /// paper's stored-procedure advance). false = ablation: re-fetch from the
  /// start and discard client-side.
  bool server_side_reposition = true;

  /// Materialize results with a single server-side SELECT..INTO (paper's
  /// stored procedure P). false = ablation: pull rows to the client and
  /// push them back with INSERT VALUES batches.
  bool materialize_via_server = true;

  /// Rows per INSERT VALUES batch for the client-roundtrip ablation.
  uint64_t client_insert_batch = 256;

  /// Prefix for every Phoenix-created server object.
  std::string object_prefix = "PHX";

  /// Server group for failover (Options::endpoints / PHX_ENDPOINTS). When
  /// non-empty, the failure detector sweeps these endpoints on a dead
  /// connection — starting from the one the session last used — and
  /// migrates the virtual session to the first healthy server. The connect
  /// DSN is implicitly a member (prepended if absent). Empty = reconnect to
  /// the original DSN only (single-server behavior).
  std::vector<std::string> server_group;
};

/// Per-recovery-attempt counters, reset at the start of every recovery pass
/// (unlike PhoenixStats' cumulative fields and the registry counters, which
/// stay monotonic across a session's whole life). A second recovery of the
/// same session reports only its own work here.
struct RecoveryStats {
  /// 1-based index of this recovery within the session (== PhoenixStats::
  /// recoveries at the time the pass confirmed a real crash).
  uint64_t attempt = 0;
  uint64_t reconnect_attempts = 0;  ///< dials this pass made
  uint64_t refused_skips = 0;       ///< endpoints skipped as refused
  uint64_t state_reinstalls = 0;    ///< statements re-installed this pass
  uint64_t txn_replays = 0;         ///< txn statements replayed this pass
  uint64_t rows_redelivered = 0;    ///< rows redelivered since this pass
  bool failed_over = false;         ///< session moved to a different server
  std::string endpoint;             ///< server the session landed on
};

/// Counters and phase timings, exposed for tests and the Figure-2 bench.
struct PhoenixStats {
  uint64_t recoveries = 0;
  uint64_t reconnect_attempts = 0;  ///< Ping probes sent while detecting
  uint64_t transient_retries = 0;
  /// Recovery passes restarted because the server crashed again while a
  /// recovery was in progress (re-crash during recovery).
  uint64_t recovery_recrashes = 0;
  /// SELECTs whose whole result fit one fetch block and came back in the
  /// probe's reply: no result table, no commit.
  uint64_t whole_results = 0;
  /// SELECTs persisted as a result table (larger than one fetch block).
  uint64_t materialized_results = 0;
  uint64_t keyset_cursors = 0;
  uint64_t dynamic_cursors = 0;
  uint64_t dml_wrapped = 0;
  uint64_t status_probes = 0;
  uint64_t resubmissions = 0;
  uint64_t lost_replies_recovered = 0;
  uint64_t txn_replays = 0;
  uint64_t state_reinstalls = 0;   ///< statements re-installed by recovery
  uint64_t rows_redelivered = 0;   ///< rows delivered via a recovered stmt
  /// Recoveries that landed the session on a *different* server than the
  /// one it lost (multi-endpoint failover).
  uint64_t failovers = 0;
  /// Endpoints skipped instantly because the dial was refused (nothing
  /// listening) instead of burning a backoff round on them.
  uint64_t refused_skips = 0;
  /// The most recent recovery pass's own numbers (reset per pass; see
  /// RecoveryStats). The cumulative fields above never reset.
  RecoveryStats last_recovery;
  /// Phase timings of the most recent recovery (Figure 2's two series).
  double last_detect_seconds = 0;
  double last_virtual_session_seconds = 0;
  double last_sql_state_seconds = 0;
  double total_recovery_seconds = 0;
};

/// Per-statement Phoenix bookkeeping, hung off Hstmt::dm_state.
struct StmtState {
  enum class Kind : uint8_t {
    kNone = 0,
    kMaterialized,  ///< result persisted in `result_table`, cursor over it
    kKeyset,        ///< keys persisted in `result_table`
    kDynamic,       ///< keys persisted; ranges recomputed per fetch
  };
  Kind kind = Kind::kNone;

  /// Phoenix-owned server table holding the result rows or the key set.
  std::string result_table;

  // Keyset/dynamic:
  std::unique_ptr<sql::SelectStmt> original_select;  ///< rewritten names
  std::vector<std::string> pk_columns;
  uint64_t key_cursor_id = 0;       ///< static cursor over result_table
  uint64_t keys_consumed = 0;       ///< position in the key stream
  std::deque<Row> key_buffer;       ///< client-side block of keys
  bool keys_done = false;
  Row last_key;                     ///< dynamic: upper bound already fetched
  bool range_started = false;
  std::deque<Row> pending_rows;     ///< dynamic: rows fetched, undelivered

  /// Set when recovery re-installed this statement's SQL state. Rows
  /// delivered afterwards count as "redelivered" (they reach the app only
  /// because the virtual session survived the crash).
  bool recovered = false;
};

/// Per-connection Phoenix bookkeeping, hung off Hdbc::dm_state. This plus
/// the persistent server tables *is* the virtual session: the client half
/// holds exactly the state the paper says "is also saved on the client...
/// to permit the synchronization of recovered server state with the client
/// state".
struct ConnState {
  std::string tag;  ///< unique per connection; embedded in object names

  // Saved connect/login info and the option replay log (phase-1 recovery).
  std::string dsn;
  std::string user;
  std::vector<std::pair<std::string, std::string>> option_log;

  /// Failover server group (config server_group with the connect DSN
  /// guaranteed a member) and the index of the endpoint the session is
  /// currently on. `dsn` always equals `server_group[active_endpoint]`,
  /// so phase 1/2 reconnects naturally target the surviving server.
  std::vector<std::string> server_group;
  size_t active_endpoint = 0;

  /// Private database connection for Phoenix activity (materialization,
  /// pings, probes) — masked from the application's connection.
  std::unique_ptr<odbc::DriverConnection> private_conn;

  /// Session-liveness proxy: a temp table in the *main* session; it exists
  /// iff the pre-crash session still exists.
  std::string proxy_table;

  /// Testable-state table for DML outcomes.
  std::string status_table;
  bool status_table_created = false;

  uint64_t next_artifact = 1;
  uint64_t next_req_id = 1;

  /// Temp-object name indirection (uppercased original -> actual).
  std::map<std::string, std::string> temp_table_map;
  std::map<std::string, std::string> temp_proc_map;

  /// Every persistent object Phoenix created, for end-of-session cleanup.
  std::vector<std::string> artifact_tables;
  std::vector<std::string> artifact_procs;
  /// Result/key tables (still in artifact_tables) that no statement needs
  /// any more: their cursor was closed, or the statement freed or
  /// re-executed. The next materialization drops them inside its own
  /// transaction; Disconnect drops whatever is left.
  std::vector<std::string> retired_tables;

  /// Open-transaction tracking for post-crash replay.
  bool in_txn = false;
  std::vector<std::string> txn_log;
  /// Commit-marker request id while a COMMIT is in flight (0 = none).
  uint64_t pending_commit_req = 0;

  /// Set when recovery gave up; subsequent calls fail fast.
  bool broken = false;
};

}  // namespace phoenix::core

#endif  // PHOENIX_CORE_VIRTUAL_SESSION_H_
