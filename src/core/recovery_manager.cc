#include <algorithm>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "core/phoenix_driver_manager.h"
#include "core/rewriter.h"
#include "core/state_store.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Server-failure detection and two-phase virtual-session recovery — the
// machinery behind §3 "Server and Session Crash Recovery" of the paper.

namespace phoenix::core {

using odbc::DriverConnection;
using odbc::Hdbc;
using odbc::Hstmt;

uint64_t RecoveryBackoffUs(const RecoveryConfig& cfg, int attempt, Rng* rng) {
  if (attempt <= 0) return 0;  // first retry is immediate
  double backoff = static_cast<double>(cfg.initial_backoff_us);
  double cap = static_cast<double>(cfg.max_backoff_us);
  for (int i = 1; i < attempt && backoff < cap; ++i) {
    backoff *= std::max(1.0, cfg.backoff_multiplier);
  }
  backoff = std::min(backoff, cap);
  if (rng != nullptr && cfg.jitter > 0) {
    // Uniform in [backoff*(1-j), backoff*(1+j)].
    backoff += backoff * cfg.jitter * (2.0 * rng->NextDouble() - 1.0);
  }
  backoff = std::clamp(backoff, 0.0, cap);
  return static_cast<uint64_t>(backoff);
}

Result<PhoenixDriverManager::RecoveryOutcome>
PhoenixDriverManager::RecoverConnection(Hdbc* dbc) {
  ConnState* cs = conn_state(dbc);
  if (cs == nullptr) return Status::Internal("recovery on a non-Phoenix dbc");
  if (cs->broken) return Status::CommError("session unrecoverable");

  // The server can die *again* while a recovery pass is running (between
  // reconnect and Phase 2). Each such death invalidates the pass's partial
  // work, so restart the whole pass — up to a bounded number of rounds —
  // instead of surfacing a mid-recovery crash signal to the application.
  Status last;
  for (int round = 0; round < config_.recovery.max_recovery_rounds; ++round) {
    if (round > 0) {
      ++stats_.recovery_recrashes;
      obs::MetricsRegistry::Default()
          ->GetCounter("core.recovery_recrashes")
          ->Increment();
      obs::Tracer::Default()->Emit("core.recovery.recrash",
                                   {{"tag", cs->tag}});
    }
    auto outcome = RecoverConnectionOnce(dbc, cs);
    if (outcome.ok()) return outcome;
    last = outcome.status();
    // A give-up point inside the pass (reconnect budget exhausted) already
    // marked the session; a non-crash error is a genuine failure (bad
    // replay SQL, permission loss) that retrying cannot fix.
    if (cs->broken || !IsCrashSignal(last)) return last;
  }
  cs->broken = true;
  return Status::CommError(
      "recovery failed after " +
      std::to_string(config_.recovery.max_recovery_rounds) +
      " re-crashed rounds: " + last.message());
}

Result<PhoenixDriverManager::RecoveryOutcome>
PhoenixDriverManager::RecoverConnectionOnce(Hdbc* dbc, ConnState* cs) {
  auto* reg = obs::MetricsRegistry::Default();
  obs::Tracer::Default()->Emit("core.recovery.start", {{"tag", cs->tag}});
  StopWatch detect_watch;
  // ---- Detection: re-contact a server ----------------------------------
  // Reconnect sweep over the failover group (a single-endpoint group
  // degenerates to the old same-server retry loop). Each round starts at
  // the endpoint the session last used and tries the others in order; a
  // *refused* dial proves nothing listens there and is skipped instantly,
  // while only a fully-failed round pays a backoff sleep. If no server in
  // the group answers within the dial budget, the failure is passed to the
  // application (the paper's give-up path).
  std::unique_ptr<DriverConnection> fresh;
  Rng backoff_rng(config_.recovery.jitter_seed);
  const std::vector<std::string> group =
      cs->server_group.empty() ? std::vector<std::string>{cs->dsn}
                               : cs->server_group;
  size_t landed = cs->active_endpoint < group.size() ? cs->active_endpoint : 0;
  uint64_t pass_reconnects = 0;
  uint64_t pass_refused = 0;
  int dials = 0;
  for (int round = 0; dials < config_.reconnect_attempts; ++round) {
    for (size_t i = 0; i < group.size() && dials < config_.reconnect_attempts;
         ++i) {
      size_t idx = (cs->active_endpoint + i) % group.size();
      ++dials;
      ++stats_.reconnect_attempts;
      ++pass_reconnects;
      reg->GetCounter("core.reconnect_attempts")->Increment();
      auto conn = DriverConnection::Open(network_, group[idx], cs->user);
      if (conn.ok()) {
        fresh = conn.take();
        landed = idx;
        break;
      }
      if (net::IsConnectionRefused(conn.status())) {
        // Fast failover: refused costs one syscall, not a backoff round —
        // move straight to the next endpoint in the group.
        ++stats_.refused_skips;
        ++pass_refused;
        reg->GetCounter("core.endpoint_refused_skips")->Increment();
      }
      // A timed-out / reset dial also continues the sweep; it already paid
      // its own dial latency, and another server may be healthy right now.
    }
    if (fresh != nullptr || dials >= config_.reconnect_attempts) break;
    if (config_.retry_wait) {
      config_.retry_wait();
    } else {
      // Real sleep (the paper "periodically attempts to reconnect"), capped
      // exponential with seeded jitter — never a busy spin.
      uint64_t wait_us =
          RecoveryBackoffUs(config_.recovery, round + 1, &backoff_rng);
      if (wait_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
      }
    }
  }
  if (fresh == nullptr) {
    cs->broken = true;
    return Status::CommError("server unreachable: giving up after " +
                             std::to_string(config_.reconnect_attempts) +
                             " reconnect attempts");
  }

  // ---- Crash vs. transient discrimination ------------------------------
  // "We test whether a special temporary table created by Phoenix/ODBC for
  // the session still exists." It dies with the session; if it is present,
  // the old session survived and the problem was transient.
  auto probe = fresh->ExecScript("SELECT COUNT(*) FROM " + cs->proxy_table);
  if (probe.ok()) {
    fresh->Disconnect();
    ++stats_.transient_retries;
    reg->GetCounter("core.transient_retries")->Increment();
    obs::Tracer::Default()->Emit("core.recovery.transient", {{"tag", cs->tag}});
    return RecoveryOutcome::kTransient;
  }
  stats_.last_detect_seconds = detect_watch.ElapsedSeconds();
  ++stats_.recoveries;
  reg->GetCounter("core.recoveries")->Increment();
  reg->GetHistogram("core.recovery.detect_us")
      ->Record(static_cast<uint64_t>(stats_.last_detect_seconds * 1e6));

  // Per-recovery-attempt numbers start fresh here (the registry counters
  // above stay monotonic); later phases and post-recovery fetches add to
  // last_recovery until the next confirmed crash.
  stats_.last_recovery = RecoveryStats{};
  stats_.last_recovery.attempt = stats_.recoveries;
  stats_.last_recovery.reconnect_attempts = pass_reconnects;
  stats_.last_recovery.refused_skips = pass_refused;
  if (landed != cs->active_endpoint) {
    // Failover: the session is migrating to a different server. All of
    // phase 1/2 below (private connection, proxy table, replay) naturally
    // target the new endpoint through cs->dsn.
    cs->active_endpoint = landed;
    cs->dsn = group[landed];
    ++stats_.failovers;
    stats_.last_recovery.failed_over = true;
    reg->GetCounter("core.failovers")->Increment();
    obs::Tracer::Default()->Emit("core.recovery.failover",
                                 {{"tag", cs->tag}, {"endpoint", cs->dsn}});
  }
  stats_.last_recovery.endpoint = cs->dsn;
  if (config_.recovery_point_hook) {
    config_.recovery_point_hook(RecoveryPoint::kDetected);
  }

  // ---- Phase 1: re-map the virtual session ------------------------------
  StopWatch vs_watch;
  // The fresh connection becomes the new mapping of the virtual connection
  // handle; the application's Hdbc never changes identity.
  dbc->driver = std::move(fresh);
  for (const auto& [name, value] : cs->option_log) {
    PHX_RETURN_IF_ERROR(dbc->driver->SetOption(name, value));
  }
  PHX_RETURN_IF_ERROR(dbc->driver
                          ->ExecScript("CREATE TEMPORARY TABLE " +
                                       cs->proxy_table + " (X INTEGER)")
                          .status());
  // Replacement private connection. On a crash signal the whole pass is
  // retried by RecoverConnection (the server died again); only a non-crash
  // failure here is terminal.
  auto priv = DriverConnection::Open(network_, cs->dsn, cs->user);
  if (!priv.ok()) {
    if (!IsCrashSignal(priv.status())) cs->broken = true;
    return priv.status();
  }
  cs->private_conn = priv.take();
  // The replacement private connection probes testable state exactly like
  // the original did: at READ UNCOMMITTED (see Connect).
  Status iso = cs->private_conn->SetOption("ISOLATION", "READ UNCOMMITTED");
  if (!iso.ok()) {
    if (!IsCrashSignal(iso)) cs->broken = true;
    return iso;
  }
  stats_.last_virtual_session_seconds = vs_watch.ElapsedSeconds();
  reg->GetHistogram("core.recovery.virtual_session_us")
      ->Record(
          static_cast<uint64_t>(stats_.last_virtual_session_seconds * 1e6));
  if (config_.recovery_point_hook) {
    config_.recovery_point_hook(RecoveryPoint::kVirtualSessionRemapped);
  }

  // ---- Phase 2: reinstall SQL state --------------------------------------
  StopWatch sql_watch;
  PHX_RETURN_IF_ERROR(ReinstallSqlState(dbc, cs));
  stats_.last_sql_state_seconds = sql_watch.ElapsedSeconds();
  reg->GetHistogram("core.recovery.sql_state_us")
      ->Record(static_cast<uint64_t>(stats_.last_sql_state_seconds * 1e6));
  stats_.total_recovery_seconds += stats_.last_detect_seconds +
                                   stats_.last_virtual_session_seconds +
                                   stats_.last_sql_state_seconds;
  if (config_.recovery_point_hook) {
    config_.recovery_point_hook(RecoveryPoint::kSqlStateReinstalled);
  }
  obs::Tracer::Default()->Emit("core.recovery.done", {{"tag", cs->tag}});
  return RecoveryOutcome::kRemapped;
}

Status PhoenixDriverManager::ReinstallSqlState(Hdbc* dbc, ConnState* cs) {
  // Open transaction: decide committed-vs-lost, then replay if lost.
  if (cs->in_txn) {
    bool committed = false;
    if (cs->pending_commit_req != 0 && cs->status_table_created) {
      auto probe = cs->private_conn->ExecScript(
          MakeStatusProbe(cs->status_table, cs->pending_commit_req));
      ++stats_.status_probes;
      if (probe.ok() && !(*probe)[0].rows.empty()) committed = true;
    }
    if (committed) {
      // The in-flight COMMIT made it to disk; only the reply was lost.
      ++stats_.lost_replies_recovered;
      obs::MetricsRegistry::Default()
          ->GetCounter("core.lost_reply_resolutions")
          ->Increment();
      cs->in_txn = false;
      cs->txn_log.clear();
      cs->pending_commit_req = 0;
    } else {
      // The crash rolled the transaction back: re-establish it by replay.
      // The in-flight commit marker died with the old transaction — its
      // request id must not leak into the replayed one, or a later recovery
      // could probe the stale id and mistake an old (or future, if the id
      // is reused by ExecCommit) marker for this transaction's commit.
      // ExecCommit allocates a fresh marker id when it resubmits.
      cs->pending_commit_req = 0;
      PHX_RETURN_IF_ERROR(
          dbc->driver->ExecScript("BEGIN TRANSACTION").status());
      for (const std::string& sql : cs->txn_log) {
        PHX_RETURN_IF_ERROR(dbc->driver->ExecScript(sql).status());
      }
      ++stats_.txn_replays;
      ++stats_.last_recovery.txn_replays;
      obs::MetricsRegistry::Default()
          ->GetCounter("core.txn_replays")
          ->Increment();
    }
  }

  // Re-open and re-position every statement's persistent result/key stream.
  for (const auto& stmt_ptr : dbc->stmts) {
    Hstmt* stmt = stmt_ptr.get();
    StmtState* vs = stmt_state(stmt);
    if (vs == nullptr) continue;
    if (vs->kind != StmtState::Kind::kNone) {
      vs->recovered = true;
      ++stats_.state_reinstalls;
      ++stats_.last_recovery.state_reinstalls;
      obs::MetricsRegistry::Default()
          ->GetCounter("core.state_reinstalls")
          ->Increment();
    }
    switch (vs->kind) {
      case StmtState::Kind::kMaterialized: {
        uint64_t cursor_id = 0;
        PHX_RETURN_IF_ERROR(RepositionCursor(dbc, vs->result_table,
                                             stmt->rows_delivered,
                                             &cursor_id));
        stmt->server_cursor_id = cursor_id;
        stmt->buffered.clear();
        stmt->buffer_pos = 0;
        stmt->server_done = false;
        break;
      }
      case StmtState::Kind::kKeyset:
      case StmtState::Kind::kDynamic: {
        uint64_t cursor_id = 0;
        PHX_RETURN_IF_ERROR(RepositionCursor(dbc, vs->result_table,
                                             vs->keys_consumed, &cursor_id));
        vs->key_cursor_id = cursor_id;
        vs->key_buffer.clear();
        vs->keys_done = false;
        // pending_rows / last_key are client memory and survived intact.
        break;
      }
      case StmtState::Kind::kNone:
        break;
    }
  }
  return Status::Ok();
}

Status PhoenixDriverManager::RepositionCursor(Hdbc* dbc,
                                              const std::string& table,
                                              uint64_t position,
                                              uint64_t* cursor_id) {
  PHX_ASSIGN_OR_RETURN(
      odbc::CursorOpenInfo info,
      dbc->driver->OpenCursor("SELECT * FROM " + table,
                              eng::CursorType::kStatic, /*first_block=*/0));
  *cursor_id = info.cursor_id;
  if (position == 0) return Status::Ok();
  if (config_.server_side_reposition) {
    // One round trip; zero tuples shipped — the paper's stored-procedure
    // advance, realized as a server-side absolute seek.
    return dbc->driver->Seek(info.cursor_id, position);
  }
  // Ablation: re-fetch from the start and throw the rows away client-side.
  uint64_t discarded = 0;
  while (discarded < position) {
    uint64_t want = std::min<uint64_t>(config_.fetch_block,
                                       position - discarded);
    PHX_ASSIGN_OR_RETURN(odbc::FetchResult block,
                         dbc->driver->Fetch(info.cursor_id, want));
    discarded += block.rows.size();
    // These rows re-crossed the wire only to be thrown away — the very cost
    // the server-side seek avoids. They count as redelivered.
    stats_.rows_redelivered += block.rows.size();
    stats_.last_recovery.rows_redelivered += block.rows.size();
    obs::MetricsRegistry::Default()
        ->GetCounter("core.rows_redelivered")
        ->Increment(block.rows.size());
    if (block.done) break;
    if (block.rows.empty()) break;
  }
  if (discarded < position) {
    // The persistent result table holds fewer rows than the client already
    // delivered to the application. Silently returning Ok here would leave
    // the cursor mispositioned and replay rows the app has seen (or skip
    // ahead); the state is genuinely lost, so fail the recovery loudly.
    return Status::Internal(
        "cursor reposition fell short: " + table + " has " +
        std::to_string(discarded) + " rows, client already consumed " +
        std::to_string(position));
  }
  return Status::Ok();
}

}  // namespace phoenix::core
