#ifndef PHOENIX_CHAOS_CHAOS_H_
#define PHOENIX_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/options.h"

namespace phoenix::storage {
class SimDisk;
}  // namespace phoenix::storage

namespace phoenix::chaos {

/// One seeded, deterministic chaos schedule: a generated SQL workload (DML,
/// explicit transactions, temp-table traffic, long-lived block-fetched
/// cursors) run through the full PhoenixDriverManager -> network -> engine
/// -> WAL stack while a generated fault plan kills the server (plain /
/// partial-flush / torn-tail / mid-checkpoint), re-kills it *during*
/// recovery, and drops or loses individual messages.
///
/// The oracle is a shadow run: the identical workload on a plain (native)
/// driver against a server that never fails. Every operation's observable
/// outcome (row stream, order, affected counts) must match exactly —
/// exactly-once DML, no lost / duplicated / reordered rows across
/// reconnects. Afterwards the harness additionally checks:
///  - the Phoenix status table holds no duplicate request ids (the
///    double-apply sentinel),
///  - a final crash + restart succeeds and the surviving data equals the
///    oracle's (durability agreement),
///  - an independent storage-level recovery over the same disk succeeds
///    (catalog / WAL agreement outside the server's own code path).
///
/// Everything is derived from `seed`; a failing schedule reproduces from
/// its seed alone.
struct ChaosOptions {
  uint64_t seed = 1;
  /// Workload length (operations, including cursor open/fetch/close).
  int n_ops = 40;
  /// Fault events to inject across the schedule.
  int n_faults = 3;

  // Which fault kinds the plan may draw from (all on by default).
  bool allow_crash = true;           ///< plain kill, unsynced tail discarded
  bool allow_partial_flush = true;   ///< kill keeping a fraction of the tail
  bool allow_torn = true;            ///< byte-granular torn/corrupt tail
  bool allow_mid_checkpoint = true;  ///< die between ckpt image and WAL reset
  bool allow_recovery_crash = true;  ///< kill again at a RecoveryPoint
  bool allow_lost_reply = true;      ///< request executes, reply vanishes
  bool allow_dropped_request = true; ///< request never reaches the server
  /// SIGKILL the reborn phoenixd *during* its boot-time WAL replay (armed
  /// "recovery" rendezvous + PHX_RECOVERY_THREADS=4, so the kill lands with
  /// partitions half-applied on worker threads). Off by default — adding a
  /// kind to the draw list would change every existing seed's fault plan —
  /// and only drawn for the process transports (needs a child to re-kill).
  bool allow_replay_kill = false;

  /// Phoenix reposition strategy under test (false = client-side ablation).
  bool server_side_reposition = true;
  /// Auto-checkpoint cadence on the chaos server (0 = never) — creates the
  /// checkpoint/WAL interleavings the mid-checkpoint faults depend on.
  uint64_t checkpoint_every_n_commits = 0;

  /// WAL-replay worker override for the chaos server. Unset = inherit the
  /// PHX_RECOVERY_THREADS environment default; set = pin it, so a schedule
  /// can force every recovery through the partitioned parallel path (or
  /// back to serial) regardless of the lane.
  std::optional<uint64_t> recovery_threads;

  /// Where the chaos server lives. kInproc (historical default): a DbServer
  /// object in this process, killed by method call. kUnix / kTcp: a real
  /// phoenixd child process driven over a socket, killed by SIGKILL — plain
  /// kills land between ops, and the tail-tearing fault kinds are delivered
  /// through the SIGKILL rendezvous protocol (armed via a kAdmin request,
  /// fired inside the child's fsync / checkpoint rename / dispatch). The
  /// oracle shadow run always stays in-process.
  Transport transport = Transport::kInproc;
  /// Durable data directory for the phoenixd child (process transports
  /// only). Empty = a fresh mkdtemp directory, removed when the schedule
  /// passes and kept for post-mortem when it fails.
  std::string data_dir;
  /// phoenixd binary path (process transports only). Empty = discovery via
  /// net::FindServerBinary ($PHX_SERVER_BIN, build-tree guesses).
  std::string server_binary;

  /// Multi-server failover mode (process transports only): a second
  /// phoenixd (server_id 1) shares the primary's data dir, the Phoenix
  /// client gets both endpoints as its server group, and every server kill
  /// targets the *current* server — the harness restarts the OTHER one, so
  /// the session must migrate back and forth while the oracle checks
  /// op-equivalence across each migration. Active-passive: at most one
  /// group member is ever alive.
  bool failover = false;

  /// Extra audit run at the independent-recovery step, with the surviving
  /// post-schedule disk and the server's disk-file prefix. The equivalence
  /// matrix uses this to replay the same chaos-generated WAL serially and
  /// in parallel and demand byte-identical results. Failures must be
  /// raised by the hook itself (e.g. gtest EXPECTs); the report is not
  /// consulted.
  std::function<void(storage::SimDisk* disk, const std::string& disk_prefix)>
      post_run_disk_audit;
};

/// Outcome of one schedule. `ok == false` means an oracle invariant was
/// violated; `failure` carries the first violation plus the repro seed.
struct ChaosReport {
  uint64_t seed = 0;
  bool ok = true;
  std::string failure;

  size_t ops_run = 0;
  size_t faults_injected = 0;
  uint64_t server_crashes = 0;      ///< server kills the plan performed
  uint64_t mid_ckpt_images = 0;     ///< mid-checkpoint kills that wrote one
  uint64_t recoveries = 0;          ///< Phoenix full recoveries
  uint64_t recovery_recrashes = 0;  ///< recovery passes restarted
  uint64_t lost_replies_recovered = 0;
  uint64_t wal_records_skipped = 0; ///< ckpt-subsumed records (final audit)
  bool wal_tear_detected = false;   ///< final audit found a torn tail
  uint64_t sigkills = 0;            ///< process mode: SIGKILLs delivered
  uint64_t rendezvous_kills = 0;    ///< ... of which landed mid-rendezvous
  uint64_t replay_kills = 0;        ///< ... of which landed mid-WAL-replay
  uint64_t failovers = 0;           ///< recoveries that switched servers

  std::string DebugString() const;
};

ChaosReport RunChaosSchedule(const ChaosOptions& opts);

/// One seeded MVCC snapshot-visibility schedule: an engine-level (in-process
/// eng::Database) writer commits a sequence of transactions that are each
/// deliberately *torn* across two statements — UPDATE half the table, yield,
/// UPDATE the other half, COMMIT — while N concurrent reader sessions spin
/// on SELECT MIN(G)/MAX(G). Some transactions write a sentinel value into
/// one half and ROLL BACK instead.
///
/// The oracle:
///  - mvcc on: every read is uniform (MIN == MAX) and sentinel-free — a
///    snapshot reader can never observe the mid-transaction tear, a pending
///    write, or a rolled-back value. Any violation fails the schedule.
///  - mvcc off: torn reads are *expected* (classification readers see the
///    live heap between the writer's statements); they are counted, not
///    asserted, so the same schedule documents the behavioral delta.
///  - crash/restart (optional): midway the Database is destroyed and
///    recovered from the SimDisk; the restarted state must be uniform at a
///    committed boundary (WAL replay applies whole transactions only).
///  - the final table image is returned so callers can demand cross-mode
///    equality (the same seed with mvcc on and off must converge).
struct MvccVisibilityOptions {
  uint64_t seed = 1;
  int n_txns = 30;           ///< committed writer transactions
  int n_readers = 3;         ///< concurrent snapshot-reader threads
  /// Engine MVCC override. Unset = inherit the PHX_MVCC environment lane
  /// (same pattern as ChaosOptions::recovery_threads); set = pin the mode.
  std::optional<bool> mvcc;
  bool crash_midway = true;  ///< kill + recover the engine mid-schedule
};

struct MvccVisibilityReport {
  uint64_t seed = 0;
  bool ok = true;
  std::string failure;
  bool mvcc = false;        ///< resolved engine mode the schedule ran with
  uint64_t reads = 0;       ///< reader SELECTs completed
  uint64_t torn_reads = 0;  ///< non-uniform MIN/MAX observed
  uint64_t recoveries = 0;  ///< crash/restart cycles performed
  std::string final_image;  ///< canonical "k:g,..." final table contents

  std::string DebugString() const;
};

MvccVisibilityReport RunMvccVisibilitySchedule(
    const MvccVisibilityOptions& opts);

}  // namespace phoenix::chaos

#endif  // PHOENIX_CHAOS_CHAOS_H_
