// Seeded chaos matrix over the src/chaos harness: >= 200 deterministic
// schedules, grouped into suites that each concentrate on one fault family.
// Every schedule checks the full oracle (op-by-op equivalence with a
// fault-free native run, exactly-once request ids, post-crash durability,
// independent catalog/WAL agreement) — see src/chaos/chaos.h.
//
// A red schedule prints its ChaosReport, whose seed is a complete repro:
//
//   PHX_CHAOS_SEED=<seed> ./chaos_matrix_test
//       --gtest_filter=ChaosMatrix.SingleSeedFromEnv
//
// replays exactly that schedule with every fault kind enabled.

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "chaos/chaos.h"
#include "common/codec.h"
#include "net/process_server.h"
#include "net/socket.h"
#include "storage/recovery.h"
#include "storage/sim_disk.h"
#include "storage/table_store.h"

#include "gtest/gtest.h"

namespace phoenix::chaos {
namespace {

/// Runs one schedule and fails the test with a copy-pasteable repro line.
/// Process-transport schedules carry the transport in the repro so the
/// replay crosses the same process boundary.
ChaosReport RunAndCheck(const ChaosOptions& opts) {
  ChaosReport report = RunChaosSchedule(opts);
  std::string env_prefix;
  if (opts.transport == Transport::kUnix) env_prefix = "PHX_TRANSPORT=unix ";
  if (opts.transport == Transport::kTcp) env_prefix = "PHX_TRANSPORT=tcp ";
  EXPECT_TRUE(report.ok)
      << report.DebugString() << "\nrepro: " << env_prefix
      << "PHX_CHAOS_SEED=" << opts.seed
      << " ./chaos_matrix_test --gtest_filter=ChaosMatrix.SingleSeedFromEnv";
  return report;
}

/// PHX_TRANSPORT=tcp flips the process-kill lane to TCP; anything else
/// (including unset) runs it over a Unix-domain socket.
Transport ProcessLaneTransport() {
  const char* t = std::getenv("PHX_TRANSPORT");
  if (t != nullptr && std::string(t) == "tcp") return Transport::kTcp;
  return Transport::kUnix;
}

/// Process-mode chaos needs a phoenixd binary and a sandbox that grants
/// sockets; sets `why` and returns false when either is missing.
bool ProcessChaosAvailable(std::string* why) {
  if (net::FindServerBinary("").empty()) {
    *why = "phoenixd binary not found (set PHX_SERVER_BIN)";
    return false;
  }
  net::Listener probe;
  std::string ep = (ProcessLaneTransport() == Transport::kTcp)
                       ? "tcp:127.0.0.1:0"
                       : "unix:/tmp/phx_cmx_probe_" +
                             std::to_string(::getpid()) + ".sock";
  Status st = probe.Listen(ep);
  if (!st.ok()) {
    *why = "sockets unavailable here: " + st.ToString();
    return false;
  }
  probe.Close();
  return true;
}

TEST(ChaosMatrix, TornTailSchedules) {
  // Torn last records: byte-granular truncation plus corruption of the
  // unsynced tail, independent per file.
  uint64_t tears_seen = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ChaosOptions opts;
    opts.seed = 7000 + seed;
    opts.n_faults = 2;
    opts.allow_crash = false;
    opts.allow_mid_checkpoint = false;
    opts.allow_recovery_crash = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves torn + partial-flush
    ChaosReport r = RunAndCheck(opts);
    tears_seen += r.wal_tear_detected ? 1 : 0;
    recoveries += r.recoveries;
  }
  EXPECT_GT(recoveries, 0u) << "no schedule ever exercised recovery";
  EXPECT_GT(tears_seen, 0u) << "no schedule ever produced a torn WAL tail";
}

TEST(ChaosMatrix, MidCheckpointSchedules) {
  // Crash inside Checkpoint(): image durable, WAL truncation lost. The
  // restarted server must skip the subsumed records instead of
  // double-applying them (or refusing to start).
  uint64_t images = 0;
  uint64_t skipped = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ChaosOptions opts;
    opts.seed = 8000 + seed;
    opts.n_faults = 3;
    opts.checkpoint_every_n_commits = 5;
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_recovery_crash = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves mid-checkpoint + plain crash
    ChaosReport r = RunAndCheck(opts);
    images += r.mid_ckpt_images;
    skipped += r.wal_records_skipped;
  }
  EXPECT_GT(images, 0u) << "no schedule ever died mid-checkpoint";
  EXPECT_GT(skipped, 0u)
      << "no recovery ever skipped a checkpoint-subsumed WAL record";
}

TEST(ChaosMatrix, ConcurrentCheckpointSchedules) {
  // Non-blocking checkpoints under load: a tight auto-checkpoint cadence
  // keeps the snapshot/image/truncate pipeline hot while the workload's
  // writers commit and its cursors scan, and the schedule dies at one of the
  // three crash points of the split protocol (chosen by sub_seed % 3:
  // pre-snapshot, post-snapshot, post-image). Every seed runs the background
  // checkpoint thread, the only checkpoint path.
  uint64_t images = 0;
  uint64_t skipped = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ChaosOptions opts;
    opts.seed = 12000 + seed;
    opts.n_ops = 50;
    opts.n_faults = 3;
    opts.checkpoint_every_n_commits = 4;
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_recovery_crash = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves mid-checkpoint + plain crash
    ChaosReport r = RunAndCheck(opts);
    images += r.mid_ckpt_images;
    skipped += r.wal_records_skipped;
    recoveries += r.recoveries;
  }
  EXPECT_GT(recoveries, 0u) << "no schedule ever exercised recovery";
  EXPECT_GT(images, 0u) << "no schedule ever wrote an image before dying";
  EXPECT_GT(skipped, 0u)
      << "no recovery ever skipped a fence-subsumed WAL record";
}

TEST(ChaosMatrix, RecrashDuringRecoverySchedules) {
  // The server dies again while Phoenix is mid-recovery (after detection /
  // after the virtual-session remap); the recovery driver must restart the
  // pass, not surface the mid-recovery crash to the application.
  uint64_t recrashes = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ChaosOptions opts;
    opts.seed = 9000 + seed;
    opts.n_faults = 2;
    opts.allow_crash = false;
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_mid_checkpoint = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves recovery-crash only
    ChaosReport r = RunAndCheck(opts);
    recrashes += r.recovery_recrashes;
  }
  EXPECT_GT(recrashes, 0u)
      << "no schedule ever re-crashed inside a recovery pass";
}

TEST(ChaosMatrix, MixedFaultSchedules) {
  // Everything at once, including lost replies landing between the block
  // fetches of half-delivered cursors (reposition under message loss).
  // Odd seeds run the client-side reposition ablation so both strategies
  // stay under fault pressure.
  uint64_t lost = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ChaosOptions opts;
    opts.seed = 10000 + seed;
    opts.n_ops = 50;
    opts.n_faults = 4;
    opts.checkpoint_every_n_commits = (seed % 3 == 0) ? 6 : 0;
    opts.server_side_reposition = (seed % 2 == 0);
    ChaosReport r = RunAndCheck(opts);
    lost += r.lost_replies_recovered;
  }
  EXPECT_GT(lost, 0u) << "no schedule ever recovered a lost reply";
}

TEST(ChaosMatrix, GroupCommitSchedules) {
  // The full fault zoo against the WAL group-commit pipeline (leader mode,
  // the only pipeline; every seed runs it). Crashes land between a batch's
  // coalesced append and its single sync — the oracle's durability
  // invariant (no acked commit ever lost, no unacked commit ever claimed)
  // is exactly the ack-after-fsync contract under test.
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ChaosOptions opts;
    opts.seed = 11000 + seed;
    opts.n_ops = 50;
    opts.n_faults = 4;
    opts.checkpoint_every_n_commits = (seed % 4 == 0) ? 6 : 0;
    ChaosReport r = RunAndCheck(opts);
    recoveries += r.recoveries;
  }
  EXPECT_GT(recoveries, 0u)
      << "no group-commit schedule ever exercised recovery";
}

TEST(ChaosMatrix, IndexDdlCrashSchedules) {
  // Crashes landing on and around index DDL: the workload opens with
  // CREATE INDEX and keeps toggling CREATE/DROP INDEX, and every fault kind
  // that kills the server is enabled, so deaths land between an index DDL
  // and the surrounding data ops (and inside recovery replaying them). The
  // harness's index-consistency oracle then audits both the restarted
  // server's store and an independent storage-level recovery: every index's
  // entry tree must equal the tree rebuilt from its base rows.
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosOptions opts;
    opts.seed = 13000 + seed;
    opts.n_ops = 50;
    opts.n_faults = 3;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves crash + partial-flush + torn + mid-checkpoint + recovery-crash
    opts.checkpoint_every_n_commits = (seed % 3 == 0) ? 5 : 0;
    ChaosReport r = RunAndCheck(opts);
    recoveries += r.recoveries;
  }
  EXPECT_GT(recoveries, 0u)
      << "no index-DDL schedule ever exercised recovery";
}

TEST(ChaosMatrix, IndexReplaySchedules) {
  // Crash during recovery itself (recovery-crash at a RecoveryPoint), with
  // a checkpoint cadence so replay starts from a v3 image carrying index
  // definitions: the re-run replay must re-apply base-table mutations and
  // their index maintenance together — a crash between the two on the first
  // pass must not leave a divergent index after the second. The
  // index-consistency audit is the detector.
  uint64_t recrashes = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosOptions opts;
    opts.seed = 14000 + seed;
    opts.n_ops = 50;
    opts.n_faults = 3;
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    // leaves crash + mid-checkpoint + recovery-crash
    opts.checkpoint_every_n_commits = 4;
    ChaosReport r = RunAndCheck(opts);
    recrashes += r.recovery_recrashes;
  }
  EXPECT_GT(recrashes, 0u)
      << "no index-replay schedule ever re-crashed inside recovery";
}

TEST(ChaosMatrix, ProcessKillSchedules) {
  // The real-process lane: the same seeded workload + fault plans, but the
  // server is an out-of-process phoenixd and every kill is a real SIGKILL —
  // idle kills land between operations, and the tail-tearing fault kinds
  // (partial-flush, torn, mid-checkpoint) are delivered through the SIGKILL
  // rendezvous protocol, dying inside the child's fsync / checkpoint rename
  // / dispatch. The oracle (shadow model, exactly-once request ids, final
  // durability agreement, independent storage recovery over the child's
  // data dir) is the same one the in-process suites check.
  // PHX_TRANSPORT=tcp runs the lane over TCP instead of a Unix socket.
  std::string why;
  if (!ProcessChaosAvailable(&why)) GTEST_SKIP() << why;
  uint64_t sigkills = 0;
  uint64_t rendezvous_kills = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosOptions opts;
    opts.seed = 15000 + seed;
    opts.n_faults = 3;
    opts.transport = ProcessLaneTransport();
    // Even seeds run an auto-checkpoint cadence so the mid-checkpoint
    // rendezvous points actually exist in the child.
    opts.checkpoint_every_n_commits = (seed % 2 == 0) ? 4 : 0;
    ChaosReport r = RunAndCheck(opts);
    sigkills += r.sigkills;
    rendezvous_kills += r.rendezvous_kills;
    recoveries += r.recoveries;
  }
  EXPECT_GT(sigkills, 0u) << "no schedule ever SIGKILLed the child";
  EXPECT_GT(rendezvous_kills, 0u)
      << "no schedule ever died inside a rendezvous window (mid-fsync / "
         "mid-checkpoint / pre-dispatch)";
  EXPECT_GT(recoveries, 0u) << "no schedule ever exercised recovery";
}

TEST(ChaosMatrix, FailoverSchedules) {
  // Multi-server lane: a second phoenixd (server_id 1) shares the primary's
  // data dir, the Phoenix client holds both endpoints as its server group,
  // and every kill targets whichever server the session is currently on —
  // the harness restarts the OTHER one, so each recovery must migrate the
  // session across the group (phase 1 replays the shared WAL on the
  // successor's boot, phase 2 reinstalls SQL state there) while the oracle
  // demands op-equivalence and exactly-once request ids across every
  // migration. PHX_TRANSPORT=tcp runs the lane over TCP.
  std::string why;
  if (!ProcessChaosAvailable(&why)) GTEST_SKIP() << why;
  uint64_t sigkills = 0;
  uint64_t failovers = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosOptions opts;
    opts.seed = 18000 + seed;
    opts.n_faults = 3;
    opts.transport = ProcessLaneTransport();
    opts.failover = true;
    // Plain between-op kills + message faults only: the rendezvous-armed
    // tail-tearing kinds target one specific child, which would race the
    // current/other swap.
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_mid_checkpoint = false;
    opts.allow_recovery_crash = false;
    ChaosReport r = RunAndCheck(opts);
    sigkills += r.sigkills;
    failovers += r.failovers;
    recoveries += r.recoveries;
  }
  EXPECT_GT(sigkills, 0u) << "no schedule ever SIGKILLed a server";
  EXPECT_GT(recoveries, 0u) << "no schedule ever exercised recovery";
  EXPECT_GT(failovers, 0u)
      << "no schedule ever migrated the session to the other server";
}

TEST(ChaosMatrix, RecoveryReplayKillSchedules) {
  // Crash DURING parallel WAL replay: the replay-kill fault SIGKILLs the
  // child between ops, then arms a "recovery" rendezvous so the reborn
  // phoenixd — replaying with PHX_RECOVERY_THREADS=4 — is SIGKILLed again
  // mid-replay, with partitions half-applied on worker threads. The retry
  // after that boots over the half-replayed disk; the shadow-model oracle
  // and the independent storage recovery then audit the result exactly as
  // in every other lane. PHX_TRANSPORT=tcp runs it over TCP.
  std::string why;
  if (!ProcessChaosAvailable(&why)) GTEST_SKIP() << why;
  uint64_t replay_kills = 0;
  uint64_t sigkills = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ChaosOptions opts;
    opts.seed = 16000 + seed;
    opts.n_faults = 3;
    opts.transport = ProcessLaneTransport();
    opts.allow_replay_kill = true;
    opts.recovery_threads = 4;  // every boot replays through the pool
    // Narrow the pool to plain crash + replay-kill so the new kind is
    // actually drawn, and keep checkpoints off so the WAL stays long
    // enough for the armed replay event to exist.
    opts.allow_partial_flush = false;
    opts.allow_torn = false;
    opts.allow_mid_checkpoint = false;
    opts.allow_recovery_crash = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    ChaosReport r = RunAndCheck(opts);
    replay_kills += r.replay_kills;
    sigkills += r.sigkills;
    recoveries += r.recoveries;
  }
  EXPECT_GT(sigkills, 0u) << "no schedule ever SIGKILLed the child";
  EXPECT_GT(replay_kills, 0u)
      << "no schedule ever died mid-parallel-replay (the armed recovery "
         "rendezvous never fired)";
  EXPECT_GT(recoveries, 0u) << "no schedule ever exercised recovery";
}

TEST(ChaosMatrix, RecoveryEquivalenceMatrix) {
  // Serial/parallel replay equivalence over chaos-generated logs: for a
  // sample of the torn-tail seed block, the post-schedule disk (surviving
  // checkpoint + WAL, tears included) is replayed once with 1 thread and
  // once with 4, and the results must be byte-identical — same encoded
  // store snapshot, same RecoveryInfo accounting. The serial pass may
  // repair the torn tail in place, so the WAL bytes are restored between
  // the passes.
  uint64_t compared = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosOptions opts;
    opts.seed = 7000 + seed;  // reuse the torn-tail block's plans
    opts.n_faults = 2;
    opts.allow_crash = false;
    opts.allow_mid_checkpoint = false;
    opts.allow_recovery_crash = false;
    opts.allow_lost_reply = false;
    opts.allow_dropped_request = false;
    opts.checkpoint_every_n_commits = (seed % 2 == 0) ? 5 : 0;
    opts.post_run_disk_audit = [&compared](storage::SimDisk* disk,
                                           const std::string& prefix) {
      storage::DurabilityManager serial(disk, prefix);
      const std::string wal = serial.wal_file();
      std::string wal_bytes;
      const bool had_wal = disk->Exists(wal);
      if (had_wal) {
        auto bytes = disk->ReadDurable(wal);
        ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
        wal_bytes = bytes.take();
      }
      storage::TableStore store1, store4;
      storage::RecoveryInfo info1, info4;
      serial.set_recovery_threads(1);
      Status s1 = serial.Recover(&store1, &info1);
      if (had_wal) {
        // Undo any in-place tail repair so both modes scan the same log.
        ASSERT_TRUE(disk->WriteAtomic(wal, wal_bytes).ok());
      }
      storage::DurabilityManager parallel(disk, prefix);
      parallel.set_recovery_threads(4);
      Status s4 = parallel.Recover(&store4, &info4);
      ASSERT_EQ(s1.ok(), s4.ok())
          << "serial: " << s1.ToString() << " parallel: " << s4.ToString();
      if (!s1.ok()) return;
      Encoder e1, e4;
      store1.EncodeSnapshot(&e1);
      store4.EncodeSnapshot(&e4);
      EXPECT_TRUE(e1.Take() == e4.Take())
          << "stores diverge between serial and 4-thread replay";
      EXPECT_EQ(info1.records_replayed, info4.records_replayed);
      EXPECT_EQ(info1.ops_replayed, info4.ops_replayed);
      EXPECT_EQ(info1.records_skipped, info4.records_skipped);
      EXPECT_EQ(info1.next_txn_id, info4.next_txn_id);
      EXPECT_EQ(info1.fence_lsn, info4.fence_lsn);
      EXPECT_EQ(info1.had_checkpoint, info4.had_checkpoint);
      EXPECT_EQ(info1.wal_scan.records, info4.wal_scan.records);
      EXPECT_EQ(info1.wal_scan.bytes_valid, info4.wal_scan.bytes_valid);
      EXPECT_EQ(info1.wal_scan.bytes_corrupt, info4.wal_scan.bytes_corrupt);
      EXPECT_EQ(info1.wal_scan.tear_detected, info4.wal_scan.tear_detected);
      EXPECT_EQ(info1.replay_threads, 1u);
      EXPECT_EQ(info4.replay_threads, 4u);
      ++compared;
    };
    RunAndCheck(opts);
  }
  EXPECT_GT(compared, 0u) << "the equivalence audit never ran";
}

TEST(ChaosMatrix, MvccVisibilitySchedules) {
  // MVCC snapshot-visibility oracle (see chaos.h): concurrent readers spin
  // on a uniformity invariant while a writer commits deliberately-torn
  // transactions, aborts sentinel transactions, and (on most seeds) crashes
  // and recovers mid-schedule. Seeds cross the read/write mix: reader count
  // 1..5, writer transaction count 20..44, crash on ~4 of 5 seeds. Each
  // seed runs the engine in BOTH modes — with MVCC pinned on the oracle
  // asserts no torn read is ever observed; with it pinned off torn reads
  // are merely counted — and the two runs' final table images must match
  // (the read path must never change what the writes produce).
  uint64_t reads_on = 0;
  uint64_t torn_off = 0;
  uint64_t recoveries = 0;
  for (uint64_t seed = 17001; seed <= 17025; ++seed) {
    MvccVisibilityOptions opts;
    opts.seed = seed;
    opts.n_readers = 1 + static_cast<int>(seed % 5);
    opts.n_txns = 20 + static_cast<int>(seed % 7) * 4;
    opts.crash_midway = (seed % 5) != 0;

    opts.mvcc = true;
    MvccVisibilityReport on = RunMvccVisibilitySchedule(opts);
    EXPECT_TRUE(on.ok) << on.DebugString();
    EXPECT_EQ(on.torn_reads, 0u) << on.DebugString();
    reads_on += on.reads;
    recoveries += on.recoveries;

    opts.mvcc = false;
    MvccVisibilityReport off = RunMvccVisibilitySchedule(opts);
    EXPECT_TRUE(off.ok) << off.DebugString();
    torn_off += off.torn_reads;

    EXPECT_EQ(on.final_image, off.final_image)
        << "final states diverge between MVCC modes, seed " << seed;
  }
  EXPECT_GT(reads_on, 0u) << "no reader ever completed a snapshot read";
  EXPECT_GT(recoveries, 0u) << "no schedule ever crashed and recovered";
  // Not asserted per-seed (scheduling-dependent), but across 25 schedules
  // the classification mode should have witnessed at least one tear — if it
  // never does, the oracle's readers are not actually interleaving and the
  // MVCC assertion above is vacuous.
  EXPECT_GT(torn_off, 0u)
      << "classification mode never observed a torn read; oracle is vacuous";
}

TEST(ChaosMatrix, SingleSeedFromEnv) {
  // Repro entry point: replays one schedule named by PHX_CHAOS_SEED with
  // every fault kind enabled and prints the full report. PHX_TRANSPORT=unix
  // or =tcp replays it through a real phoenixd child — the repro lines
  // RunAndCheck prints for the process lane carry that prefix.
  const char* env = std::getenv("PHX_CHAOS_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set PHX_CHAOS_SEED=<seed> to replay one schedule";
  }
  ChaosOptions opts;
  opts.seed = std::strtoull(env, nullptr, 10);
  opts.n_ops = 50;
  opts.n_faults = 4;
  const char* transport = std::getenv("PHX_TRANSPORT");
  if (transport != nullptr) {
    std::string t = transport;
    if (t == "unix") opts.transport = Transport::kUnix;
    if (t == "tcp") opts.transport = Transport::kTcp;
  }
  if (opts.transport != Transport::kInproc) {
    std::string why;
    if (!ProcessChaosAvailable(&why)) GTEST_SKIP() << why;
    // Match the process lane so its repro seeds replay the same plan shape.
    opts.n_ops = 40;
    opts.n_faults = 3;
    opts.checkpoint_every_n_commits = (opts.seed % 2 == 0) ? 4 : 0;
  }
  ChaosReport report = RunChaosSchedule(opts);
  std::fprintf(stderr, "%s\n", report.DebugString().c_str());
  EXPECT_TRUE(report.ok) << report.DebugString();
}

}  // namespace
}  // namespace phoenix::chaos
