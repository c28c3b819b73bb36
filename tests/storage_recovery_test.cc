// DurabilityManager: checkpoint + WAL redo recovery, including torn tails.

#include "storage/recovery.h"

#include "common/rng.h"
#include "obs/metrics.h"

#include "gtest/gtest.h"

namespace phoenix::storage {
namespace {

Schema KvSchema() {
  Schema s;
  s.AddColumn(Column{"K", DataType::kInt64, false});
  s.AddColumn(Column{"V", DataType::kInt64, true});
  return s;
}

WalCommitRecord CreateTableCommit(uint64_t txn) {
  WalCommitRecord rec;
  rec.txn_id = txn;
  rec.ops.push_back(WalOp::CreateTable("T", KvSchema(), {0}));
  return rec;
}

WalCommitRecord InsertCommit(uint64_t txn, RowId rid, int64_t k, int64_t v) {
  WalCommitRecord rec;
  rec.txn_id = txn;
  rec.ops.push_back(WalOp::Insert("T", rid, Row{Value::Int64(k),
                                                Value::Int64(v)}));
  return rec;
}

/// Checkpoints a quiescent `store` fenced at the last assigned LSN; with
/// `truncate_wal = false` it stops where a crash between the image write
/// and the WAL truncation would.
Status WriteCheckpoint(DurabilityManager* dm, const TableStore& store,
                       uint64_t next_txn_id, bool truncate_wal = true) {
  MvccSnapshot snap;
  snap.lsn = dm->wal_writer()->last_assigned_lsn();
  PHX_RETURN_IF_ERROR(dm->WriteCheckpointImage(store.CapturePersistent(),
                                               snap, next_txn_id, nullptr));
  return truncate_wal ? dm->TruncateWalToFence(snap.lsn) : Status::Ok();
}

TEST(StorageRecovery, EmptyDiskRecoversEmpty) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  EXPECT_FALSE(info.had_checkpoint);
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_EQ(info.next_txn_id, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(StorageRecovery, WalOnlyRecovery) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(3, 2, 20, 200)).ok());
  disk.Crash();  // everything was synced; nothing is lost

  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  EXPECT_EQ(info.records_replayed, 3u);
  EXPECT_EQ(info.next_txn_id, 4u);
  Table* t = store.Get("T");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ((*t->Find(1))[1].AsInt64(), 100);
}

TEST(StorageRecovery, CheckpointPlusWal) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  TableStore store;
  // Build state, checkpoint it, then add more committed work.
  RecoveryInfo ignore;
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  ASSERT_TRUE(dm.Recover(&store, &ignore).ok());
  ASSERT_TRUE(WriteCheckpoint(&dm, store, 3).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(3, 2, 20, 200)).ok());
  disk.Crash();

  TableStore recovered;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&recovered, &info).ok());
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.records_replayed, 1u);  // only the post-checkpoint commit
  EXPECT_EQ(info.next_txn_id, 4u);
  Table* t = recovered.Get("T");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(StorageRecovery, UnsyncedTailIgnored) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  // Simulate a commit whose WAL force never completed: write without sync.
  WalWriter writer(&disk, dm.wal_file());
  ASSERT_TRUE(writer.AppendCommitNoSync(InsertCommit(2, 1, 1, 1)).ok());
  disk.Crash();

  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  EXPECT_EQ(info.records_replayed, 1u);
  EXPECT_EQ(store.Get("T")->num_rows(), 0u);
}

// Regression: recovery must amputate a torn WAL tail, not merely ignore it —
// the writer appends at end-of-file, so commits logged after the restart
// would land behind the unreadable bytes and vanish from every future
// recovery.
TEST(StorageRecovery, TornTailIsRepairedSoNewCommitsSurvive) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  WalWriter writer(&disk, dm.wal_file());
  ASSERT_TRUE(writer.AppendCommitNoSync(InsertCommit(2, 1, 1, 1)).ok());
  disk.CrashWithPartialFlush(0.5);  // half the in-flight frame survives: torn

  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  EXPECT_TRUE(info.wal_scan.tear_detected);
  // The restarted server commits more work onto the repaired log...
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  disk.Crash();
  // ...and the next recovery sees it (it was unreachable before the fix).
  TableStore again;
  RecoveryInfo info2;
  ASSERT_TRUE(dm.Recover(&again, &info2).ok());
  EXPECT_FALSE(info2.wal_scan.tear_detected);
  EXPECT_EQ(info2.records_replayed, 2u);
  ASSERT_NE(again.Get("T"), nullptr);
  EXPECT_EQ(again.Get("T")->num_rows(), 1u);
  EXPECT_EQ((*again.Get("T")->Find(1))[1].AsInt64(), 100);
}

// Regression: a crash between writing the checkpoint image and truncating
// the WAL leaves both on disk. Recovery used to blindly replay the whole WAL
// on top of the image and die on the duplicate CREATE TABLE; it must instead
// skip records the checkpoint already subsumes.
TEST(StorageRecovery, CrashBetweenCheckpointImageAndWalTruncate) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  TableStore store;
  RecoveryInfo ignore;
  ASSERT_TRUE(dm.Recover(&store, &ignore).ok());
  // Die inside Checkpoint(): the image is durable, the WAL untouched.
  ASSERT_TRUE(WriteCheckpoint(&dm, store, 3, /*truncate_wal=*/false).ok());
  disk.Crash();

  TableStore recovered;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&recovered, &info).ok());
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.records_skipped, 2u);
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_EQ(info.next_txn_id, 3u);
  Table* t = recovered.Get("T");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ((*t->Find(1))[1].AsInt64(), 100);

  // Commits after the interrupted checkpoint still replay normally.
  ASSERT_TRUE(dm.LogCommit(InsertCommit(3, 2, 20, 200)).ok());
  TableStore again;
  RecoveryInfo info2;
  ASSERT_TRUE(dm.Recover(&again, &info2).ok());
  EXPECT_EQ(info2.records_skipped, 2u);
  EXPECT_EQ(info2.records_replayed, 1u);
  EXPECT_EQ(again.Get("T")->num_rows(), 2u);
}

// Regression: the checkpoint metrics (storage.checkpoints / .bytes /
// .duration_us) used to be recorded after the WAL truncation, below the
// `truncate_wal == false` early return — so the crash-window path wrote a
// real durable image that never counted. They must bump on BOTH paths.
TEST(StorageRecovery, CheckpointMetricsRecordedOnBothTruncatePaths) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  TableStore store;
  RecoveryInfo ignore;
  ASSERT_TRUE(dm.Recover(&store, &ignore).ok());

  auto* reg = obs::MetricsRegistry::Default();
  obs::MetricsSnapshot before = reg->Snapshot();
  ASSERT_TRUE(WriteCheckpoint(&dm, store, 2, /*truncate_wal=*/false).ok());
  obs::MetricsSnapshot mid = reg->Snapshot();
  EXPECT_EQ(mid.counter("storage.checkpoints") -
                before.counter("storage.checkpoints"),
            1u);
  EXPECT_GT(mid.counter("storage.checkpoint.bytes") -
                before.counter("storage.checkpoint.bytes"),
            0u);
  EXPECT_EQ(mid.histograms.at("storage.checkpoint.duration_us").count -
                (before.histograms.count("storage.checkpoint.duration_us")
                     ? before.histograms.at("storage.checkpoint.duration_us")
                           .count
                     : 0),
            1u);

  ASSERT_TRUE(WriteCheckpoint(&dm, store, 2, /*truncate_wal=*/true).ok());
  obs::MetricsSnapshot after = reg->Snapshot();
  EXPECT_EQ(after.counter("storage.checkpoints") -
                mid.counter("storage.checkpoints"),
            1u);
  EXPECT_GT(after.counter("storage.checkpoint.bytes") -
                mid.counter("storage.checkpoint.bytes"),
            0u);
}

// Regression (lazy tail amputation): a clean unforced tail — the expected
// residue of an append cut by the crash — must NOT trigger the eager
// whole-log rewrite (storage.recovery.wal_tail_repaired) at recovery time.
// The stale bytes stay on disk until the next append, which amputates them
// first so new frames never land behind garbage.
TEST(StorageRecovery, CleanUnforcedTailIsAmputatedLazilyNotRepaired) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  WalWriter writer(&disk, dm.wal_file());
  ASSERT_TRUE(writer.AppendCommitNoSync(InsertCommit(2, 1, 1, 1)).ok());
  disk.CrashWithPartialFlush(0.5);  // half a frame survives: clean tear

  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  uint64_t file_bytes = disk.ReadDurable(dm.wal_file())->size();
  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  ASSERT_TRUE(info.wal_scan.tear_detected);
  ASSERT_GT(info.wal_scan.bytes_unforced_tail, 0u);
  ASSERT_EQ(info.wal_scan.bytes_corrupt, 0u);
  obs::MetricsSnapshot mid = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(mid.counter("storage.recovery.wal_tail_repaired") -
                before.counter("storage.recovery.wal_tail_repaired"),
            0u)
      << "clean unforced tail triggered the eager rewrite";
  // Recovery itself left the log untouched: the stale bytes are still there.
  EXPECT_EQ(disk.ReadDurable(dm.wal_file())->size(), file_bytes);

  // The next append amputates the tail first, so the commit is recoverable.
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(after.counter("storage.wal.stale_tail_amputations") -
                mid.counter("storage.wal.stale_tail_amputations"),
            1u);
  TableStore again;
  RecoveryInfo info2;
  ASSERT_TRUE(dm.Recover(&again, &info2).ok());
  EXPECT_FALSE(info2.wal_scan.tear_detected);
  EXPECT_EQ(info2.records_replayed, 2u);
  ASSERT_NE(again.Get("T"), nullptr);
  EXPECT_EQ((*again.Get("T")->Find(1))[1].AsInt64(), 100);
}

// The counterpart: a CRC-corrupt tail (a complete frame whose payload was
// damaged) is real corruption and still takes the eager rewrite path,
// bumping storage.recovery.wal_tail_repaired.
TEST(StorageRecovery, CorruptTailStillTakesEagerRepair) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  // Damage the last frame's payload in place: complete frame, CRC mismatch.
  std::string bytes = disk.ReadDurable(dm.wal_file()).take();
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  ASSERT_TRUE(disk.WriteAtomic(dm.wal_file(), bytes).ok());

  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  ASSERT_TRUE(info.wal_scan.tear_detected);
  ASSERT_GT(info.wal_scan.bytes_corrupt, 0u);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(after.counter("storage.recovery.wal_tail_repaired") -
                before.counter("storage.recovery.wal_tail_repaired"),
            1u);
  // The rewrite happened now: only the valid prefix remains on disk.
  EXPECT_EQ(disk.ReadDurable(dm.wal_file())->size(),
            info.wal_scan.bytes_valid);
  EXPECT_EQ(info.records_replayed, 1u);  // the damaged insert is gone
}

// The repair path's I/O budget: recovering a large torn log — scan plus
// eager tail rewrite — must read the WAL exactly once. The rewrite reuses
// the bytes the scan already holds; a second ReadDurable would double the
// recovery read traffic on exactly the logs big enough for it to hurt.
TEST(StorageRecovery, CorruptTailRepairReadsTheLogExactlyOnce) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  uint64_t txn = 2;
  for (RowId rid = 1; rid <= 2000; ++rid) {
    ASSERT_TRUE(dm.LogCommit(InsertCommit(txn++, rid, rid, rid)).ok());
  }
  // Damage the last frame in place: complete frame, CRC mismatch — the
  // corruption class that takes the eager rewrite.
  std::string bytes = disk.ReadDurable(dm.wal_file()).take();
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  ASSERT_TRUE(disk.WriteAtomic(dm.wal_file(), bytes).ok());

  uint64_t reads_before = disk.read_count();
  TableStore store;
  RecoveryInfo info;
  ASSERT_TRUE(dm.Recover(&store, &info).ok());
  // No checkpoint file exists, so the only read recovery may perform is the
  // single WAL slurp shared by the scan and the repair.
  EXPECT_EQ(disk.read_count() - reads_before, 1u);
  ASSERT_TRUE(info.wal_scan.tear_detected);
  ASSERT_GT(info.wal_scan.bytes_corrupt, 0u);
  EXPECT_EQ(info.records_replayed, 2000u);  // all but the damaged frame
  EXPECT_EQ(disk.ReadDurable(dm.wal_file())->size(),
            info.wal_scan.bytes_valid);
}

TEST(StorageRecovery, CheckpointHeaderErrorsNameTheObservedBytes) {
  // Bad magic — a torn or foreign image — and an unsupported version — a
  // newer software's image — are different operational problems, and the
  // error must carry what was actually observed.
  {
    SimDisk disk;
    DurabilityManager dm(&disk, "db");
    Encoder enc;
    enc.PutU32(0xDEADBEEF);
    enc.PutU32(1);
    ASSERT_TRUE(disk.WriteAtomic(dm.ckpt_file(), enc.Take()).ok());
    TableStore store;
    RecoveryInfo info;
    Status st = dm.Recover(&store, &info);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("bad checkpoint magic 0xdeadbeef"),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("want 0x50485843"), std::string::npos)
        << st.ToString();
  }
  {
    SimDisk disk;
    DurabilityManager dm(&disk, "db");
    Encoder enc;
    enc.PutU32(0x50485843);  // valid magic "PHXC"
    enc.PutU32(99);          // from the future
    ASSERT_TRUE(disk.WriteAtomic(dm.ckpt_file(), enc.Take()).ok());
    TableStore store;
    RecoveryInfo info;
    Status st = dm.Recover(&store, &info);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("unsupported checkpoint version 99"),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("supported 1..4"), std::string::npos)
        << st.ToString();
  }
}

// Multi-table WAL with index DDL and table-DDL barriers, replayed with 4
// threads: every partition and barrier mechanism fires, and the result
// matches what serial replay produces.
TEST(StorageRecovery, ParallelReplayHandlesDdlBarriersAndIndexes) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  uint64_t txn = 1;
  auto commit1 = [&](WalOp op) {
    WalCommitRecord rec;
    rec.txn_id = txn++;
    rec.ops.push_back(std::move(op));
    ASSERT_TRUE(dm.LogCommit(rec).ok());
  };
  commit1(WalOp::CreateTable("A", KvSchema(), {0}));
  commit1(WalOp::CreateTable("B", KvSchema(), {0}));
  for (RowId rid = 1; rid <= 200; ++rid) {
    commit1(WalOp::Insert("A", rid, Row{Value::Int64(static_cast<int64_t>(rid)),
                                        Value::Int64(1)}));
    commit1(WalOp::Insert("B", rid, Row{Value::Int64(static_cast<int64_t>(rid)),
                                        Value::Int64(2)}));
  }
  commit1(WalOp::CreateIndex("A", "A_V", {1}));
  commit1(WalOp::CreateTable("C", KvSchema(), {0}));  // barrier mid-log
  commit1(WalOp::Insert("C", 1, Row{Value::Int64(7), Value::Int64(8)}));
  commit1(WalOp::DropTable("B"));                     // barrier again
  disk.Crash();

  TableStore serial;
  RecoveryInfo sinfo;
  ASSERT_TRUE(dm.Recover(&serial, &sinfo).ok());

  DurabilityManager dm4(&disk, "db");
  dm4.set_recovery_threads(4);
  TableStore parallel;
  RecoveryInfo pinfo;
  ASSERT_TRUE(dm4.Recover(&parallel, &pinfo).ok());

  EXPECT_EQ(pinfo.replay_threads, 4u);
  EXPECT_GT(pinfo.partitions_replayed, 0u);
  EXPECT_EQ(pinfo.ddl_barriers, 4u);  // 3 CREATE TABLE + 1 DROP TABLE
  // Everything that is a property of the LOG (not of the replay mode) must
  // match the serial run exactly.
  EXPECT_EQ(pinfo.records_replayed, sinfo.records_replayed);
  EXPECT_EQ(pinfo.ops_replayed, sinfo.ops_replayed);
  EXPECT_EQ(pinfo.next_txn_id, sinfo.next_txn_id);
  Encoder es, ep;
  serial.EncodeSnapshot(&es);
  parallel.EncodeSnapshot(&ep);
  EXPECT_TRUE(es.Take() == ep.Take());
  ASSERT_NE(parallel.Get("A"), nullptr);
  EXPECT_EQ(parallel.Get("A")->num_rows(), 200u);
  EXPECT_EQ(parallel.Get("A")->indexes().size(), 1u);
  EXPECT_EQ(parallel.Get("B"), nullptr);
  ASSERT_NE(parallel.Get("C"), nullptr);
  EXPECT_EQ(parallel.Get("C")->num_rows(), 1u);
}

// A restart from a v3 image (no chunk directory) and from a v4 image of
// the same tables recovers identical stores at 1 and 4 threads; the WAL
// tail past the fence replays on the same pool that decoded the image.
TEST(StorageRecovery, V3AndV4ImagesRecoverIdenticallyAtAnyThreadCount) {
  TableStore src;
  Table* a = *src.CreateTable("A", KvSchema(), {0}, false);
  ASSERT_TRUE(a->CreateIndex("A_V", {1}).ok());
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(a->Insert(Row{Value::Int64(4999 - k), Value::Int64(k % 13)})
                    .ok());
  }
  for (RowId rid = 3; rid < 5000; rid += 7) ASSERT_TRUE(a->Delete(rid).ok());
  ASSERT_TRUE(src.CreateTable("B", KvSchema(), {0}, false).ok());

  std::string expected;
  for (uint32_t version : {3u, 4u}) {
    SimDisk disk;
    DurabilityManager dm(&disk, "db");
    Encoder enc;
    enc.PutU32(0x50485843);  // "PHXC"
    enc.PutU32(version);
    enc.PutU64(10);  // next_txn_id
    enc.PutU64(0);   // fence: the whole WAL below is past it
    enc.PutU32(2);
    for (const char* name : {"A", "B"}) {
      const Table& t = *src.Get(name);
      TableImageEncoder out(&enc, t, t.next_rid(), version);
      for (const auto& [rid, row] : t.rows()) out.AddRow(rid, row);
      out.Finish(t.IndexDefs());
    }
    ASSERT_TRUE(disk.WriteAtomic(dm.ckpt_file(), enc.Take()).ok());
    WalCommitRecord rec;
    rec.txn_id = 10;
    rec.ops.push_back(WalOp::Insert("A", 9000, Row{Value::Int64(-1),
                                                   Value::Int64(1)}));
    rec.ops.push_back(WalOp::Insert("B", 1, Row{Value::Int64(1),
                                                Value::Int64(2)}));
    ASSERT_TRUE(dm.LogCommit(rec).ok());
    for (uint64_t threads : {1u, 4u}) {
      SCOPED_TRACE("v" + std::to_string(version) + " at " +
                   std::to_string(threads) + " threads");
      DurabilityManager r(&disk, "db");
      r.set_recovery_threads(threads);
      TableStore store;
      RecoveryInfo info;
      ASSERT_TRUE(r.Recover(&store, &info).ok());
      EXPECT_EQ(info.image_version, version);
      EXPECT_EQ(info.records_replayed, 1u);
      EXPECT_EQ(store.Get("A")->num_rows(), a->num_rows() + 1);
      EXPECT_EQ(store.Get("A")->FindIndex("A_V")->entries.size(), 13u);
      Encoder out;
      store.EncodeSnapshot(&out);
      if (expected.empty()) expected = out.data();
      EXPECT_TRUE(out.data() == expected);
    }
  }
}

// Randomized serial/parallel equivalence at the storage layer: seeded
// multi-table workloads (DML + index DDL + table DDL + checkpoints + torn
// tails) must recover to byte-identical snapshots whatever replay_threads
// is. The chaos matrix runs the same contract over full-stack schedules;
// this is the fast, shrinking-friendly version.
TEST(StorageRecovery, ParallelReplayMatchesSerialRandomized) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    SimDisk disk;
    DurabilityManager dm(&disk, "db");
    uint64_t txn = 1;
    const int n_tables = 1 + static_cast<int>(rng.NextBelow(4));
    std::vector<std::string> tables;
    std::vector<RowId> next_rid;
    for (int t = 0; t < n_tables; ++t) {
      std::string name = "T" + std::to_string(t);
      WalCommitRecord rec;
      rec.txn_id = txn++;
      rec.ops.push_back(WalOp::CreateTable(name, KvSchema(), {0}));
      ASSERT_TRUE(dm.LogCommit(rec).ok());
      tables.push_back(name);
      next_rid.push_back(1);
    }
    const int n_commits = 30 + static_cast<int>(rng.NextBelow(120));
    for (int i = 0; i < n_commits; ++i) {
      size_t t = rng.NextBelow(tables.size());
      WalCommitRecord rec;
      rec.txn_id = txn++;
      // Multi-op commits, sometimes spanning tables (the partitioner must
      // split one record across partitions).
      const int n_ops = 1 + static_cast<int>(rng.NextBelow(3));
      for (int o = 0; o < n_ops; ++o) {
        if (o > 0 && rng.NextBool(0.3)) t = rng.NextBelow(tables.size());
        RowId rid = next_rid[t];
        switch (rng.NextBelow(4)) {
          case 0:
          case 1:
            rec.ops.push_back(WalOp::Insert(
                tables[t], rid,
                Row{Value::Int64(static_cast<int64_t>(rid)),
                    Value::Int64(static_cast<int64_t>(rng.NextBelow(100)))}));
            ++next_rid[t];
            break;
          case 2:
            if (rid > 1) {
              rec.ops.push_back(WalOp::Update(
                  tables[t], 1 + rng.NextBelow(rid - 1),
                  Row{Value::Int64(1000 + static_cast<int64_t>(o)),
                      Value::Int64(0)}));
            }
            break;
          default:
            if (rid > 1) {
              rec.ops.push_back(
                  WalOp::Delete(tables[t], 1 + rng.NextBelow(rid - 1)));
            }
            break;
        }
      }
      if (rec.ops.empty()) continue;
      ASSERT_TRUE(dm.LogCommit(rec).ok());
    }
    // Updates/deletes may hit already-deleted rids; that is an apply error
    // serial and parallel replay must AGREE on. Filter those trials by
    // running serial first and skipping errored logs entirely: equality of
    // outcome (ok or not) is still asserted.
    TableStore serial;
    RecoveryInfo sinfo;
    Status s1 = dm.Recover(&serial, &sinfo);

    DurabilityManager dm4(&disk, "db");
    dm4.set_recovery_threads(1 + 3 * (trial % 2 == 0 ? 1 : 2));  // 4 or 7
    TableStore parallel;
    RecoveryInfo pinfo;
    Status s4 = dm4.Recover(&parallel, &pinfo);

    ASSERT_EQ(s1.ok(), s4.ok())
        << "trial " << trial << " serial: " << s1.ToString()
        << " parallel: " << s4.ToString();
    if (!s1.ok()) {
      // Both failed — and both must have cleared their stores.
      EXPECT_EQ(serial.size(), 0u);
      EXPECT_EQ(parallel.size(), 0u);
      continue;
    }
    EXPECT_EQ(pinfo.records_replayed, sinfo.records_replayed);
    EXPECT_EQ(pinfo.ops_replayed, sinfo.ops_replayed);
    EXPECT_EQ(pinfo.records_skipped, sinfo.records_skipped);
    EXPECT_EQ(pinfo.next_txn_id, sinfo.next_txn_id);
    Encoder es, ep;
    serial.EncodeSnapshot(&es);
    parallel.EncodeSnapshot(&ep);
    EXPECT_TRUE(es.Take() == ep.Take()) << "trial " << trial;
  }
}

TEST(StorageRecovery, ApplyWalOpErrorsOnMissingTable) {
  TableStore store;
  EXPECT_FALSE(ApplyWalOp(WalOp::Insert("NOPE", 1, Row{}), &store).ok());
  EXPECT_FALSE(ApplyWalOp(WalOp::Delete("NOPE", 1), &store).ok());
  EXPECT_FALSE(ApplyWalOp(WalOp::Update("NOPE", 1, Row{}), &store).ok());
}

TEST(StorageRecovery, RecoveryIsRepeatable) {
  SimDisk disk;
  DurabilityManager dm(&disk, "db");
  ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
  ASSERT_TRUE(dm.LogCommit(InsertCommit(2, 1, 10, 100)).ok());
  for (int round = 0; round < 3; ++round) {
    TableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(dm.Recover(&store, &info).ok());
    ASSERT_EQ(store.Get("T")->num_rows(), 1u);
  }
}

// Property: commit K transactions, crash with a random partial flush of the
// un-synced tail, recover — the recovered state equals the state produced by
// some prefix of the synced commits (prefix soundness), and all fully synced
// commits are present (durability).
TEST(StorageRecovery, CrashPrefixProperty) {
  Rng rng(555);
  for (int trial = 0; trial < 40; ++trial) {
    SimDisk disk;
    DurabilityManager dm(&disk, "db");
    ASSERT_TRUE(dm.LogCommit(CreateTableCommit(1)).ok());
    const int synced = 1 + static_cast<int>(rng.NextBelow(5));
    const int unsynced = static_cast<int>(rng.NextBelow(5));
    uint64_t txn = 2;
    RowId rid = 1;
    for (int i = 0; i < synced; ++i) {
      ASSERT_TRUE(dm.LogCommit(InsertCommit(txn++, rid, rid, rid)).ok());
      ++rid;
    }
    WalWriter writer(&disk, dm.wal_file());
    for (int i = 0; i < unsynced; ++i) {
      ASSERT_TRUE(writer.AppendCommitNoSync(InsertCommit(txn++, rid, rid, rid))
                      .ok());
      ++rid;
    }
    disk.CrashWithPartialFlush(rng.NextDouble());

    TableStore store;
    RecoveryInfo info;
    ASSERT_TRUE(dm.Recover(&store, &info).ok());
    Table* t = store.Get("T");
    ASSERT_NE(t, nullptr);
    // Durability: all synced inserts survive.
    ASSERT_GE(t->num_rows(), static_cast<size_t>(synced));
    // Prefix soundness: rows are exactly 1..num_rows with no holes.
    size_t n = t->num_rows();
    for (RowId r = 1; r <= n; ++r) {
      ASSERT_NE(t->Find(r), nullptr) << "hole at rid " << r;
    }
  }
}

}  // namespace
}  // namespace phoenix::storage
