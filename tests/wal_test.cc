// WAL framing, checksums, and torn-tail tolerance.

#include "storage/wal.h"

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/sim_disk.h"

#include "gtest/gtest.h"

namespace phoenix::storage {
namespace {

Schema SampleSchema() {
  Schema s;
  s.AddColumn(Column{"K", DataType::kInt64, false});
  s.AddColumn(Column{"V", DataType::kString, true});
  return s;
}

WalCommitRecord SampleCommit(uint64_t txn_id) {
  WalCommitRecord rec;
  rec.txn_id = txn_id;
  rec.ops.push_back(WalOp::CreateTable("T", SampleSchema(), {0}));
  rec.ops.push_back(
      WalOp::Insert("T", 1, Row{Value::Int64(1), Value::String("one")}));
  rec.ops.push_back(
      WalOp::Update("T", 1, Row{Value::Int64(1), Value::String("uno")}));
  rec.ops.push_back(WalOp::Delete("T", 1));
  rec.ops.push_back(WalOp::DropTable("T"));
  return rec;
}

TEST(Wal, RoundTripAllOpKinds) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(7)).ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  const WalCommitRecord& rec = (*records)[0];
  EXPECT_EQ(rec.txn_id, 7u);
  ASSERT_EQ(rec.ops.size(), 5u);
  EXPECT_EQ(rec.ops[0].kind, WalOpKind::kCreateTable);
  EXPECT_EQ(rec.ops[0].columns, std::vector<int>{0});
  EXPECT_TRUE(rec.ops[0].schema == SampleSchema());
  EXPECT_EQ(rec.ops[1].kind, WalOpKind::kInsert);
  EXPECT_EQ(rec.ops[1].rid, 1u);
  EXPECT_EQ(rec.ops[1].row[1].AsString(), "one");
  EXPECT_EQ(rec.ops[2].kind, WalOpKind::kUpdate);
  EXPECT_EQ(rec.ops[3].kind, WalOpKind::kDelete);
  EXPECT_EQ(rec.ops[4].kind, WalOpKind::kDropTable);
}

// `columns` is one field with two roles: the primary-key ordinals for
// kCreateTable and the key ordinals for kCreateIndex (empty for everything
// else). The wire layout is identical for both — replay routes on `kind` —
// and the round trip must preserve each role exactly.
TEST(Wal, RoundTripIndexOpsAndColumnRoles) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  WalCommitRecord rec;
  rec.txn_id = 9;
  rec.ops.push_back(WalOp::CreateTable("T", SampleSchema(), {1, 0}));
  rec.ops.push_back(WalOp::CreateIndex("T", "T_V", {1}));
  rec.ops.push_back(WalOp::DropIndex("T", "T_V"));
  ASSERT_TRUE(writer.AppendCommit(rec).ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  const std::vector<WalOp>& ops = (*records)[0].ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, WalOpKind::kCreateTable);
  EXPECT_EQ(ops[0].columns, (std::vector<int>{1, 0}));  // pk ordinals, ordered
  EXPECT_EQ(ops[1].kind, WalOpKind::kCreateIndex);
  EXPECT_EQ(ops[1].index_name, "T_V");
  EXPECT_EQ(ops[1].columns, std::vector<int>{1});  // index key ordinals
  EXPECT_EQ(ops[2].kind, WalOpKind::kDropIndex);
  EXPECT_EQ(ops[2].index_name, "T_V");
  EXPECT_TRUE(ops[2].columns.empty());
}

TEST(Wal, ScanDeliversRecordsInOrderWithoutMaterializing) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  std::vector<uint64_t> seen;
  WalScanStats stats;
  ASSERT_TRUE(WalReader::Scan(disk, "x.wal", &stats,
                              [&seen](WalCommitRecord&& rec) {
                                seen.push_back(rec.txn_id);
                                return Status::Ok();
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i + 1);
  EXPECT_EQ(stats.records, 10u);
  EXPECT_FALSE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, stats.bytes_total);
}

// The skip predicate short-circuits before op decode, but skipped frames
// still count as records and still advance the valid prefix — a log whose
// tail is entirely checkpoint-subsumed must not look torn.
TEST(Wal, ScanSkipPredicateCountsRecordsAndValidBytes) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  std::vector<uint64_t> delivered;
  WalScanStats stats;
  ASSERT_TRUE(WalReader::Scan(
                  disk, "x.wal", &stats,
                  [&delivered](WalCommitRecord&& rec) {
                    delivered.push_back(rec.txn_id);
                    return Status::Ok();
                  },
                  [](uint64_t, uint64_t txn_id) { return txn_id <= 6; })
                  .ok());
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered.front(), 7u);
  EXPECT_EQ(stats.records, 10u);  // skipped frames are still records
  EXPECT_FALSE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, stats.bytes_total);

  // Skip-everything: the scan touches no op bytes yet reports a clean,
  // fully-valid log.
  WalScanStats all_skipped;
  ASSERT_TRUE(WalReader::Scan(
                  disk, "x.wal", &all_skipped,
                  [](WalCommitRecord&&) {
                    ADD_FAILURE() << "skip-all delivered a record";
                    return Status::Ok();
                  },
                  [](uint64_t, uint64_t) { return true; })
                  .ok());
  EXPECT_EQ(all_skipped.records, 10u);
  EXPECT_FALSE(all_skipped.tear_detected);
  EXPECT_EQ(all_skipped.bytes_valid, all_skipped.bytes_total);
}

// A consumer abort is not a log problem: the scan must surface the error
// and the progress so far, without classifying the unreached remainder as
// a tear (no tear metrics, no corrupt-byte counts).
TEST(Wal, ScanConsumerErrorReportsProgressNotTear) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  WalScanStats stats;
  Status st = WalReader::Scan(disk, "x.wal", &stats,
                              [](WalCommitRecord&& rec) {
                                if (rec.txn_id == 4) {
                                  return Status::Internal("replay abort");
                                }
                                return Status::Ok();
                              });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("replay abort"), std::string::npos);
  EXPECT_EQ(stats.records, 4u);  // the aborting record was decoded
  EXPECT_FALSE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_corrupt, 0u);
  EXPECT_EQ(stats.bytes_unforced_tail, 0u);
  EXPECT_LT(stats.bytes_valid, stats.bytes_total);
}

TEST(Wal, MultipleRecordsInOrder) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ((*records)[i].txn_id, i + 1);
}

TEST(Wal, MissingFileMeansEmptyLog) {
  SimDisk disk;
  auto records = WalReader::ReadAll(disk, "absent.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(Wal, UnsyncedCommitLostOnCrash) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  ASSERT_TRUE(writer.AppendCommitNoSync(SampleCommit(2)).ok());
  disk.Crash();
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].txn_id, 1u);
}

TEST(Wal, ResetTruncates) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  ASSERT_TRUE(writer.Reset().ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(Wal, TruncateUpToRemovesOnlyTheFencedPrefix) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());  // LSNs 1..5
  }
  ASSERT_EQ(writer.last_assigned_lsn(), 5u);
  ASSERT_TRUE(writer.TruncateUpTo(3).ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].lsn, 4u);
  EXPECT_EQ((*records)[1].lsn, 5u);
  // Appends after the truncation land behind the survivors, in LSN order.
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(6)).ok());
  records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].lsn, 6u);
}

TEST(Wal, TruncateUpToFullFenceEmptiesTheLog) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  ASSERT_TRUE(writer.TruncateUpTo(writer.last_assigned_lsn()).ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(Wal, TruncateUpToBelowFirstLsnIsANoOp) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  uint64_t syncs = disk.sync_count();
  ASSERT_TRUE(writer.TruncateUpTo(0).ok());
  EXPECT_EQ(disk.sync_count(), syncs);  // no rewrite happened
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(Wal, TruncateUpToPreservesTornTailVerbatim) {
  // The fence scan stops at the first invalid frame: a torn tail past the
  // fenced prefix belongs to the *un*-fenced region and must survive the
  // rewrite byte-for-byte (recovery classifies it later).
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(2)).ok());
  // An incomplete frame: the header declares 12 payload bytes, 2 exist.
  Encoder torn_enc;
  torn_enc.PutU32(12);
  torn_enc.PutU32(0xBAD);
  torn_enc.PutBytes("to", 2);
  const std::string torn = torn_enc.data();
  ASSERT_TRUE(disk.Append("x.wal", torn).ok());
  ASSERT_TRUE(disk.Sync("x.wal").ok());
  ASSERT_TRUE(writer.TruncateUpTo(1).ok());
  std::string bytes = disk.ReadDurable("x.wal").take();
  ASSERT_GE(bytes.size(), torn.size());
  EXPECT_EQ(bytes.substr(bytes.size() - torn.size()), torn);
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 2u);
}

TEST(Wal, NoteValidPrefixAmputatesLazilyOnNextAppend) {
  SimDisk disk;
  uint64_t valid_bytes = 0;
  {
    WalWriter writer(&disk, "x.wal");
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
    valid_bytes = disk.ReadDurable("x.wal")->size();
    ASSERT_TRUE(writer.AppendCommitNoSync(SampleCommit(2)).ok());
  }
  disk.CrashWithPartialFlush(0.5);  // unforced residue past the valid prefix
  ASSERT_GT(disk.ReadDurable("x.wal")->size(), valid_bytes);

  WalWriter writer(&disk, "x.wal");
  writer.set_next_lsn(2);
  writer.NoteValidPrefix(valid_bytes);
  // Noting the prefix touches nothing: the stale bytes are still on disk.
  EXPECT_GT(disk.ReadDurable("x.wal")->size(), valid_bytes);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default()->Snapshot();
  // The next append cuts the tail first, then lands cleanly behind it.
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(9)).ok());
  obs::MetricsSnapshot after = obs::MetricsRegistry::Default()->Snapshot();
  EXPECT_EQ(after.counter("storage.wal.stale_tail_amputations") -
                before.counter("storage.wal.stale_tail_amputations"),
            1u);
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].txn_id, 1u);
  EXPECT_EQ((*records)[1].txn_id, 9u);
  EXPECT_EQ((*records)[1].lsn, 2u);
}

TEST(Wal, ChecksumDetectsCorruptTail) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  // Append garbage bytes that look like a frame header but fail the CRC.
  Encoder garbage;
  garbage.PutU32(12);
  garbage.PutU32(0xBAD);
  garbage.PutBytes("0123456789AB", 12);
  ASSERT_TRUE(disk.Append("x.wal", garbage.data()).ok());
  ASSERT_TRUE(disk.Sync("x.wal").ok());
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);  // garbage tail ignored
}

// Property: for any partial-flush fraction, recovery reads some prefix of
// the committed records and never a torn/corrupt one.
TEST(Wal, TornTailPrefixProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    SimDisk disk;
    WalWriter writer(&disk, "x.wal");
    const int n = 8;
    for (uint64_t i = 1; i <= n; ++i) {
      // NoSync so the whole log is one volatile tail we can tear anywhere.
      ASSERT_TRUE(writer.AppendCommitNoSync(SampleCommit(i)).ok());
    }
    disk.CrashWithPartialFlush(rng.NextDouble());
    auto records = WalReader::ReadAll(disk, "x.wal");
    ASSERT_TRUE(records.ok());
    ASSERT_LE(records->size(), static_cast<size_t>(n));
    for (size_t i = 0; i < records->size(); ++i) {
      ASSERT_EQ((*records)[i].txn_id, i + 1);
      ASSERT_EQ((*records)[i].ops.size(), 5u);
    }
  }
}

/// Durable bytes of a log holding commits 1..n (for byte-exact tearing).
std::string WalBytes(int n) {
  SimDisk tmp;
  WalWriter writer(&tmp, "t.wal");
  for (uint64_t i = 1; i <= static_cast<uint64_t>(n); ++i) {
    EXPECT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  auto bytes = tmp.ReadDurable("t.wal");
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// Installs `bytes` as the entire durable WAL of `disk`.
void InstallWal(SimDisk* disk, const std::string& bytes) {
  EXPECT_TRUE(disk->Append("x.wal", bytes).ok());
  EXPECT_TRUE(disk->Sync("x.wal").ok());
}

TEST(Wal, RecordTornMidHeaderRecoversPrefix) {
  // The last record is cut 3 bytes into its 8-byte [len][crc] header.
  std::string full = WalBytes(3);
  size_t two = WalBytes(2).size();
  SimDisk disk;
  InstallWal(&disk, full.substr(0, two + 3));
  WalScanStats stats;
  auto records = WalReader::ReadAll(disk, "x.wal", &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].txn_id, 2u);
  EXPECT_TRUE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, two);
  EXPECT_EQ(stats.records, 2u);
  // An incomplete header is the signature of an unforced append cut by the
  // crash — expected loss, not corruption.
  EXPECT_EQ(stats.bytes_unforced_tail, 3u);
  EXPECT_EQ(stats.bytes_corrupt, 0u);
}

TEST(Wal, RecordTornMidPayloadRecoversPrefix) {
  // The last record is cut in the middle of its payload: the length field
  // promises more bytes than the file holds.
  std::string full = WalBytes(3);
  size_t two = WalBytes(2).size();
  size_t payload = full.size() - two - 8;
  SimDisk disk;
  InstallWal(&disk, full.substr(0, two + 8 + payload / 2));
  WalScanStats stats;
  auto records = WalReader::ReadAll(disk, "x.wal", &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, two);
  // Length field promises more bytes than the file holds: clean truncation.
  EXPECT_EQ(stats.bytes_unforced_tail, 8 + payload / 2);
  EXPECT_EQ(stats.bytes_corrupt, 0u);
}

TEST(Wal, CorruptedCrcByteDropsOnlyThatRecord) {
  // One flipped byte inside the last record's CRC field.
  std::string full = WalBytes(3);
  size_t two = WalBytes(2).size();
  full[two + 5] = static_cast<char>(full[two + 5] ^ 0x40);
  SimDisk disk;
  InstallWal(&disk, full);
  WalScanStats stats;
  auto records = WalReader::ReadAll(disk, "x.wal", &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, two);
  // A complete frame whose CRC fails is real corruption, not an unforced
  // tail — recovery logs must not blame it on a clean crash.
  EXPECT_EQ(stats.bytes_corrupt, full.size() - two);
  EXPECT_EQ(stats.bytes_unforced_tail, 0u);
}

TEST(Wal, CorruptionStopsReplayBeforeLaterIntactRecords) {
  // A flipped payload byte in record 2: recovery must stop at the longest
  // VALID prefix (record 1) and never replay the torn record — even though
  // record 3 after it is intact (no resynchronization on garbage).
  std::string full = WalBytes(3);
  size_t one = WalBytes(1).size();
  full[one + 8 + 4] = static_cast<char>(full[one + 8 + 4] ^ 0x01);
  SimDisk disk;
  InstallWal(&disk, full);
  WalScanStats stats;
  auto records = WalReader::ReadAll(disk, "x.wal", &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].txn_id, 1u);
  EXPECT_TRUE(stats.tear_detected);
  EXPECT_EQ(stats.bytes_valid, one);
  EXPECT_EQ(stats.bytes_corrupt, full.size() - one);
  EXPECT_EQ(stats.bytes_unforced_tail, 0u);
}

// Property: CrashTorn (byte-granular truncation + possible corruption of
// the flushed tail) always leaves a log that recovers to some prefix of the
// appended commits, never a torn or corrupt one.
TEST(Wal, CrashTornPrefixProperty) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SimDisk disk;
    WalWriter writer(&disk, "x.wal");
    const int n = 8;
    for (uint64_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(writer.AppendCommitNoSync(SampleCommit(i)).ok());
    }
    SimDisk::TornCrashSpec spec;
    spec.seed = seed;
    disk.CrashTorn(spec);
    WalScanStats stats;
    auto records = WalReader::ReadAll(disk, "x.wal", &stats);
    ASSERT_TRUE(records.ok()) << "seed " << seed;
    ASSERT_LE(records->size(), static_cast<size_t>(n));
    for (size_t i = 0; i < records->size(); ++i) {
      ASSERT_EQ((*records)[i].txn_id, i + 1) << "seed " << seed;
      ASSERT_EQ((*records)[i].ops.size(), 5u) << "seed " << seed;
    }
  }
}

TEST(Wal, ChecksumIsStable) {
  EXPECT_EQ(WalChecksum("abc"), WalChecksum("abc"));
  EXPECT_NE(WalChecksum("abc"), WalChecksum("abd"));
  EXPECT_NE(WalChecksum(""), WalChecksum(std::string("\0", 1)));
}

// ---- Satellite bugfix: failed syncs must not count as durable forces ----

TEST(Wal, SyncFailureNotCountedAsDurableForce) {
  auto* reg = obs::MetricsRegistry::Default();
  uint64_t syncs0 = reg->GetCounter("storage.wal.syncs")->Value();
  uint64_t fails0 = reg->GetCounter("storage.wal.sync_failures")->Value();
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  disk.InjectSyncFailures(1);
  Status st = writer.AppendCommit(SampleCommit(1));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(reg->GetCounter("storage.wal.syncs")->Value(), syncs0);
  EXPECT_EQ(reg->GetCounter("storage.wal.sync_failures")->Value(), fails0 + 1);
  // The rejected flush left the record volatile: a crash discards it.
  disk.Crash();
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  // After the injected failure clears, the same record commits durably.
  ASSERT_TRUE(writer.AppendCommit(SampleCommit(1)).ok());
  EXPECT_EQ(reg->GetCounter("storage.wal.syncs")->Value(), syncs0 + 1);
  disk.Crash();
  records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

// ---- Group commit ------------------------------------------------------

TEST(WalGroupCommit, SingleWriterRoundTrip) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(writer.AppendCommit(SampleCommit(i)).ok());
  }
  disk.Crash();  // everything acked must already be durable
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ((*records)[i].txn_id, i + 1);
}

TEST(WalGroupCommit, ConcurrentWritersNeverInterleaveFrames) {
  SimDisk disk;
  // Sync latency makes commits pile up behind the in-flight flush, so real
  // multi-record batches form (the opportunistic-batching mechanism).
  disk.set_sync_latency_us(100);
  WalWriter writer(&disk, "x.wal");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t txn = 1 + t * kPerThread + i;
        if (!writer.AppendCommit(SampleCommit(txn)).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  disk.Crash();
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kThreads * kPerThread));
  // Every frame intact (no byte interleaving), every txn exactly once.
  std::vector<bool> seen(kThreads * kPerThread + 1, false);
  for (const auto& rec : *records) {
    ASSERT_EQ(rec.ops.size(), 5u);
    ASSERT_GE(rec.txn_id, 1u);
    ASSERT_LE(rec.txn_id, static_cast<uint64_t>(kThreads * kPerThread));
    ASSERT_FALSE(seen[rec.txn_id]) << "duplicate txn " << rec.txn_id;
    seen[rec.txn_id] = true;
  }
  // The whole point: far fewer forces than commits.
  EXPECT_LT(disk.sync_count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(WalGroupCommit, CrashTornInsideCoalescedBatch) {
  // A coalesced batch is appended but the process dies before its sync; the
  // torn crash then cuts the batch at an arbitrary byte — possibly in the
  // middle of an inner frame. Recovery must yield a clean prefix, and no
  // commit in the batch was ever acked (the hook fails them all).
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimDisk disk;
    WalWriter writer(&disk, "x.wal");
    writer.set_before_sync_hook([] { return false; });  // die before sync
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    std::atomic<int> acked{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (writer.AppendCommit(SampleCommit(1 + t)).ok()) ++acked;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(acked.load(), 0) << "commit acked without a sync";
    SimDisk::TornCrashSpec spec;
    spec.seed = seed;
    disk.CrashTorn(spec);
    WalScanStats stats;
    auto records = WalReader::ReadAll(disk, "x.wal", &stats);
    ASSERT_TRUE(records.ok()) << "seed " << seed;
    ASSERT_LE(records->size(), static_cast<size_t>(kThreads));
    for (const auto& rec : *records) ASSERT_EQ(rec.ops.size(), 5u);
    // Un-acked loss may exist but must never be misread as corruption
    // unless the torn crash actually flipped a byte.
    if (stats.tear_detected && stats.bytes_corrupt == 0) {
      EXPECT_GT(stats.bytes_unforced_tail, 0u) << "seed " << seed;
    }
  }
}

TEST(WalGroupCommit, ResetForcesPendingBatchBeforeTruncating) {
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  // Enqueue without redeeming: the batch may still be open when Reset runs.
  std::vector<WalCommitTicket> tickets;
  for (uint64_t i = 1; i <= 3; ++i) {
    tickets.push_back(writer.EnqueueCommit(SampleCommit(i)));
  }
  ASSERT_TRUE(writer.Reset().ok());
  // Every ticket resolved with a real sync status — none dangles.
  for (auto& t : tickets) {
    EXPECT_TRUE(writer.WaitCommit(&t).ok());
  }
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalGroupCommit, SyncFailureFailsWholeBatchAndNothingIsAcked) {
  SimDisk disk;
  disk.set_sync_latency_us(100);
  WalWriter writer(&disk, "x.wal");
  disk.InjectSyncFailures(1);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::mutex acked_mu;
  std::vector<uint64_t> acked;
  std::atomic<int> failed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (writer.AppendCommit(SampleCommit(1 + t)).ok()) {
        std::lock_guard<std::mutex> lk(acked_mu);
        acked.push_back(1 + t);
      } else {
        ++failed;
      }
    });
  }
  for (auto& th : threads) th.join();
  // At least the batch that hit the injected failure reported the error to
  // every one of its committers; later batches may succeed.
  EXPECT_GE(failed.load(), 1);
  // Ack-after-fsync: every acked commit survives the crash. (A *failed*
  // commit may also survive — its appended bytes ride along with the next
  // successful sync of the file — which is allowed: the contract is one-
  // directional, acked implies durable.)
  disk.Crash();
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  for (uint64_t txn : acked) {
    bool found = false;
    for (const auto& rec : *records) found |= rec.txn_id == txn;
    EXPECT_TRUE(found) << "acked commit " << txn << " vanished";
  }
}

TEST(WalGroupCommit, EnqueuedCommitsShareOneSync) {
  // Records enqueued before anyone waits all join the one open batch, so
  // the first WaitCommit forces all of them with a single Sync() and the
  // other tickets redeem without touching the device.
  auto* reg = obs::MetricsRegistry::Default();
  uint64_t saved0 =
      reg->GetCounter("storage.wal.group_commit.syncs_saved")->Value();
  SimDisk disk;
  WalWriter writer(&disk, "x.wal");
  uint64_t syncs0 = disk.sync_count();
  constexpr int kRecords = 8;
  std::vector<WalCommitTicket> tickets;
  for (uint64_t i = 1; i <= kRecords; ++i) {
    tickets.push_back(writer.EnqueueCommit(SampleCommit(i)));
  }
  for (auto& t : tickets) ASSERT_TRUE(writer.WaitCommit(&t).ok());
  EXPECT_EQ(disk.sync_count(), syncs0 + 1);
  EXPECT_EQ(reg->GetCounter("storage.wal.group_commit.syncs_saved")->Value(),
            saved0 + kRecords - 1);
  disk.Crash();
  auto records = WalReader::ReadAll(disk, "x.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) EXPECT_EQ((*records)[i].txn_id, i + 1u);
}

}  // namespace
}  // namespace phoenix::storage
