// Checkpoints read a pinned MVCC snapshot (DESIGN.md §12). The image a
// checkpoint writes must equal WAL-only replay of the same disk up to its
// fence — whatever open transactions, concurrent commits, DDL and snapshot
// readers are doing meanwhile — and every capture must release its pin on
// whichever path it ends.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "storage/recovery.h"
#include "storage/wal.h"

#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

using storage::SimDisk;
using storage::TableStore;

constexpr uint64_t kChunk = storage::kCheckpointChunkRows;

/// What an image and a replay must agree on for one table.
struct TableFacts {
  std::vector<std::pair<storage::RowId, std::string>> rows;
  std::vector<std::pair<std::string, std::vector<int>>> indexes;
  storage::RowId next_rid = 0;
};

std::map<std::string, TableFacts> FactsOf(const TableStore& store) {
  std::map<std::string, TableFacts> out;
  for (const std::string& name : store.ListNames()) {
    const storage::Table* t = store.Get(name);
    TableFacts& f = out[name];
    for (const auto& [rid, row] : t->rows()) {
      f.rows.emplace_back(rid, RowToString(row));
    }
    for (const storage::SecondaryIndex& idx : t->indexes()) {
      f.indexes.emplace_back(idx.name, idx.columns);
    }
    f.next_rid = t->next_rid();
  }
  return out;
}

Status ReadImage(const SimDisk& disk, uint64_t* fence, TableStore* store) {
  PHX_ASSIGN_OR_RETURN(std::string bytes, disk.ReadDurable("phxdb.ckpt"));
  Decoder dec(bytes);
  PHX_ASSIGN_OR_RETURN(uint32_t magic, dec.GetU32());
  PHX_ASSIGN_OR_RETURN(uint32_t version, dec.GetU32());
  if (magic != 0x50485843 || version != storage::kImageVersion) {
    return Status::Internal("not a current-version checkpoint image");
  }
  PHX_ASSIGN_OR_RETURN(uint64_t next_txn_id, dec.GetU64());
  (void)next_txn_id;
  PHX_ASSIGN_OR_RETURN(*fence, dec.GetU64());
  return store->DecodeSnapshot(&dec);
}

/// The reference: replay of the durable WAL alone, up to `fence`.
Status ReplayWal(const SimDisk& disk, uint64_t fence, TableStore* store) {
  PHX_ASSIGN_OR_RETURN(std::vector<storage::WalCommitRecord> records,
                       storage::WalReader::ReadAll(disk, "phxdb.wal"));
  for (const storage::WalCommitRecord& rec : records) {
    if (rec.lsn > fence) break;
    for (const storage::WalOp& op : rec.ops) {
      PHX_RETURN_IF_ERROR(storage::ApplyWalOp(op, store));
    }
  }
  return Status::Ok();
}

/// The image on `disk` holds exactly what WAL-only replay of the same disk
/// reaches at the image's fence: the same tables, the same rows at the same
/// RowIds, the same index definitions in the same order. Only the rid
/// counters may run ahead — they include rids open transactions allocated.
/// Returns the fence.
uint64_t ExpectImageMatchesReplay(const SimDisk& disk) {
  uint64_t fence = 0;
  TableStore image;
  TableStore replay;
  Status read = ReadImage(disk, &fence, &image);
  EXPECT_TRUE(read.ok()) << read.ToString();
  Status replayed = ReplayWal(disk, fence, &replay);
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  std::map<std::string, TableFacts> got = FactsOf(image);
  std::map<std::string, TableFacts> want = FactsOf(replay);
  EXPECT_EQ(image.ListNames(), replay.ListNames()) << "fence " << fence;
  for (const auto& [name, w] : want) {
    auto it = got.find(name);
    if (it == got.end()) continue;
    EXPECT_EQ(it->second.rows, w.rows) << name << " at fence " << fence;
    EXPECT_EQ(it->second.indexes, w.indexes) << name << " at fence " << fence;
    EXPECT_GE(it->second.next_rid, w.next_rid) << name << " at fence " << fence;
  }
  return fence;
}

DatabaseOptions NoAutoCheckpoint() {
  DatabaseOptions opts;
  opts.checkpoint_every_n_commits = 0;  // keep the whole WAL as reference
  return opts;
}

void MustExec(Database* db, uint64_t sid, const std::string& sql) {
  auto r = db->ExecuteScript(sid, sql);
  ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
}

void InsertRows(Database* db, uint64_t sid, const std::string& table,
                int64_t from, int64_t to) {
  for (int64_t k = from; k < to; k += 200) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int64_t i = k; i < std::min(to, k + 200); ++i) {
      sql += (i == k ? "(" : ", (") + std::to_string(i) + ", " +
             std::to_string(i % 97) + ")";
    }
    MustExec(db, sid, sql);
  }
}

int64_t GaugeValue(const std::string& name) {
  return obs::MetricsRegistry::Default()->GetGauge(name)->Value();
}

/// A seeded multi-session workload whose open transactions hold DML, table
/// and index DDL, temp tables and Phoenix's materialization script
/// (`BEGIN; DROP TABLE IF EXISTS R; SELECT … INTO R`). Each session keeps
/// to its own tables: the engine does not arbitrate conflicting DDL across
/// open transactions, and the WAL reference must stay replayable.
class Workload {
 public:
  Workload(Database* db, uint64_t seed) : db_(db), rng_(seed) {
    for (int s = 0; s < kSessions; ++s) {
      sids_.push_back(*db_->CreateSession("w" + std::to_string(s)));
      MustExec(db_, sids_[s], "CREATE TABLE " + Name(s, 'A') +
                                  " (K INTEGER PRIMARY KEY, V INTEGER)");
    }
    // One table spans several chunks, so open-transaction versions land on
    // both sides of a chunk boundary.
    InsertRows(db_, sids_[0], Name(0, 'A'), 0,
               static_cast<int64_t>(kChunk + kChunk / 2));
  }

  void Step() {
    int s = static_cast<int>(rng_.NextBelow(kSessions));
    uint64_t sid = sids_[s];
    bool in_txn = db_->GetSession(sid)->txn != nullptr;
    std::string t = Name(s, rng_.NextBool() ? 'A' : 'B');
    std::string idx = "I" + std::to_string(rng_.NextBelow(3));
    int64_t k = rng_.NextRange(0, 400);
    uint64_t dice = rng_.NextBelow(100);
    std::string sql;
    if (!in_txn && dice < 25) {
      sql = "BEGIN TRANSACTION";
    } else if (dice < 31) {
      sql = (in_txn ? "" : "BEGIN TRANSACTION; ") +
            std::string("DROP TABLE IF EXISTS ") + Name(s, 'R') +
            "; SELECT K, V INTO " + Name(s, 'R') + " FROM " + Name(s, 'A') +
            " WHERE V > " + std::to_string(rng_.NextRange(0, 96));
    } else if (in_txn && dice < 40) {
      sql = "COMMIT";
    } else if (in_txn && dice < 45) {
      sql = "ROLLBACK";
    } else if (dice < 50) {
      sql = "CREATE TABLE " + t + " (K INTEGER PRIMARY KEY, V INTEGER)";
    } else if (dice < 53) {
      sql = "DROP TABLE " + t;
    } else if (dice < 58) {
      sql = "CREATE INDEX " + idx + " ON " + t +
            (rng_.NextBool() ? " (V)" : " (V, K)");
    } else if (dice < 62) {
      sql = "DROP INDEX " + idx + " ON " + t;
    } else if (dice < 66) {
      std::string temp = "#T" + std::to_string(s);
      sql = "CREATE TABLE " + temp + " (K INTEGER, V INTEGER); INSERT INTO " +
            temp + " VALUES (1, 1); DROP TABLE " + temp;
    } else if (dice < 80) {
      sql = "INSERT INTO " + t + " VALUES (" + std::to_string(k) + ", " +
            std::to_string(k % 7) + "), (" + std::to_string(k + 1000) +
            ", 3)";
    } else if (dice < 88) {
      sql = "UPDATE " + t + " SET V = V + 1 WHERE K < " + std::to_string(k);
    } else if (dice < 92) {
      sql = "UPDATE " + t + " SET K = K + 5000 WHERE K = " + std::to_string(k);
    } else {
      sql = "DELETE FROM " + t + " WHERE K > " + std::to_string(k) +
            " AND K < " + std::to_string(k + 40);
    }
    // Failures (a missing table, a duplicate key) are part of the
    // workload: statement-level rollback must leave nothing behind.
    (void)db_->ExecuteScript(sid, sql);
  }

 private:
  static constexpr int kSessions = 3;
  static std::string Name(int s, char suffix) {
    return "S" + std::to_string(s) + suffix;
  }

  Database* db_;
  Rng rng_;
  std::vector<uint64_t> sids_;
};

TEST(CheckpointSnapshot, ImageEqualsWalReplayAtFenceUnderOpenTransactions) {
  int images = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimDisk disk;
    Database db(&disk, NoAutoCheckpoint());
    ASSERT_TRUE(db.Open().ok());
    Workload w(&db, seed);
    Rng when(seed * 7919);
    for (int step = 0; step < 300; ++step) {
      w.Step();
      if (!when.NextBool(0.06)) continue;
      bool wrote = false;
      Status st =
          db.CheckpointForCrashTest(CheckpointCrashPoint::kPostImage, &wrote);
      ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
      if (!wrote) continue;  // no commit since the last image: stale
      ++images;
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      ExpectImageMatchesReplay(disk);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(images, 200);
}

TEST(CheckpointSnapshot, CommitsAndDdlBetweenChunksStayOutOfTheImage) {
  SimDisk disk;
  Database db(&disk, NoAutoCheckpoint());
  ASSERT_TRUE(db.Open().ok());
  uint64_t setup = *db.CreateSession("setup");
  uint64_t writer = *db.CreateSession("writer");
  uint64_t holder = *db.CreateSession("holder");
  const int64_t big_rows = static_cast<int64_t>(3 * kChunk + 17);
  MustExec(&db, setup, "CREATE TABLE BIG (K INTEGER PRIMARY KEY, V INTEGER)");
  InsertRows(&db, setup, "BIG", 0, big_rows);
  MustExec(&db, setup, "CREATE INDEX BV ON BIG (V)");
  MustExec(&db, setup, "CREATE TABLE CHURN (K INTEGER PRIMARY KEY, V INTEGER)");
  InsertRows(&db, setup, "CHURN", 0, 40);
  MustExec(&db, setup, "CREATE TABLE HELD (K INTEGER PRIMARY KEY, V INTEGER)");
  InsertRows(&db, setup, "HELD", 0, 10);
  // An open transaction spanning the checkpoint: its writes to BIG and its
  // DDL on HELD must stay out of the image.
  MustExec(&db, holder,
           "BEGIN TRANSACTION; UPDATE BIG SET V = -1 WHERE K < 100; "
           "INSERT INTO BIG VALUES (900000, 1); DROP TABLE HELD; "
           "CREATE TABLE HELD (A INTEGER); DROP INDEX BV ON BIG");

  // Snapshot readers keep pinning throughout.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    uint64_t sid = *db.CreateSession("reader");
    readers.emplace_back([&, sid] {
      while (!stop.load()) {
        (void)db.ExecuteScript(sid, "SELECT COUNT(*) AS N FROM BIG");
        (void)db.ExecuteScript(sid, "SELECT SUM(V) AS S FROM CHURN");
      }
    });
  }

  // BIG sorts first and spans four chunks, so the first chunk boundary is
  // mid-table. Other sessions commit there — DML on rows already encoded
  // and on rows not yet reached, index DDL, and a DROP + re-CREATE of a
  // table the image has yet to encode.
  int boundaries = 0;
  db.durability()->set_checkpoint_chunk_hook([&] {
    if (++boundaries != 1) return;
    for (const char* sql :
         {"UPDATE BIG SET V = V + 1000 WHERE K >= 100 AND K < 3000",
          "DELETE FROM BIG WHERE K >= 2000 AND K < 2500",
          "INSERT INTO BIG VALUES (500000, 5)", "CREATE INDEX BK ON BIG (K)",
          "DROP TABLE CHURN",
          "CREATE TABLE CHURN (K INTEGER PRIMARY KEY, W INTEGER)",
          "INSERT INTO CHURN VALUES (7, 7)"}) {
      MustExec(&db, writer, sql);
    }
  });
  bool wrote = false;
  Status st =
      db.CheckpointForCrashTest(CheckpointCrashPoint::kPostImage, &wrote);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  db.durability()->set_checkpoint_chunk_hook(nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(wrote);
  EXPECT_GE(boundaries, 4);

  uint64_t fence = ExpectImageMatchesReplay(disk);
  // Every mid-encode commit landed above the fence.
  auto records = storage::WalReader::ReadAll(disk, "phxdb.wal");
  ASSERT_TRUE(records.ok());
  uint64_t above = 0;
  for (const auto& rec : *records) above += rec.lsn > fence ? 1 : 0;
  EXPECT_EQ(above, 7u);
  uint64_t f = 0;
  TableStore image;
  ASSERT_TRUE(ReadImage(disk, &f, &image).ok());
  ASSERT_NE(image.Get("BIG"), nullptr);
  EXPECT_EQ(image.Get("BIG")->num_rows(), static_cast<size_t>(big_rows));
  ASSERT_EQ(image.Get("BIG")->indexes().size(), 1u);
  EXPECT_EQ(image.Get("BIG")->indexes()[0].name, "BV");
  ASSERT_NE(image.Get("CHURN"), nullptr);
  EXPECT_EQ(image.Get("CHURN")->num_rows(), 40u);
  EXPECT_EQ(image.Get("CHURN")->schema().column(1).name, "V");
  ASSERT_NE(image.Get("HELD"), nullptr);
  EXPECT_EQ(image.Get("HELD")->num_rows(), 10u);
}

TEST(CheckpointSnapshot, ConcurrentWritersAndReadersDuringEncode) {
  // The same invariant with real concurrency (the TSan lane's target):
  // writers commit DML and drop/re-create a table from their own threads
  // while the encode runs chunk by chunk.
  SimDisk disk;
  Database db(&disk, NoAutoCheckpoint());
  ASSERT_TRUE(db.Open().ok());
  uint64_t setup = *db.CreateSession("setup");
  MustExec(&db, setup, "CREATE TABLE BIG (K INTEGER PRIMARY KEY, V INTEGER)");
  InsertRows(&db, setup, "BIG", 0, static_cast<int64_t>(4 * kChunk));
  MustExec(&db, setup, "CREATE TABLE CHURN (K INTEGER PRIMARY KEY, V INTEGER)");
  db.durability()->set_checkpoint_chunk_hook(
      [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
      uint64_t sid = *db.CreateSession("writer");
      threads.emplace_back([&, sid, w] {
        Rng rng(round * 10 + w + 1);
        while (!stop.load()) {
          int64_t k = rng.NextRange(0, static_cast<int64_t>(4 * kChunk));
          (void)db.ExecuteScript(
              sid, "UPDATE BIG SET V = V + 1 WHERE K = " + std::to_string(k));
          if (w == 0) {
            (void)db.ExecuteScript(
                sid, "DROP TABLE CHURN; CREATE TABLE CHURN (K INTEGER "
                     "PRIMARY KEY, V INTEGER); INSERT INTO CHURN VALUES (" +
                         std::to_string(k) + ", 1)");
          }
        }
      });
    }
    uint64_t reader = *db.CreateSession("reader");
    threads.emplace_back([&, reader] {
      while (!stop.load()) {
        (void)db.ExecuteScript(reader, "SELECT SUM(V) AS S FROM BIG");
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    bool wrote = false;
    Status st =
        db.CheckpointForCrashTest(CheckpointCrashPoint::kPostImage, &wrote);
    stop.store(true);
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (!wrote) continue;
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectImageMatchesReplay(disk);
  }
  db.durability()->set_checkpoint_chunk_hook(nullptr);
}

TEST(CheckpointSnapshot, ImageBeforeFirstLoggedCommitStillFencesByLsn) {
  // Nothing is logged yet, so the image's fence is LSN 0, while an open
  // transaction holds txn id 1 below the image's next_txn_id. Its commit
  // lands above the fence and must replay: fencing by txn id would skip it.
  SimDisk disk;
  {
    Database db(&disk, NoAutoCheckpoint());
    ASSERT_TRUE(db.Open().ok());
    uint64_t sid = *db.CreateSession("t");
    MustExec(&db, sid,
             "BEGIN TRANSACTION; CREATE TABLE X (A INTEGER); "
             "INSERT INTO X VALUES (1)");
    ASSERT_TRUE(db.Checkpoint().ok());
    MustExec(&db, sid, "COMMIT");
  }
  disk.Crash();
  Database db(&disk);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.recovery_info().records_skipped, 0u);
  ASSERT_NE(db.store()->Get("X"), nullptr);
  EXPECT_EQ(db.store()->Get("X")->num_rows(), 1u);
}

/// Every way a checkpoint capture can end must release its pin: afterwards
/// no snapshot is pinned and the next commit reclaims every superseded
/// version.
class PinHygiene : public ::testing::Test {
 protected:
  void Boot(uint64_t checkpoint_every) {
    DatabaseOptions opts;
    opts.checkpoint_every_n_commits = checkpoint_every;
    db_ = std::make_unique<Database>(&disk_, opts);
    ASSERT_TRUE(db_->Open().ok());
    sid_ = *db_->CreateSession("t");
  }

  void Exec(const std::string& sql) { MustExec(db_.get(), sid_, sql); }

  void CreateTableP() {
    Exec("CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER)");
    Exec("INSERT INTO P VALUES (1, 1), (2, 2), (3, 3)");
  }

  void ExpectPinsReleased() {
    EXPECT_EQ(GaugeValue("engine.mvcc.oldest_pin_lsn"), 0);
    Exec("UPDATE P SET V = V + 1");
    EXPECT_EQ(db_->store()->Get("P")->MvccVersionCount(), 0u);
    db_->WaitForCheckpointIdle();
  }

  /// Parks the checkpoint thread inside its first encode until Release().
  void BlockFirstEncode() {
    db_->durability()->set_checkpoint_chunk_hook([this] {
      std::unique_lock<std::mutex> lk(mu_);
      if (released_) return;
      blocked_ = true;
      cv_.notify_all();
      cv_.wait(lk, [&] { return released_; });
    });
  }
  void WaitBlocked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return blocked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

  SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

TEST_F(PinHygiene, WrittenImage) {
  Boot(0);
  CreateTableP();
  ASSERT_TRUE(db_->Checkpoint().ok());
  ExpectPinsReleased();
}

TEST_F(PinHygiene, StaleDroppedImage) {
  Boot(0);
  CreateTableP();
  obs::Counter* stale = obs::MetricsRegistry::Default()->GetCounter(
      "storage.checkpoint.stale_dropped");
  uint64_t stale0 = stale->Value();
  bool wrote = false;
  ASSERT_TRUE(
      db_->CheckpointForCrashTest(CheckpointCrashPoint::kPostImage, &wrote)
          .ok());
  EXPECT_TRUE(wrote);
  // No commit since: the second capture has the same fence and is dropped.
  ASSERT_TRUE(
      db_->CheckpointForCrashTest(CheckpointCrashPoint::kPostImage, &wrote)
          .ok());
  EXPECT_FALSE(wrote);
  EXPECT_EQ(stale->Value(), stale0 + 1);
  ExpectPinsReleased();
}

TEST_F(PinHygiene, CrashAfterSnapshot) {
  Boot(0);
  CreateTableP();
  ASSERT_TRUE(
      db_->CheckpointForCrashTest(CheckpointCrashPoint::kPostSnapshot).ok());
  ExpectPinsReleased();
}

TEST_F(PinHygiene, FailedImageWrite) {
  Boot(0);
  CreateTableP();
  disk_.InjectSyncFailures(1, "phxdb.ckpt");
  EXPECT_FALSE(db_->Checkpoint().ok());
  EXPECT_FALSE(disk_.Exists("phxdb.ckpt"));
  ExpectPinsReleased();
}

TEST_F(PinHygiene, SupersededPendingSnapshot) {
  Boot(1);  // every logged commit captures a checkpoint
  BlockFirstEncode();
  obs::Counter* skipped = obs::MetricsRegistry::Default()->GetCounter(
      "storage.checkpoint.skipped");
  uint64_t skipped0 = skipped->Value();
  Exec("CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER)");
  WaitBlocked();  // the first capture is being encoded
  Exec("INSERT INTO P VALUES (1, 1)");  // pending
  Exec("INSERT INTO P VALUES (2, 2)");  // supersedes the pending one
  EXPECT_EQ(skipped->Value(), skipped0 + 1);
  Release();
  db_->WaitForCheckpointIdle();
  ExpectPinsReleased();
}

TEST_F(PinHygiene, DestroyedWithCapturePending) {
  Boot(1);
  BlockFirstEncode();
  Exec("CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER)");
  WaitBlocked();
  Exec("INSERT INTO P VALUES (1, 1)");  // pending behind the blocked encode
  EXPECT_NE(GaugeValue("engine.mvcc.oldest_pin_lsn"), 0);
  // The destructor drops the pending capture, then joins the thread, which
  // finishes the blocked encode once released.
  std::thread releaser([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Release();
  });
  db_.reset();
  releaser.join();
  EXPECT_EQ(GaugeValue("engine.mvcc.oldest_pin_lsn"), 0);
}

}  // namespace
}  // namespace phoenix::eng
