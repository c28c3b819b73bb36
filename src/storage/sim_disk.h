#ifndef PHOENIX_STORAGE_SIM_DISK_H_
#define PHOENIX_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace phoenix::storage {

/// Test/chaos instrumentation of the durability boundary. phoenixd uses
/// these to realize "SIGKILL mid-fsync": the hook signals the parent over a
/// pipe and blocks inside the sync, the parent kills the child, and the
/// bytes that had (or had not) reached the backing file ARE the post-crash
/// disk state — no simulation involved. All hooks default to empty; they
/// run OUTSIDE the disk mutex (they may block forever).
struct DiskHooks {
  /// Before Sync() writes `file`'s volatile tail to the device: returns how
  /// many tail bytes actually reach it. Returning less than `tail_bytes`
  /// models a torn write — Sync() persists only the prefix and reports
  /// IoError (the remainder stays volatile, like any failed flush).
  /// `sync_ordinal` counts this file's Sync() calls from 1.
  std::function<size_t(const std::string& file, uint64_t sync_ordinal,
                       size_t tail_bytes)>
      pre_sync;
  /// After the (possibly torn) bytes hit the device, before Sync() returns
  /// and before anything is accounted durable in-process: the mid-fsync
  /// kill window.
  std::function<void(const std::string& file, uint64_t sync_ordinal)> mid_sync;
  /// Around WriteAtomic()'s rename. stage 0: the temp file is written and
  /// fsynced but not yet visible under `file` (a kill here loses the whole
  /// atomic write). stage 1: the rename is durable (a kill here keeps the
  /// new image — e.g. checkpoint durable, WAL truncation never happened).
  std::function<void(const std::string& file, int stage)> mid_atomic;
};

/// Simulated stable storage with explicit durability semantics.
///
/// Every write lands in a volatile tail (the "OS page cache" of the server
/// process) and only becomes durable at Sync(). Crash() models the server
/// process dying: all volatile tails vanish, durable bytes survive. This is
/// the substrate against which the paper's claim — that session state
/// materialized into ordinary tables is recovered "for free" by the database
/// recovery mechanism — is actually tested.
///
/// The object itself outlives server crashes (it *is* the disk); a restarted
/// server re-attaches to the same SimDisk.
///
/// Backing-directory mode (the out-of-process story): constructed with a
/// directory path, the disk additionally mirrors every DURABLE byte into a
/// real file under that directory — Sync() appends the tail and fsyncs,
/// WriteAtomic() goes write-temp + rename + fsync — while the volatile tail
/// lives only in process memory. A SIGKILL therefore discards exactly the
/// unsynced bytes, with no cooperation from the dying process: the kernel
/// cannot keep what was never written. A new SimDisk over the same
/// directory (the reborn phoenixd) loads the surviving files as its durable
/// state.
///
/// Thread-safe: each operation is atomic under an internal mutex, like a
/// kernel block layer. (Ordering across operations is the caller's problem,
/// exactly as with a real disk. In backing mode, concurrent Sync()s of the
/// SAME file are additionally the caller's problem — the WAL writer already
/// serializes them.)
class SimDisk {
 public:
  SimDisk() = default;
  /// Backing-directory mode: existing regular files under `backing_dir`
  /// (except "*.phxtmp" leftovers of an interrupted WriteAtomic) are loaded
  /// as durable content. The directory must exist.
  explicit SimDisk(const std::string& backing_dir);
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Appends bytes to the volatile tail of `file` (created if absent).
  Status Append(const std::string& file, const std::string& data);

  /// Makes all buffered bytes of `file` durable (fsync analogue).
  Status Sync(const std::string& file);

  /// Atomically replaces the full durable content of `file`
  /// (write-temp + rename + fsync analogue). Used for checkpoints.
  Status WriteAtomic(const std::string& file, const std::string& data);

  /// Reads the *current process view*: durable prefix + volatile tail.
  Result<std::string> Read(const std::string& file) const;

  /// Reads only the durable bytes (what a post-crash process would see).
  Result<std::string> ReadDurable(const std::string& file) const;

  /// ReadDurable without the copy: runs `fn` over the durable bytes and
  /// returns its status. The disk is locked while `fn` runs, so `fn` must
  /// not call back into it.
  Status ViewDurable(const std::string& file,
                     const std::function<Status(std::string_view)>& fn) const;

  bool Exists(const std::string& file) const;
  Status Delete(const std::string& file);
  std::vector<std::string> List() const;

  /// Server process death: every volatile tail is discarded.
  void Crash();

  /// Crash where a prefix of each volatile tail had already been flushed by
  /// the OS — produces torn WAL records, which recovery must tolerate.
  /// `keep_fraction` in [0,1] selects how much of each tail survives.
  void CrashWithPartialFlush(double keep_fraction);

  /// Parameters for CrashTorn(): the adversarial crash mode.
  struct TornCrashSpec {
    /// Seeds the per-file keep decisions and corruption sites, so a chaos
    /// schedule is fully reproducible from its seed.
    uint64_t seed = 1;
    /// Probability that the flushed part of a file's tail additionally has
    /// one byte corrupted (a half-written sector), not merely truncated.
    double corrupt_prob = 0.5;
  };

  /// The nastiest crash the fault model allows: every file's volatile tail
  /// is independently truncated at BYTE granularity (not a shared fraction —
  /// the OS flushes files at different rates), and with `corrupt_prob` a
  /// byte of the surviving flushed region is flipped. Bytes made durable by
  /// an earlier Sync()/WriteAtomic() are never touched: fsynced data is
  /// safe; only the unsynced tail tears.
  void CrashTorn(const TornCrashSpec& spec);

  /// Cumulative bytes appended (volatile) since construction.
  uint64_t bytes_written() const;
  /// Number of Sync()/WriteAtomic() durability points.
  uint64_t sync_count() const;
  /// Number of Read()/ReadDurable() calls. Tests use the delta to pin an
  /// I/O budget — e.g. that recovery's scan + torn-tail repair cost exactly
  /// one read of the WAL, not one per pass.
  uint64_t read_count() const;

  /// Makes the next `n` durability points — Sync() calls, and the fsync
  /// inside WriteAtomic() — fail with IoError; with `file` non-empty, only
  /// that file's. Models a device that rejects the flush (battery-backed
  /// cache gone read-only, thin-provisioned volume out of space). A failed
  /// Sync() leaves the tail volatile (a crash still discards it); a failed
  /// WriteAtomic() leaves the previous content in place.
  void InjectSyncFailures(int n, const std::string& file = "");

  /// Service time charged to every successful Sync(), slept *outside* the
  /// disk mutex so concurrent appends proceed during the flush — the fsync
  /// cost model that makes group-commit batching measurable in benches.
  void set_sync_latency_us(uint64_t us);

  /// Installs (or clears) the durability-boundary instrumentation. Install
  /// before serving traffic; hooks run outside the disk mutex.
  void set_hooks(DiskHooks hooks);

  const std::string& backing_dir() const { return backing_dir_; }

 private:
  struct FileState {
    std::string durable;
    std::string tail;
  };

  std::string BackingPath(const std::string& file) const;
  /// Appends `data` to the backing file and fsyncs. No-op without backing.
  Status PersistAppend(const std::string& file, const std::string& data);
  /// write-temp + fsync + rename + fsync-dir, with the mid_atomic hook
  /// firing between the two stages. No-op (hook still fires) w/o backing.
  Status PersistReplace(const std::string& file, const std::string& data,
                        const std::function<void(const std::string&, int)>& mid);
  void PersistUnlink(const std::string& file);

  mutable std::mutex mu_;
  std::string backing_dir_;
  std::map<std::string, FileState> files_;
  std::map<std::string, uint64_t> sync_ordinals_;
  DiskHooks hooks_;
  uint64_t bytes_written_ = 0;
  uint64_t sync_count_ = 0;
  mutable uint64_t read_count_ = 0;  ///< Read/ReadDurable calls (under mu_)
  /// Consumes one injected failure aimed at `file`, if any. Caller holds
  /// mu_.
  bool ClaimSyncFailureLocked(const std::string& file);

  int fail_syncs_ = 0;
  std::string fail_syncs_file_;  ///< empty = any file
  uint64_t sync_latency_us_ = 0;
};

}  // namespace phoenix::storage

#endif  // PHOENIX_STORAGE_SIM_DISK_H_
