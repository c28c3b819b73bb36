#include "storage/sim_disk.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "common/rng.h"

namespace phoenix::storage {

namespace {

constexpr const char* kTempSuffix = ".phxtmp";

bool HasTempSuffix(const std::string& name) {
  const size_t n = std::strlen(kTempSuffix);
  return name.size() >= n && name.compare(name.size() - n, n, kTempSuffix) == 0;
}

Status IoErrno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Reads a whole regular file into a buffer sized once by fstat.
Result<std::string> SlurpFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoErrno("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("not a regular file: " + path);
  }
  std::string out(static_cast<size_t>(st.st_size), '\0');
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return IoErrno("read " + path);
    }
    if (n == 0) break;  // shrank under us: keep what was there
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(off);
  return out;
}

Status WriteAllAndFsync(int fd, const std::string& data,
                        const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrno("write " + path);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return IoErrno("fsync " + path);
  return Status::Ok();
}

void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

SimDisk::SimDisk(const std::string& backing_dir) : backing_dir_(backing_dir) {
  // Boot-time load: every surviving regular file IS durable content — an
  // interrupted WriteAtomic's temp file is the one exception (its rename
  // never happened, so the write never happened).
  DIR* dir = ::opendir(backing_dir.c_str());
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (HasTempSuffix(name)) {
      ::unlink(BackingPath(name).c_str());
      continue;
    }
    auto content = SlurpFile(BackingPath(name));
    if (!content.ok()) continue;  // directories, sockets, unreadable junk
    files_[name].durable = content.take();
  }
  ::closedir(dir);
}

std::string SimDisk::BackingPath(const std::string& file) const {
  return backing_dir_ + "/" + file;
}

Status SimDisk::PersistAppend(const std::string& file,
                              const std::string& data) {
  if (backing_dir_.empty() || data.empty()) return Status::Ok();
  const std::string path = BackingPath(file);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return IoErrno("open " + path);
  Status s = WriteAllAndFsync(fd, data, path);
  ::close(fd);
  return s;
}

Status SimDisk::PersistReplace(
    const std::string& file, const std::string& data,
    const std::function<void(const std::string&, int)>& mid) {
  if (backing_dir_.empty()) {
    if (mid) {
      mid(file, 0);
      mid(file, 1);
    }
    return Status::Ok();
  }
  const std::string path = BackingPath(file);
  const std::string tmp = path + kTempSuffix;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoErrno("open " + tmp);
  Status s = WriteAllAndFsync(fd, data, tmp);
  ::close(fd);
  if (!s.ok()) return s;
  // Stage 0: the new content is durable under the temp name only. A kill
  // here must lose the atomic write entirely (boot-time load skips temps).
  if (mid) mid(file, 0);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoErrno("rename " + tmp);
  }
  FsyncDir(backing_dir_);
  // Stage 1: the rename is durable — the atomic write happened.
  if (mid) mid(file, 1);
  return Status::Ok();
}

void SimDisk::PersistUnlink(const std::string& file) {
  if (backing_dir_.empty()) return;
  ::unlink(BackingPath(file).c_str());
  FsyncDir(backing_dir_);
}

Status SimDisk::Append(const std::string& file, const std::string& data) {
  std::lock_guard<std::mutex> lk(mu_);
  files_[file].tail += data;
  bytes_written_ += data.size();
  return Status::Ok();
}

Status SimDisk::Sync(const std::string& file) {
  uint64_t latency_us = 0;
  std::string tail_snapshot;
  uint64_t ordinal = 0;
  DiskHooks hooks;
  bool slow_path = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(file);
    if (it == files_.end()) return Status::NotFound("no such file: " + file);
    if (ClaimSyncFailureLocked(file)) {
      // The flush was rejected; the tail stays volatile (a crash still
      // loses it). Callers must not treat the data as durable.
      return Status::IoError("injected sync failure: " + file);
    }
    latency_us = sync_latency_us_;
    slow_path = !backing_dir_.empty() || hooks_.pre_sync || hooks_.mid_sync;
    if (!slow_path) {
      // Historical in-memory fast path: the whole tail becomes durable
      // atomically under the lock.
      it->second.durable += it->second.tail;
      it->second.tail.clear();
      ++sync_count_;
    } else {
      tail_snapshot = it->second.tail;
      ordinal = ++sync_ordinals_[file];
      hooks = hooks_;
    }
  }
  if (slow_path) {
    // Device I/O and hooks run outside the mutex: a hook may block forever
    // (that is the SIGKILL rendezvous), and other files must keep moving.
    // Bytes appended to this file concurrently are NOT covered by this
    // sync, exactly like a real fsync racing a write.
    size_t keep = tail_snapshot.size();
    if (hooks.pre_sync) {
      keep = std::min(keep, hooks.pre_sync(file, ordinal, tail_snapshot.size()));
    }
    Status persisted = PersistAppend(file, tail_snapshot.substr(0, keep));
    if (hooks.mid_sync) hooks.mid_sync(file, ordinal);
    if (!persisted.ok()) return persisted;
    const bool torn = keep < tail_snapshot.size();
    {
      std::lock_guard<std::mutex> lk(mu_);
      FileState& f = files_[file];
      size_t covered = std::min(torn ? keep : tail_snapshot.size(),
                                f.tail.size());
      f.durable += f.tail.substr(0, covered);
      f.tail.erase(0, covered);
      if (!torn) ++sync_count_;
    }
    if (torn) {
      // A short write at the device: only `keep` bytes are durable, the
      // rest stays volatile. Same caller contract as a failed flush.
      return Status::IoError("short write during sync: " + file);
    }
  }
  // Fsync service time, charged outside the mutex: other files (and other
  // appends to this one) proceed while the flush is "in the device".
  if (latency_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  }
  return Status::Ok();
}

Status SimDisk::WriteAtomic(const std::string& file, const std::string& data) {
  DiskHooks hooks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (ClaimSyncFailureLocked(file)) {
      // The temp file's flush was rejected, so the rename never happens:
      // the previous content stays in place.
      return Status::IoError("injected sync failure: " + file);
    }
    hooks = hooks_;
  }
  if (!backing_dir_.empty() || hooks.mid_atomic) {
    // Real (or instrumented) temp+rename protocol, outside the mutex — the
    // mid_atomic hook is a kill window and may never return.
    PHX_RETURN_IF_ERROR(PersistReplace(file, data, hooks.mid_atomic));
  }
  std::lock_guard<std::mutex> lk(mu_);
  FileState& f = files_[file];
  f.durable = data;
  f.tail.clear();
  bytes_written_ += data.size();
  ++sync_count_;
  return Status::Ok();
}

Result<std::string> SimDisk::Read(const std::string& file) const {
  std::lock_guard<std::mutex> lk(mu_);
  ++read_count_;
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  return it->second.durable + it->second.tail;
}

Result<std::string> SimDisk::ReadDurable(const std::string& file) const {
  std::lock_guard<std::mutex> lk(mu_);
  ++read_count_;
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  return it->second.durable;
}

Status SimDisk::ViewDurable(
    const std::string& file,
    const std::function<Status(std::string_view)>& fn) const {
  std::lock_guard<std::mutex> lk(mu_);
  ++read_count_;
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  return fn(it->second.durable);
}

bool SimDisk::Exists(const std::string& file) const {
  std::lock_guard<std::mutex> lk(mu_);
  return files_.count(file) > 0;
}

Status SimDisk::Delete(const std::string& file) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("no such file: " + file);
  files_.erase(it);
  PersistUnlink(file);
  return Status::Ok();
}

std::vector<std::string> SimDisk::List() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, state] : files_) names.push_back(name);
  return names;
}

void SimDisk::Crash() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, state] : files_) state.tail.clear();
}

void SimDisk::CrashWithPartialFlush(double keep_fraction) {
  std::lock_guard<std::mutex> lk(mu_);
  if (keep_fraction < 0) keep_fraction = 0;
  if (keep_fraction > 1) keep_fraction = 1;
  for (auto& [name, state] : files_) {
    size_t keep = static_cast<size_t>(state.tail.size() * keep_fraction);
    std::string flushed = state.tail.substr(0, keep);
    PersistAppend(name, flushed);  // keep backing == durable (in-proc: no-op)
    state.durable += flushed;
    state.tail.clear();
  }
}

void SimDisk::CrashTorn(const TornCrashSpec& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  Rng rng(spec.seed);
  for (auto& [name, state] : files_) {
    if (state.tail.empty()) continue;
    // Independent per-file keep count, byte-granular: the OS flushed this
    // file's dirty pages some arbitrary distance into the tail.
    size_t keep = static_cast<size_t>(rng.NextBelow(state.tail.size() + 1));
    std::string flushed = state.tail.substr(0, keep);
    if (!flushed.empty() && rng.NextBool(spec.corrupt_prob)) {
      // A half-written sector: one byte of the flushed-but-unsynced region
      // differs from what was logically written.
      size_t at = static_cast<size_t>(rng.NextBelow(flushed.size()));
      flushed[at] = static_cast<char>(
          static_cast<uint8_t>(flushed[at]) ^
          static_cast<uint8_t>(1 + rng.NextBelow(255)));
    }
    PersistAppend(name, flushed);  // keep backing == durable (in-proc: no-op)
    state.durable += flushed;
    state.tail.clear();
  }
}

uint64_t SimDisk::bytes_written() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_written_;
}

uint64_t SimDisk::sync_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sync_count_;
}

uint64_t SimDisk::read_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return read_count_;
}

void SimDisk::InjectSyncFailures(int n, const std::string& file) {
  std::lock_guard<std::mutex> lk(mu_);
  fail_syncs_ = n;
  fail_syncs_file_ = file;
}

bool SimDisk::ClaimSyncFailureLocked(const std::string& file) {
  if (fail_syncs_ == 0) return false;
  if (!fail_syncs_file_.empty() && fail_syncs_file_ != file) return false;
  --fail_syncs_;
  return true;
}

void SimDisk::set_sync_latency_us(uint64_t us) {
  std::lock_guard<std::mutex> lk(mu_);
  sync_latency_us_ = us;
}

void SimDisk::set_hooks(DiskHooks hooks) {
  std::lock_guard<std::mutex> lk(mu_);
  hooks_ = std::move(hooks);
}

}  // namespace phoenix::storage
