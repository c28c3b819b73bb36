#ifndef PHOENIX_COMMON_OPTIONS_H_
#define PHOENIX_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace phoenix {

/// Which transport a test/bench harness should put between the Phoenix
/// client stack and the DbServer (PHX_TRANSPORT).
enum class Transport : uint8_t {
  kInproc = 0,  ///< historical in-process duplex channel
  kUnix = 1,    ///< Unix-domain socket to an out-of-process phoenixd
  kTcp = 2,     ///< TCP (127.0.0.1) socket to an out-of-process phoenixd
};

/// CPUs this process may run on (sched_getaffinity), at least 1.
uint64_t AvailableCpus();

/// Upper bound on PHX_WORKERS and PHX_RECOVERY_THREADS, per available CPU.
inline constexpr uint64_t kMaxThreadsPerCpu = 8;

/// Every process-level tuning knob in one typed struct, loaded from the
/// environment exactly once per consumer via FromEnv(). Subsystems take the
/// struct (DatabaseOptions, PhoenixConfig) instead of each calling getenv —
/// the env-variable names below are the only external surface.
///
///   PHX_CKPT_EVERY=<n>         auto-checkpoint after n logged commits
///                              (default 0 = manual checkpoints only)
///   PHX_WORKERS=<n>            phoenixd requests executing at once
///                              (default 4)
///   PHX_RECOVERY_THREADS=<n>   recovery pool threads: checkpoint-image
///                              chunks decode and WAL replay partitions by
///                              table on them (default AvailableCpus();
///                              1 = fully serial recovery)
///   Both thread counts are clamped to [1, kMaxThreadsPerCpu *
///   AvailableCpus()]; a larger value only adds threads that wait.
///   PHX_TRANSPORT=inproc|unix|tcp  client↔server transport for harnesses
///                              that honor it (default inproc)
///   PHX_RPC_TIMEOUT_MS=<n>     socket round-trip deadline (default 30000)
///   PHX_CONNECT_TIMEOUT_MS=<n> socket dial deadline (default 5000)
///   PHX_ENDPOINTS=<ep>[,<ep>...]  server group for session failover: a
///                              comma-separated list of endpoints
///                              ("unix:/a.sock,tcp:127.0.0.1:7001"). The
///                              failure detector sweeps the group on a dead
///                              connection and migrates the virtual session
///                              to the first healthy server (default empty =
///                              single-server reconnect only)
struct Options {
  uint64_t checkpoint_every_n_commits = 0;
  uint64_t worker_threads = 4;
  uint64_t recovery_threads = AvailableCpus();
  Transport transport = Transport::kInproc;
  uint64_t rpc_timeout_ms = 30000;
  uint64_t connect_timeout_ms = 5000;
  std::vector<std::string> endpoints;

  /// The single environment loader. Unset/empty variables keep the field
  /// defaults above.
  static Options FromEnv();
};

}  // namespace phoenix

#endif  // PHOENIX_COMMON_OPTIONS_H_
