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

/// Every process-level tuning knob in one typed struct, loaded from the
/// environment exactly once per consumer via FromEnv(). Subsystems take the
/// struct (DatabaseOptions, PhoenixConfig) instead of each calling getenv —
/// the env-variable names below are the only external surface.
///
///   PHX_MVCC=0|1               MVCC snapshot reads: versioned visibility so
///                              read-only statements evaluate against a
///                              pinned snapshot instead of holding the data
///                              lock (default on; =0 restores the pure
///                              reader-writer classification path)
///   PHX_RECOVERY_THREADS=<n>   WAL replay worker threads (default 1 =
///                              serial replay; >1 partitions replay by table)
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
  bool mvcc = true;
  uint64_t recovery_threads = 1;
  Transport transport = Transport::kInproc;
  uint64_t rpc_timeout_ms = 30000;
  uint64_t connect_timeout_ms = 5000;
  std::vector<std::string> endpoints;

  /// The single environment loader. Unset/empty variables keep the field
  /// defaults above; boolean variables accept 1/y/Y/t/T as true.
  static Options FromEnv();
};

}  // namespace phoenix

#endif  // PHOENIX_COMMON_OPTIONS_H_
