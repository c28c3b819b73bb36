#include "common/options.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>

namespace phoenix {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || e[0] == '\0') return fallback;
  return std::strtoull(e, nullptr, 10);
}

/// A thread-count knob: unset keeps `fallback`; any value is clamped to
/// [1, kMaxThreadsPerCpu * AvailableCpus()].
uint64_t EnvThreads(const char* name, uint64_t fallback) {
  return std::clamp<uint64_t>(EnvU64(name, fallback), 1,
                              kMaxThreadsPerCpu * AvailableCpus());
}

}  // namespace

uint64_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<uint64_t>(n) : 1;
}

Options Options::FromEnv() {
  Options o;
  o.checkpoint_every_n_commits =
      EnvU64("PHX_CKPT_EVERY", o.checkpoint_every_n_commits);
  o.worker_threads = EnvThreads("PHX_WORKERS", o.worker_threads);
  o.recovery_threads = EnvThreads("PHX_RECOVERY_THREADS", o.recovery_threads);
  const char* transport = std::getenv("PHX_TRANSPORT");
  if (transport != nullptr && transport[0] != '\0') {
    std::string t = transport;
    if (t == "unix") {
      o.transport = Transport::kUnix;
    } else if (t == "tcp") {
      o.transport = Transport::kTcp;
    } else {
      o.transport = Transport::kInproc;  // unknown value: fail safe
    }
  }
  o.rpc_timeout_ms = EnvU64("PHX_RPC_TIMEOUT_MS", o.rpc_timeout_ms);
  o.connect_timeout_ms = EnvU64("PHX_CONNECT_TIMEOUT_MS", o.connect_timeout_ms);
  const char* endpoints = std::getenv("PHX_ENDPOINTS");
  if (endpoints != nullptr && endpoints[0] != '\0') {
    std::string list = endpoints;
    size_t start = 0;
    while (start <= list.size()) {
      size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      std::string ep = list.substr(start, comma - start);
      if (!ep.empty()) o.endpoints.push_back(ep);
      start = comma + 1;
    }
  }
  return o;
}

}  // namespace phoenix
