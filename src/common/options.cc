#include "common/options.h"

#include <cstdlib>

namespace phoenix {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || e[0] == '\0') return fallback;
  return std::strtoull(e, nullptr, 10);
}

}  // namespace

Options Options::FromEnv() {
  Options o;
  o.checkpoint_every_n_commits =
      EnvU64("PHX_CKPT_EVERY", o.checkpoint_every_n_commits);
  o.worker_threads = EnvU64("PHX_WORKERS", o.worker_threads);
  o.recovery_threads = EnvU64("PHX_RECOVERY_THREADS", o.recovery_threads);
  if (o.recovery_threads == 0) o.recovery_threads = 1;
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
