#include "net/config.h"

#include <cstdlib>
#include <map>

#include "net/socket.h"

namespace confide::net {

namespace {

/// Collects --key=value arguments; rejects anything else.
Result<std::map<std::string, std::string>> CollectFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg +
                                     "' (flags are --key=value)");
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("flag '" + arg + "' needs =value");
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

/// Flag value, else env fallback, else `fallback`.
std::string Lookup(const std::map<std::string, std::string>& flags,
                   const std::string& flag, const char* env,
                   const std::string& fallback) {
  auto it = flags.find(flag);
  if (it != flags.end()) return it->second;
  const char* from_env = std::getenv(env);
  if (from_env != nullptr && from_env[0] != '\0') return from_env;
  return fallback;
}

Result<uint64_t> LookupU64(const std::map<std::string, std::string>& flags,
                           const std::string& flag, const char* env,
                           uint64_t fallback) {
  const std::string raw = Lookup(flags, flag, env, std::to_string(fallback));
  char* end = nullptr;
  uint64_t v = std::strtoull(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || raw.empty()) {
    return Status::InvalidArgument("--" + flag + ": '" + raw +
                                   "' is not an unsigned integer");
  }
  return v;
}

}  // namespace

std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    if (comma > start) out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Result<NodeConfig> NodeConfig::FromArgs(int argc, char** argv) {
  CONFIDE_ASSIGN_OR_RETURN(auto flags, CollectFlags(argc, argv));
  NodeConfig cfg;
  CONFIDE_ASSIGN_OR_RETURN(uint64_t node_id,
                           LookupU64(flags, "node-id", "CONFIDED_NODE_ID", 0));
  cfg.node_id = uint32_t(node_id);
  cfg.peers = SplitCommaList(Lookup(flags, "peers", "CONFIDED_PEERS", ""));
  cfg.listen_host = Lookup(flags, "listen-host", "CONFIDED_LISTEN_HOST", "0.0.0.0");
  CONFIDE_ASSIGN_OR_RETURN(cfg.seed, LookupU64(flags, "seed", "CONFIDED_SEED", 1));
  CONFIDE_ASSIGN_OR_RETURN(
      uint64_t block_bytes,
      LookupU64(flags, "block-max-bytes", "CONFIDED_BLOCK_MAX_BYTES", 4096));
  cfg.block_max_bytes = size_t(block_bytes);
  CONFIDE_ASSIGN_OR_RETURN(
      uint64_t parallelism,
      LookupU64(flags, "parallelism", "CONFIDED_PARALLELISM", 1));
  cfg.parallelism = uint32_t(parallelism);
  cfg.state_dir = Lookup(flags, "state-dir", "CONFIDED_STATE_DIR", "");
  CONFIDE_ASSIGN_OR_RETURN(cfg.tick_ms,
                           LookupU64(flags, "tick-ms", "CONFIDED_TICK_MS", 20));
  CONFIDE_ASSIGN_OR_RETURN(
      cfg.heartbeat_ms,
      LookupU64(flags, "heartbeat-ms", "CONFIDED_HEARTBEAT_MS", 100));
  CONFIDE_ASSIGN_OR_RETURN(
      cfg.view_timeout_ms,
      LookupU64(flags, "view-timeout-ms", "CONFIDED_VIEW_TIMEOUT_MS", 1000));
  cfg.metrics_out = Lookup(flags, "metrics-out", "CONFIDED_METRICS_OUT", "");

  if (cfg.peers.empty()) {
    return Status::InvalidArgument("--peers (or CONFIDED_PEERS) is required");
  }
  if (cfg.tick_ms == 0) {
    // The beat is what proposes on an idle leader: 0 would never propose.
    return Status::InvalidArgument("--tick-ms must be > 0");
  }
  if (cfg.node_id >= cfg.peers.size()) {
    return Status::InvalidArgument("--node-id " + std::to_string(cfg.node_id) +
                                   " not in --peers (" +
                                   std::to_string(cfg.peers.size()) + " entries)");
  }
  for (const std::string& peer : cfg.peers) {
    CONFIDE_RETURN_NOT_OK(SplitHostPort(peer).status());
  }
  return cfg;
}

Result<GatewayConfig> GatewayConfig::FromArgs(int argc, char** argv) {
  CONFIDE_ASSIGN_OR_RETURN(auto flags, CollectFlags(argc, argv));
  GatewayConfig cfg;
  cfg.nodes = SplitCommaList(Lookup(flags, "nodes", "CONFIDED_NODES", ""));
  const std::string listen =
      Lookup(flags, "listen", "CONFIDED_GW_LISTEN", "0.0.0.0:8080");
  CONFIDE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(listen));
  cfg.listen_host = host_port.first;
  cfg.listen_port = host_port.second;
  cfg.metrics_out = Lookup(flags, "metrics-out", "CONFIDED_METRICS_OUT", "");

  if (cfg.nodes.empty()) {
    return Status::InvalidArgument("--nodes (or CONFIDED_NODES) is required");
  }
  for (const std::string& node : cfg.nodes) {
    CONFIDE_RETURN_NOT_OK(SplitHostPort(node).status());
  }
  return cfg;
}

}  // namespace confide::net
