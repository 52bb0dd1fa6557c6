/// \file config.h
/// \brief Flag/env configuration seam for the deployment binaries
/// (docs/OPERATIONS.md §Configuration is the operator-facing reference).
///
/// Every knob is a `--flag=value` argument with a `CONFIDED_*`
/// environment fallback (flag wins), so the same binary works under a
/// shell, a process supervisor, or a container runtime. The parse is the
/// single place deployment shape enters the process — bootstrap code
/// below it never consults argv or the environment.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace confide::net {

/// \brief `confided` node process configuration.
///
///   --node-id=N           (CONFIDED_NODE_ID)      this node's index
///   --peers=h:p,h:p,...   (CONFIDED_PEERS)        one address per node,
///                                                 indexed by node id
///   --listen-host=H       (CONFIDED_LISTEN_HOST)  bind address
///   --seed=S              (CONFIDED_SEED)         consortium key seed —
///                         every node must use the same value (the
///                         deterministic stand-in for MAP/KMS
///                         provisioning, see system.h)
///   --block-max-bytes=B   (CONFIDED_BLOCK_MAX_BYTES)
///   --parallelism=P       (CONFIDED_PARALLELISM)  pre-verify threads
///   --state-dir=D         (CONFIDED_STATE_DIR)    WAL dir; empty = volatile
///   --tick-ms=T           (CONFIDED_TICK_MS)      idle beat on the node's
///                         timer (ClusterOptions::propose_tick_ms): the
///                         upper bound on idle wait, not the proposing
///                         cadence; must be > 0
///   --heartbeat-ms=T      (CONFIDED_HEARTBEAT_MS) leader heartbeat cadence;
///                         0 disables failover (static leader)
///   --view-timeout-ms=T   (CONFIDED_VIEW_TIMEOUT_MS) base leader-silence
///                         budget before a replica starts a view change
///   --metrics-out=PATH    (CONFIDED_METRICS_OUT)  metrics JSON on exit
struct NodeConfig {
  uint32_t node_id = 0;
  std::vector<std::string> peers;
  std::string listen_host = "0.0.0.0";
  uint64_t seed = 1;
  size_t block_max_bytes = 4096;
  uint32_t parallelism = 1;
  std::string state_dir;
  uint64_t tick_ms = 20;
  uint64_t heartbeat_ms = 100;
  uint64_t view_timeout_ms = 1000;
  std::string metrics_out;

  static Result<NodeConfig> FromArgs(int argc, char** argv);
};

/// \brief `confide_gateway` process configuration.
///
///   --nodes=h:p,h:p,...   (CONFIDED_NODES)        cluster node addresses
///   --listen=H:P          (CONFIDED_GW_LISTEN)    HTTP bind, default
///                                                 0.0.0.0:8080
///   --metrics-out=PATH    (CONFIDED_METRICS_OUT)  metrics JSON on exit
struct GatewayConfig {
  std::vector<std::string> nodes;
  std::string listen_host = "0.0.0.0";
  uint16_t listen_port = 8080;
  std::string metrics_out;

  static Result<GatewayConfig> FromArgs(int argc, char** argv);
};

/// \brief Splits a comma-separated list; empty input → empty vector.
std::vector<std::string> SplitCommaList(const std::string& value);

}  // namespace confide::net
