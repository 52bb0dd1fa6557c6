/// \file confided_main.cc
/// \brief The CONFIDE node daemon: one process per cluster member.
///
/// Bootstraps a full node (platform + enclaves + engines + chain node,
/// system.h) from the shared consortium seed, joins the cluster over the
/// framed TCP transport, catches up from a live peer, then replicates
/// blocks — the leader of the current view (node view % n) proposes on a
/// tick, replicas follow the PBFT-lite vote rounds and elect a new
/// leader when the current one falls silent (cluster.h §Leader
/// failover). SIGINT/SIGTERM drain and exit, dumping the metrics
/// registry when --metrics-out is set.
///
/// docs/OPERATIONS.md walks through launching a 3-node cluster.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "net/cluster.h"
#include "net/config.h"
#include "net/tcp_transport.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace confide;

  auto cfg = net::NodeConfig::FromArgs(argc, argv);
  if (!cfg.ok()) {
    std::fprintf(stderr, "confided: %s\n", cfg.status().ToString().c_str());
    return 2;
  }

  core::SystemOptions sys_options;
  sys_options.seed = cfg->seed;
  sys_options.block_max_bytes = cfg->block_max_bytes;
  sys_options.parallelism = cfg->parallelism;
  sys_options.state_wal_dir = cfg->state_dir;
  // Every node runs BootstrapFirst with the shared seed: KM-enclave key
  // derivation is a pure function of the seed, so all processes hold the
  // same consortium keys (the simulated stand-in for MAP/KMS
  // provisioning — see system.h and docs/OPERATIONS.md §Keys).
  auto system = core::ConfideSystem::BootstrapFirst(sys_options);
  if (!system.ok()) {
    std::fprintf(stderr, "confided: bootstrap: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  net::TcpTransportOptions transport_options;
  transport_options.self_id = cfg->node_id;
  transport_options.peers = cfg->peers;
  transport_options.listen_host = cfg->listen_host;
  auto transport = std::make_unique<net::TcpTransport>(transport_options);
  net::TcpTransport* tcp = transport.get();

  net::ClusterOptions cluster_options;
  cluster_options.heartbeat_ms = cfg->heartbeat_ms;
  cluster_options.view_timeout_ms = cfg->view_timeout_ms;
  cluster_options.view_timeout_max_ms =
      std::max<uint64_t>(cfg->view_timeout_ms * 16, cfg->view_timeout_ms);
  // Distinct per-node jitter so replicas' election timers do not stampede.
  cluster_options.election_seed = cfg->seed + cfg->node_id;
  net::ClusterNode cluster(system->get(), std::move(transport),
                           cluster_options);
  if (Status st = cluster.Start(); !st.ok()) {
    std::fprintf(stderr, "confided: start: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Readiness line (parsed by tools/cluster_smoke.py).
  std::printf("confided: node %u ready on port %u (height %llu)\n",
              cfg->node_id, tcp->listen_port(),
              static_cast<unsigned long long>(cluster.Height()));
  std::fflush(stdout);

  // Rejoin: pull any blocks committed while this node was down, trying
  // every peer (the old leader may be the one that crashed). Peers may
  // not be up yet on a cold start — failures are benign (the gap-repair
  // pull fires on the first pre-prepare or heartbeat past our tip).
  if (!cluster.is_leader()) {
    const uint32_t n = uint32_t(cfg->peers.size());
    for (int attempt = 0; attempt < 5 && !g_stop.load(); ++attempt) {
      const uint32_t peer = (cluster.leader() + attempt) % n;
      if (peer != cfg->node_id && cluster.CatchUp(peer).ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }

  while (!g_stop.load()) {
    // Leadership is per-view: re-check every iteration so this process
    // starts proposing the moment it wins an election and stops the
    // moment it is deposed.
    if (cluster.is_leader()) {
      auto committed = cluster.LeaderTick();
      if (!committed.ok()) {
        std::fprintf(stderr, "confided: leader tick: %s\n",
                     committed.status().ToString().c_str());
      } else if (*committed > 0) {
        continue;  // keep draining a busy pool without sleeping
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg->tick_ms));
  }

  std::printf("confided: node %u stopping at height %llu\n", cfg->node_id,
              static_cast<unsigned long long>(cluster.Height()));
  std::fflush(stdout);
  cluster.Stop();
  if (!cfg->metrics_out.empty()) {
    Status dumped = metrics::DumpSnapshot(cfg->metrics_out);
    if (!dumped.ok()) {
      std::fprintf(stderr, "confided: %s\n", dumped.message().c_str());
    }
  }
  return 0;
}
