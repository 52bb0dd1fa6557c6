#include "net/sim_cluster.h"

namespace confide::net {

SimCluster::SimCluster(size_t n, const core::SystemOptions& system,
                       const ClusterOptions& options, uint64_t hub_seed)
    : sim(chain::NetworkSim::SingleZone(n)), hub(&sim, hub_seed) {
  for (uint32_t i = 0; i < n && status.ok(); ++i) {
    auto sys = core::ConfideSystem::BootstrapFirst(system);
    if (!sys.ok()) {
      status = sys.status();
      break;
    }
    systems.push_back(std::move(*sys));
    nodes.push_back(std::make_unique<ClusterNode>(
        systems[i].get(), std::make_unique<SimTransport>(&hub, i), options));
    status = nodes[i]->Start();
  }
  if (status.ok()) client = std::make_unique<core::Client>(99, systems[0]->pk_tx());
}

SimCluster::~SimCluster() {
  for (auto& node : nodes) node->Stop();
}

Result<uint64_t> SimCluster::TimedRound(uint32_t proposer) {
  const uint64_t start = hub.now_ns(proposer);
  CONFIDE_ASSIGN_OR_RETURN(const uint64_t seq, nodes[proposer]->ProposeOnce());
  std::vector<bool> applied(nodes.size(), false);
  size_t count = 0;
  uint64_t quorum_at = 0;
  // One frame reaches one node: only that node's height can move. (The
  // proposer itself applies inside ProposeOnce when its vote is a quorum.)
  do {
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      if (applied[i] || nodes[i]->Height() <= seq) continue;
      applied[i] = true;
      if (++count == ClusterNode::Quorum(nodes.size())) quorum_at = hub.now_ns(i);
    }
  } while (hub.DeliverOne());
  if (count < ClusterNode::Quorum(nodes.size())) {
    return Status::Unavailable("sim cluster: seq " + std::to_string(seq) +
                               " reached no commit quorum");
  }
  return quorum_at - start;
}

bool SimCluster::RunUntil(const std::function<bool()>& done, uint64_t limit_ms) {
  for (uint64_t ms = 0; ms < limit_ms && !done(); ++ms) {
    hub.RunUntil(hub.now_ns() + 1'000'000);
  }
  return done();
}

}  // namespace confide::net
