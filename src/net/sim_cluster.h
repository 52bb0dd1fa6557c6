/// \file sim_cluster.h
/// \brief An in-process cluster: n ClusterNodes, each over its own
/// bootstrapped ConfideSystem, on one virtual-time SimHub. Tests, the
/// chaos suite and Figure 11 drive the deployed protocol through it.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "confide/client.h"
#include "confide/system.h"
#include "net/cluster.h"
#include "net/sim_transport.h"

namespace confide::net {

struct SimCluster {
  /// \brief Boots `n` systems with the same options (hence the same
  /// genesis and consortium keys) on a single-zone network, starts a
  /// ClusterNode on each and a client for the consortium. The first
  /// failure is kept in `status`.
  SimCluster(size_t n, const core::SystemOptions& system,
             const ClusterOptions& options = {}, uint64_t hub_seed = 1);
  ~SimCluster();

  /// \brief Proposes on `proposer` and delivers the round to quiescence.
  /// Returns the virtual ns from the proposal to the Quorum(n)-th node
  /// applying the block; Unavailable when no quorum applied it.
  Result<uint64_t> TimedRound(uint32_t proposer);

  /// \brief Advances virtual time in 1 ms steps until `done` holds; false
  /// when `limit_ms` pass first.
  bool RunUntil(const std::function<bool()>& done, uint64_t limit_ms = 20'000);

  Status status;
  chain::NetworkSim sim;
  SimHub hub;
  std::vector<std::unique_ptr<core::ConfideSystem>> systems;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<core::Client> client;
};

}  // namespace confide::net
