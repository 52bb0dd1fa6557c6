/// \file network.h
/// \brief Simulated consortium network with zones.
///
/// Substitution for the paper's deployments: nodes in one VPC
/// (intra-zone RTT ~0.2 ms) or split across Shanghai/Beijing over public
/// network (inter-zone RTT ~30 ms, lower bandwidth) — the Figure 11
/// two-zone configuration. Links additionally carry a loss model (drop
/// rate, delivery jitter) and nodes can be split into partitions. This
/// is a description only: net::SimHub (net/sim_transport.h) reads it on
/// every send to time, lose or refuse the frames of the real ClusterNode
/// protocol in virtual time.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace confide::chain {

/// \brief Link parameters between two zones.
struct LinkModel {
  uint64_t latency_ns = 200'000;          ///< one-way propagation
  uint64_t bandwidth_bytes_per_sec = 1'250'000'000;  ///< 10 Gb/s default
  double drop_rate = 0.0;                 ///< per-message loss chance [0,1]
  uint64_t jitter_ns = 0;                 ///< max extra delivery delay
};

/// \brief Node placement + pairwise link model.
///
/// All node-id accessors are bounds-checked: an out-of-range id returns
/// the documented sentinel (kInvalidZone / zero cost / unreachable)
/// instead of indexing out of bounds.
class NetworkSim {
 public:
  /// \brief ZoneOf() result for an out-of-range node id.
  static constexpr uint32_t kInvalidZone = UINT32_MAX;

  /// \brief Declares a zone; returns its id.
  uint32_t AddZone(std::string name);

  /// \brief Places a node in `zone`; returns the node id.
  uint32_t AddNode(uint32_t zone);

  /// \brief Sets the link model between two zones (symmetric). Unknown
  /// zone ids are rejected.
  Status SetLink(uint32_t zone_a, uint32_t zone_b, LinkModel link);

  /// \brief Assigns `node` to a partition group. Nodes in different
  /// groups cannot exchange messages (network split). All nodes start in
  /// group 0.
  Status SetPartition(uint32_t node, uint32_t group);

  /// \brief Merges all partition groups back (heals the split).
  void HealPartitions();

  /// \brief True when a message from `from_node` can reach `to_node`
  /// (same partition group, both ids valid).
  bool Reachable(uint32_t from_node, uint32_t to_node) const;

  size_t NodeCount() const { return node_zone_.size(); }

  /// \brief Zone of `node`, or kInvalidZone for an out-of-range id.
  uint32_t ZoneOf(uint32_t node) const {
    return node < node_zone_.size() ? node_zone_[node] : kInvalidZone;
  }

  /// \brief Modelled one-way delivery time for `bytes` from a to b.
  /// Out-of-range ids cost 0 (and are unreachable — see Reachable()).
  uint64_t TransferNs(uint32_t from_node, uint32_t to_node, uint64_t bytes) const;

  /// \brief Propagation-only latency (no payload).
  uint64_t LatencyNs(uint32_t from_node, uint32_t to_node) const;

  /// \brief Wire-serialization time for `bytes` on the a→b link (the
  /// sender NIC is busy for this long per message).
  uint64_t SerializationNs(uint32_t from_node, uint32_t to_node, uint64_t bytes) const;

  /// \brief Per-message loss probability on the a→b link.
  double DropRate(uint32_t from_node, uint32_t to_node) const;

  /// \brief Max extra delivery delay on the a→b link (uniform draw).
  uint64_t JitterNs(uint32_t from_node, uint32_t to_node) const;

  /// \brief Convenience: a single-zone network of n nodes with
  /// intra-datacenter links.
  static NetworkSim SingleZone(size_t n);

  /// \brief Convenience: the paper's two-city setup — nodes split 1:2
  /// between zones connected by a high-latency public link.
  static NetworkSim TwoZone(size_t n, uint64_t inter_latency_ns = 30'000'000);

 private:
  /// \brief Link between two nodes, or nullptr when either id is
  /// out of range (the clean-error path for unchecked callers).
  const LinkModel* LinkBetween(uint32_t from_node, uint32_t to_node) const;

  std::vector<std::string> zones_;
  std::vector<uint32_t> node_zone_;
  std::vector<uint32_t> node_partition_;
  std::vector<std::vector<LinkModel>> links_;  // [zone][zone]
};

}  // namespace confide::chain
