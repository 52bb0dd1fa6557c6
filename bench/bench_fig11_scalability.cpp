/// \file bench_fig11_scalability.cpp
/// \brief Reproduces **Figure 11**: ABS-workload throughput for
/// confidential transactions as the consortium scales.
///
/// Sweeps: nodes ∈ {4,8,12,16,20} × execution threads ∈ {1,4,6} ×
/// network ∈ {single zone, two zones (Shanghai/Beijing 1:2)}.
///
/// Paper shape: throughput stays flat as nodes grow within one zone;
/// 4-way parallel execution is ~2× over 1-way and 6-way adds little
/// more; the two-zone deployment degrades with node count (WAN consensus
/// latency).
///
/// Per-block time = k-way execution makespan + PBFT ordering latency + the
/// ~6 ms cloud-SSD block write (§6.4). The ordering latency is measured on
/// the deployed protocol: an n-node ClusterNode cluster over a SimHub
/// (virtual time, sender-NIC serialization, per-frame processing cost)
/// replicates a block of the same wire size, and the term is the time
/// from ProposeOnce to the (2f+1)-th node applying it.
///
/// Substitution note: this host has a single CPU core, so k-way
/// *execution* parallelism cannot be observed as wall time. Each
/// transaction is executed (really, through the enclave) and timed
/// individually; the block's k-way makespan is then computed by LPT
/// scheduling of the conflict groups the engine reports — asserted below
/// to be exactly the groups the parallel BlockExecutor schedules. Every
/// transfer is executed and timed once, and all 20 (nodes × series)
/// configs are computed from those same timings, so wall-clock noise
/// cannot land differently in different columns.

#include <algorithm>
#include <map>
#include <queue>

#include "bench/bench_util.h"
#include "chain/executor.h"
#include "net/sim_cluster.h"

using namespace confide;
using namespace confide::bench;

namespace {

constexpr int kAbsInstances = 8;   // spread txs across contracts so the
                                   // conflict-key scheduler can go wide
constexpr int kTxTotal = 96;
constexpr size_t kBlockBytes = 48 * 1024;

// Longest-processing-time makespan of group times on k workers.
double Makespan(const std::map<uint64_t, double>& group_seconds, uint32_t k) {
  std::vector<double> groups;
  for (const auto& [key, secs] : group_seconds) groups.push_back(secs);
  std::sort(groups.rbegin(), groups.rend());
  std::priority_queue<double, std::vector<double>, std::greater<double>> workers;
  for (uint32_t i = 0; i < k; ++i) workers.push(0.0);
  for (double g : groups) {
    double load = workers.top();
    workers.pop();
    workers.push(load + g);
  }
  double makespan = 0;
  while (!workers.empty()) {
    makespan = workers.top();
    workers.pop();
  }
  return makespan;
}

/// The byte-budget block partition ProposeBlock uses: first tx always
/// accepted, then until the budget would overflow.
std::vector<std::vector<size_t>> PartitionIntoBlocks(
    const std::vector<chain::Transaction>& txs, size_t block_bytes) {
  std::vector<std::vector<size_t>> blocks;
  size_t pos = 0;
  while (pos < txs.size()) {
    std::vector<size_t> block;
    size_t bytes = 0;
    while (pos < txs.size()) {
      size_t tx_bytes = txs[pos].Serialize().size();
      if (!block.empty() && bytes + tx_bytes > block_bytes) break;
      bytes += tx_bytes;
      block.push_back(pos);
      ++pos;
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

size_t BlockWireBytes(std::vector<chain::Transaction> txs) {
  chain::Block block;
  block.transactions = std::move(txs);
  return block.Serialize().size();
}

/// PBFT ordering latency of a block of `wire_bytes` on `cluster`, over
/// `net`'s links: the block carries one public tx padded to that size.
uint64_t ConsensusNs(net::SimCluster* cluster, const chain::NetworkSim& net,
                     size_t wire_bytes) {
  auto pad = [&](size_t bytes) {
    return cluster->client->MakePublicTx(chain::NamedAddress("fig11.pad"), "pad",
                                         Bytes(bytes, 0xab));
  };
  cluster->sim = net;
  cluster->hub.RunUntil(cluster->hub.now_ns() + 1'000'000'000);  // all idle
  const size_t overhead = BlockWireBytes({pad(0)});
  if (!cluster->systems[0]->node()->SubmitTransaction(pad(wire_bytes - overhead)).ok()) {
    std::abort();
  }
  auto ns = cluster->TimedRound(0);
  if (!ns.ok()) std::abort();
  return *ns;
}

/// One proposed block of the workload: its wire size and the measured
/// execution seconds of each conflict group.
struct TimedBlock {
  size_t wire_bytes = 0;
  std::map<uint64_t, double> group_seconds;
};

/// Executes and times each of the kTxTotal ABS transfers once, block by
/// block as ProposeBlock would cut them.
std::vector<TimedBlock> ExecuteWorkload(core::ConfideSystem* sys, core::Client* client) {
  crypto::Drbg rng(7);
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < kTxTotal; ++i) {
    std::string name = "abs-" + std::to_string(i % kAbsInstances);
    auto sub = client->MakeConfidentialTx(chain::NamedAddress(name), "abs_transfer",
                                          workloads::MakeAbsAssetFlat(&rng, i));
    txs.push_back(sub->tx);
  }
  auto* engine = sys->confidential_engine();
  for (const chain::Transaction& tx : txs) (void)engine->PreVerify(tx);

  chain::EngineSet engines;
  engines.public_engine = sys->public_engine();
  engines.confidential_engine = engine;

  chain::CommitStateDb* state = sys->node()->state();
  std::vector<TimedBlock> timed;
  for (const std::vector<size_t>& block : PartitionIntoBlocks(txs, kBlockBytes)) {
    // The LPT makespan schedules conflict *groups*; assert they are
    // exactly the groups the real parallel executor would schedule for
    // this block (they can drift apart if the engine's conflict-key cache
    // and the executor's grouping disagree).
    std::vector<chain::Transaction> block_txs;
    for (size_t index : block) block_txs.push_back(txs[index]);
    auto executor_groups =
        chain::BlockExecutor::GroupByConflictKey(block_txs, engines);
    if (!executor_groups.ok()) std::abort();

    TimedBlock& out = timed.emplace_back();
    std::map<uint64_t, std::vector<size_t>> simulated_groups;
    for (size_t i = 0; i < block.size(); ++i) {
      const chain::Transaction& tx = txs[block[i]];
      // Query before Execute, like BlockExecutor: the engine evicts the
      // cached conflict key on execution (bounded residency).
      uint64_t group = engine->ConflictKey(tx);
      simulated_groups[group].push_back(i);
      out.group_seconds[group] += TimeSeconds([&] {
        auto receipt = engine->Execute(tx, state);
        if (!receipt.ok() || !receipt->success) std::abort();
      });
    }
    if (simulated_groups != *executor_groups) {
      std::printf("MISMATCH: LPT-simulated conflict grouping differs from "
                  "BlockExecutor::GroupByConflictKey for a %zu-tx block\n",
                  block.size());
      std::exit(1);
    }
    (void)state->Commit();
    out.wire_bytes = BlockWireBytes(std::move(block_txs));
  }
  return timed;
}

/// Throughput of one config: per block, makespan(k) of the measured group
/// times + the block's PBFT round on `cluster` over `net` + the 6 ms write.
double ConfigTps(const std::vector<TimedBlock>& timed, net::SimCluster* cluster,
                 const chain::NetworkSim& net, uint32_t threads) {
  double total_seconds = 0;
  for (const TimedBlock& block : timed) {
    const uint64_t consensus_ns = ConsensusNs(cluster, net, block.wire_bytes);
    total_seconds +=
        Makespan(block.group_seconds, threads) + double(consensus_ns) / 1e9 + 0.006;
  }
  return double(kTxTotal) / total_seconds;
}

}  // namespace

int main() {
  std::printf("== Figure 11: scalability with the ABS workload (tx/s) ==\n");
  std::printf("%d confidential ABS transfers, each executed and timed once; "
              "per-block time = exec makespan(k) + PBFT (ClusterNode rounds, "
              "virtual time) + 6ms SSD write\n\n",
              kTxTotal);

  // One system serves all configs (execution cost does not depend on the
  // simulated cluster size; consensus does).
  core::SystemOptions options;
  options.seed = 40'000;
  options.block_max_bytes = kBlockBytes;
  // Figure 11 is the *paper's* system, which predates OPT5: with batched
  // state ocalls on, per-tx execution shrinks until the fixed per-block
  // costs (PBFT + SSD write) dominate and k-way speedup flattens out.
  // The OPT5 rung is measured separately by bench_fig12_abs_opts.
  options.cs.enable_ocall_batching = false;
  auto sys = MustBootstrap(options);
  core::Client client(5, sys->pk_tx());
  for (int i = 0; i < kAbsInstances; ++i) {
    std::string name = "abs-" + std::to_string(i);
    MustDeploy(sys.get(), &client, name, workloads::AbsContractSource(), true);
    MustCall(sys.get(), &client, name, "abs_seed_whitelist", Bytes{});
  }
  const std::vector<TimedBlock> timed = ExecuteWorkload(sys.get(), &client);

  const size_t kNodes[] = {4, 8, 12, 16, 20};
  struct Series {
    const char* label;
    uint32_t threads;
    bool two_zone;
  };
  const Series kSeries[] = {
      {"1-thread", 1, false},
      {"4-thread", 4, false},
      {"6-thread", 6, false},
      {"2-zones(4thr)", 4, true},
  };

  // Cluster size is the outer loop so one replication cluster is alive at
  // a time; each series replays the timed blocks' rounds through it.
  double tps[4][5];
  for (size_t ni = 0; ni < 5; ++ni) {
    core::SystemOptions node_options;
    node_options.seed = 42'000;
    net::SimCluster cluster(kNodes[ni], node_options);
    if (!cluster.status.ok()) std::abort();
    for (size_t s = 0; s < 4; ++s) {
      const chain::NetworkSim net = kSeries[s].two_zone
                                        ? chain::NetworkSim::TwoZone(kNodes[ni])
                                        : chain::NetworkSim::SingleZone(kNodes[ni]);
      tps[s][ni] = ConfigTps(timed, &cluster, net, kSeries[s].threads);
    }
  }

  std::printf("%-15s", "nodes");
  for (size_t n : kNodes) std::printf("%10zu", n);
  std::printf("\n");
  for (size_t s = 0; s < 4; ++s) {
    std::printf("%-15s", kSeries[s].label);
    for (size_t ni = 0; ni < 5; ++ni) std::printf("%10.1f", tps[s][ni]);
    std::printf("\n");
  }

  std::printf("\nshape checks (paper Figure 11):\n");
  bool flat = true;
  for (size_t s = 0; s < 3; ++s) {
    double lo = tps[s][0], hi = tps[s][0];
    for (size_t ni = 1; ni < 5; ++ni) {
      lo = std::min(lo, tps[s][ni]);
      hi = std::max(hi, tps[s][ni]);
    }
    bool this_flat = hi / lo < 1.6;
    std::printf("  %-15s flat across 4..20 nodes: %s (max/min %.2f)\n",
                kSeries[s].label, this_flat ? "yes" : "NO", hi / lo);
    flat = flat && this_flat;
  }
  double speedup4 = tps[1][0] / tps[0][0];
  double speedup6 = tps[2][0] / tps[1][0];
  std::printf("  4-way vs 1-way speedup: %.2fx (paper: ~2x)\n", speedup4);
  std::printf("  6-way vs 4-way speedup: %.2fx (paper: ~1x, no further gain)\n",
              speedup6);
  bool zone_degrades = tps[3][4] < tps[3][0] * 0.9 && tps[3][4] < tps[1][4];
  std::printf("  two-zone degrades with node count and vs single zone: %s "
              "(%.1f -> %.1f tx/s)\n",
              zone_degrades ? "yes" : "NO", tps[3][0], tps[3][4]);

  bool ok = flat && speedup4 > 1.4 && speedup6 < 1.35 && zone_degrades;
  std::printf("overall: %s\n", ok ? "PASS" : "MISMATCH");
  confide::bench::DumpMetrics();
  return ok ? 0 : 1;
}
