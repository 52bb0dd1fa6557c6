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
/// to be exactly the groups the parallel BlockExecutor schedules.
///
/// `--real-threads` instead measures the *pipelined block lifecycle* as
/// wall time: two identically-seeded systems run the same workload, one
/// with the serial lifecycle and one with pipeline_depth=3 on 4 workers,
/// both paying a real ~6 ms commit wait plus a WAL fsync per block. The
/// pipeline overlaps pre-verify/execute/commit across consecutive
/// blocks, so the measured speedup is reported next to the stage-
/// makespan (LPT-style) prediction, and the post-run state roots of the
/// two systems are asserted identical.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
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

/// The byte-budget block partition ProposeBlock (and pipeline stage 2)
/// uses: first tx always accepted, then until the budget would overflow.
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

double RunConfig(core::ConfideSystem* sys, core::Client* client,
                 net::SimCluster* cluster, const chain::NetworkSim& net,
                 uint32_t threads) {
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

  // Partition into blocks by byte budget, as ProposeBlock would.
  chain::CommitStateDb* state = sys->node()->state();
  double total_seconds = 0;
  size_t executed = 0;
  for (const std::vector<size_t>& block : PartitionIntoBlocks(txs, kBlockBytes)) {
    // The LPT makespan below schedules conflict *groups*; assert they are
    // exactly the groups the real parallel executor would schedule for
    // this block (they can drift apart if the engine's conflict-key cache
    // and the executor's grouping disagree).
    std::vector<chain::Transaction> block_txs;
    for (size_t index : block) block_txs.push_back(txs[index]);
    auto executor_groups =
        chain::BlockExecutor::GroupByConflictKey(block_txs, engines);
    if (!executor_groups.ok()) std::abort();

    std::map<uint64_t, double> group_seconds;
    std::map<uint64_t, std::vector<size_t>> simulated_groups;
    for (size_t i = 0; i < block.size(); ++i) {
      const chain::Transaction& tx = txs[block[i]];
      // Query before Execute, like BlockExecutor: the engine evicts the
      // cached conflict key on execution (bounded residency).
      uint64_t group = engine->ConflictKey(tx);
      simulated_groups[group].push_back(i);
      double secs = TimeSeconds([&] {
        auto receipt = engine->Execute(tx, state);
        if (!receipt.ok() || !receipt->success) std::abort();
      });
      group_seconds[group] += secs;
      ++executed;
    }
    if (simulated_groups != *executor_groups) {
      std::printf("MISMATCH: LPT-simulated conflict grouping differs from "
                  "BlockExecutor::GroupByConflictKey for a %zu-tx block\n",
                  block.size());
      std::exit(1);
    }
    (void)state->Commit();
    double exec_seconds = Makespan(group_seconds, threads);
    const uint64_t consensus_ns =
        ConsensusNs(cluster, net, BlockWireBytes(std::move(block_txs)));
    total_seconds += exec_seconds + double(consensus_ns) / 1e9 + 0.006;
  }
  return double(executed) / total_seconds;
}

int RunSimulated() {
  std::printf("== Figure 11: scalability with the ABS workload (tx/s) ==\n");
  std::printf("%d confidential ABS transfers per config; per-block time = "
              "exec makespan(k) + PBFT (ClusterNode rounds, virtual time) + "
              "6ms SSD write\n\n",
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
  // a time; each series replays its blocks through it.
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
      tps[s][ni] = RunConfig(sys.get(), &client, &cluster, net, kSeries[s].threads);
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

// ---------------------------------------------------------------------------
// --real-threads: measured pipelined lifecycle vs serial, wall clock.
// ---------------------------------------------------------------------------

constexpr uint64_t kCommitLatencyNs = 6'000'000;  // paper §6.4 cloud-SSD write

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/fig11-") + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) std::abort();
  return std::string(buf.data());
}

struct RealRun {
  double seconds = 0;
  double preverify_seconds = 0;  // serial run only (from stage metrics)
  double execute_seconds = 0;
  crypto::Hash256 state_root{};
  uint64_t height = 0;
  size_t receipts = 0;
};

RealRun RunRealWorkload(uint32_t pipeline_depth, size_t block_bytes,
                        int tx_total, const std::string& wal_dir) {
  core::SystemOptions options;
  options.seed = 41'000;
  options.parallelism = 4;  // 4 pipeline workers
  options.pipeline_depth = pipeline_depth;
  options.block_max_bytes = block_bytes;
  options.cs.enable_ocall_batching = false;
  options.sync_commits = true;  // real WAL fsync per commit (group)
  options.commit_write_latency_ns = kCommitLatencyNs;
  options.state_wal_dir = wal_dir;
  // This mode compares fixed depths against each other, so the
  // CONFIDE_PIPELINE_DEPTH CI override must not apply.
  auto sys = MustBootstrap(options, /*honor_env=*/false);
  core::Client client(5, sys->pk_tx());
  for (int i = 0; i < kAbsInstances; ++i) {
    std::string name = "abs-" + std::to_string(i);
    MustDeploy(sys.get(), &client, name, workloads::AbsContractSource(), true);
    MustCall(sys.get(), &client, name, "abs_seed_whitelist", Bytes{});
  }

  crypto::Drbg rng(7);
  for (int i = 0; i < tx_total; ++i) {
    std::string name = "abs-" + std::to_string(i % kAbsInstances);
    auto sub = client.MakeConfidentialTx(chain::NamedAddress(name), "abs_transfer",
                                         workloads::MakeAbsAssetFlat(&rng, i));
    if (!sub.ok() || !sys->node()->SubmitTransaction(sub->tx).ok()) std::abort();
  }

  auto* preverify_hist =
      metrics::GetHistogram("chain.preverify.batch.latency_ns");
  auto* execute_hist = metrics::GetHistogram("chain.block.execute.latency_ns");
  uint64_t preverify_before = preverify_hist->sum();
  uint64_t execute_before = execute_hist->sum();

  RealRun run;
  run.seconds = TimeSeconds([&] {
    auto receipts = sys->RunToCompletion();
    if (!receipts.ok()) {
      std::fprintf(stderr, "real-threads run failed: %s\n",
                   receipts.status().ToString().c_str());
      std::abort();
    }
    run.receipts = receipts->size();
    for (const chain::Receipt& receipt : *receipts) {
      if (!receipt.success) std::abort();
    }
  });
  run.preverify_seconds = double(preverify_hist->sum() - preverify_before) / 1e9;
  run.execute_seconds = double(execute_hist->sum() - execute_before) / 1e9;
  run.state_root = sys->node()->state()->StateRoot();
  run.height = sys->node()->Height();
  return run;
}

int RunRealThreads() {
  std::printf("== Figure 11 (--real-threads): measured pipelined lifecycle ==\n");

  // Calibrate the block byte budget so one block's execution cost lands
  // near the ~6 ms commit wait — the regime where verify/execute/commit
  // overlap pays (a half-empty pipeline would only measure the bubble).
  double per_tx_secs;
  size_t tx_bytes;
  {
    core::SystemOptions options;
    options.seed = 41'000;
    options.cs.enable_ocall_batching = false;
    options.block_max_bytes = kBlockBytes;
    auto sys = MustBootstrap(options, /*honor_env=*/false);
    core::Client client(5, sys->pk_tx());
    MustDeploy(sys.get(), &client, "abs-0", workloads::AbsContractSource(), true);
    MustCall(sys.get(), &client, "abs-0", "abs_seed_whitelist", Bytes{});
    crypto::Drbg rng(7);
    constexpr int kSample = 8;
    double total = 0;
    tx_bytes = 0;
    for (int i = 0; i < kSample; ++i) {
      auto sub = client.MakeConfidentialTx(chain::NamedAddress("abs-0"),
                                           "abs_transfer",
                                           workloads::MakeAbsAssetFlat(&rng, i));
      if (!sub.ok()) std::abort();
      tx_bytes = std::max(tx_bytes, sub->tx.Serialize().size());
      auto* engine = sys->confidential_engine();
      // Time verify + execute together: both are CPU the pipeline must
      // overlap with the commit wait. The block budget is sized so a
      // block's CPU cost lands near *half* the commit latency: the wait
      // is charged once per coalesced commit group, so the serial
      // lifecycle pays it per block while the pipeline amortizes it —
      // small blocks are exactly where group commit earns its keep.
      total += TimeSeconds([&] {
        (void)engine->PreVerify(sub->tx);
        auto receipt = engine->Execute(sub->tx, sys->node()->state());
        if (!receipt.ok() || !receipt->success) std::abort();
      });
    }
    per_tx_secs = total / kSample;
  }
  size_t txs_per_block = std::clamp<size_t>(
      size_t(double(kCommitLatencyNs) / 2e9 / std::max(per_tx_secs, 1e-6)), 2, 48);
  size_t block_bytes = txs_per_block * (tx_bytes + 64);
  constexpr int kBlocks = 16;
  int tx_total = int(txs_per_block) * kBlocks;
  std::printf("calibration: %.2f ms/tx, %zu B/tx -> %zu txs/block x %d blocks "
              "(block budget %zu B)\n",
              per_tx_secs * 1e3, tx_bytes, txs_per_block, kBlocks, block_bytes);

  std::string serial_dir = MakeTempDir("serial");
  std::string pipe_dir = MakeTempDir("pipe");
  RealRun serial = RunRealWorkload(0, block_bytes, tx_total, serial_dir);
  RealRun piped = RunRealWorkload(3, block_bytes, tx_total, pipe_dir);

  double commit_secs =
      std::max(0.0, serial.seconds - serial.preverify_seconds - serial.execute_seconds);
  double bottleneck = std::max(
      {serial.preverify_seconds, serial.execute_seconds, commit_secs});
  double predicted = bottleneck > 0 ? serial.seconds / bottleneck : 1.0;
  double measured = piped.seconds > 0 ? serial.seconds / piped.seconds : 0.0;

  std::printf("\nserial   (depth 0): %7.1f ms  (%zu receipts, height %llu)\n",
              serial.seconds * 1e3, serial.receipts,
              (unsigned long long)serial.height);
  std::printf("pipelined(depth 3): %7.1f ms  (%zu receipts, height %llu)\n",
              piped.seconds * 1e3, piped.receipts,
              (unsigned long long)piped.height);
  std::printf("serial stage split: verify %.1f ms, execute %.1f ms, commit "
              "%.1f ms\n",
              serial.preverify_seconds * 1e3, serial.execute_seconds * 1e3,
              commit_secs * 1e3);
  std::printf("measured block-throughput speedup: %.2fx\n", measured);
  std::printf("stage-makespan (LPT bound) prediction: %.2fx\n", predicted);

  bool roots_equal = serial.state_root == piped.state_root;
  bool heights_equal = serial.height == piped.height;
  bool receipts_equal = serial.receipts == piped.receipts &&
                        serial.receipts == size_t(tx_total);
  std::printf("state roots identical: %s, heights identical: %s, receipts "
              "complete: %s\n",
              roots_equal ? "yes" : "NO", heights_equal ? "yes" : "NO",
              receipts_equal ? "yes" : "NO");

  bool ok = roots_equal && heights_equal && receipts_equal && measured >= 1.5;
  std::printf("overall: %s (gate: speedup >= 1.50x, identical state)\n",
              ok ? "PASS" : "MISMATCH");
  confide::bench::DumpMetrics();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--real-threads") == 0) return RunRealThreads();
  }
  return RunSimulated();
}
