/// \file trace.cc
/// \brief The traced run: replays a workload's generated transactions on
/// an in-process 4-node ClusterNode/SimHub cluster and times each call
/// the benchmark makes into a layer's public functions. Every span also
/// records the deltas of a fixed set of registry counters, so a count
/// lands on the call that did the work.
///
/// Phases (each a list of top-level spans; their sum over the phases'
/// wall time is the trace coverage):
///  1. cluster replay, untimed: arrivals on the Poisson schedule in
///     virtual time; each round is the leader's loop (pre-verify, propose,
///     deliver every frame), and virtual time advances by the round's real
///     duration — with the four nodes' delivery counted as running in
///     parallel, as deployed — or by the 20 ms tick when the pools are
///     empty. The rounds found here fix the batching of phase 2.
///  2. the same rounds on two fresh clusters, alternating round by round:
///     one untimed, one timed — Node::SubmitTransaction, Node::PreVerify,
///     ClusterNode::ProposeOnce, SimHub::DeliverAll. The traced wall time
///     against the untimed one is the tracing overhead.
///  3. the committed blocks replayed through Node::ApplyBlock on a
///     WAL-backed node whose engines are timing decorators; then each
///     transaction pre-verified through the same decorators.
///  4. Node::GetReceipt, TransactionRef::Decode, Block::Serialize (in 3),
///     and the crypto primitives on the workload's own bytes.

#include <array>
#include <filesystem>

#include "chain/network.h"
#include "common/metrics.h"
#include "confide/system.h"
#include "crypto/gcm.h"
#include "crypto/secp256k1.h"
#include "drive.h"
#include "net/cluster.h"
#include "net/sim_transport.h"

namespace perfbench {

using namespace confide;

namespace {

constexpr uint32_t kNodes = 4;
constexpr uint64_t kTickNs = 20'000'000;   // confided --tick-ms=20
constexpr size_t kBlockMaxBytes = 64 * 1024;
/// Transactions replayed in process: a prefix of the schedule, so the
/// traced run stays a fraction of the deployed one.
constexpr size_t kReplayTxs = 1500;
constexpr size_t kReceiptLookups = 1000;
constexpr size_t kCryptoSamples = 200;

// ---------------------------------------------------------------------------
// Spans with counter deltas
// ---------------------------------------------------------------------------

enum CounterId {
  kEcdsaVerify,
  kEcdh,
  kShaBytes,
  kTeeTransitions,
  kBoundaryCopied,
  kBoundaryViewed,
  kNetBytes,
  kWalBytes,
  kLsmReads,
  kLsmProbed,
  kExecNs,  ///< sum of chain.block.execute.latency_ns
  kCounterCount
};
using Counts = std::array<uint64_t, kCounterCount>;

class Probe {
 public:
  Probe() {
    const char* names[] = {"crypto.ecdsa.verify.count", "crypto.ecdh.count",
                           "crypto.sha256.bytes",       "tee.transition.count",
                           "tee.boundary.bytes_copied", "tee.boundary.bytes_viewed",
                           "net.send.bytes",            "storage.wal.append.bytes",
                           "storage.lsm.read.count",    "storage.lsm.read.structures_probed"};
    for (size_t i = 0; i < kExecNs; ++i) counters_[i] = metrics::GetCounter(names[i]);
    exec_ = metrics::GetHistogram("chain.block.execute.latency_ns");
  }

  Counts Read() const {
    Counts c{};
    for (size_t i = 0; i < kExecNs; ++i) c[i] = counters_[i]->Value();
    c[kExecNs] = exec_->sum();
    return c;
  }

 private:
  std::array<metrics::Counter*, kExecNs> counters_{};
  metrics::Histogram* exec_ = nullptr;
};

/// One span kind: total and longest duration, calls, counter deltas.
struct SpanStats {
  double ns = 0;
  double max_ns = 0;
  uint64_t calls = 0;
  Counts delta{};

  double MeanNs() const { return calls ? ns / double(calls) : 0; }
};

/// Runs `fn` as one span of `stats`; `probe` (may be null for micro
/// spans) attributes counter deltas to it.
template <typename Fn>
auto Timed(SpanStats* stats, const Probe* probe, Fn&& fn) {
  const Counts before = probe ? probe->Read() : Counts{};
  const uint64_t t0 = NowNs();
  auto result = fn();
  const double dt = double(NowNs() - t0);
  if (probe) {
    const Counts after = probe->Read();
    for (size_t i = 0; i < kCounterCount; ++i) stats->delta[i] += after[i] - before[i];
  }
  stats->ns += dt;
  stats->max_ns = std::max(stats->max_ns, dt);
  ++stats->calls;
  return result;
}

/// Timing decorator around one execution engine.
class TimedEngine : public chain::ExecutionEngine {
 public:
  TimedEngine(chain::ExecutionEngine* inner, const Probe* probe)
      : inner_(inner), probe_(probe) {}

  using chain::ExecutionEngine::Execute;

  Result<bool> PreVerify(const chain::Transaction& tx) override {
    if (!recording) return inner_->PreVerify(tx);
    return Timed(&preverify, probe_, [&] { return inner_->PreVerify(tx); });
  }

  Result<chain::Receipt> Execute(const chain::Transaction& tx, chain::StateDb* state,
                                 chain::TxTouchSet* touch) override {
    if (!recording) return inner_->Execute(tx, state, touch);
    return Timed(&execute, probe_, [&] { return inner_->Execute(tx, state, touch); });
  }

  uint64_t ConflictKey(const chain::Transaction& tx) override {
    return inner_->ConflictKey(tx);
  }

  bool recording = false;
  SpanStats preverify;
  SpanStats execute;

 private:
  chain::ExecutionEngine* inner_;
  const Probe* probe_;
};

// ---------------------------------------------------------------------------
// In-process cluster
// ---------------------------------------------------------------------------

core::SystemOptions NodeSystemOptions(uint64_t seed) {
  core::SystemOptions options;
  options.seed = ConsortiumSeed(seed);
  options.block_max_bytes = kBlockMaxBytes;
  return options;
}

/// Four ClusterNodes over one SimHub. Members are declared in the order
/// their users need them alive (nodes stop before systems and the hub).
struct SimCluster {
  explicit SimCluster(uint64_t hub_seed)
      : sim(chain::NetworkSim::SingleZone(kNodes)), hub(&sim, hub_seed) {}
  ~SimCluster() {
    for (auto& node : nodes) node->Stop();
  }
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  chain::Node* leader() { return systems[0]->node(); }

  chain::NetworkSim sim;
  net::SimHub hub;
  std::vector<std::unique_ptr<core::ConfideSystem>> systems;
  std::vector<std::unique_ptr<net::ClusterNode>> nodes;
};

/// Boots the cluster and commits the set-up deploys.
Result<std::unique_ptr<SimCluster>> BootCluster(const TxSet& set) {
  auto c = std::make_unique<SimCluster>(set.seed);
  for (uint32_t i = 0; i < kNodes; ++i) {
    CONFIDE_ASSIGN_OR_RETURN(auto sys,
                             core::ConfideSystem::BootstrapFirst(NodeSystemOptions(set.seed)));
    c->systems.push_back(std::move(sys));
    c->nodes.push_back(std::make_unique<net::ClusterNode>(
        c->systems[i].get(), std::make_unique<net::SimTransport>(&c->hub, i)));
    CONFIDE_RETURN_NOT_OK(c->nodes[i]->Start());
  }
  for (const GenTx& d : set.deploys) {
    CONFIDE_ASSIGN_OR_RETURN(chain::Transaction tx, chain::Transaction::Deserialize(d.wire));
    CONFIDE_RETURN_NOT_OK(c->leader()->SubmitTransaction(std::move(tx)));
  }
  while (c->leader()->UnverifiedPoolSize() + c->leader()->VerifiedPoolSize() > 0) {
    CONFIDE_RETURN_NOT_OK(c->nodes[0]->ProposeOnce().status());
    c->hub.DeliverAll();
  }
  CONFIDE_ASSIGN_OR_RETURN(chain::Receipt r, c->leader()->GetReceipt(set.deploys[0].hash));
  if (!r.success) return Status::Internal("in-process deploy failed: " + r.status_message);
  return c;
}

/// Phase 1 output: how many arrivals had been submitted before each
/// round, and the virtual-time pool wait.
struct Rounds {
  std::vector<size_t> submitted_before;
  double pool_wait_ns = 0;
};

struct ClusterSpans {
  SpanStats submit, preverify, propose, deliver;
  uint64_t verified = 0;
  uint64_t frames = 0;
  uint64_t wall_ns = 0;
};

/// One leader round: pre-verify, propose, deliver to quiescence. Spans
/// are recorded when `spans` is set. Returns the time spent delivering;
/// fails when the block does not commit on the leader.
Result<uint64_t> LeaderRound(SimCluster* c, const Probe* probe, ClusterSpans* spans) {
  Result<size_t> verified = size_t(0);
  Result<uint64_t> seq = uint64_t(0);
  if (spans != nullptr) {
    verified = Timed(&spans->preverify, probe, [&] { return c->leader()->PreVerify(); });
    seq = Timed(&spans->propose, probe, [&] { return c->nodes[0]->ProposeOnce(); });
  } else {
    verified = c->leader()->PreVerify();
    seq = c->nodes[0]->ProposeOnce();
  }
  CONFIDE_RETURN_NOT_OK(verified.status());
  CONFIDE_RETURN_NOT_OK(seq.status());
  const uint64_t d0 = NowNs();
  const size_t frames = spans != nullptr
                            ? Timed(&spans->deliver, probe, [&] { return c->hub.DeliverAll(); })
                            : c->hub.DeliverAll();
  const uint64_t deliver_ns = NowNs() - d0;
  if (spans != nullptr) {
    spans->verified += *verified;
    spans->frames += frames;
  }
  if (c->nodes[0]->Height() <= *seq) {
    return Status::Internal("in-process block " + std::to_string(*seq) + " did not commit");
  }
  return deliver_ns;
}

/// Phase 1: the virtual-time replay that fixes the rounds.
Result<Rounds> ReplayUntimed(SimCluster* c, const std::vector<chain::Transaction>& txs,
                             const std::vector<uint64_t>& at) {
  Rounds rounds;
  uint64_t virtual_ns = 0;
  size_t next = 0, waiting_from = 0;
  for (;;) {
    while (next < txs.size() && at[next] <= virtual_ns) {
      CONFIDE_RETURN_NOT_OK(c->leader()->SubmitTransaction(txs[next]));
      ++next;
    }
    if (c->leader()->UnverifiedPoolSize() + c->leader()->VerifiedPoolSize() == 0) {
      if (next == txs.size()) break;
      virtual_ns += kTickNs;  // the leader sleeps a tick on an empty pool
      continue;
    }
    for (; waiting_from < next; ++waiting_from) {
      rounds.pool_wait_ns += double(virtual_ns - at[waiting_from]);
    }
    rounds.submitted_before.push_back(next);
    // The deployed nodes apply in parallel; here they take turns inside
    // DeliverAll, so the round's virtual length counts a 1/kNodes share.
    const uint64_t r0 = NowNs();
    CONFIDE_ASSIGN_OR_RETURN(uint64_t deliver_ns, LeaderRound(c, nullptr, nullptr));
    virtual_ns += NowNs() - r0 - deliver_ns + deliver_ns / kNodes;
  }
  return rounds;
}

/// Submits arrivals [*next, upto) and runs one leader round; spans are
/// recorded when `spans` is set.
Status ReplayRound(SimCluster* c, const std::vector<chain::Transaction>& txs, size_t upto,
                   size_t* next, const Probe* probe, ClusterSpans* spans) {
  for (; *next < upto; ++*next) {
    const chain::Transaction& tx = txs[*next];
    CONFIDE_RETURN_NOT_OK(
        spans ? Timed(&spans->submit, probe, [&] { return c->leader()->SubmitTransaction(tx); })
              : c->leader()->SubmitTransaction(tx));
  }
  return LeaderRound(c, probe, spans).status();
}

/// Phase 2: the rounds of phase 1 on two fresh clusters, alternating round
/// by round: bare on `bare`, every call a span on `traced`. Interleaving
/// exposes both to the same machine state, so the wall-time difference
/// is the tracing overhead rather than drift between two passes.
Result<ClusterSpans> ReplayPaired(SimCluster* bare, SimCluster* traced,
                                  const std::vector<chain::Transaction>& txs,
                                  const Rounds& rounds, const Probe& probe,
                                  uint64_t* bare_wall_ns) {
  ClusterSpans spans;
  size_t bare_next = 0, traced_next = 0;
  *bare_wall_ns = 0;
  for (size_t upto : rounds.submitted_before) {
    uint64_t t0 = NowNs();
    CONFIDE_RETURN_NOT_OK(ReplayRound(bare, txs, upto, &bare_next, nullptr, nullptr));
    *bare_wall_ns += NowNs() - t0;
    t0 = NowNs();
    CONFIDE_RETURN_NOT_OK(ReplayRound(traced, txs, upto, &traced_next, &probe, &spans));
    spans.wall_ns += NowNs() - t0;
  }
  return spans;
}

}  // namespace

void RunTrace(const TxSet& set, const std::string& workdir, Report* report) {
  const size_t r = std::min(set.txs.size(), kReplayTxs);
  std::vector<chain::Transaction> txs;
  std::vector<uint64_t> at;
  size_t conf = 0;
  for (size_t i = 0; i < r; ++i) {
    auto tx = chain::Transaction::Deserialize(set.txs[i].wire);
    if (!tx.ok()) {
      report->Fail("generated transaction does not decode: " + tx.status().ToString());
      return;
    }
    txs.push_back(std::move(*tx));
    at.push_back(set.txs[i].at_ns);
    conf += set.txs[i].confidential ? 1 : 0;
  }
  const double n_tx = double(r);
  const double n_conf = double(conf);
  Probe probe;

  // Phase 1 fixes the rounds; phase 2 replays them bare and traced.
  Rounds rounds;
  {
    auto booted = BootCluster(set);
    auto found = booted.ok() ? ReplayUntimed(booted->get(), txs, at)
                             : Result<Rounds>(booted.status());
    if (!found.ok()) {
      report->Fail("untimed replay: " + found.status().ToString());
      return;
    }
    rounds = std::move(*found);
  }
  auto bare = BootCluster(set);
  auto booted = BootCluster(set);
  if (!bare.ok() || !booted.ok()) {
    report->Fail("cluster boot: " + (bare.ok() ? booted : bare).status().ToString());
    return;
  }
  SimCluster* cluster = booted->get();
  const uint64_t deploy_height = cluster->nodes[0]->Height();
  uint64_t bare_wall_ns = 0;
  auto timed = ReplayPaired(bare->get(), cluster, txs, rounds, probe, &bare_wall_ns);
  bare->reset();
  if (!timed.ok()) {
    report->Fail("timed replay: " + timed.status().ToString());
    return;
  }
  const ClusterSpans& cs = *timed;
  const double blocks = double(rounds.submitted_before.size());
  for (uint32_t i = 1; i < kNodes; ++i) {
    if (cluster->nodes[i]->Height() != cluster->nodes[0]->Height() ||
        cluster->nodes[i]->TipHash() != cluster->nodes[0]->TipHash()) {
      report->Fail("in-process node " + std::to_string(i) + " diverged from the leader");
    }
  }

  // Phase 3: committed blocks through ApplyBlock on a decorated node.
  auto engines_sys = core::ConfideSystem::BootstrapFirst(NodeSystemOptions(set.seed));
  if (!engines_sys.ok()) {
    report->Fail("replay bootstrap: " + engines_sys.status().ToString());
    return;
  }
  TimedEngine pub((*engines_sys)->public_engine(), &probe);
  TimedEngine cfd((*engines_sys)->confidential_engine(), &probe);
  const std::string replay_dir = workdir + "/replay-node";
  std::error_code ec;
  std::filesystem::remove_all(replay_dir, ec);
  std::filesystem::create_directories(replay_dir, ec);
  chain::NodeOptions node_options;
  node_options.block_max_bytes = kBlockMaxBytes;
  node_options.state_wal_dir = replay_dir;
  auto replay_node = chain::Node::Create(node_options, chain::EngineSet{&pub, &cfd});
  if (!replay_node.ok()) {
    report->Fail("replay node: " + replay_node.status().ToString());
    return;
  }
  SpanStats apply, encode;
  uint64_t apply_wall = 0;
  std::vector<chain::Block> workload_blocks;
  for (uint64_t h = 0; h < cluster->nodes[0]->Height(); ++h) {
    auto wire = cluster->leader()->blocks()->GetByHeight(h);
    auto block = wire.ok() ? chain::Block::Deserialize(*wire) : Result<chain::Block>(wire.status());
    if (!block.ok()) {
      report->Fail("committed block " + std::to_string(h) + " unreadable");
      return;
    }
    if (h < deploy_height) {
      if (!(*replay_node)->ApplyBlock(*block).ok()) report->Fail("deploy block replay failed");
      continue;
    }
    pub.recording = cfd.recording = true;
    const uint64_t w0 = NowNs();
    Timed(&encode, nullptr, [&] { return block->Serialize(); });
    auto receipts = Timed(&apply, &probe, [&] { return (*replay_node)->ApplyBlock(*block); });
    apply_wall += NowNs() - w0;
    pub.recording = cfd.recording = false;
    if (!receipts.ok()) {
      report->Fail("block replay at " + std::to_string(h) + ": " + receipts.status().ToString());
      return;
    }
    workload_blocks.push_back(std::move(*block));
  }
  if ((*replay_node)->TipHash() != cluster->nodes[0]->TipHash()) {
    report->Fail("block replay reached a different tip hash than the cluster");
  }
  // Pre-verify after the apply pass, so the confidential engine's
  // pre-verify cache cannot make the replayed execution look cheaper.
  pub.recording = cfd.recording = true;
  const uint64_t pv0 = NowNs();
  for (const chain::Block& block : workload_blocks) {
    for (const chain::Transaction& tx : block.transactions) {
      auto ok = (tx.type == chain::TxType::kConfidential ? cfd : pub).PreVerify(tx);
      if (!ok.ok() || !*ok) report->Fail("a committed transaction fails pre-verification");
    }
  }
  const uint64_t preverify_wall = NowNs() - pv0;
  pub.recording = cfd.recording = false;

  // Phase 4: reads, decode, crypto on the workload's own bytes.
  SpanStats receipt_span, decode, verify, ecdh, gcm, sha;
  const uint64_t p4 = NowNs();
  for (size_t k = 0; k < std::min(kReceiptLookups, r); ++k) {
    const GenTx& tx = set.txs[k * r / std::min(kReceiptLookups, r)];
    auto receipt = Timed(&receipt_span, nullptr,
                         [&] { return cluster->leader()->GetReceipt(tx.hash); });
    if (!receipt.ok()) report->Fail("in-process receipt missing");
  }
  for (size_t i = 0; i < r; ++i) {
    auto ref = Timed(&decode, nullptr,
                     [&] { return chain::TransactionRef::Decode(set.txs[i].wire); });
    if (!ref.ok()) report->Fail("TransactionRef::Decode rejected a generated transaction");
  }
  std::vector<const chain::Transaction*> signed_txs;
  for (const chain::Transaction& tx : txs) {
    if (tx.type == chain::TxType::kPublic && signed_txs.size() < kCryptoSamples) {
      signed_txs.push_back(&tx);
    }
  }
  auto deploy_tx = chain::Transaction::Deserialize(set.deploys[0].wire);
  if (signed_txs.empty() && deploy_tx.ok()) signed_txs.push_back(&*deploy_tx);
  for (const chain::Transaction* tx : signed_txs) {
    const crypto::Hash256 digest = tx->SigningHash();
    const bool ok = Timed(&verify, nullptr,
                          [&] { return crypto::EcdsaVerify(tx->sender, digest, tx->signature); });
    if (!ok) report->Fail("a generated signature does not verify");
  }
  crypto::Drbg key_rng(set.seed ^ 0xECD4ull);
  const crypto::PublicKey pk_tx = (*engines_sys)->pk_tx();
  for (size_t k = 0; k < kCryptoSamples / 2; ++k) {
    const crypto::KeyPair ephemeral = crypto::GenerateKeyPair(&key_rng);
    auto shared = Timed(&ecdh, nullptr,
                        [&] { return crypto::EcdhSharedSecret(ephemeral.priv, pk_tx); });
    if (!shared.ok()) report->Fail("ECDH failed");
  }
  auto aead = crypto::AesGcm::Create(key_rng.Generate(32));
  const Bytes iv = key_rng.Generate(crypto::kGcmIvSize);
  double gcm_bytes = 0, sha_bytes = 0;
  for (size_t i = 0; i < std::min(r, kCryptoSamples) && aead.ok(); ++i) {
    const Bytes& wire = set.txs[i].wire;
    auto sealed = Timed(&gcm, nullptr, [&] { return aead->Seal(iv, wire, ByteView()); });
    if (!sealed.ok()) report->Fail("AES-GCM seal failed");
    Timed(&sha, nullptr, [&] { return crypto::Sha256::Digest(wire); });
    gcm_bytes += double(wire.size());
    sha_bytes += double(wire.size());
  }
  const uint64_t p4_wall = NowNs() - p4;

  // ---- Metrics --------------------------------------------------------
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const SpanStats& cpre = cfd.preverify;
  const SpanStats& cexe = cfd.execute;

  report->Add("chain.pool_wait_ms", per(rounds.pool_wait_ns, n_tx) / 1e6, "ms");
  report->Add("chain.preverify_us_per_tx", per(cs.preverify.ns, double(cs.verified)) / 1e3,
              "us/tx");
  report->Add("chain.preverify_call_max_ms", cs.preverify.max_ns / 1e6, "ms");
  report->Add("chain.propose_us_per_block", per(cs.propose.ns, blocks) / 1e3, "us/block");
  report->Add("chain.apply_us_per_tx", per(apply.ns, n_tx) / 1e3, "us/tx");
  report->Add("chain.block_txs", per(n_tx, blocks), "tx/block");
  report->Add("chain.get_receipt_us", receipt_span.MeanNs() / 1e3, "us");

  report->Add("net.consensus_us_per_block",
              per(cs.deliver.ns - double(cs.deliver.delta[kExecNs]), blocks) / 1e3,
              "us/block");
  report->Add("net.frames_per_block", per(double(cs.frames), blocks), "frames/block");
  report->Add("net.bytes_per_tx",
              per(double(cs.propose.delta[kNetBytes] + cs.deliver.delta[kNetBytes]), n_tx),
              "B/tx");

  report->Add("confide.preverify_us_per_conf_tx", per(cpre.ns, n_conf) / 1e3, "us/tx");
  report->Add("confide.execute_us_per_conf_tx", per(cexe.ns, n_conf) / 1e3, "us/tx");
  report->Add("confide.public_execute_us_per_tx", per(pub.execute.ns, n_tx - n_conf) / 1e3,
              "us/tx");
  report->Add("tee.transitions_per_conf_tx",
              per(double(cpre.delta[kTeeTransitions] + cexe.delta[kTeeTransitions]), n_conf),
              "count/tx");
  // Bytes crossing the enclave boundary, copied or viewed in place.
  report->Add("tee.boundary_bytes_per_conf_tx",
              per(double(cpre.delta[kBoundaryCopied] + cexe.delta[kBoundaryCopied] +
                         cpre.delta[kBoundaryViewed] + cexe.delta[kBoundaryViewed]),
                  n_conf),
              "B/tx");

  // Leader-side counts: its pre-verify, plus its own apply inside
  // DeliverAll — the deliver delta minus three replicas, each of which
  // does exactly what the replay node did.
  auto leader_count = [&](CounterId id) {
    return double(cs.preverify.delta[id] + cs.deliver.delta[id]) -
           double(kNodes - 1) * double(apply.delta[id]);
  };
  report->Add("crypto.ecdsa_verify_per_tx", per(leader_count(kEcdsaVerify), n_tx), "count/tx");
  report->Add("crypto.ecdh_per_conf_tx", per(leader_count(kEcdh), n_conf), "count/tx");
  report->Add("crypto.sha256_bytes_per_tx", per(double(apply.delta[kShaBytes]), n_tx), "B/tx");
  report->Add("crypto.ecdsa_verify_us", verify.MeanNs() / 1e3, "us");
  report->Add("crypto.ecdh_us", ecdh.MeanNs() / 1e3, "us");
  report->Add("crypto.gcm_mb_s", per(gcm_bytes, gcm.ns) * 1e3, "MB/s");
  report->Add("crypto.sha256_mb_s", per(sha_bytes, sha.ns) * 1e3, "MB/s");

  report->Add("serialize.tx_decode_us", decode.MeanNs() / 1e3, "us");
  report->Add("serialize.block_encode_us_per_tx", per(encode.ns, n_tx) / 1e3, "us/tx");

  report->Add("storage.wal_bytes_per_tx", per(double(apply.delta[kWalBytes]), n_tx), "B/tx");
  report->Add("storage.reads_per_tx", per(double(apply.delta[kLsmReads]), n_tx), "count/tx");
  report->Add("storage.read_amp",
              per(double(apply.delta[kLsmProbed]), double(apply.delta[kLsmReads])), "ratio");

  // Coverage: top-level spans over the wall time of the phases they ran
  // in. The decorator spans inside ApplyBlock are its children, not
  // added again.
  const double spans_ns = cs.submit.ns + cs.preverify.ns + cs.propose.ns + cs.deliver.ns +
                          apply.ns + encode.ns + cpre.ns + pub.preverify.ns +
                          receipt_span.ns + decode.ns + verify.ns + ecdh.ns + gcm.ns + sha.ns;
  const double wall_ns = double(cs.wall_ns + apply_wall + preverify_wall + p4_wall);
  report->Add("bench.trace_coverage_pct", per(spans_ns, wall_ns) * 100, "%");
  report->Add("bench.trace_overhead_pct",
              per(double(cs.wall_ns) - double(bare_wall_ns), double(bare_wall_ns)) * 100,
              "%");
  std::fprintf(stderr,
               "trace: %zu of %zu txs replayed (%zu confidential) in %.0f blocks; "
               "cluster replay %.2fs untimed, %.2fs traced; apply replay %.2fs; "
               "longest DeliverAll %.1fms, ApplyBlock %.1fms\n",
               r, set.txs.size(), conf, blocks, double(bare_wall_ns) / 1e9,
               double(cs.wall_ns) / 1e9, double(apply_wall) / 1e9, cs.deliver.max_ns / 1e6,
               apply.max_ns / 1e6);
  report->attempted += r;
}

}  // namespace perfbench
