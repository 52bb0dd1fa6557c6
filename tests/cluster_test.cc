/// \file cluster_test.cc
/// \brief Multi-node replication tests for the PBFT-lite cluster layer
/// (net/cluster.h): deterministic 3-node convergence over SimTransport,
/// gap repair after a partition, real-process-shaped TCP clusters inside
/// one test binary, crash/rejoin catch-up, and the HTTP/JSON gateway end
/// to end (confidential submission through sealed-receipt opening).
///
/// All nodes bootstrap BootstrapFirst with the same seed: KM key
/// derivation is a pure function of the seed, so every node holds the
/// same consortium keys — the same shared-seed provisioning contract the
/// `confided` binary documents (docs/OPERATIONS.md §Keys).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "chain/network.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "confide/client.h"
#include "confide/system.h"
#include "lang/compiler.h"
#include "net/cluster.h"
#include "net/frame_client.h"
#include "net/gateway.h"
#include "net/http.h"
#include "net/sim_cluster.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "serialize/json.h"
#include "serialize/rlp.h"
#include "tests/net_test_util.h"

namespace confide::net {
namespace {

using chain::NamedAddress;
using core::Client;
using core::ConfideSystem;
using core::SystemOptions;

constexpr uint64_t kClusterSeed = 21;

constexpr const char* kCounterSource = R"(
fn increment() {
  var key = "counter";
  var buf = alloc(16);
  var n = get_storage(key, strlen(key), buf, 16);
  var value = 0;
  if (n == 8) { value = load64(buf); }
  value = value + 1;
  store64(buf, value);
  set_storage(key, strlen(key), buf, 8);
  var out = alloc(32);
  var len = u64_to_dec(value, out);
  write_output(out, len);
  return value;
}
)";

Bytes DeployPayload(const Bytes& code) {
  return chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, code);
}

Bytes CounterCode() {
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  EXPECT_TRUE(code.ok());
  return *code;
}

SystemOptions ClusterSystemOptions(size_t block_max_bytes = 64 * 1024) {
  SystemOptions options;
  options.seed = kClusterSeed;
  options.block_max_bytes = block_max_bytes;
  return options;
}

std::unique_ptr<ConfideSystem> MakeSystem(size_t block_max_bytes = 64 * 1024) {
  auto sys = ConfideSystem::BootstrapFirst(ClusterSystemOptions(block_max_bytes));
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  return std::move(*sys);
}

bool WaitFor(const std::function<bool()>& pred, uint64_t timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

using testutil::PickPort;

TEST(ClusterQuorumTest, TwoFPlusOne) {
  EXPECT_EQ(ClusterNode::Quorum(1), 1u);
  EXPECT_EQ(ClusterNode::Quorum(2), 1u);  // f = 0: either node commits alone
  EXPECT_EQ(ClusterNode::Quorum(3), 1u);  // f = 0: crash tolerance only
  EXPECT_EQ(ClusterNode::Quorum(4), 3u);  // f = 1
  EXPECT_EQ(ClusterNode::Quorum(7), 5u);  // f = 2
  EXPECT_EQ(ClusterNode::Quorum(10), 7u); // f = 3
}

// ---------------------------------------------------------------------------
// Simulated clusters: deterministic, every delivery explicit
// ---------------------------------------------------------------------------

class SimClusterTest : public ::testing::Test, public SimCluster {
 protected:
  SimClusterTest() : SimCluster(kNodes, ClusterSystemOptions(), {}, /*hub_seed=*/3) {}

  void SetUp() override { ASSERT_TRUE(status.ok()) << status.ToString(); }

  /// Leader proposes, the hub drains every queued frame (votes and their
  /// replies re-enqueue until consensus quiesces).
  uint64_t CommitRound() {
    auto seq = nodes[0]->ProposeOnce();
    EXPECT_TRUE(seq.ok()) << seq.status().ToString();
    hub.DeliverAll();
    return seq.ok() ? *seq : 0;
  }

  void ExpectConverged() {
    for (uint32_t i = 1; i < kNodes; ++i) {
      EXPECT_EQ(nodes[i]->Height(), nodes[0]->Height()) << "node " << i;
      EXPECT_EQ(nodes[i]->TipHash(), nodes[0]->TipHash()) << "node " << i;
    }
  }

  static constexpr uint32_t kNodes = 3;
};

TEST_F(SimClusterTest, ThreeNodesConvergeOnEveryBlock) {
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.counter");
  ASSERT_TRUE(systems[0]
                  ->node()
                  ->SubmitTransaction(
                      client->MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  const uint64_t h0 = nodes[0]->Height();
  CommitRound();
  EXPECT_EQ(nodes[0]->Height(), h0 + 1);
  ExpectConverged();

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(systems[0]
                    ->node()
                    ->SubmitTransaction(client->MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    CommitRound();
    ExpectConverged();
  }
  EXPECT_EQ(nodes[0]->Height(), h0 + 4);
}

TEST_F(SimClusterTest, EmptyPoolsProposeNothing) {
  auto seq = nodes[0]->ProposeOnce();
  EXPECT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hub.pending(), 0u);
}

TEST_F(SimClusterTest, ConfidentialReceiptIsReplicatedAndOpens) {
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.conf");
  auto deploy = client->MakeConfidentialTx(addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(deploy.ok()) << deploy.status().ToString();
  ASSERT_TRUE(systems[0]->node()->SubmitTransaction(deploy->tx).ok());
  CommitRound();

  auto call = client->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(systems[0]->node()->SubmitTransaction(call->tx).ok());
  CommitRound();
  ExpectConverged();

  // Sealing is deterministic, so every replica stores a byte-identical
  // sealed receipt — and the retained k_tx opens any copy.
  const crypto::Hash256 tx_hash = call->tx.Hash();
  Bytes first_wire;
  for (uint32_t i = 0; i < kNodes; ++i) {
    auto receipt = systems[i]->node()->GetReceipt(tx_hash);
    ASSERT_TRUE(receipt.ok()) << "node " << i << ": " << receipt.status().ToString();
    Bytes wire = receipt->Serialize();
    if (i == 0) {
      first_wire = wire;
    } else {
      EXPECT_EQ(wire, first_wire) << "node " << i;
    }
    auto opened = Client::OpenSealedReceipt(call->k_tx, receipt->output);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(opened->success);
    EXPECT_EQ(opened->output, ToBytes(AsByteView("1")));
  }
}

TEST_F(SimClusterTest, PartitionedReplicaRepairsGapViaFetch) {
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.gap");
  ASSERT_TRUE(systems[0]
                  ->node()
                  ->SubmitTransaction(
                      client->MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  CommitRound();
  ExpectConverged();

  // Split node 2 off; it misses the next two blocks.
  ASSERT_TRUE(sim.SetPartition(2, 1).ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(systems[0]
                    ->node()
                    ->SubmitTransaction(client->MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    CommitRound();
  }
  EXPECT_EQ(nodes[2]->Height() + 2, nodes[0]->Height());

  // Heal. The next pre-prepare jumps past node 2's tip, which triggers
  // the kFetchBlocks gap pull; DeliverAll drains fetch + reply + votes.
  sim.HealPartitions();
  ASSERT_TRUE(systems[0]
                  ->node()
                  ->SubmitTransaction(client->MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  CommitRound();
  hub.DeliverAll();
  ExpectConverged();
}

TEST_F(SimClusterTest, LostFetchReplyIsRetriedAfterFetchWait) {
  // Regression: a gap-repair pull whose reply is lost must not switch
  // repair off for good. Once kFetchWaitMs passes on the transport clock
  // the next trigger pulls again, and the replica converges.
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.lost-fetch");
  auto submit = [&](const std::string& entry, Bytes input) {
    ASSERT_TRUE(systems[0]
                    ->node()
                    ->SubmitTransaction(client->MakePublicTx(addr, entry, input))
                    .ok());
  };
  submit(chain::ContractRegistry::kDeployEntry, DeployPayload(code));
  CommitRound();
  ExpectConverged();

  ASSERT_TRUE(sim.SetPartition(2, 1).ok());
  for (int round = 0; round < 2; ++round) {
    submit("increment", Bytes{});
    CommitRound();
  }
  sim.HealPartitions();

  // Deliver until node 2 asks for the gap, then cut it off again: the
  // request reaches the leader, the reply is lost on the way back.
  submit("increment", Bytes{});
  ASSERT_TRUE(nodes[0]->ProposeOnce().ok());
  while (!nodes[2]->fetch_in_flight_for_test() && hub.DeliverOne()) {
  }
  ASSERT_TRUE(nodes[2]->fetch_in_flight_for_test());
  ASSERT_TRUE(sim.SetPartition(2, 1).ok());
  hub.DeliverAll();
  sim.HealPartitions();
  EXPECT_LT(nodes[2]->Height(), nodes[0]->Height());

  const uint64_t fetch_wait_ns = kFetchWaitMs * 1'000'000;
  hub.RunUntil(hub.now_ns() + fetch_wait_ns + 1'000'000);
  EXPECT_FALSE(nodes[2]->fetch_in_flight_for_test());
  submit("increment", Bytes{});
  CommitRound();
  hub.DeliverAll();
  ExpectConverged();
}

TEST_F(SimClusterTest, SubmitPlaneRoutesThroughFrames) {
  // A client frame (kSubmitTx) delivered to the leader must land in its
  // pools and be rejected with a structured ack when malformed.
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.frames");
  chain::Transaction tx =
      client->MakePublicTx(addr, "__deploy__", DeployPayload(code));

  SimTransport client_endpoint(&hub, 2);  // borrow node 2's id slot
  nodes[2]->Stop();
  std::optional<OwnedFrame> ack;
  client_endpoint.SetHandler(
      [&](uint32_t, MsgType type, ByteView body) -> std::optional<OwnedFrame> {
        ack = OwnedFrame{type, ToBytes(body)};
        return std::nullopt;
      });
  ASSERT_TRUE(client_endpoint.Start().ok());

  ASSERT_TRUE(client_endpoint.Send(0, MsgType::kSubmitTx, tx.Serialize()).ok());
  hub.DeliverAll();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kSubmitTxAck);
  auto r = serialize::RlpReader::AtList(ack->body);
  ASSERT_TRUE(r.ok());
  auto accepted = r->NextU64();
  auto hash = r->NextFixed(32, "tx hash");
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(*accepted, 1u);
  EXPECT_EQ(ToBytes(*hash), ToBytes(ByteView(tx.Hash().data(), 32)));
  EXPECT_EQ(systems[0]->node()->UnverifiedPoolSize() +
                systems[0]->node()->VerifiedPoolSize(),
            1u);

  // A frame that is not a decodable transaction earns a structured
  // kError reply (docs/WIRE_PROTOCOL.md §Error frames), not silence.
  ack.reset();
  ASSERT_TRUE(client_endpoint.Send(0, MsgType::kSubmitTx, AsByteView("garbage")).ok());
  hub.DeliverAll();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kError);
  auto r2 = serialize::RlpReader::AtList(ack->body);
  ASSERT_TRUE(r2.ok());
  auto error_code = r2->NextU64();
  ASSERT_TRUE(error_code.ok());
  EXPECT_EQ(*error_code, 400u);
}

// ---------------------------------------------------------------------------
// View changes: dynamic leadership over the deterministic sim transport
// ---------------------------------------------------------------------------

/// An n-node sim harness for the election tests. The fixture above is
/// pinned to 3 nodes (quorum 1); elections only exercise quorum
/// intersection at n >= 4 (quorum 3), so these tests build their own.
struct SimViewCluster : SimCluster {
  explicit SimViewCluster(uint32_t n, size_t block_max_bytes = 64 * 1024)
      : SimCluster(n, ClusterSystemOptions(block_max_bytes), {}, /*hub_seed=*/5) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

// ---------------------------------------------------------------------------
// Round timing: the protocol in the SimHub's virtual time (the consensus
// term of Figure 11)
// ---------------------------------------------------------------------------

/// SimCluster::TimedRound on node 0 for a block of one public tx carrying
/// `payload` bytes; every replica must apply it.
uint64_t PaddedRound(SimViewCluster* c, size_t payload) {
  EXPECT_TRUE(c->systems[0]
                  ->node()
                  ->SubmitTransaction(c->client->MakePublicTx(
                      NamedAddress("round.pad"), "pad", Bytes(payload, 0xab)))
                  .ok());
  auto ns = c->TimedRound(0);
  EXPECT_TRUE(ns.ok()) << ns.status().ToString();
  for (auto& node : c->nodes) EXPECT_EQ(node->Height(), c->nodes[0]->Height());
  return ns.ok() ? *ns : 0;
}

TEST(SimRoundTimingTest, TwoZoneRoundIsOverFiveTimesSlower) {
  SimViewCluster c(9);
  auto* rejected = metrics::GetCounter("cluster.vote.rejected.count");
  const uint64_t rejected_before = rejected->Value();
  const uint64_t single = PaddedRound(&c, 4096);
  c.sim = chain::NetworkSim::TwoZone(9);  // same nodes, WAN between cities
  const uint64_t dual = PaddedRound(&c, 4096);
  EXPECT_GT(dual, 5 * single);  // WAN round trips dominate
  // Prepare quorums form before the last WAN pre-prepares land; an honest
  // round still sends no vote its peers must refuse.
  EXPECT_EQ(rejected->Value(), rejected_before);
}

TEST(SimRoundTimingTest, MessagesGrowQuadraticallyLatencySubLinearly) {
  auto* sent = metrics::GetCounter("net.send.count");
  auto* dropped = metrics::GetCounter("net.send.drop.count");
  const uint64_t dropped_before = dropped->Value();
  uint64_t messages[2], latency[2];
  for (size_t i = 0; i < 2; ++i) {
    SimViewCluster c(i == 0 ? 4 : 8);
    const uint64_t before = sent->Value();
    latency[i] = PaddedRound(&c, 1024);
    messages[i] = sent->Value() - before;
    for (auto& node : c.nodes) EXPECT_EQ(node->view(), 0u);
  }
  // Three phases over ~0.2 ms links: low single-digit milliseconds.
  EXPECT_GT(latency[0], 0u);
  EXPECT_LT(latency[0], 10'000'000u);
  EXPECT_EQ(dropped->Value(), dropped_before);
  EXPECT_GT(messages[1], 3 * messages[0]);  // O(n^2) votes
  EXPECT_GT(latency[1], latency[0]);
  EXPECT_LT(latency[1], 2 * latency[0]);    // twice the nodes, not twice the time
}

// ---------------------------------------------------------------------------
// One block lifecycle, two drivers
// ---------------------------------------------------------------------------

TEST(LifecycleDriversTest, SerialAndClusterProduceTheSameChain) {
  // The in-process drain (Node::RunToCompletion) and a 4-node PBFT
  // cluster make the same PreVerify/ProposeBlock/ApplyBlock calls, so one
  // signed tx set must produce byte-identical chains under each.
  constexpr size_t kBlockBytes = 4096;  // several blocks per phase
  auto serial = MakeSystem(kBlockBytes);
  SimViewCluster cluster(4, kBlockBytes);
  ASSERT_NE(serial, nullptr);

  Client client(99, serial->pk_tx());
  const Bytes code = CounterCode();
  const chain::Address pub_addr = NamedAddress("drivers.pub");
  const chain::Address conf_addr = NamedAddress("drivers.conf");
  std::vector<std::vector<chain::Transaction>> phases(2);
  phases[0].push_back(client.MakePublicTx(pub_addr, "__deploy__", DeployPayload(code)));
  auto conf_deploy =
      client.MakeConfidentialTx(conf_addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(conf_deploy.ok());
  phases[0].push_back(conf_deploy->tx);
  for (int i = 0; i < 8; ++i) {
    phases[1].push_back(client.MakePublicTx(pub_addr, "increment", Bytes{}));
    auto call = client.MakeConfidentialTx(conf_addr, "increment", Bytes{});
    ASSERT_TRUE(call.ok());
    phases[1].push_back(call->tx);
  }

  chain::Node* leader = cluster.systems[0]->node();
  for (const auto& phase : phases) {
    for (const chain::Transaction& tx : phase) {
      ASSERT_TRUE(serial->node()->SubmitTransaction(tx).ok());
      ASSERT_TRUE(leader->SubmitTransaction(tx).ok());
    }
    auto serial_receipts = serial->node()->RunToCompletion();
    ASSERT_TRUE(serial_receipts.ok()) << serial_receipts.status().ToString();
    ASSERT_EQ(serial_receipts->size(), phase.size());
    for (;;) {  // propose until the leader's pools are empty
      auto seq = cluster.nodes[0]->ProposeOnce();
      if (!seq.ok()) {
        ASSERT_EQ(seq.status().code(), StatusCode::kNotFound);
        break;
      }
      cluster.hub.DeliverAll();
    }
  }

  EXPECT_GT(serial->node()->Height(), 2u);  // several blocks, not one per phase
  std::vector<chain::Node*> others;
  for (auto& sys : cluster.systems) others.push_back(sys->node());
  for (size_t n = 0; n < others.size(); ++n) {
    EXPECT_EQ(others[n]->Height(), serial->node()->Height()) << "driver " << n;
    EXPECT_EQ(others[n]->TipHash(), serial->node()->TipHash()) << "driver " << n;
    EXPECT_EQ(others[n]->state()->StateRoot(), serial->node()->state()->StateRoot())
        << "driver " << n;
  }
  for (const auto& phase : phases) {
    for (const chain::Transaction& tx : phase) {
      auto expected = serial->node()->GetReceipt(tx.Hash());
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(expected->success) << expected->status_message;
      for (size_t n = 0; n < others.size(); ++n) {
        auto got = others[n]->GetReceipt(tx.Hash());
        ASSERT_TRUE(got.ok()) << "driver " << n;
        EXPECT_EQ(got->Serialize(), expected->Serialize()) << "driver " << n;
      }
    }
  }
}


TEST(SimViewChangeTest, ElectionMovesLeadershipAndResumesProgress) {
  SimViewCluster c(4);
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("view.counter");
  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      addr, "__deploy__", DeployPayload(code)))
                  .ok());
  ASSERT_TRUE(c.nodes[0]->ProposeOnce().ok());
  c.hub.DeliverAll();
  const uint64_t h1 = c.nodes[0]->Height();
  EXPECT_TRUE(c.nodes[0]->is_leader());

  // The leader dies. Two replicas time out (driven explicitly here) and
  // broadcast view-changes for view 1; node 1 — the leader of view 1 —
  // joins on the f+1 rule, reaches quorum 3, and announces kNewView.
  c.nodes[0]->Stop();
  c.nodes[2]->StartViewChange(1);
  c.nodes[3]->StartViewChange(1);
  c.hub.DeliverAll();
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->view(), 1u) << "node " << i;
    EXPECT_EQ(c.nodes[i]->leader(), 1u) << "node " << i;
  }
  EXPECT_TRUE(c.nodes[1]->is_leader());
  EXPECT_FALSE(c.nodes[2]->is_leader());

  // The new leader replicates a block among the three survivors.
  ASSERT_TRUE(c.systems[1]
                  ->node()
                  ->SubmitTransaction(
                      c.client->MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  ASSERT_TRUE(c.nodes[1]->ProposeOnce().ok());
  c.hub.DeliverAll();
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), h1 + 1) << "node " << i;
    EXPECT_EQ(c.nodes[i]->TipHash(), c.nodes[1]->TipHash()) << "node " << i;
  }

  // A submission landing on a non-leader replica earns a kRedirect hint
  // naming the elected leader (docs/WIRE_PROTOCOL.md §View change).
  c.nodes[3]->Stop();
  SimTransport client_endpoint(&c.hub, 3);  // borrow node 3's id slot
  std::optional<OwnedFrame> reply;
  client_endpoint.SetHandler(
      [&](uint32_t, MsgType type, ByteView body) -> std::optional<OwnedFrame> {
        reply = OwnedFrame{type, ToBytes(body)};
        return std::nullopt;
      });
  ASSERT_TRUE(client_endpoint.Start().ok());
  chain::Transaction tx = c.client->MakePublicTx(addr, "increment", Bytes{});
  ASSERT_TRUE(client_endpoint.Send(2, MsgType::kSubmitTx, tx.Serialize()).ok());
  c.hub.DeliverAll();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kRedirect);
  auto r = serialize::RlpReader::AtList(reply->body);
  ASSERT_TRUE(r.ok());
  auto hint_leader = r->NextU64();
  auto hint_view = r->NextU64();
  ASSERT_TRUE(hint_leader.ok());
  ASSERT_TRUE(hint_view.ok());
  EXPECT_EQ(*hint_leader, 1u);
  EXPECT_EQ(*hint_view, 1u);
}

TEST(SimViewChangeTest, MismatchedViewAndDigestVotesRejectedAndCounted) {
  SimViewCluster c(4);
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("view.votes");
  auto* rejected = metrics::GetCounter("cluster.vote.rejected.count");

  // Node 3's slot doubles as the forger; nodes 0-2 still form quorum 3.
  c.nodes[3]->Stop();
  SimTransport forger(&c.hub, 3);
  ASSERT_TRUE(forger.Start().ok());

  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      addr, "__deploy__", DeployPayload(code)))
                  .ok());
  auto seq = c.nodes[0]->ProposeOnce();
  ASSERT_TRUE(seq.ok());

  // Two forged prepares against the leader's live proposal: one stamped
  // with a view nobody is in, one with the right view but a digest that
  // matches no block. Both must be dropped and counted, not tallied.
  const uint64_t before = rejected->Value();
  auto forge_vote = [&](uint64_t view, uint8_t fill) {
    serialize::RlpWriter w;
    size_t mark = w.BeginList();
    w.WriteU64(view);
    w.WriteU64(*seq);
    Bytes digest(32, fill);
    w.WriteBytes(ByteView(digest));
    w.EndList(mark);
    return std::move(w).Take();
  };
  ASSERT_TRUE(forger.Send(0, MsgType::kPrepare, forge_vote(7, 0x00)).ok());
  ASSERT_TRUE(forger.Send(0, MsgType::kPrepare, forge_vote(0, 0xff)).ok());
  c.hub.DeliverAll();
  EXPECT_EQ(rejected->Value(), before + 2);

  // The forged votes contributed nothing; the honest quorum still commits.
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), *seq + 1) << "node " << i;
    EXPECT_EQ(c.nodes[i]->TipHash(), c.nodes[0]->TipHash()) << "node " << i;
  }
}

TEST(SimViewChangeTest, StaleRejoinerAdoptsNewViewAndRepairsGap) {
  SimViewCluster c(4);
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("view.rejoin");
  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      addr, "__deploy__", DeployPayload(code)))
                  .ok());
  ASSERT_TRUE(c.nodes[0]->ProposeOnce().ok());
  c.hub.DeliverAll();
  const uint64_t h1 = c.nodes[0]->Height();

  // Old leader crashes; view 1 is elected and commits a block without it.
  c.nodes[0]->Stop();
  c.nodes[2]->StartViewChange(1);
  c.nodes[3]->StartViewChange(1);
  c.hub.DeliverAll();
  ASSERT_TRUE(c.systems[1]
                  ->node()
                  ->SubmitTransaction(
                      c.client->MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  ASSERT_TRUE(c.nodes[1]->ProposeOnce().ok());
  c.hub.DeliverAll();
  EXPECT_EQ(c.nodes[1]->Height(), h1 + 1);

  // The deposed leader rejoins still believing view 0. The first
  // pre-prepare from view 1's legitimate leader is proof the election
  // happened: it adopts the view and pulls the missed block via the
  // gap-repair fetch — no kNewView replay needed.
  ASSERT_TRUE(c.nodes[0]->Start().ok());
  EXPECT_EQ(c.nodes[0]->view(), 0u);
  EXPECT_EQ(c.nodes[0]->Height(), h1);
  ASSERT_TRUE(c.systems[1]
                  ->node()
                  ->SubmitTransaction(
                      c.client->MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  ASSERT_TRUE(c.nodes[1]->ProposeOnce().ok());
  c.hub.DeliverAll();
  EXPECT_EQ(c.nodes[0]->view(), 1u);
  EXPECT_FALSE(c.nodes[0]->is_leader());
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), h1 + 2) << "node " << i;
    EXPECT_EQ(c.nodes[i]->TipHash(), c.nodes[1]->TipHash()) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// The propose driver (ClusterOptions::propose_tick_ms > 0) in virtual time
// ---------------------------------------------------------------------------

TEST(SimProposerTest, TxSubmittedMidRoundCommitsInTheNextBlockBeforeTheBeat) {
  // Rule (a): the leader proposes again the moment its previous block
  // applies, so a transaction that arrived during the round rides the
  // very next block instead of waiting for the idle beat. Rule (b): a
  // transaction that reaches an idle leader goes out on the beat.
  ClusterOptions options;
  options.propose_tick_ms = 1000;
  SimCluster c(4, ClusterSystemOptions(), options, /*hub_seed=*/5);
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  auto* proposals = metrics::GetCounter("cluster.propose.count");
  const uint64_t proposals_before = proposals->Value();
  const uint64_t t0 = c.hub.now_ns();
  const uint64_t h0 = c.nodes[0]->Height();
  chain::Address addr = NamedAddress("driver.counter");
  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      addr, "__deploy__", DeployPayload(CounterCode())))
                  .ok());
  ASSERT_TRUE(c.nodes[0]->ProposeOnce().ok());
  const chain::Transaction mid_round = c.client->MakePublicTx(addr, "increment", Bytes{});
  ASSERT_TRUE(c.systems[0]->node()->SubmitTransaction(mid_round).ok());
  c.hub.DeliverAll();
  EXPECT_LT(c.hub.now_ns() - t0, options.propose_tick_ms * 1'000'000);
  EXPECT_EQ(proposals->Value() - proposals_before, 2u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), h0 + 2) << "node " << i;
    EXPECT_TRUE(c.systems[i]->node()->GetReceipt(mid_round.Hash()).ok()) << "node " << i;
  }

  const chain::Transaction idle = c.client->MakePublicTx(addr, "increment", Bytes{});
  ASSERT_TRUE(c.systems[0]->node()->SubmitTransaction(idle).ok());
  ASSERT_TRUE(c.RunUntil([&] {
    for (auto& node : c.nodes) {
      if (node->Height() != h0 + 3) return false;
    }
    return true;
  }, 2 * options.propose_tick_ms));
  EXPECT_TRUE(c.systems[3]->node()->GetReceipt(idle.Hash()).ok());
}

TEST(SimProposerTest, DeposedLeaderRequeuesUnpreparedTransactions) {
  // A leader whose proposal never reached a prepare quorum abandons it
  // when it adopts a view it does not lead: the transactions go back to
  // its verified pool, once.
  SimViewCluster c(4);
  ASSERT_TRUE(c.sim.SetPartition(0, 1).ok());  // node 0's frames go nowhere
  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      NamedAddress("deposed.counter"), "__deploy__",
                      DeployPayload(CounterCode())))
                  .ok());
  ASSERT_TRUE(c.nodes[0]->ProposeOnce().ok());
  c.hub.DeliverAll();
  EXPECT_EQ(c.systems[0]->node()->VerifiedPoolSize(), 0u);  // in the block
  c.sim.HealPartitions();

  auto* abandoned = metrics::GetCounter("cluster.proposal.abandoned.count");
  const uint64_t abandoned_before = abandoned->Value();
  for (uint32_t i = 1; i < 4; ++i) c.nodes[i]->StartViewChange(1);
  c.hub.DeliverAll();
  EXPECT_EQ(c.nodes[0]->view(), 1u);
  EXPECT_FALSE(c.nodes[0]->is_leader());
  EXPECT_EQ(abandoned->Value() - abandoned_before, 1u);
  EXPECT_EQ(c.systems[0]->node()->VerifiedPoolSize(), 1u);
  for (auto& node : c.nodes) EXPECT_EQ(node->Height(), c.nodes[1]->Height());
}

/// The leader's batching window (cluster.cc kProposeWindowMs).
constexpr uint64_t kWindowNs = 3'000'000;

/// Four ClusterNodes that propose by themselves on a 1 s beat, which never
/// falls inside these tests, plus a client endpoint in a fifth hub slot
/// that submits kSubmitTx frames to the leader, as the gateway does.
struct SimSubmitCluster : SimCluster {
  explicit SimSubmitCluster(size_t block_max_bytes = 64 * 1024,
                            ClusterOptions options = Options())
      : SimCluster(5, ClusterSystemOptions(block_max_bytes), options, /*hub_seed=*/5),
        endpoint(&hub, 4) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    nodes[4]->Stop();  // the slot is the client's
    endpoint.SetHandler(
        [](uint32_t, MsgType, ByteView) { return std::optional<OwnedFrame>(); });
    EXPECT_TRUE(endpoint.Start().ok());
  }

  static ClusterOptions Options() {
    ClusterOptions options;
    options.propose_tick_ms = 1000;
    return options;
  }

  void Submit(const chain::Transaction& tx) {
    EXPECT_TRUE(endpoint.Send(0, MsgType::kSubmitTx, tx.Serialize()).ok());
  }

  bool CommittedEverywhere(const std::vector<chain::Transaction>& txs) {
    for (uint32_t i = 0; i < 4; ++i) {
      for (const chain::Transaction& tx : txs) {
        if (!systems[i]->node()->GetReceipt(tx.Hash()).ok()) return false;
      }
    }
    return true;
  }

  /// Runs the hub in 100 us steps until `done` holds; false when
  /// `limit_ns` of virtual time passes first.
  bool RunFor(const std::function<bool()>& done, uint64_t limit_ns) {
    const uint64_t end = hub.now_ns() + limit_ns;
    while (!done() && hub.now_ns() < end) hub.RunUntil(hub.now_ns() + 100'000);
    return done();
  }

  chain::Address addr = NamedAddress("window.counter");
  SimTransport endpoint;
};

TEST(SimProposerTest, SubmitFrameToIdleLeaderCommitsWithinTheWindow) {
  // Event-driven proposing: the submission itself wakes the leader, so a
  // transaction reaching an idle leader goes out when the batching window
  // closes, not on the beat a second later.
  SimSubmitCluster c;
  const chain::Transaction deploy =
      c.client->MakePublicTx(c.addr, "__deploy__", DeployPayload(CounterCode()));
  const uint64_t t0 = c.hub.now_ns();
  c.Submit(deploy);
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere({deploy}); },
                       kWindowNs + 10'000'000))
      << "not committed on all 4 nodes " << (c.hub.now_ns() - t0) << " ns after submit";
}

TEST(SimProposerTest, SubmissionsWithinTheWindowShareOneBlock) {
  SimSubmitCluster c;
  const chain::Transaction deploy =
      c.client->MakePublicTx(c.addr, "__deploy__", DeployPayload(CounterCode()));
  c.Submit(deploy);
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere({deploy}); }, 20'000'000));

  auto* proposals = metrics::GetCounter("cluster.propose.count");
  auto* by_submit = metrics::GetCounter("cluster.propose.trigger.submit.count");
  const uint64_t proposals_before = proposals->Value();
  const uint64_t by_submit_before = by_submit->Value();
  const uint64_t h0 = c.nodes[0]->Height();
  std::vector<chain::Transaction> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(c.client->MakePublicTx(c.addr, "increment", Bytes{}));
    c.Submit(batch.back());
  }
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere(batch); },
                       kWindowNs + 10'000'000));
  EXPECT_EQ(proposals->Value() - proposals_before, 1u);
  EXPECT_EQ(by_submit->Value() - by_submit_before, 1u);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(c.nodes[i]->Height(), h0 + 1) << "node " << i;
}

TEST(SimProposerTest, PoolThatFillsABlockProposesWithoutWaitingForTheWindow) {
  // Two padded transactions overfill a 1 KB block: the second submission
  // wakes the leader at once, and the one left over rides the next block
  // when the batch's window closes.
  SimSubmitCluster c(/*block_max_bytes=*/1024);
  auto* proposals = metrics::GetCounter("cluster.propose.count");
  const uint64_t proposals_before = proposals->Value();
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 2; ++i) {
    txs.push_back(c.client->MakePublicTx(NamedAddress("window.pad"), "pad",
                                         Bytes(600, uint8_t(i))));
    ASSERT_LT(txs.back().Serialize().size(), 1024u);
    c.Submit(txs.back());
  }
  const uint64_t t0 = c.hub.now_ns();
  ASSERT_TRUE(c.RunFor([&] { return proposals->Value() > proposals_before; }, kWindowNs));
  EXPECT_LT(c.hub.now_ns() - t0, kWindowNs);
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere(txs); }, 20'000'000));
  EXPECT_EQ(proposals->Value() - proposals_before, 2u);
}

TEST(SimProposerTest, WakeUpsRunOnlyTheProposingRule) {
  // With heartbeats on, the timer beats every 50 ms. A submission's
  // wake-up between beats re-checks the proposing rule only: the
  // fault.net.leader_crash draw (armed here never to fire) keeps the
  // beat's rate whatever the traffic.
  ClusterOptions options = SimSubmitCluster::Options();
  options.heartbeat_ms = 100;
  options.view_timeout_ms = 60'000;
  SimSubmitCluster c(64 * 1024, options);
  const chain::Transaction deploy =
      c.client->MakePublicTx(c.addr, "__deploy__", DeployPayload(CounterCode()));
  c.Submit(deploy);
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere({deploy}); }, 100'000'000));

  fault::FaultPlan plan(1);
  plan.Arm("fault.net.leader_crash", fault::Trigger{.after_hits = UINT64_MAX});
  auto* by_submit = metrics::GetCounter("cluster.propose.trigger.submit.count");
  const uint64_t by_submit_before = by_submit->Value();
  const uint64_t t0 = c.hub.now_ns();
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 20; ++i) {  // one every 10 ms: each opens its own batch
    txs.push_back(c.client->MakePublicTx(c.addr, "increment", Bytes{}));
    c.Submit(txs.back());
    c.hub.RunUntil(c.hub.now_ns() + 10'000'000);
  }
  ASSERT_TRUE(c.RunFor([&] { return c.CommittedEverywhere(txs); }, 20'000'000));
  const uint64_t beats = (c.hub.now_ns() - t0) / 50'000'000 + 1;
  EXPECT_GE(by_submit->Value() - by_submit_before, 15u);
  EXPECT_LE(fault::FaultInjector::Global().HitCount("fault.net.leader_crash"), beats);
}

TEST(SimProposerTest, LosslessRunPullsNoBlocks) {
  // A replica whose commit votes for the tip are still in flight when the
  // leader's next pre-prepare lands must not pull the tip: over 200 blocks
  // proposed back to back on a lossless hub, no kFetchBlocks is sent.
  ClusterOptions options;
  options.propose_tick_ms = 20;
  SimCluster c(4, ClusterSystemOptions(), options, /*hub_seed=*/9);
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  chain::LinkModel jittery;
  jittery.jitter_ns = 1'000'000;  // reorders frames, loses none
  ASSERT_TRUE(c.sim.SetLink(0, 0, jittery).ok());
  auto* fetches = metrics::GetCounter("cluster.fetch.request.count");
  const uint64_t fetches_before = fetches->Value();
  const chain::Address addr = NamedAddress("lossless.counter");
  ASSERT_TRUE(c.systems[0]
                  ->node()
                  ->SubmitTransaction(c.client->MakePublicTx(
                      addr, "__deploy__", DeployPayload(CounterCode())))
                  .ok());
  const uint64_t h0 = c.nodes[0]->Height();
  while (c.nodes[0]->Height() < h0 + 200 && c.hub.now_ns() < 60'000'000'000ull) {
    // One transaction per 0.5 ms keeps the leader's pool non-empty, so it
    // proposes the moment each block applies.
    ASSERT_TRUE(c.systems[0]
                    ->node()
                    ->SubmitTransaction(c.client->MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    c.hub.RunUntil(c.hub.now_ns() + 500'000);
  }
  ASSERT_GE(c.nodes[0]->Height(), h0 + 200);
  c.hub.RunUntil(c.hub.now_ns() + 100'000'000);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), c.nodes[0]->Height()) << "node " << i;
  }
  EXPECT_EQ(fetches->Value() - fetches_before, 0u);
}

// ---------------------------------------------------------------------------
// TCP clusters: real sockets, the leader proposing on its own timer,
// catch-up
// ---------------------------------------------------------------------------

class TcpClusterTest : public ::testing::Test {
 protected:
  TcpClusterTest() { base_options_.propose_tick_ms = 10; }

  void StartCluster(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      peers_.push_back("127.0.0.1:" + std::to_string(PickPort()));
    }
    for (uint32_t i = 0; i < n; ++i) StartNode(i);
  }

  void StartNode(uint32_t id) {
    if (systems_.size() <= id) systems_.resize(id + 1);
    if (nodes_.size() <= id) nodes_.resize(id + 1);
    systems_[id] = MakeSystem();
    ASSERT_NE(systems_[id], nullptr);
    TcpTransportOptions options;
    options.self_id = id;
    options.peers = peers_;
    options.listen_host = "127.0.0.1";
    ClusterOptions cluster_options = base_options_;
    cluster_options.election_seed = kClusterSeed + id;
    nodes_[id] = std::make_unique<ClusterNode>(
        systems_[id].get(), std::make_unique<TcpTransport>(options),
        cluster_options);
    ASSERT_TRUE(nodes_[id]->Start().ok());
  }

  void TearDown() override {
    for (auto& node : nodes_) {
      if (node) node->Stop();
    }
  }

  /// Waits for node `id` to hold a receipt for `tx`: the leader proposes
  /// it on its own, so committing is all a test can wait for.
  bool WaitCommitted(const chain::Transaction& tx, uint32_t id = 0) {
    const crypto::Hash256 hash = tx.Hash();
    return WaitFor([&] { return systems_[id]->node()->GetReceipt(hash).ok(); });
  }

  bool Converged() {
    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (!nodes_[i]) continue;
      if (nodes_[i]->Height() != nodes_[0]->Height()) return false;
      if (!(nodes_[i]->TipHash() == nodes_[0]->TipHash())) return false;
    }
    return true;
  }

  std::vector<std::string> peers_;
  ClusterOptions base_options_;
  std::vector<std::unique_ptr<ConfideSystem>> systems_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
};

TEST_F(TcpClusterTest, ThreeProcessesShapedClusterCommitsAndServesQueries) {
  StartCluster(3);
  const uint64_t h0 = nodes_[0]->Height();
  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.counter");

  // Submit through the wire, exactly like an external client.
  auto submit = FrameClient::Dial(peers_[0]);
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  auto ack = submit->Call(MsgType::kSubmitTx, deploy.Serialize());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, MsgType::kSubmitTxAck);

  ASSERT_TRUE(WaitCommitted(deploy));
  EXPECT_EQ(nodes_[0]->Height(), h0 + 1);
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));

  // Receipt query against a replica (receipts replicate with the block).
  auto query = FrameClient::Dial(peers_[1]);
  ASSERT_TRUE(query.ok());
  const crypto::Hash256 tx_hash = deploy.Hash();
  serialize::RlpWriter qw;
  size_t qmark = qw.BeginList();
  qw.WriteBytes(ByteView(tx_hash.data(), tx_hash.size()));
  qw.EndList(qmark);
  const Bytes query_body = std::move(qw).Take();
  auto reply = query->Call(MsgType::kQueryReceipt, query_body);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kReceiptReply);
  auto r = serialize::RlpReader::AtList(reply->body);
  ASSERT_TRUE(r.ok());
  auto found = r->NextU64();
  auto wire = r->NextBytes();
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(*found, 1u);
  auto receipt = chain::Receipt::Deserialize(*wire);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);

  // Status from every node agrees on height and tip.
  Bytes tip0;
  for (size_t i = 0; i < peers_.size(); ++i) {
    auto status_client = FrameClient::Dial(peers_[i]);
    ASSERT_TRUE(status_client.ok());
    auto status = status_client->Call(MsgType::kQueryStatus, ByteView());
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(status->type, MsgType::kStatusReply);
    auto sr = serialize::RlpReader::AtList(status->body);
    ASSERT_TRUE(sr.ok());
    auto node_id = sr->NextU64();
    auto height = sr->NextU64();
    auto tip = sr->NextFixed(32, "tip");
    ASSERT_TRUE(node_id.ok());
    ASSERT_TRUE(height.ok());
    ASSERT_TRUE(tip.ok());
    EXPECT_EQ(*node_id, i);
    EXPECT_EQ(*height, nodes_[0]->Height());
    // Wire v2 appends the leader hint: [verified, unverified, view, leader].
    auto verified = sr->NextU64();
    auto unverified = sr->NextU64();
    auto view = sr->NextU64();
    auto leader = sr->NextU64();
    ASSERT_TRUE(verified.ok());
    ASSERT_TRUE(unverified.ok());
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(leader.ok());
    EXPECT_EQ(*view, 0u);
    EXPECT_EQ(*leader, 0u);
    if (i == 0) {
      tip0 = ToBytes(*tip);
    } else {
      EXPECT_EQ(ToBytes(*tip), tip0) << "node " << i;
    }
  }
}

TEST_F(TcpClusterTest, LateReplicaCatchesUpFromLivePeer) {
  // Boot only the leader of a 2-node cluster (Quorum(2) = 1): it commits
  // alone while its peer is down.
  peers_ = {"127.0.0.1:" + std::to_string(PickPort()),
            "127.0.0.1:" + std::to_string(PickPort())};
  systems_.resize(2);
  nodes_.resize(2);
  StartNode(0);

  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.rejoin");
  const chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(deploy).ok());
  ASSERT_TRUE(WaitCommitted(deploy));
  for (int round = 0; round < 3; ++round) {
    const chain::Transaction tx = client.MakePublicTx(addr, "increment", Bytes{});
    ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(tx).ok());
    ASSERT_TRUE(WaitCommitted(tx));
  }
  const uint64_t leader_height = nodes_[0]->Height();

  // The replica comes up late — the crash/rejoin path of
  // docs/OPERATIONS.md §Rejoin — and pulls the whole prefix.
  StartNode(1);
  EXPECT_LT(nodes_[1]->Height(), leader_height);
  ASSERT_TRUE(nodes_[1]->CatchUp(0).ok());
  EXPECT_EQ(nodes_[1]->Height(), leader_height);
  EXPECT_EQ(nodes_[1]->TipHash(), nodes_[0]->TipHash());
}

TEST_F(TcpClusterTest, CatchUpFailureReleasesFetchLatch) {
  // Regression: a CatchUp whose peer dies before the request leaves must
  // release the fetch latch at once, or gap-repair pulls stay suppressed
  // for kFetchWaitMs.
  peers_ = {"127.0.0.1:" + std::to_string(PickPort()),
            "127.0.0.1:" + std::to_string(PickPort())};
  systems_.resize(2);
  nodes_.resize(2);
  StartNode(0);
  EXPECT_FALSE(nodes_[0]->fetch_in_flight_for_test());
  Status st = nodes_[0]->CatchUp(1);  // peer 1 was never started
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(nodes_[0]->fetch_in_flight_for_test());
}

TEST_F(TcpClusterTest, LoneLeaderRetransmitsUntilQuorumBootsThenCommitsOnce) {
  // A leader that cannot reach quorum keeps re-broadcasting its proposal
  // every view timeout, with no retry cap and nothing abandoned; once the
  // replicas boot, that same seq commits, exactly once.
  base_options_.view_timeout_ms = 100;
  for (size_t i = 0; i < 4; ++i) {
    peers_.push_back("127.0.0.1:" + std::to_string(PickPort()));
  }
  systems_.resize(4);
  nodes_.resize(4);
  StartNode(0);  // alone: Quorum(4) = 3 is unreachable

  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.retransmit");
  const chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  auto* retransmits = metrics::GetCounter("cluster.retransmit.count");
  auto* abandoned = metrics::GetCounter("cluster.proposal.abandoned.count");
  const uint64_t retransmits_before = retransmits->Value();
  const uint64_t abandoned_before = abandoned->Value();
  const uint64_t h0 = nodes_[0]->Height();
  ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(deploy).ok());

  ASSERT_TRUE(WaitFor([&] { return retransmits->Value() >= retransmits_before + 3; }));
  EXPECT_EQ(nodes_[0]->Height(), h0);
  EXPECT_EQ(systems_[0]->node()->VerifiedPoolSize(), 0u);  // in flight, not requeued
  EXPECT_EQ(abandoned->Value(), abandoned_before);

  // The quorum arrives late; the next retransmission carries it through.
  for (uint32_t id = 1; id < 4; ++id) StartNode(id);
  ASSERT_TRUE(WaitFor([&] { return nodes_[0]->Height() == h0 + 1 && Converged(); }));
  // Exactly once: a few more view timeouts propose nothing further.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (uint32_t id = 0; id < 4; ++id) {
    EXPECT_EQ(nodes_[id]->Height(), h0 + 1) << "node " << id;
    EXPECT_TRUE(systems_[id]->node()->GetReceipt(deploy.Hash()).ok()) << "node " << id;
  }
  EXPECT_EQ(systems_[0]->node()->VerifiedPoolSize() +
                systems_[0]->node()->UnverifiedPoolSize(),
            0u);
}

TEST_F(TcpClusterTest, HeartbeatDetectorElectsNewLeaderAndRedirects) {
  base_options_.heartbeat_ms = 20;
  base_options_.view_timeout_ms = 150;
  base_options_.view_timeout_max_ms = 2000;
  StartCluster(3);
  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.failover");
  const chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(deploy).ok());
  ASSERT_TRUE(WaitCommitted(deploy));
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const uint64_t h1 = nodes_[0]->Height();

  // The leader goes dark. The survivors' failure detectors time out,
  // agree on a new view, and the elected leader starts heartbeating.
  nodes_[0]->Stop();
  ASSERT_TRUE(WaitFor(
      [&] {
        return nodes_[1]->view() >= 1 && nodes_[2]->view() == nodes_[1]->view();
      },
      20000));
  const uint64_t view = nodes_[1]->view();
  const uint32_t leader = nodes_[1]->leader();
  EXPECT_EQ(leader, uint32_t(view % 3));
  ASSERT_NE(leader, 0u);
  const uint32_t follower = leader == 1 ? 2 : 1;

  // A submission at the follower earns a kRedirect naming the winner.
  auto to_follower = FrameClient::Dial(peers_[follower]);
  ASSERT_TRUE(to_follower.ok());
  chain::Transaction tx = client.MakePublicTx(addr, "increment", Bytes{});
  auto redirect = to_follower->Call(MsgType::kSubmitTx, tx.Serialize());
  ASSERT_TRUE(redirect.ok()) << redirect.status().ToString();
  ASSERT_EQ(redirect->type, MsgType::kRedirect);
  auto r = serialize::RlpReader::AtList(redirect->body);
  ASSERT_TRUE(r.ok());
  auto hint = r->NextU64();
  ASSERT_TRUE(hint.ok());
  EXPECT_EQ(uint32_t(*hint), leader);

  // Re-routed to the announced leader, the survivors commit without 0:
  // the elected node proposes on its own timer.
  auto to_leader = FrameClient::Dial(peers_[leader]);
  ASSERT_TRUE(to_leader.ok());
  auto ack = to_leader->Call(MsgType::kSubmitTx, tx.Serialize());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, MsgType::kSubmitTxAck);
  ASSERT_TRUE(WaitCommitted(tx, leader));
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[1]->Height() == h1 + 1 && nodes_[2]->Height() == h1 + 1;
  }));
  EXPECT_EQ(nodes_[1]->TipHash(), nodes_[2]->TipHash());
}

TEST_F(TcpClusterTest, GatewayFailsOverAndChasesElectedLeader) {
  base_options_.heartbeat_ms = 20;
  base_options_.view_timeout_ms = 150;
  base_options_.view_timeout_max_ms = 2000;
  StartCluster(3);
  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("gw.failover");

  GatewayOptions gw_options;
  gw_options.nodes = peers_;
  gw_options.listen_host = "127.0.0.1";
  gw_options.listen_port = 0;
  Gateway gateway(gw_options);
  ASSERT_TRUE(gateway.Start().ok());
  auto http = HttpClient::Connect("http://127.0.0.1:" +
                                  std::to_string(gateway.port()));
  ASSERT_TRUE(http.ok()) << http.status().ToString();

  chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  auto post = http->Post("/v1/tx",
                         "{\"tx\":\"" + HexEncode(deploy.Serialize()) + "\"}");
  ASSERT_TRUE(post.ok());
  ASSERT_EQ(post->status, 202) << post->body;
  ASSERT_TRUE(WaitCommitted(deploy));
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const uint64_t h1 = nodes_[0]->Height();

  // Kill the leader the gateway is pointed at; survivors elect.
  nodes_[0]->Stop();
  ASSERT_TRUE(WaitFor(
      [&] {
        return nodes_[1]->view() >= 1 && nodes_[2]->view() == nodes_[1]->view();
      },
      20000));

  auto* failover = metrics::GetCounter("gateway.upstream.failover.count");
  const uint64_t failover_before = failover->Value();

  // Submissions keep landing: the gateway fails over off the dead node
  // and follows kRedirect hints to whoever won the election.
  chain::Transaction tx = client.MakePublicTx(addr, "increment", Bytes{});
  const std::string body = "{\"tx\":\"" + HexEncode(tx.Serialize()) + "\"}";
  ASSERT_TRUE(WaitFor([&] {
    auto resp = http->Post("/v1/tx", body);
    return resp.ok() && resp->status == 202;
  }));
  EXPECT_GT(failover->Value(), failover_before);

  const uint32_t leader = nodes_[1]->leader();
  ASSERT_NE(leader, 0u);
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[1]->Height() == h1 + 1 && nodes_[2]->Height() == h1 + 1;
  }));

  // /v1/status marks the dead node unreachable and carries the view and
  // leader columns the failover tooling keys on.
  auto status_resp = http->Get("/v1/status");
  ASSERT_TRUE(status_resp.ok());
  auto status_json = serialize::JsonParse(status_resp->body);
  ASSERT_TRUE(status_json.ok());
  const auto& entries = status_json->Find("nodes")->as_array();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_FALSE(entries[0].Find("reachable")->as_bool());
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(entries[i].Find("reachable")->as_bool());
    EXPECT_EQ(uint64_t(entries[i].Find("view")->as_int()), nodes_[1]->view());
    EXPECT_EQ(uint32_t(entries[i].Find("leader")->as_int()), leader);
  }
  EXPECT_EQ(gateway.leader_hint(), leader);
  gateway.Stop();
}

// ---------------------------------------------------------------------------
// Gateway end to end over a TCP cluster
// ---------------------------------------------------------------------------

TEST_F(TcpClusterTest, GatewayServesSubmissionAndQueriesEndToEnd) {
  StartCluster(3);
  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();

  GatewayOptions gw_options;
  gw_options.nodes = peers_;
  gw_options.listen_host = "127.0.0.1";
  gw_options.listen_port = 0;
  Gateway gateway(gw_options);
  ASSERT_TRUE(gateway.Start().ok());

  auto http = HttpClient::Connect("http://127.0.0.1:" +
                                  std::to_string(gateway.port()));
  ASSERT_TRUE(http.ok()) << http.status().ToString();

  auto health = http->Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok");

  // pk_info served over HTTP matches what the nodes bootstrapped.
  auto pk_info = http->Get("/v1/pk_info");
  ASSERT_TRUE(pk_info.ok());
  ASSERT_EQ(pk_info->status, 200);
  auto pk_json = serialize::JsonParse(pk_info->body);
  ASSERT_TRUE(pk_json.ok());
  const auto* blob_hex = pk_json->Find("pk_info");
  ASSERT_NE(blob_hex, nullptr);
  EXPECT_EQ(blob_hex->as_string(),
            HexEncode(systems_[0]->pk_info_blob()));

  // Public deploy, then a confidential deploy + call at a second
  // address (confidential contracts keep sealed state; mixing planes on
  // one contract is not part of the model), all via POST /v1/tx.
  chain::Address addr = NamedAddress("gw.counter");
  chain::Address conf_addr = NamedAddress("gw.conf");
  chain::Transaction deploy =
      client.MakePublicTx(addr, "__deploy__", DeployPayload(code));
  auto post = http->Post("/v1/tx",
                         "{\"tx\":\"" + HexEncode(deploy.Serialize()) + "\"}");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  ASSERT_EQ(post->status, 202) << post->body;
  auto post_json = serialize::JsonParse(post->body);
  ASSERT_TRUE(post_json.ok());
  ASSERT_NE(post_json->Find("accepted"), nullptr);
  EXPECT_TRUE(post_json->Find("accepted")->as_bool());
  EXPECT_EQ(post_json->Find("type")->as_string(), "public");

  auto conf_deploy =
      client.MakeConfidentialTx(conf_addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(conf_deploy.ok());
  auto conf_deploy_post = http->Post(
      "/v1/tx", "{\"tx\":\"" + HexEncode(conf_deploy->tx.Serialize()) + "\"}");
  ASSERT_TRUE(conf_deploy_post.ok());
  ASSERT_EQ(conf_deploy_post->status, 202) << conf_deploy_post->body;
  ASSERT_TRUE(WaitCommitted(deploy));
  ASSERT_TRUE(WaitCommitted(conf_deploy->tx));

  auto call = client.MakeConfidentialTx(conf_addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  auto conf_post = http->Post(
      "/v1/tx", "{\"tx\":\"" + HexEncode(call->tx.Serialize()) + "\"}");
  ASSERT_TRUE(conf_post.ok());
  ASSERT_EQ(conf_post->status, 202) << conf_post->body;
  auto conf_json = serialize::JsonParse(conf_post->body);
  ASSERT_TRUE(conf_json.ok());
  EXPECT_EQ(conf_json->Find("type")->as_string(), "confidential");
  const std::string tx_hash_hex = conf_json->Find("tx_hash")->as_string();
  ASSERT_TRUE(WaitCommitted(call->tx));
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));

  // The receipt query routes to a replica; the sealed output opens with
  // the client-retained k_tx and proves the confidential call ran.
  auto receipt_resp = http->Get("/v1/receipt/" + tx_hash_hex);
  ASSERT_TRUE(receipt_resp.ok());
  ASSERT_EQ(receipt_resp->status, 200) << receipt_resp->body;
  auto receipt_json = serialize::JsonParse(receipt_resp->body);
  ASSERT_TRUE(receipt_json.ok());
  EXPECT_TRUE(receipt_json->Find("found")->as_bool());
  auto receipt_wire = HexDecode(receipt_json->Find("receipt_wire")->as_string());
  ASSERT_TRUE(receipt_wire.ok());
  auto receipt = chain::Receipt::Deserialize(*receipt_wire);
  ASSERT_TRUE(receipt.ok());
  auto opened = Client::OpenSealedReceipt(call->k_tx, receipt->output);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->success);
  EXPECT_EQ(opened->output, ToBytes(AsByteView("1")));

  // Unknown receipts 404; /v1/status shows all three nodes converged.
  auto missing = http->Get("/v1/receipt/" + std::string(64, '0'));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  auto status_resp = http->Get("/v1/status");
  ASSERT_TRUE(status_resp.ok());
  ASSERT_EQ(status_resp->status, 200);
  auto status_json = serialize::JsonParse(status_resp->body);
  ASSERT_TRUE(status_json.ok());
  const auto* node_list = status_json->Find("nodes");
  ASSERT_NE(node_list, nullptr);
  ASSERT_EQ(node_list->as_array().size(), 3u);
  std::string tip0;
  for (const auto& entry : node_list->as_array()) {
    ASSERT_NE(entry.Find("tip_hash"), nullptr);
    EXPECT_EQ(uint64_t(entry.Find("height")->as_int()), nodes_[0]->Height());
    if (tip0.empty()) {
      tip0 = entry.Find("tip_hash")->as_string();
    } else {
      EXPECT_EQ(entry.Find("tip_hash")->as_string(), tip0);
    }
  }

  gateway.Stop();
}

TEST_F(TcpClusterTest, SubmitToIdleLeaderGetsItsReceiptBeforeTheBeat) {
  // With a 1 s beat, only the submission's own wake-up can commit it fast.
  base_options_.propose_tick_ms = 1000;
  StartCluster(3);
  Client client(99, systems_[0]->pk_tx());
  const chain::Transaction deploy = client.MakePublicTx(
      NamedAddress("tcp.window"), "__deploy__", DeployPayload(CounterCode()));
  auto frames = FrameClient::Dial(peers_[0]);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  auto ack = frames->Call(MsgType::kSubmitTx, deploy.Serialize());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, MsgType::kSubmitTxAck);

  const crypto::Hash256 hash = deploy.Hash();
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteBytes(ByteView(hash.data(), hash.size()));
  w.EndList(mark);
  const Bytes query = std::move(w).Take();
  const auto receipt_found = [&] {
    auto reply = frames->Call(MsgType::kQueryReceipt, query);
    if (!reply.ok() || reply->type != MsgType::kReceiptReply) return false;
    auto r = serialize::RlpReader::AtList(reply->body);
    auto found = r.ok() ? r->NextU64() : Result<uint64_t>(r.status());
    return found.ok() && *found == 1;
  };
  ASSERT_TRUE(WaitFor(receipt_found, 2000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() << " ms";
}

TEST_F(TcpClusterTest, OneStoppedReplicaAddsNothingToCommitLatency) {
  // PBFT's 2f + 1 live replicas keep committing while f are down. Every
  // round still sends to the stopped replica, so each of those Sends must
  // fail at once instead of stalling the round.
  base_options_.heartbeat_ms = 100;
  StartCluster(4);
  Client client(99, systems_[0]->pk_tx());
  const chain::Address addr = NamedAddress("tcp.dead-replica");
  auto frames = FrameClient::Dial(peers_[0]);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();

  // Submit → receipt on the leader, in ns; -1 on a failed submit or a
  // receipt that never lands.
  const auto commit_ns = [&](const chain::Transaction& tx) -> int64_t {
    const crypto::Hash256 hash = tx.Hash();
    const auto start = std::chrono::steady_clock::now();
    auto ack = frames->Call(MsgType::kSubmitTx, tx.Serialize());
    if (!ack.ok() || ack->type != MsgType::kSubmitTxAck) return -1;
    while (!systems_[0]->node()->GetReceipt(hash).ok()) {
      if (std::chrono::steady_clock::now() - start > std::chrono::seconds(10)) {
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // p50 in ms of `txs` sequential increments; -1 if any failed.
  const auto p50_ms = [&](size_t txs) -> double {
    std::vector<int64_t> samples;
    for (size_t i = 0; i < txs; ++i) {
      const int64_t ns = commit_ns(client.MakePublicTx(addr, "increment", Bytes{}));
      if (ns < 0) return -1;
      samples.push_back(ns);
    }
    std::nth_element(samples.begin(), samples.begin() + txs / 2, samples.end());
    return double(samples[txs / 2]) / 1e6;
  };

  ASSERT_GE(commit_ns(client.MakePublicTx(addr, "__deploy__",
                                          DeployPayload(CounterCode()))),
            0);
  const double all_up = p50_ms(40);
  ASSERT_GE(all_up, 0);
  nodes_[3]->Stop();
  const double one_stopped = p50_ms(40);
  ASSERT_GE(one_stopped, 0);
  std::printf("commit p50: all up %.1f ms, node 3 stopped %.1f ms\n", all_up,
              one_stopped);
  EXPECT_LT(one_stopped - all_up, 20.0);
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[1]->Height() == nodes_[0]->Height() &&
           nodes_[2]->Height() == nodes_[0]->Height();
  }));
}

/// A one-node TcpTransport on a free port whose timer counts its ticks.
struct TimedTransport {
  explicit TimedTransport(uint64_t period_ns)
      : transport(TcpTransportOptions{
            .self_id = 0,
            .peers = {"127.0.0.1:" + std::to_string(PickPort())},
            .listen_host = "127.0.0.1"}) {
    transport.SetTimer(period_ns, [this](bool beat) {
      ticks.fetch_add(1);
      if (beat) beats.fetch_add(1);
    });
    EXPECT_TRUE(transport.Start().ok());
  }

  std::atomic<int> ticks{0};
  std::atomic<int> beats{0};
  TcpTransport transport;
};

TEST(TcpTransportTimerTest, StopInterruptsALongPeriod) {
  TimedTransport t(1'000'000'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  t.transport.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(50));
  EXPECT_EQ(t.ticks.load(), 0);
}

TEST(TcpTransportTimerTest, WakeAtRunsTheTickBeforeThePeriod) {
  TimedTransport t(1'000'000'000);
  const auto start = std::chrono::steady_clock::now();
  t.transport.WakeAt(t.transport.NowNs() + 5'000'000);
  t.transport.WakeAt(t.transport.NowNs() + 500'000'000);  // the earlier one stands
  ASSERT_TRUE(WaitFor([&] { return t.ticks.load() >= 1; }, 900));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(200));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(t.ticks.load(), 1);  // one-shot: the beat keeps its schedule
  EXPECT_EQ(t.beats.load(), 0);  // and the run says it was no beat
  t.transport.Stop();
}

}  // namespace
}  // namespace confide::net
