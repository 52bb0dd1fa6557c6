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

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "chain/network.h"
#include "common/metrics.h"
#include "confide/client.h"
#include "confide/system.h"
#include "lang/compiler.h"
#include "net/cluster.h"
#include "net/frame_client.h"
#include "net/gateway.h"
#include "net/http.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "serialize/json.h"
#include "serialize/rlp.h"

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
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(chain::VmKind::kCvm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

Bytes CounterCode() {
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  EXPECT_TRUE(code.ok());
  return *code;
}

std::unique_ptr<ConfideSystem> MakeSystem(size_t block_max_bytes = 64 * 1024,
                                          uint32_t pipeline_depth = 0) {
  SystemOptions options;
  options.seed = kClusterSeed;
  options.block_max_bytes = block_max_bytes;
  options.pipeline_depth = pipeline_depth;
  options.parallelism = pipeline_depth > 0 ? 2 : 1;
  auto sys = ConfideSystem::BootstrapFirst(options);
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

uint16_t PickPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

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

class SimClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = chain::NetworkSim::SingleZone(kNodes);
    hub_ = std::make_unique<SimHub>(&sim_, /*seed=*/3);
    for (uint32_t i = 0; i < kNodes; ++i) {
      systems_.push_back(MakeSystem());
      ASSERT_NE(systems_[i], nullptr);
      nodes_.push_back(std::make_unique<ClusterNode>(
          systems_[i].get(), std::make_unique<SimTransport>(hub_.get(), i)));
      ASSERT_TRUE(nodes_[i]->Start().ok());
    }
    client_ = std::make_unique<Client>(99, systems_[0]->pk_tx());
  }

  void TearDown() override {
    for (auto& node : nodes_) node->Stop();
  }

  /// Leader proposes, the hub drains every queued frame (votes and their
  /// replies re-enqueue until consensus quiesces).
  uint64_t CommitRound() {
    auto seq = nodes_[0]->ProposeOnce();
    EXPECT_TRUE(seq.ok()) << seq.status().ToString();
    hub_->DeliverAll();
    return seq.ok() ? *seq : 0;
  }

  void ExpectConverged() {
    for (uint32_t i = 1; i < kNodes; ++i) {
      EXPECT_EQ(nodes_[i]->Height(), nodes_[0]->Height()) << "node " << i;
      EXPECT_EQ(nodes_[i]->TipHash(), nodes_[0]->TipHash()) << "node " << i;
    }
  }

  static constexpr uint32_t kNodes = 3;
  chain::NetworkSim sim_;
  std::unique_ptr<SimHub> hub_;
  std::vector<std::unique_ptr<ConfideSystem>> systems_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::unique_ptr<Client> client_;
};

TEST_F(SimClusterTest, ThreeNodesConvergeOnEveryBlock) {
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.counter");
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(
                      client_->MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  const uint64_t h0 = nodes_[0]->Height();
  CommitRound();
  EXPECT_EQ(nodes_[0]->Height(), h0 + 1);
  ExpectConverged();

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(systems_[0]
                    ->node()
                    ->SubmitTransaction(client_->MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    CommitRound();
    ExpectConverged();
  }
  EXPECT_EQ(nodes_[0]->Height(), h0 + 4);
}

TEST_F(SimClusterTest, EmptyPoolsProposeNothing) {
  auto seq = nodes_[0]->ProposeOnce();
  EXPECT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hub_->pending(), 0u);
}

TEST_F(SimClusterTest, ConfidentialReceiptIsReplicatedAndOpens) {
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.conf");
  auto deploy = client_->MakeConfidentialTx(addr, "__deploy__", DeployPayload(code));
  ASSERT_TRUE(deploy.ok()) << deploy.status().ToString();
  ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(deploy->tx).ok());
  CommitRound();

  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(systems_[0]->node()->SubmitTransaction(call->tx).ok());
  CommitRound();
  ExpectConverged();

  // Sealing is deterministic, so every replica stores a byte-identical
  // sealed receipt — and the retained k_tx opens any copy.
  const crypto::Hash256 tx_hash = call->tx.Hash();
  Bytes first_wire;
  for (uint32_t i = 0; i < kNodes; ++i) {
    auto receipt = systems_[i]->node()->GetReceipt(tx_hash);
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
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(
                      client_->MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  CommitRound();
  ExpectConverged();

  // Split node 2 off; it misses the next two blocks.
  ASSERT_TRUE(sim_.SetPartition(2, 1).ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(systems_[0]
                    ->node()
                    ->SubmitTransaction(client_->MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    CommitRound();
  }
  EXPECT_EQ(nodes_[2]->Height() + 2, nodes_[0]->Height());

  // Heal. The next pre-prepare jumps past node 2's tip, which triggers
  // the kFetchBlocks gap pull; DeliverAll drains fetch + reply + votes.
  sim_.HealPartitions();
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(client_->MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  CommitRound();
  hub_->DeliverAll();
  ExpectConverged();
}

TEST_F(SimClusterTest, SubmitPlaneRoutesThroughFrames) {
  // A client frame (kSubmitTx) delivered to the leader must land in its
  // pools and be rejected with a structured ack when malformed.
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("sim.frames");
  chain::Transaction tx =
      client_->MakePublicTx(addr, "__deploy__", DeployPayload(code));

  SimTransport client_endpoint(hub_.get(), 2);  // borrow node 2's id slot
  nodes_[2]->Stop();
  std::optional<OwnedFrame> ack;
  client_endpoint.SetHandler(
      [&](uint32_t, MsgType type, ByteView body) -> std::optional<OwnedFrame> {
        ack = OwnedFrame{type, ToBytes(body)};
        return std::nullopt;
      });
  ASSERT_TRUE(client_endpoint.Start().ok());

  ASSERT_TRUE(client_endpoint.Send(0, MsgType::kSubmitTx, tx.Serialize()).ok());
  hub_->DeliverAll();
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
  EXPECT_EQ(systems_[0]->node()->UnverifiedPoolSize() +
                systems_[0]->node()->VerifiedPoolSize(),
            1u);

  // A frame that is not a decodable transaction earns a structured
  // kError reply (docs/WIRE_PROTOCOL.md §Error frames), not silence.
  ack.reset();
  ASSERT_TRUE(client_endpoint.Send(0, MsgType::kSubmitTx, AsByteView("garbage")).ok());
  hub_->DeliverAll();
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
struct SimViewCluster {
  explicit SimViewCluster(uint32_t n, size_t block_max_bytes = 64 * 1024)
      : sim(chain::NetworkSim::SingleZone(n)), hub(&sim, /*seed=*/5) {
    for (uint32_t i = 0; i < n; ++i) {
      systems.push_back(MakeSystem(block_max_bytes));
      EXPECT_NE(systems[i], nullptr);
      nodes.push_back(std::make_unique<ClusterNode>(
          systems[i].get(), std::make_unique<SimTransport>(&hub, i)));
      EXPECT_TRUE(nodes[i]->Start().ok());
    }
    client = std::make_unique<Client>(99, systems[0]->pk_tx());
  }
  ~SimViewCluster() {
    for (auto& node : nodes) node->Stop();
  }

  chain::NetworkSim sim;
  SimHub hub;
  std::vector<std::unique_ptr<ConfideSystem>> systems;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<Client> client;
};

// ---------------------------------------------------------------------------
// One block lifecycle, three drivers
// ---------------------------------------------------------------------------

TEST(LifecycleDriversTest, SerialPipelinedAndClusterProduceTheSameChain) {
  // The serial loop, the depth-3 pipeline and a 4-node PBFT cluster all
  // drive the same execute/stage and commit steps, so one signed tx set
  // must produce byte-identical chains under each.
  constexpr size_t kBlockBytes = 4096;  // several blocks per phase
  auto serial = MakeSystem(kBlockBytes, /*pipeline_depth=*/0);
  auto piped = MakeSystem(kBlockBytes, /*pipeline_depth=*/3);
  SimViewCluster cluster(4, kBlockBytes);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(piped, nullptr);

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
      ASSERT_TRUE(piped->node()->SubmitTransaction(tx).ok());
      ASSERT_TRUE(leader->SubmitTransaction(tx).ok());
    }
    auto serial_receipts = serial->node()->RunPipelined();
    ASSERT_TRUE(serial_receipts.ok()) << serial_receipts.status().ToString();
    ASSERT_EQ(serial_receipts->size(), phase.size());
    auto piped_receipts = piped->node()->RunPipelined();
    ASSERT_TRUE(piped_receipts.ok()) << piped_receipts.status().ToString();
    ASSERT_EQ(piped_receipts->size(), phase.size());
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
  std::vector<chain::Node*> others = {piped->node()};
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
// TCP clusters: real sockets, blocking LeaderTick, catch-up
// ---------------------------------------------------------------------------

class TcpClusterTest : public ::testing::Test {
 protected:
  TcpClusterTest() { base_options_.propose_wait_ms = 2000; }

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

  auto committed = nodes_[0]->LeaderTick();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 1u);
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
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(
                      client.MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  ASSERT_TRUE(nodes_[0]->LeaderTick().ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(systems_[0]
                    ->node()
                    ->SubmitTransaction(client.MakePublicTx(addr, "increment", Bytes{}))
                    .ok());
    ASSERT_TRUE(nodes_[0]->LeaderTick().ok());
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
  // not leave fetch_in_flight_ latched — every later gap-repair pull
  // would be suppressed and the node could never heal.
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

TEST_F(TcpClusterTest, AbandonedProposalRequeuesTransactionsForNextRound) {
  // Regression: a leader that cannot reach quorum abandons the round; the
  // drained transactions must return to the verified pool and the stale
  // Pending entry must not block the same seq once peers appear.
  base_options_.propose_wait_ms = 100;
  base_options_.propose_retries = 1;
  for (size_t i = 0; i < 4; ++i) {
    peers_.push_back("127.0.0.1:" + std::to_string(PickPort()));
  }
  systems_.resize(4);
  nodes_.resize(4);
  StartNode(0);  // alone: Quorum(4) = 3 is unreachable

  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.abandon");
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(
                      client.MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());

  auto tick = nodes_[0]->LeaderTick();
  EXPECT_FALSE(tick.ok());
  const uint64_t h0 = nodes_[0]->Height();
  EXPECT_EQ(systems_[0]->node()->VerifiedPoolSize(), 1u);

  // The quorum arrives late; the same seq must now replicate cleanly.
  for (uint32_t id = 1; id < 4; ++id) StartNode(id);
  auto committed = nodes_[0]->LeaderTick();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 1u);
  EXPECT_EQ(nodes_[0]->Height(), h0 + 1);
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
}

TEST_F(TcpClusterTest, HeartbeatDetectorElectsNewLeaderAndRedirects) {
  base_options_.heartbeat_ms = 20;
  base_options_.view_timeout_ms = 150;
  base_options_.view_timeout_max_ms = 2000;
  StartCluster(3);
  Client client(99, systems_[0]->pk_tx());
  const Bytes code = CounterCode();
  chain::Address addr = NamedAddress("tcp.failover");
  ASSERT_TRUE(systems_[0]
                  ->node()
                  ->SubmitTransaction(
                      client.MakePublicTx(addr, "__deploy__", DeployPayload(code)))
                  .ok());
  ASSERT_TRUE(nodes_[0]->LeaderTick().ok());
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

  // Re-routed to the announced leader, the survivors commit without 0.
  auto to_leader = FrameClient::Dial(peers_[leader]);
  ASSERT_TRUE(to_leader.ok());
  auto ack = to_leader->Call(MsgType::kSubmitTx, tx.Serialize());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, MsgType::kSubmitTxAck);
  auto committed = nodes_[leader]->LeaderTick();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 1u);
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
  ASSERT_TRUE(nodes_[0]->LeaderTick().ok());
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
  ASSERT_TRUE(nodes_[leader]->LeaderTick().ok());
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
  ASSERT_TRUE(nodes_[0]->LeaderTick().ok());

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
  ASSERT_TRUE(nodes_[0]->LeaderTick().ok());
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

}  // namespace
}  // namespace confide::net
