#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "chain/checkpoint.h"
#include "chain/executor.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "chain/network.h"
#include "chain/node.h"
#include "chain/state.h"
#include "chain/sync.h"
#include "chain/types.h"
#include "common/endian.h"
#include "crypto/drbg.h"
#include "serialize/rlp.h"
#include "storage/lsm_store.h"

namespace confide::chain {
namespace {

std::shared_ptr<storage::KvStore> MakeKv() {
  auto store = storage::LsmKvStore::Open(storage::LsmOptions{});
  return std::shared_ptr<storage::KvStore>(std::move(*store));
}

Transaction MakeSignedTx(crypto::Drbg* rng, const Address& contract,
                         const std::string& entry, Bytes input,
                         crypto::KeyPair* out_kp = nullptr) {
  crypto::KeyPair kp = crypto::GenerateKeyPair(rng);
  Transaction tx;
  tx.type = TxType::kPublic;
  tx.sender = kp.pub;
  tx.contract = contract;
  tx.entry = entry;
  tx.input = std::move(input);
  tx.nonce = 1;
  tx.signature = *crypto::EcdsaSign(kp.priv, tx.SigningHash());
  if (out_kp != nullptr) *out_kp = kp;
  return tx;
}

/// Engine that records keys: "set:<k>=<v>" writes state; "fail" traps;
/// "bump" increments a counter slot on the contract named by tx.input —
/// a stand-in for a nested call writing a contract outside the tx's own
/// conflict group.
class ScriptEngine : public ExecutionEngine {
 public:
  using ExecutionEngine::Execute;

  Result<bool> PreVerify(const Transaction& tx) override {
    return crypto::EcdsaVerify(tx.sender, tx.SigningHash(), tx.signature);
  }

  Result<Receipt> Execute(const Transaction& tx, StateDb* state,
                          TxTouchSet* touch) override {
    ++executed;
    Receipt receipt;
    receipt.tx_hash = tx.Hash();
    if (tx.entry == "fail") {
      state->Put(tx.contract, AsByteView("poison"), ToBytes(std::string_view("x")));
      return Status::VmTrap("scripted failure");
    }
    if (tx.entry == "bump") {
      Address target = NamedAddress(ToString(tx.input));
      uint64_t value = 0;
      auto current = state->Get(target, AsByteView("n"));
      if (current.ok() && current->size() == 8) value = LoadBe64(current->data());
      Bytes next(8);
      StoreBe64(next.data(), value + 1);
      state->Put(target, AsByteView("n"), next);
      if (touch != nullptr) {
        touch->read_keys.push_back(LoadBe64(target.data()));
        touch->written_keys.push_back(LoadBe64(target.data()));
      }
      receipt.success = true;
      return receipt;
    }
    state->Put(tx.contract, tx.input, ToBytes(std::string_view("written")));
    if (touch != nullptr) {
      touch->written_keys.push_back(LoadBe64(tx.contract.data()));
    }
    receipt.success = true;
    receipt.output = ToBytes(std::string_view("ok"));
    return receipt;
  }

  uint64_t ConflictKey(const Transaction& tx) override {
    return LoadBe64(tx.contract.data());
  }

  std::atomic<int> executed{0};
};

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(ChainTypesTest, PublicTxSerializationRoundTrip) {
  crypto::Drbg rng(1);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "transfer",
                                ToBytes(std::string_view("args")));
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->entry, "transfer");
  EXPECT_EQ(back->contract, tx.contract);
  EXPECT_EQ(back->signature, tx.signature);
  EXPECT_EQ(back->Hash(), tx.Hash());
}

TEST(ChainTypesTest, ConfidentialTxSerializationRoundTrip) {
  Transaction tx;
  tx.type = TxType::kConfidential;
  tx.envelope = crypto::Drbg(2).Generate(200);
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, TxType::kConfidential);
  EXPECT_EQ(back->envelope, tx.envelope);
}

TEST(ChainTypesTest, SigningHashExcludesSignature) {
  crypto::Drbg rng(3);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("c"), "m", Bytes{});
  crypto::Hash256 h1 = tx.SigningHash();
  crypto::Hash256 wire1 = tx.Hash();
  tx.signature[0] ^= 0xff;
  EXPECT_EQ(tx.SigningHash(), h1);   // signing hash unchanged
  EXPECT_NE(tx.Hash(), wire1);       // wire hash covers the signature
}

TEST(ChainTypesTest, ReceiptRoundTrip) {
  Receipt receipt;
  receipt.tx_hash = crypto::Sha256::Digest(AsByteView("tx"));
  receipt.success = true;
  receipt.output = ToBytes(std::string_view("output"));
  receipt.logs = {ToBytes(std::string_view("log1")), ToBytes(std::string_view("log2"))};
  receipt.gas_used = 12345;
  auto back = Receipt::Deserialize(receipt.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tx_hash, receipt.tx_hash);
  EXPECT_TRUE(back->success);
  EXPECT_EQ(back->logs.size(), 2u);
  EXPECT_EQ(back->gas_used, 12345u);
}

TEST(ChainTypesTest, BlockRoundTrip) {
  crypto::Drbg rng(4);
  Block block;
  block.header.height = 7;
  block.header.parent_hash = crypto::Sha256::Digest(AsByteView("parent"));
  block.header.timestamp_ns = 999;
  block.transactions.push_back(
      MakeSignedTx(&rng, NamedAddress("a"), "m1", ToBytes(std::string_view("x"))));
  Transaction conf;
  conf.type = TxType::kConfidential;
  conf.envelope = rng.Generate(64);
  block.transactions.push_back(conf);

  auto back = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->header.height, 7u);
  EXPECT_EQ(back->transactions.size(), 2u);
  EXPECT_EQ(back->transactions[1].type, TxType::kConfidential);
  EXPECT_EQ(back->header.Hash(), block.header.Hash());
}

TEST(ChainTypesTest, NamedAddressesAreStableAndDistinct) {
  EXPECT_EQ(NamedAddress("gateway"), NamedAddress("gateway"));
  EXPECT_NE(NamedAddress("gateway"), NamedAddress("manager"));
}

TEST(ChainTypesTest, TransactionRefMatchesOwningDecode) {
  crypto::Drbg rng(5);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "transfer",
                                rng.Generate(100));
  const Bytes wire = tx.Serialize();

  auto ref = TransactionRef::Decode(wire);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->SenderKey(), tx.sender);
  EXPECT_EQ(ref->ContractAddress(), tx.contract);
  EXPECT_EQ(ref->EntryString(), tx.entry);
  EXPECT_EQ(ToBytes(ref->input), tx.input);
  EXPECT_EQ(ref->nonce, tx.nonce);
  EXPECT_EQ(ref->SignatureValue(), tx.signature);
  EXPECT_EQ(ref->SigningHash(), tx.SigningHash());

  // Views alias the wire buffer — no field was copied.
  EXPECT_GE(ref->input.data(), wire.data());
  EXPECT_LE(ref->input.data() + ref->input.size(), wire.data() + wire.size());

  Transaction owned = ref->ToOwned();
  EXPECT_EQ(owned.Serialize(), wire);
  EXPECT_EQ(owned.Hash(), tx.Hash());
}

TEST(ChainTypesTest, ReceiptRefMatchesOwningDecode) {
  crypto::Drbg rng(6);
  Receipt receipt;
  receipt.tx_hash = crypto::Sha256::Digest(AsByteView("tx"));
  receipt.success = false;
  receipt.status_message = "trap: divide by zero";
  receipt.output = rng.Generate(64);
  receipt.logs = {rng.Generate(16), rng.Generate(24)};
  receipt.gas_used = 777;
  const Bytes wire = receipt.Serialize();

  auto ref = ReceiptRef::Decode(wire);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->success, receipt.success);
  EXPECT_EQ(ref->log_count, receipt.logs.size());
  EXPECT_EQ(ref->gas_used, receipt.gas_used);
  EXPECT_GE(ref->output.data(), wire.data());
  EXPECT_LE(ref->output.data() + ref->output.size(),
            wire.data() + wire.size());

  Receipt owned = ref->ToOwned();
  EXPECT_EQ(owned.status_message, receipt.status_message);
  EXPECT_EQ(owned.output, receipt.output);
  EXPECT_EQ(owned.logs, receipt.logs);
  EXPECT_EQ(owned.Serialize(), wire);
}

TEST(ChainTypesTest, MalformedWiresFailCleanly) {
  crypto::Drbg rng(7);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "m",
                                rng.Generate(32));
  const Bytes tx_wire = tx.Serialize();

  // Truncations at every boundary must error, never crash.
  for (size_t len = 0; len < tx_wire.size(); ++len) {
    ByteView cut(tx_wire.data(), len);
    EXPECT_FALSE(Transaction::Deserialize(cut).ok()) << "len " << len;
    EXPECT_FALSE(TransactionRef::Decode(cut).ok()) << "len " << len;
  }

  // A confidential tx whose envelope slot holds a nested list.
  serialize::RlpWriter conf;
  size_t list = conf.BeginList();
  conf.WriteU64(uint64_t(TxType::kConfidential));
  size_t bogus = conf.BeginList();
  conf.WriteString("not-bytes");
  conf.EndList(bogus);
  conf.EndList(list);
  EXPECT_FALSE(Transaction::Deserialize(std::move(conf).Take()).ok());

  // A receipt whose logs slot holds bytes instead of a list.
  serialize::RlpWriter rec;
  list = rec.BeginList();
  rec.WriteBytes(Bytes(32, 0xAB));  // tx_hash
  rec.WriteU64(1);                  // success
  rec.WriteString("");              // status_message
  rec.WriteString("out");           // output
  rec.WriteString("not-a-list");    // logs: wrong kind
  rec.WriteU64(9);                  // gas_used
  rec.EndList(list);
  const Bytes bad_receipt = std::move(rec).Take();
  EXPECT_FALSE(Receipt::Deserialize(bad_receipt).ok());
  EXPECT_FALSE(ReceiptRef::Decode(bad_receipt).ok());
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

TEST(StateDbTest, OverlayReadsThroughAndCommitsAtomically) {
  CommitStateDb state(MakeKv());
  Address c = NamedAddress("c");
  state.Put(c, AsByteView("k1"), ToBytes(std::string_view("v1")));
  EXPECT_EQ(state.PendingWrites(), 1u);
  EXPECT_EQ(ToString(*state.Get(c, AsByteView("k1"))), "v1");  // read-own-write
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_EQ(state.PendingWrites(), 0u);
  EXPECT_EQ(ToString(*state.Get(c, AsByteView("k1"))), "v1");
}

TEST(StateDbTest, DiscardDropsWrites) {
  CommitStateDb state(MakeKv());
  Address c = NamedAddress("c");
  state.Put(c, AsByteView("k"), ToBytes(std::string_view("v")));
  state.Discard();
  EXPECT_TRUE(state.Get(c, AsByteView("k")).status().IsNotFound());
}

TEST(StateDbTest, ContractsAreNamespaced) {
  CommitStateDb state(MakeKv());
  state.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("1")));
  state.Put(NamedAddress("b"), AsByteView("k"), ToBytes(std::string_view("2")));
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_EQ(ToString(*state.Get(NamedAddress("a"), AsByteView("k"))), "1");
  EXPECT_EQ(ToString(*state.Get(NamedAddress("b"), AsByteView("k"))), "2");
}

TEST(StateDbTest, StateRootChangesWithCommits) {
  CommitStateDb state(MakeKv());
  crypto::Hash256 r0 = state.StateRoot();
  state.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("v")));
  ASSERT_TRUE(state.Commit().ok());
  crypto::Hash256 r1 = state.StateRoot();
  EXPECT_NE(r0, r1);
  // Identical sequence on another instance yields the same root
  // (replica determinism).
  CommitStateDb other(MakeKv());
  other.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("v")));
  ASSERT_TRUE(other.Commit().ok());
  EXPECT_EQ(other.StateRoot(), r1);
}

TEST(StateDbTest, StateRootIsTheChainedDigestOfSortedWrites) {
  // root' = SHA-256(root || key1 || value1 || key2 || value2 ...) over one
  // commit's writes in key order; a commit without writes keeps the root.
  // Replicas and a restarted node (which restores the root from its tip
  // header) must agree on this formula byte for byte, so it is pinned.
  CommitStateDb state(MakeKv());
  state.Put(NamedAddress("b"), AsByteView("k2"), ToBytes(std::string_view("v2")));
  state.Put(NamedAddress("a"), AsByteView("k1"), ToBytes(std::string_view("v1")));
  ASSERT_TRUE(state.Commit().ok());
  const crypto::Hash256 r1 = state.StateRoot();

  std::map<std::string, std::string> sorted = {
      {StateDb::StateKey(NamedAddress("a"), AsByteView("k1")), "v1"},
      {StateDb::StateKey(NamedAddress("b"), AsByteView("k2")), "v2"}};
  crypto::Sha256 expected;
  expected.Update(crypto::HashView(crypto::Hash256{}));
  for (const auto& [key, value] : sorted) {
    expected.Update(AsByteView(key));
    expected.Update(AsByteView(value));
  }
  EXPECT_EQ(r1, expected.Finish());

  ASSERT_TRUE(state.Commit().ok());  // empty commit
  EXPECT_EQ(state.StateRoot(), r1);

  state.Put(NamedAddress("a"), AsByteView("k1"), ToBytes(std::string_view("v3")));
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_EQ(HexEncode(crypto::HashView(state.StateRoot())),
            "0fa234015af929519a012cda0cb4edf88d4e1384dc6c7987d930e0f1ade5d854");
}

TEST(StateDbTest, StagedWritesStayReadableUntilFinalizeAndDiscardReverts) {
  auto kv = MakeKv();
  CommitStateDb state(kv);
  Address c = NamedAddress("c");
  state.Put(c, AsByteView("k1"), ToBytes(std::string_view("v1")));
  ASSERT_TRUE(state.Commit().ok());
  const crypto::Hash256 durable = state.StateRoot();

  auto stage = [&](storage::WriteBatch* batch) {
    state.Put(c, AsByteView("k1"), ToBytes(std::string_view("v2")));
    state.Put(c, AsByteView("k2"), ToBytes(std::string_view("w")));
    crypto::Hash256 root;
    state.StageCommit(batch, &root);
    return root;
  };
  auto read = [&](std::string_view key) {
    auto value = state.Get(c, AsByteView(key));
    return value.ok() ? ToString(*value) : value.status().ToString();
  };

  storage::WriteBatch first;
  const crypto::Hash256 staged_root = stage(&first);
  EXPECT_NE(staged_root, durable);
  EXPECT_EQ(first.ops().size(), 2u);
  // The block's writes stay readable (Get and GetMany) until finalized,
  // while the state root stays the durable one.
  EXPECT_EQ(read("k1"), "v2");
  EXPECT_EQ(read("k2"), "w");
  auto many = state.GetMany({{c, ToBytes(std::string_view("k1"))},
                             {c, ToBytes(std::string_view("k2"))}});
  ASSERT_TRUE(many[0].ok() && many[1].ok());
  EXPECT_EQ(ToString(*many[0]), "v2");
  EXPECT_EQ(ToString(*many[1]), "w");
  EXPECT_EQ(state.StateRoot(), durable);

  // Discard is the rollback: reads and the root return to the durable state.
  state.Discard();
  EXPECT_EQ(read("k1"), "v1");
  EXPECT_TRUE(state.Get(c, AsByteView("k2")).status().IsNotFound());
  EXPECT_EQ(state.StateRoot(), durable);
  EXPECT_EQ(state.PendingWrites(), 0u);

  // Re-staging the same writes gives the same root; once the batch lands
  // and is finalized, the store serves the writes.
  storage::WriteBatch second;
  EXPECT_EQ(stage(&second), staged_root);
  ASSERT_TRUE(kv->Write(second).ok());
  state.FinalizeCommit(staged_root);
  EXPECT_EQ(state.PendingWrites(), 0u);
  EXPECT_EQ(state.StateRoot(), staged_root);
  EXPECT_EQ(read("k1"), "v2");
  EXPECT_EQ(read("k2"), "w");
}

TEST(StateDbTest, OverlayStateDbMergesOnCommitOnly) {
  CommitStateDb base(MakeKv());
  Address c = NamedAddress("c");
  base.Put(c, AsByteView("base"), ToBytes(std::string_view("b")));

  OverlayStateDb overlay(&base);
  overlay.Put(c, AsByteView("new"), ToBytes(std::string_view("n")));
  EXPECT_EQ(ToString(*overlay.Get(c, AsByteView("base"))), "b");  // parent visible
  EXPECT_TRUE(base.Get(c, AsByteView("new")).status().IsNotFound());
  ASSERT_TRUE(overlay.Commit().ok());
  EXPECT_EQ(ToString(*base.Get(c, AsByteView("new"))), "n");

  OverlayStateDb discarded(&base);
  discarded.Put(c, AsByteView("gone"), ToBytes(std::string_view("g")));
  discarded.Discard();
  ASSERT_TRUE(discarded.Commit().ok());
  EXPECT_TRUE(base.Get(c, AsByteView("gone")).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Network + PBFT
// ---------------------------------------------------------------------------

TEST(NetworkTest, IntraZoneFasterThanInterZone) {
  NetworkSim net = NetworkSim::TwoZone(6);
  // Nodes 0,1 in shanghai; 2..5 in beijing (1:2 split).
  uint64_t intra = net.TransferNs(2, 3, 1000);
  uint64_t inter = net.TransferNs(0, 3, 1000);
  EXPECT_LT(intra, inter);
  EXPECT_GE(inter, 30'000'000u);
}

TEST(NetworkTest, TransferScalesWithPayload) {
  NetworkSim net = NetworkSim::SingleZone(2);
  EXPECT_LT(net.TransferNs(0, 1, 100), net.TransferNs(0, 1, 10'000'000));
  EXPECT_EQ(net.TransferNs(0, 0, 100), 0u);
}

TEST(NetworkTest, OutOfRangeNodeIdsReturnSentinelsNotUb) {
  NetworkSim net = NetworkSim::SingleZone(3);
  // Past-the-end and far-out ids: documented sentinels, no OOB indexing.
  EXPECT_EQ(net.ZoneOf(3), NetworkSim::kInvalidZone);
  EXPECT_EQ(net.ZoneOf(UINT32_MAX), NetworkSim::kInvalidZone);
  EXPECT_EQ(net.TransferNs(0, 3, 1000), 0u);
  EXPECT_EQ(net.TransferNs(7, 0, 1000), 0u);
  EXPECT_EQ(net.LatencyNs(0, 99), 0u);
  EXPECT_EQ(net.SerializationNs(99, 0, 1000), 0u);
  EXPECT_EQ(net.DropRate(99, 99), 0.0);
  EXPECT_EQ(net.JitterNs(0, 99), 0u);
  EXPECT_FALSE(net.Reachable(0, 3));
  EXPECT_FALSE(net.Reachable(3, 0));
  EXPECT_TRUE(net.Reachable(0, 2));
  // Invalid ids are rejected by the mutators too.
  EXPECT_FALSE(net.SetPartition(3, 1).ok());
  EXPECT_FALSE(net.SetLink(0, 5, LinkModel{}).ok());
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(ExecutorTest, ExecutesAllAndCollectsReceiptsInOrder) {
  crypto::Drbg rng(5);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  std::vector<Transaction> txs;
  for (int i = 0; i < 10; ++i) {
    txs.push_back(MakeSignedTx(&rng, NamedAddress("c" + std::to_string(i % 3)),
                               "write", ToBytes("key-" + std::to_string(i))));
  }
  ThreadPool pool(3);
  BlockExecutor executor(ExecutorOptions{4, &pool});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE((*receipts)[i].success);
    EXPECT_EQ((*receipts)[i].tx_hash, txs[i].Hash());
  }
  EXPECT_EQ(engine.executed.load(), 10);
  ASSERT_TRUE(state.Commit().ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(state.Get(NamedAddress("c" + std::to_string(i % 3)),
                          ToBytes("key-" + std::to_string(i)))
                    .ok());
  }
}

TEST(ExecutorTest, FailedTxDiscardsOnlyItsWrites) {
  crypto::Drbg rng(6);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  std::vector<Transaction> txs;
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "write",
                             ToBytes(std::string_view("good1"))));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "fail", Bytes{}));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "write",
                             ToBytes(std::string_view("good2"))));
  BlockExecutor executor(ExecutorOptions{1});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_FALSE((*receipts)[1].success);
  EXPECT_TRUE((*receipts)[2].success);
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("good1")).ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("good2")).ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("poison")).status().IsNotFound());
}

TEST(ExecutorTest, ParallelAndSerialProduceSameState) {
  crypto::Drbg rng(7);
  std::vector<Transaction> txs;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(MakeSignedTx(&rng, NamedAddress("c" + std::to_string(i % 5)),
                               "write", ToBytes("k" + std::to_string(i))));
  }
  auto run = [&](uint32_t parallelism) {
    ScriptEngine engine;
    EngineSet engines{&engine, &engine};
    CommitStateDb state(MakeKv());
    ThreadPool pool(parallelism - 1);
    BlockExecutor executor(ExecutorOptions{parallelism, &pool});
    EXPECT_TRUE(executor.ExecuteBlock(txs, engines, &state).ok());
    EXPECT_TRUE(state.Commit().ok());
    return state.StateRoot();
  };
  EXPECT_EQ(run(1), run(6));
}

TEST(ExecutorTest, CrossGroupSharedWriteReExecutesSerially) {
  // Two txs target distinct contracts (distinct conflict groups) but both
  // "bump" the same shared contract's counter — the nested-write overlap
  // the envelope-level conflict key cannot see. A last-writer-wins merge
  // loses one increment; overlap detection must rerun the groups serially
  // so both survive.
  crypto::Drbg rng(11);
  std::vector<Transaction> txs;
  txs.push_back(MakeSignedTx(&rng, NamedAddress("left"), "bump", ToBytes("shared")));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("right"), "bump", ToBytes("shared")));

  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  ThreadPool pool(3);
  BlockExecutor executor(ExecutorOptions{/*parallelism=*/4, &pool});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_TRUE((*receipts)[1].success);

  auto value = state.Get(NamedAddress("shared"), AsByteView("n"));
  ASSERT_TRUE(value.ok());
  ASSERT_EQ(value->size(), 8u);
  EXPECT_EQ(LoadBe64(value->data()), 2u);
  // Both bumps executed once in parallel, then both groups serially.
  EXPECT_EQ(engine.executed.load(), 4);
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : engines_{&engine_, &engine_},
        node_ptr_(std::move(Node::Create(NodeOptions{}, engines_).value())),
        node_(*node_ptr_) {}

  crypto::Drbg rng_{8};
  ScriptEngine engine_;
  EngineSet engines_;
  std::unique_ptr<Node> node_ptr_;  // a volatile store never fails to open
  Node& node_;
};

TEST_F(NodeTest, SubmitVerifyProposeApply) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(node_
                    .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                    ToBytes("k" + std::to_string(i))))
                    .ok());
  }
  EXPECT_EQ(node_.UnverifiedPoolSize(), 5u);
  auto verified = node_.PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 5u);
  EXPECT_EQ(node_.VerifiedPoolSize(), 5u);

  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  EXPECT_GT(block->transactions.size(), 0u);
  auto receipts = node_.ApplyBlock(*block);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  EXPECT_EQ(receipts->size(), block->transactions.size());
  EXPECT_EQ(node_.Height(), 1u);

  // Receipts retrievable by hash.
  auto receipt = node_.GetReceipt(block->transactions[0].Hash());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
}

TEST_F(NodeTest, InvalidSignatureDiscardedInPreVerify) {
  Transaction bad = MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                 ToBytes(std::string_view("k")));
  bad.signature[5] ^= 0x1;
  ASSERT_TRUE(node_.SubmitTransaction(bad).ok());
  auto verified = node_.PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 0u);
  EXPECT_EQ(node_.VerifiedPoolSize(), 0u);
}

TEST_F(NodeTest, BlockSizeLimitSplitsBlocks) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(node_
                    .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                    Bytes(200, uint8_t(i))))
                    .ok());
  }
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  // ~300 bytes/tx against the 4KB default: blocks hold ~13 txs.
  EXPECT_LT(block->transactions.size(), 50u);
  EXPECT_GT(node_.VerifiedPoolSize(), 0u);
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());

  int blocks = 1;
  while (node_.VerifiedPoolSize() > 0) {
    auto next = node_.ProposeBlock();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(node_.ApplyBlock(*next).ok());
    ++blocks;
  }
  EXPECT_GT(blocks, 2);
  EXPECT_EQ(node_.Height(), uint64_t(blocks));
}

TEST_F(NodeTest, ApplyBlockRejectsWrongHeightOrParent) {
  ASSERT_TRUE(node_
                  .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                  ToBytes(std::string_view("k"))))
                  .ok());
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  Block wrong_height = *block;
  wrong_height.header.height = 5;
  EXPECT_FALSE(node_.ApplyBlock(wrong_height).ok());
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());
  // Re-applying the same block (stale) must fail — rollback protection.
  EXPECT_FALSE(node_.ApplyBlock(*block).ok());
}

TEST_F(NodeTest, SpvProofRoundTrip) {
  std::vector<Transaction> txs;
  for (int i = 0; i < 4; ++i) {
    txs.push_back(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                               ToBytes("k" + std::to_string(i))));
    ASSERT_TRUE(node_.SubmitTransaction(txs.back()).ok());
  }
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());

  auto proof = node_.ProveTransaction(txs[2].Hash());
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(Node::VerifyTxProof(*proof));

  // Tampered proof fails.
  TxProof bad = *proof;
  bad.tx_wire[0] ^= 0xff;
  EXPECT_FALSE(Node::VerifyTxProof(bad));

  // Unknown tx has no proof.
  EXPECT_FALSE(node_.ProveTransaction(crypto::Sha256::Digest(AsByteView("no"))).ok());
}


TEST_F(NodeTest, RunToCompletionDrainsThePoolsBlockByBlock) {
  auto empty = node_.RunToCompletion();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(node_.Height(), 0u);

  std::vector<Transaction> txs;
  for (int i = 0; i < 3; ++i) {
    txs.push_back(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                               ToBytes("k" + std::to_string(i))));
    ASSERT_TRUE(node_.SubmitTransaction(txs.back()).ok());
  }
  auto receipts = node_.RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ((*receipts)[i].tx_hash, txs[i].Hash());
  }
  EXPECT_EQ(node_.Height(), 1u);  // 4 KB blocks: all three fit in one
  EXPECT_EQ(node_.UnverifiedPoolSize() + node_.VerifiedPoolSize(), 0u);
}


// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

CheckpointManifest TestManifest() {
  CheckpointManifest manifest;
  manifest.height = 8;
  manifest.block_hash = crypto::Sha256::Digest(AsByteView("block-7"));
  manifest.state_root = crypto::Sha256::Digest(AsByteView("root-7"));
  manifest.total_entries = 12;
  manifest.total_bytes = 4096;
  manifest.chunk_hashes = {crypto::Sha256::Digest(AsByteView("chunk-0")),
                           crypto::Sha256::Digest(AsByteView("chunk-1"))};
  std::vector<Bytes> leaves;
  for (const crypto::Hash256& h : manifest.chunk_hashes) {
    leaves.push_back(ToBytes(crypto::HashView(h)));
  }
  manifest.chunks_root = crypto::MerkleTree(leaves).Root();
  return manifest;
}

TEST(CheckpointTest, ManifestSerializationRoundTrip) {
  CheckpointManifest manifest = TestManifest();
  auto decoded = CheckpointManifest::Deserialize(manifest.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->height, manifest.height);
  EXPECT_EQ(decoded->block_hash, manifest.block_hash);
  EXPECT_EQ(decoded->state_root, manifest.state_root);
  EXPECT_EQ(decoded->total_entries, manifest.total_entries);
  EXPECT_EQ(decoded->total_bytes, manifest.total_bytes);
  EXPECT_EQ(decoded->chunks_root, manifest.chunks_root);
  EXPECT_EQ(decoded->chunk_hashes, manifest.chunk_hashes);
  EXPECT_EQ(decoded->Digest(), manifest.Digest());
}

TEST(CheckpointTest, QuorumSizeIsTwoFPlusOne) {
  EXPECT_EQ(ValidatorSet::Generate(4, 1).QuorumSize(), 3u);   // f = 1
  EXPECT_EQ(ValidatorSet::Generate(7, 1).QuorumSize(), 5u);   // f = 2
  EXPECT_EQ(ValidatorSet::Generate(10, 1).QuorumSize(), 7u);  // f = 3
}

TEST(CheckpointTest, CertificateRoundTripAndQuorumVerify) {
  ValidatorSet validators = ValidatorSet::Generate(4, 21);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  EXPECT_EQ(certificate->votes.size(), validators.QuorumSize());
  EXPECT_TRUE(validators.Verify(manifest, *certificate).ok());

  auto decoded = CheckpointCertificate::Deserialize(certificate->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(validators.Verify(manifest, *decoded).ok());
}

TEST(CheckpointTest, VerifyRejectsForgedSignature) {
  ValidatorSet validators = ValidatorSet::Generate(4, 22);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  certificate->votes.front().second[3] ^= 0x01;
  Status verdict = validators.Verify(manifest, *certificate);
  EXPECT_EQ(verdict.code(), StatusCode::kPermissionDenied);
}

TEST(CheckpointTest, VerifyRejectsTamperedManifest) {
  ValidatorSet validators = ValidatorSet::Generate(4, 23);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  manifest.state_root[0] ^= 0x01;  // certificate now signs something else
  Status verdict = validators.Verify(manifest, *certificate);
  EXPECT_EQ(verdict.code(), StatusCode::kPermissionDenied);
}

TEST(CheckpointTest, VerifyRejectsSubQuorumAndDuplicateVotes) {
  ValidatorSet validators = ValidatorSet::Generate(4, 24);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());

  CheckpointCertificate sub_quorum = *certificate;
  sub_quorum.votes.resize(validators.QuorumSize() - 1);
  EXPECT_EQ(validators.Verify(manifest, sub_quorum).code(),
            StatusCode::kPermissionDenied);

  // Padding the quorum with a repeated vote must not count twice.
  CheckpointCertificate duplicated = sub_quorum;
  duplicated.votes.push_back(duplicated.votes.front());
  EXPECT_EQ(validators.Verify(manifest, duplicated).code(),
            StatusCode::kPermissionDenied);
}

namespace {

/// Drives `blocks` single-transaction blocks through the serial lifecycle.
void RunBlocks(Node* node, crypto::Drbg* rng, int blocks,
               std::vector<crypto::Hash256>* tx_hashes = nullptr) {
  for (int b = 0; b < blocks; ++b) {
    Transaction tx =
        MakeSignedTx(rng, NamedAddress("store"), "write",
                     ToBytes("key" + std::to_string(node->Height())));
    if (tx_hashes != nullptr) tx_hashes->push_back(tx.Hash());
    ASSERT_TRUE(node->SubmitTransaction(tx).ok());
    ASSERT_TRUE(node->PreVerify().ok());
    auto block = node->ProposeBlock();
    ASSERT_TRUE(block.ok());
    auto receipts = node->ApplyBlock(*block);
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  }
}

NodeOptions CheckpointedOptions(const ValidatorSet* validators,
                                uint64_t interval = 2) {
  NodeOptions options;
  options.checkpoint.interval = interval;
  options.checkpoint.chunk_bytes = 256;  // force multi-chunk snapshots
  options.validators = validators;
  return options;
}

}  // namespace

TEST(CheckpointTest, NodeWritesVerifiableCheckpointsAtInterval) {
  ValidatorSet validators = ValidatorSet::Generate(4, 31);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  auto node = Node::Create(CheckpointedOptions(&validators), engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(31);
  RunBlocks(node->get(), &rng, 5);

  CheckpointManager* manager = (*node)->checkpoints();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->LatestHeight(), 4u);

  auto manifest = manager->ManifestAt(4);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->height, 4u);
  EXPECT_GT(manifest->chunk_count(), 1u);
  EXPECT_GT(manifest->total_entries, 0u);
  // A checkpoint at height h covers blocks [0, h): its block hash and
  // state root come from the header of block h-1.
  auto covered = (*node)->blocks()->GetByHeight(3);
  ASSERT_TRUE(covered.ok());
  auto covered_block = Block::Deserialize(*covered);
  ASSERT_TRUE(covered_block.ok());
  EXPECT_EQ(manifest->block_hash, covered_block->header.Hash());
  EXPECT_EQ(manifest->state_root, covered_block->header.state_root);

  auto certificate = manager->CertificateAt(4);
  ASSERT_TRUE(certificate.ok());
  EXPECT_TRUE(validators.Verify(*manifest, *certificate).ok());

  // Every chunk hashes to its manifest entry and parses back to entries.
  uint64_t entries = 0;
  for (size_t i = 0; i < manifest->chunk_count(); ++i) {
    auto chunk = manager->ChunkAt(4, i);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(crypto::Sha256::Digest(*chunk), manifest->chunk_hashes[i]);
    auto parsed = CheckpointManager::ParseChunk(*chunk);
    ASSERT_TRUE(parsed.ok());
    entries += parsed->size();
  }
  EXPECT_EQ(entries, manifest->total_entries);
}

TEST(CheckpointTest, RetentionPrunesOldCheckpoints) {
  ValidatorSet validators = ValidatorSet::Generate(4, 32);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options = CheckpointedOptions(&validators, /*interval=*/1);
  options.checkpoint.keep = 2;
  auto node = Node::Create(options, engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(32);
  RunBlocks(node->get(), &rng, 5);

  CheckpointManager* manager = (*node)->checkpoints();
  EXPECT_EQ(manager->LatestHeight(), 5u);
  EXPECT_EQ(manager->RetainedHeights(), (std::vector<uint64_t>{4, 5}));
  EXPECT_TRUE(manager->ManifestAt(5).ok());
  EXPECT_TRUE(manager->ManifestAt(4).ok());
  // Pruned checkpoints are gone — manifest, certificate and chunks.
  EXPECT_TRUE(manager->ManifestAt(3).status().IsNotFound());
  EXPECT_TRUE(manager->CertificateAt(3).status().IsNotFound());
  EXPECT_TRUE(manager->ChunkAt(3, 0).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// State sync
// ---------------------------------------------------------------------------

TEST(SyncTest, FreshNodeCatchesUpViaSnapshotAndReplay) {
  ValidatorSet validators = ValidatorSet::Generate(4, 41);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&validators), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(41);
  std::vector<crypto::Hash256> tx_hashes;
  RunBlocks(provider_node->get(), &rng, 5, &tx_hashes);

  auto joiner = Node::Create(CheckpointedOptions(&validators), engines_b);
  ASSERT_TRUE(joiner.ok());

  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_TRUE(stats->snapshot_installed);
  EXPECT_EQ(stats->checkpoint_height, 4u);
  EXPECT_GT(stats->chunks_verified, 0u);
  EXPECT_EQ(stats->chunks_rejected, 0u);
  EXPECT_EQ(stats->blocks_replayed, 1u);  // block 4, past the checkpoint

  EXPECT_EQ((*joiner)->Height(), (*provider_node)->Height());
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());
  // The full receipt set came across (snapshot + replay).
  for (const crypto::Hash256& tx_hash : tx_hashes) {
    auto theirs = (*provider_node)->GetReceipt(tx_hash);
    auto ours = (*joiner)->GetReceipt(tx_hash);
    ASSERT_TRUE(theirs.ok());
    ASSERT_TRUE(ours.ok());
    EXPECT_EQ(ours->Serialize(), theirs->Serialize());
  }

  // The joiner adopted the verified checkpoint and can serve it onward.
  ASSERT_NE((*joiner)->checkpoints(), nullptr);
  EXPECT_EQ((*joiner)->checkpoints()->LatestHeight(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    auto mine = (*joiner)->checkpoints()->ChunkAt(4, i);
    auto theirs = (*provider_node)->checkpoints()->ChunkAt(4, i);
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(theirs.ok());
    EXPECT_EQ(*mine, *theirs);
  }

  // A second sync against the same provider is a no-op: the provider
  // checkpoint is now stale relative to us and there is nothing to replay.
  auto again = client.SyncToTip();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->snapshot_installed);
  EXPECT_EQ(again->blocks_replayed, 0u);
}

TEST(SyncTest, ReplayOnlyWhenProviderHasNoCheckpoint) {
  ValidatorSet validators = ValidatorSet::Generate(4, 42);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(NodeOptions{}, engines_a);  // no checkpoints
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(42);
  RunBlocks(provider_node->get(), &rng, 3);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->snapshot_installed);
  EXPECT_EQ(stats->blocks_replayed, 3u);
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());
}

TEST(SyncTest, CertificateFromUnknownValidatorsIsRejected) {
  // The provider's checkpoints are signed by a validator set the client
  // does not trust — the moral equivalent of a forged certificate. The
  // client must refuse the snapshot but may still replay verified blocks.
  ValidatorSet theirs = ValidatorSet::Generate(4, 43);
  ValidatorSet ours = ValidatorSet::Generate(4, 44);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&theirs), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(43);
  RunBlocks(provider_node->get(), &rng, 4);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &ours, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->certificates_rejected, 0u);
  EXPECT_FALSE(stats->snapshot_installed);  // refused the uncertified snapshot
  EXPECT_EQ(stats->blocks_replayed, 4u);    // replay is still integrity-checked
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
}

// ---------------------------------------------------------------------------
// Fork evidence: witnessed-roots log + equivocating certificates
// ---------------------------------------------------------------------------

TEST(CheckpointTest, WitnessLogFlagsConflictingCertifiedCheckpoint) {
  ValidatorSet validators = ValidatorSet::Generate(4, 33);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  auto node = Node::Create(CheckpointedOptions(&validators), engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(33);
  RunBlocks(node->get(), &rng, 2);  // checkpoint written (and witnessed) at 2

  CheckpointManager* manager = (*node)->checkpoints();
  ASSERT_NE(manager, nullptr);
  auto manifest = manager->ManifestAt(2);
  ASSERT_TRUE(manifest.ok());

  std::vector<uint64_t> alarm_heights;
  (*node)->SetForkAlarm(
      [&](uint64_t height, const crypto::Hash256& witnessed,
          const crypto::Hash256& conflicting) {
        alarm_heights.push_back(height);
        EXPECT_NE(witnessed, conflicting);
      });

  // Re-witnessing the identical checkpoint is a no-op.
  EXPECT_TRUE(manager
                  ->WitnessCheckpoint(2, manifest->block_hash,
                                      manifest->state_root)
                  .ok());
  EXPECT_TRUE(alarm_heights.empty());

  // A certified checkpoint with a different root at the same height is
  // fork evidence: fail loudly, fire the alarm, count the detection.
  uint64_t detected_before =
      metrics::GetCounter("chain.fork.detected.count")->Value();
  crypto::Hash256 evil_root = manifest->state_root;
  evil_root[0] ^= 0x01;
  Status fork = manager->WitnessCheckpoint(2, manifest->block_hash, evil_root);
  EXPECT_EQ(fork.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(fork.message().find("fork"), std::string::npos) << fork.ToString();
  ASSERT_EQ(alarm_heights.size(), 1u);
  EXPECT_EQ(alarm_heights[0], 2u);
  EXPECT_GT(metrics::GetCounter("chain.fork.detected.count")->Value(),
            detected_before);
}

TEST(SyncTest, EquivocatingCertificateRejectedByWitnessLog) {
  // One provider serves the honest checkpoint, the "other" (a second
  // handle on the same peer) serves the same height with a tampered state
  // root re-certified by real validator keys. Certificate verification
  // passes — only the witnessed-roots log can expose the conflict.
  ValidatorSet validators = ValidatorSet::Generate(4, 45);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&validators), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(45);
  RunBlocks(provider_node->get(), &rng, 5);

  auto joiner = Node::Create(CheckpointedOptions(&validators), engines_b);
  ASSERT_TRUE(joiner.ok());
  std::vector<uint64_t> alarm_heights;
  (*joiner)->SetForkAlarm([&](uint64_t height, const crypto::Hash256&,
                              const crypto::Hash256&) {
    alarm_heights.push_back(height);
  });

  SyncProvider honest("peer-a", provider_node->get());
  SyncProvider equivocator("peer-b", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&honest);
  client.AddProvider(&equivocator);

  fault::FaultPlan plan(45);
  // Fires on the second checkpoint query — the equivocating provider.
  plan.Arm("fault.chain.sync.equivocating_certificate",
           fault::Trigger{.after_hits = 1, .one_shot = true});

  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->forks_detected, 1u);
  EXPECT_GE(stats->certificates_rejected, 1u);
  EXPECT_TRUE(stats->snapshot_installed);  // the honest offer still serves
  ASSERT_EQ(alarm_heights.size(), 1u);
  EXPECT_EQ(alarm_heights[0], 4u);
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("chain.fork.detected.count"), 1u);
  EXPECT_GE(
      snap.counter("fault.chain.sync.equivocating_certificate.injected"), 1u);
  EXPECT_GE(
      snap.counter("fault.chain.sync.equivocating_certificate.recovered"), 1u);
}

TEST(SyncTest, RotationReachesLiveProviderBehindDeadOnes) {
  // Regression: rotation happens after a failed attempt, so with N dead
  // providers registered ahead of one live one, reaching the live one
  // takes N+1 attempts. The old per-loop retry budget (max_attempts = 4)
  // was exhausted exactly one rotation short.
  ValidatorSet validators = ValidatorSet::Generate(4, 46);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(NodeOptions{}, engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(46);
  RunBlocks(provider_node->get(), &rng, 3);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncOptions options;
  ASSERT_EQ(kSyncRetry.max_attempts, 4u);  // the failing configuration
  StateSyncClient client(joiner->get(), &validators, std::move(options));
  std::vector<std::unique_ptr<SyncProvider>> providers;
  for (int i = 0; i < 5; ++i) {
    providers.push_back(std::make_unique<SyncProvider>(
        "peer-" + std::to_string(i), provider_node->get()));
    client.AddProvider(providers.back().get());
  }
  for (int i = 0; i < 4; ++i) providers[i]->Kill();  // exactly N = 4 dead

  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->blocks_replayed, 3u);
  EXPECT_GE(stats->provider_failovers, 4u);  // rotated past every dead one
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
}

// ---------------------------------------------------------------------------
// Restart recovery
// ---------------------------------------------------------------------------

namespace {

std::string RawBlockHeightKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "blk/h/" + HexEncode(ByteView(be, 8));
}

}  // namespace

TEST(NodeRecoveryTest, RestartRestoresStateRootFromTipHeader) {
  auto dir = std::filesystem::temp_directory_path() / "confide_node_root_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;
  options.state_wal_dir = dir.string();

  crypto::Hash256 root_before{}, tip_before{};
  {
    auto node = Node::Create(options, engines);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    crypto::Drbg rng(51);
    RunBlocks(node->get(), &rng, 3);
    root_before = (*node)->state()->StateRoot();
    tip_before = (*node)->TipHash();
    ASSERT_NE(root_before, crypto::Hash256{});
  }

  auto restarted = Node::Create(options, engines);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ((*restarted)->Height(), 3u);
  EXPECT_EQ((*restarted)->TipHash(), tip_before);
  // The chained root is restored from the tip header; without it the
  // restarted node would re-chain from zero and fork at the next block.
  EXPECT_EQ((*restarted)->state()->StateRoot(), root_before);
  std::filesystem::remove_all(dir);
}

TEST(NodeRecoveryTest, CorruptedTipRecordFailsCreationLoudly) {
  auto dir = std::filesystem::temp_directory_path() / "confide_node_corrupt_tip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;
  options.state_wal_dir = dir.string();
  {
    auto node = Node::Create(options, engines);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    crypto::Drbg rng(52);
    RunBlocks(node->get(), &rng, 2);
  }
  {
    // Damage the tip block record on "disk".
    storage::LsmOptions lsm;
    lsm.wal_dir = dir.string();
    auto kv = storage::LsmKvStore::Open(lsm);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE(
        (*kv)->Put(RawBlockHeightKey(1), ToBytes(std::string_view("garbage")))
            .ok());
  }
  // Recovery must fail loudly — a node that cannot parse its tip block
  // must not come up at a made-up height or state root.
  auto reopened = Node::Create(options, engines);
  EXPECT_FALSE(reopened.ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace confide::chain
