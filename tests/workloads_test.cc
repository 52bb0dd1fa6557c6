#include <gtest/gtest.h>

#include "confide/system.h"
#include "crypto/keccak.h"
#include "lang/compiler.h"
#include "serialize/flatlite.h"
#include "serialize/rlp.h"
#include "workloads/workloads.h"

namespace confide::workloads {
namespace {

using chain::NamedAddress;

class WorkloadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::SystemOptions options;
    options.seed = 300;
    options.block_max_bytes = 64 * 1024;  // keep whole batches in one block
    auto sys = core::ConfideSystem::BootstrapFirst(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    sys_ = std::move(*sys);
    client_ = std::make_unique<core::Client>(700, sys_->pk_tx());
  }

  // Deploys a CCL contract confidentially at a named address.
  void Deploy(const std::string& name, const char* source) {
    auto code = lang::Compile(source, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok()) << name << ": " << code.status().ToString();
    auto tx = client_->MakeConfidentialTx(
        NamedAddress(name), "__deploy__",
        chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, *code));
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(sys_->node()->SubmitTransaction(tx->tx).ok());
    auto receipts = sys_->RunToCompletion();
    ASSERT_TRUE(receipts.ok());
    for (const auto& receipt : *receipts) {
      ASSERT_TRUE(receipt.success) << name << ": " << receipt.status_message;
    }
  }

  // Calls an entry confidentially; returns the opened receipt.
  chain::Receipt Call(const std::string& name, const std::string& entry,
                      Bytes input) {
    auto tx = client_->MakeConfidentialTx(NamedAddress(name), entry, std::move(input));
    EXPECT_TRUE(tx.ok());
    EXPECT_TRUE(sys_->node()->SubmitTransaction(tx->tx).ok());
    auto receipts = sys_->RunToCompletion();
    EXPECT_TRUE(receipts.ok());
    EXPECT_EQ(receipts->size(), 1u);
    EXPECT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
    if (!(*receipts)[0].success) return chain::Receipt{};
    auto opened = core::Client::OpenSealedReceipt(tx->k_tx, (*receipts)[0].output);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? *opened : chain::Receipt{};
  }

  std::unique_ptr<core::ConfideSystem> sys_;
  std::unique_ptr<core::Client> client_;
  crypto::Drbg rng_{99};
};

TEST_F(WorkloadsTest, SyntheticContractsCompileForBothVms) {
  EXPECT_TRUE(lang::Compile(SyntheticContractSource(), lang::VmTarget::kCvm).ok());
  EXPECT_TRUE(lang::Compile(SyntheticContractSource(), lang::VmTarget::kEvm).ok());
  EXPECT_TRUE(lang::Compile(AbsContractSource(), lang::VmTarget::kCvm).ok());
  for (const auto& [name, source] : ScfArContracts()) {
    EXPECT_TRUE(lang::Compile(source, lang::VmTarget::kCvm).ok()) << name;
  }
}

TEST_F(WorkloadsTest, StringConcatStoresJoinedResult) {
  Deploy("synthetic", SyntheticContractSource());
  Bytes input = MakeStringConcatInput(&rng_);
  chain::Receipt receipt = Call("synthetic", "string_concat", input);
  EXPECT_EQ(receipt.output.size(), 16u);
}

TEST_F(WorkloadsTest, ENotesDepositStores4KPayload) {
  Deploy("synthetic", SyntheticContractSource());
  Bytes input = MakeENotesInput(&rng_);
  ASSERT_EQ(input.size(), 10u + 4096u);
  Call("synthetic", "enotes_deposit", input);
  // The note is stored (sealed) under enote:<id>.
  std::string key = "enote:" + ToString(ByteView(input.data(), 10));
  auto raw = sys_->node()->state()->Get(NamedAddress("synthetic"), AsByteView(key));
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw->size(), 4096u);  // sealed: IV + tag overhead
}

TEST_F(WorkloadsTest, CryptoHashProducesRealDigest) {
  Deploy("synthetic", SyntheticContractSource());
  Bytes input = MakeCryptoHashInput(&rng_);
  chain::Receipt receipt = Call("synthetic", "crypto_hash", input);
  ASSERT_EQ(receipt.output.size(), 32u);
  // Mirror the contract's digest chaining host-side.
  Bytes msg = input;
  crypto::Hash256 d{};
  for (int i = 0; i < 100; ++i) {
    d = crypto::Sha256::Digest(msg);
    std::copy(d.begin(), d.end(), msg.begin());
    d = crypto::Keccak256::Digest(msg);
    std::copy(d.begin(), d.end(), msg.begin() + 16);
  }
  EXPECT_EQ(HexEncode(receipt.output), HexEncode(crypto::HashView(d)));
}

TEST_F(WorkloadsTest, JsonParseExtractsFields) {
  Deploy("synthetic", SyntheticContractSource());
  Bytes input = MakeJsonParseInput(&rng_);
  chain::Receipt receipt = Call("synthetic", "json_parse", input);
  EXPECT_TRUE(ToString(receipt.output).rfind("bank-", 0) == 0)
      << ToString(receipt.output);
}

TEST_F(WorkloadsTest, AbsTransferFlatAndJsonAgree) {
  Deploy("abs", AbsContractSource());
  Call("abs", "abs_seed_whitelist", Bytes{});

  Bytes flat = MakeAbsAssetFlat(&rng_, 1);
  chain::Receipt flat_receipt = Call("abs", "abs_transfer", flat);
  ASSERT_EQ(flat_receipt.output.size(), 8u);

  Bytes json = MakeAbsAssetJson(&rng_, 2);
  chain::Receipt json_receipt = Call("abs", "abs_transfer_json", json);
  ASSERT_EQ(json_receipt.output.size(), 8u);

  // Both records are stored.
  auto a1 = sys_->node()->state()->Get(NamedAddress("abs"), AsByteView("asset:ar-1"));
  auto a2 = sys_->node()->state()->Get(NamedAddress("abs"), AsByteView("asset:ar-2"));
  EXPECT_TRUE(a1.ok());
  EXPECT_TRUE(a2.ok());
}

TEST_F(WorkloadsTest, AbsTransferRejectsUnlistedInstitution) {
  Deploy("abs", AbsContractSource());
  Call("abs", "abs_seed_whitelist", Bytes{});
  serialize::FlatLiteBuilder builder(10);
  builder.SetString(0, "ar-x");
  builder.SetString(1, "shady-bank");  // not whitelisted
  builder.SetString(2, "monthly");
  builder.SetString(3, "receivable");
  builder.SetU64(4, 50'000);
  builder.SetU64(5, 100);
  builder.SetU64(6, 12);
  builder.SetString(7, "d");
  builder.SetString(8, "c");
  builder.SetBytes(9, Bytes(16, 0));

  auto tx = client_->MakeConfidentialTx(NamedAddress("abs"), "abs_transfer",
                                        builder.Finish());
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(tx->tx).ok());
  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), 1u);
  EXPECT_FALSE((*receipts)[0].success);  // abort(1) inside the contract
}

TEST_F(WorkloadsTest, ScfArFullFlowMatchesTable1Shape) {
  for (const auto& [name, source] : ScfArContracts()) {
    Deploy(name, source);
  }
  // Seed policies, accounts and the certificate.
  Call("scf.manager", "seed", Bytes{});
  Call("scf.fee", "seed", Bytes{});
  Call("scf.account", "seed", ToBytes(std::string_view("supplier-alpha")));
  Call("scf.account", "seed", ToBytes(std::string_view("bank-one")));
  Call("scf.asset", "seed", ToBytes(std::string_view("ar-cert-0\nsupplier-alpha")));

  // Run one transfer and profile it via the enclave's op counters.
  Bytes input = MakeScfTransferInput(&rng_, 0);
  auto tx = client_->MakeConfidentialTx(NamedAddress("scf.gateway"), "transfer",
                                        input);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(tx->tx).ok());
  ASSERT_TRUE(sys_->node()->PreVerify().ok());
  auto block = sys_->node()->ProposeBlock();
  ASSERT_TRUE(block.ok());
  auto receipts = sys_->node()->ApplyBlock(*block);
  ASSERT_TRUE(receipts.ok());
  ASSERT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;

  auto opened = core::Client::OpenSealedReceipt(tx->k_tx, (*receipts)[0].output);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->output.size(), 8u);  // net amount after fees

  // Table 1 shape: tens of contract calls, ~an order more GetStorage than
  // SetStorage, single-digit sets.
  // (Exact counts are printed by bench_table1_scfar.)
}

TEST_F(WorkloadsTest, ScfArRejectsUnknownAccount) {
  for (const auto& [name, source] : ScfArContracts()) {
    Deploy(name, source);
  }
  Call("scf.manager", "seed", Bytes{});
  Call("scf.fee", "seed", Bytes{});
  // No account seeding: check() fails -> manager abort(3).
  auto tx = client_->MakeConfidentialTx(
      NamedAddress("scf.gateway"), "transfer",
      ToBytes(std::string_view("ar-cert-0\nghost\nbank-one\n5000")));
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(tx->tx).ok());
  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok());
  EXPECT_FALSE((*receipts)[0].success);
}

}  // namespace
}  // namespace confide::workloads
