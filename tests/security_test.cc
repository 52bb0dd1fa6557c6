/// \file security_test.cc
/// \brief Adversarial tests for the §3.3 threat model: a malicious host
/// that reads and rewrites the database, replays stale state, swaps
/// ciphertexts, forges attestations, or replays other users' envelopes.

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "confide/client.h"
#include "confide/freshness.h"
#include "confide/system.h"
#include "crypto/drbg.h"
#include "lang/compiler.h"
#include "serialize/rlp.h"
#include "storage/kv_store.h"

namespace confide::core {
namespace {

using chain::NamedAddress;

constexpr const char* kCounterSource = R"(
fn bump() {
  var key = "n";
  var buf = alloc(16);
  var got = get_storage(key, 1, buf, 16);
  var value = 0;
  if (got == 8) { value = load64(buf); }
  value = value + 1;
  store64(buf, value);
  set_storage(key, 1, buf, 8);
  write_output(buf, 8);
  return value;
}
)";

Bytes DeployPayload(const Bytes& code) {
  return chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, code);
}

class MaliciousHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemOptions options;
    options.seed = 9100;
    auto sys = ConfideSystem::BootstrapFirst(options);
    ASSERT_TRUE(sys.ok());
    sys_ = std::move(*sys);
    client_ = std::make_unique<Client>(9200, sys_->pk_tx());
    addr_ = NamedAddress("victim");

    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    auto deploy = client_->MakeConfidentialTx(addr_, "__deploy__",
                                              DeployPayload(*code));
    ASSERT_TRUE(deploy.ok());
    ASSERT_TRUE(sys_->node()->SubmitTransaction(deploy->tx).ok());
    ASSERT_TRUE(sys_->RunToCompletion().ok());
  }

  // Runs one bump() and returns (receipt, k_tx).
  std::pair<chain::Receipt, TxKey> Bump() {
    auto call = client_->MakeConfidentialTx(addr_, "bump", Bytes{});
    EXPECT_TRUE(call.ok());
    EXPECT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
    auto receipts = sys_->RunToCompletion();
    EXPECT_TRUE(receipts.ok());
    EXPECT_EQ(receipts->size(), 1u);
    return {(*receipts)[0], call->k_tx};
  }

  std::unique_ptr<ConfideSystem> sys_;
  std::unique_ptr<Client> client_;
  chain::Address addr_;
};

TEST_F(MaliciousHostTest, TamperedStateIsDetectedAtNextExecution) {
  auto [r1, k1] = Bump();
  ASSERT_TRUE(r1.success);

  // The host flips bits in the sealed counter.
  auto sealed = sys_->node()->state()->Get(addr_, AsByteView("n"));
  ASSERT_TRUE(sealed.ok());
  Bytes corrupted = *sealed;
  corrupted[corrupted.size() / 2] ^= 0xff;
  sys_->node()->state()->Put(addr_, AsByteView("n"), corrupted);
  ASSERT_TRUE(sys_->node()->state()->Commit().ok());

  // The next confidential execution must fail authentication, not
  // compute on forged data.
  auto [r2, k2] = Bump();
  EXPECT_FALSE(r2.success);
  EXPECT_NE(r2.status_message.find("Crypto"), std::string::npos)
      << r2.status_message;
}

TEST_F(MaliciousHostTest, StateSwappedBetweenKeysIsDetected) {
  auto [r1, k1] = Bump();
  ASSERT_TRUE(r1.success);

  // Move the sealed value to a different key of the same contract; the
  // D-Protocol AAD binds the state key, so the engine must reject it.
  auto sealed = sys_->node()->state()->Get(addr_, AsByteView("n"));
  ASSERT_TRUE(sealed.ok());
  sys_->node()->state()->Put(addr_, AsByteView("m"), *sealed);
  ASSERT_TRUE(sys_->node()->state()->Commit().ok());

  const char* kReadM = R"(
    fn readm() {
      var buf = alloc(64);
      var got = get_storage("m", 1, buf, 64);
      write_output(buf, 8);
      return got;
    }
  )";
  auto code = lang::Compile(kReadM, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address addr2 = addr_;  // same contract would be needed; deploy aside
  // Redeploy at the same address is simplest: the reader runs in the same
  // contract namespace, hitting the swapped key.
  auto deploy = client_->MakeConfidentialTx(addr2, "__deploy__", DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());

  auto call = client_->MakeConfidentialTx(addr2, "readm", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok());
  EXPECT_FALSE((*receipts)[0].success);  // AAD mismatch -> CryptoError
}

TEST_F(MaliciousHostTest, RolledBackStateStillAuthenticatesButRootDiverges) {
  // Rollback (§3.3): the host restores an OLD sealed value. AES-GCM alone
  // cannot detect this (the old ciphertext is authentic); what protects
  // the ledger is consensus on state continuity — replicas that did not
  // roll back produce a different state root. (With
  // SystemOptions::enable_state_continuity the node additionally detects
  // whole-store restores *locally* via the freshness header; see
  // StateContinuityTest below. This test runs without it to demonstrate
  // the consensus-level defense alone.)
  auto [r1, k1] = Bump();
  ASSERT_TRUE(r1.success);
  auto old_sealed = sys_->node()->state()->Get(addr_, AsByteView("n"));
  ASSERT_TRUE(old_sealed.ok());
  auto [r2, k2] = Bump();
  ASSERT_TRUE(r2.success);

  // Malicious rollback to the value after the first bump.
  sys_->node()->state()->Put(addr_, AsByteView("n"), *old_sealed);
  ASSERT_TRUE(sys_->node()->state()->Commit().ok());

  auto [r3, k3] = Bump();
  ASSERT_TRUE(r3.success);  // decrypts fine: the data is stale, not forged
  auto opened = Client::OpenSealedReceipt(k3, r3.output);
  ASSERT_TRUE(opened.ok());
  // The enclave computed 1+1=2 again — locally undetectable...
  EXPECT_EQ(opened->output[0], 2);
  // ...but an honest replica that executed the same three transactions
  // (without the rollback) disagrees at the third receipt, so the forged
  // node cannot get its block past consensus.
  SystemOptions options;
  options.seed = 9100;  // same consortium keys path
  auto honest = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(honest.ok());
  // (State roots would diverge; here we assert the honest sequence yields
  // 3, demonstrating the divergence consensus would catch.)
  Client honest_client(9200, (*honest)->pk_tx());
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  auto deploy = honest_client.MakeConfidentialTx(addr_, "__deploy__",
                                                 DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE((*honest)->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE((*honest)->RunToCompletion().ok());
  chain::Receipt last;
  TxKey last_key{};
  for (int i = 0; i < 3; ++i) {
    auto call = honest_client.MakeConfidentialTx(addr_, "bump", Bytes{});
    ASSERT_TRUE(call.ok());
    ASSERT_TRUE((*honest)->node()->SubmitTransaction(call->tx).ok());
    auto receipts = (*honest)->RunToCompletion();
    ASSERT_TRUE(receipts.ok());
    last = (*receipts)[0];
    last_key = call->k_tx;
  }
  auto honest_opened = Client::OpenSealedReceipt(last_key, last.output);
  ASSERT_TRUE(honest_opened.ok());
  EXPECT_EQ(honest_opened->output[0], 3);  // diverges from the rolled-back 2
}

TEST_F(MaliciousHostTest, ReceiptUnreadableWithoutTxKey) {
  auto [receipt, k_tx] = Bump();
  ASSERT_TRUE(receipt.success);
  // Brute tampering with the key must fail; only the exact k_tx opens it.
  for (int i = 0; i < 8; ++i) {
    TxKey wrong = k_tx;
    wrong[i] ^= uint8_t(1 + i);
    EXPECT_FALSE(Client::OpenSealedReceipt(wrong, receipt.output).ok());
  }
  EXPECT_TRUE(Client::OpenSealedReceipt(k_tx, receipt.output).ok());
}

TEST_F(MaliciousHostTest, ForeignEnvelopeCannotBeOpenedByOtherConsortium) {
  // An envelope sealed for this consortium's pk_tx is garbage to a
  // different consortium's engine (different sk_tx).
  SystemOptions options;
  options.seed = 9999;  // different consortium
  auto other = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(other.ok());
  ASSERT_NE((*other)->pk_tx(), sys_->pk_tx());

  auto call = client_->MakeConfidentialTx(addr_, "bump", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE((*other)->node()->SubmitTransaction(call->tx).ok());
  auto verified = (*other)->node()->PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 0u);  // discarded: envelope does not open
}

TEST_F(MaliciousHostTest, ReplayedEnvelopeReexecutesDeterministically) {
  // Replaying the same confidential transaction is visible: identical
  // tx hash (the node/application layer can deduplicate) and, thanks to
  // deterministic sealing, byte-identical state after each replay.
  auto call = client_->MakeConfidentialTx(addr_, "bump", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());
  auto state1 = sys_->node()->state()->Get(addr_, AsByteView("n"));
  ASSERT_TRUE(state1.ok());

  chain::Transaction replay = call->tx;
  EXPECT_EQ(replay.Hash(), call->tx.Hash());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(replay).ok());
  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok());
  // The replay executes (incrementing again) — replay protection is the
  // application/platform layer's nonce check; the confidentiality layer
  // guarantees the replay cannot be *modified*.
  auto state2 = sys_->node()->state()->Get(addr_, AsByteView("n"));
  ASSERT_TRUE(state2.ok());
  EXPECT_NE(*state1, *state2);
}

// ---------------------------------------------------------------------------
// State continuity: freshness-sealed state vs. the malicious host
// ---------------------------------------------------------------------------
// NVRAM high-water marks are process-lifetime and keyed by the platform
// seed, so each continuity-enabled system uses a unique seed.

class StateContinuityTest : public ::testing::Test {
 protected:
  std::unique_ptr<ConfideSystem> BootWithContinuity(uint64_t seed) {
    SystemOptions options;
    options.seed = seed;
    options.enable_state_continuity = true;
    auto sys = ConfideSystem::BootstrapFirst(options);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  void DeployCounter(ConfideSystem* sys, Client* client, chain::Address addr) {
    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    auto deploy =
        client->MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
    ASSERT_TRUE(deploy.ok());
    ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
    ASSERT_TRUE(sys->RunToCompletion().ok());
  }

  void Bump(ConfideSystem* sys, Client* client, chain::Address addr) {
    auto call = client->MakeConfidentialTx(addr, "bump", Bytes{});
    ASSERT_TRUE(call.ok());
    ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
    ASSERT_TRUE(sys->RunToCompletion().ok());
  }
};

TEST_F(StateContinuityTest, TamperedFreshnessHeaderFailsAuthentication) {
  auto sys = BootWithContinuity(9301);
  Client client(9400, sys->pk_tx());
  chain::Address addr = NamedAddress("victim");
  DeployCounter(sys.get(), &client, addr);
  Bump(sys.get(), &client, addr);
  ASSERT_TRUE(sys->VerifyStateContinuity().ok());

  // A forged header is an authentication failure (PermissionDenied), kept
  // distinct from an authentic-but-stale one (StaleState) — operators
  // must be able to tell tampering from rollback.
  storage::KvStore* kv = sys->node()->state()->backing();
  auto header = kv->Get(std::string(kFreshnessKvKey));
  ASSERT_TRUE(header.ok());
  Bytes tampered = *header;
  tampered.back() ^= 0x01;  // flips a MAC byte
  ASSERT_TRUE(kv->Put(std::string(kFreshnessKvKey), tampered).ok());
  Status forged = sys->VerifyStateContinuity();
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.code(), StatusCode::kPermissionDenied) << forged.ToString();
  EXPECT_FALSE(forged.IsStaleState());

  // Putting the authentic header back restores a clean verification.
  ASSERT_TRUE(kv->Put(std::string(kFreshnessKvKey), *header).ok());
  EXPECT_TRUE(sys->VerifyStateContinuity().ok());
}

TEST_F(StateContinuityTest, RestoredDiskImageIsRefusedAsStale) {
  // The §3.3 rollback the AES-GCM layer cannot catch: the host restores a
  // complete older disk image — every byte authentic, header included.
  // The trusted monotonic counter has moved on, so the restore is a
  // *detected* StaleState failure, not silently forked execution.
  auto sys = BootWithContinuity(9302);
  Client client(9401, sys->pk_tx());
  chain::Address addr = NamedAddress("victim");
  DeployCounter(sys.get(), &client, addr);
  Bump(sys.get(), &client, addr);

  storage::KvStore* kv = sys->node()->state()->backing();
  std::vector<std::pair<std::string, Bytes>> image;
  for (auto it = kv->NewIterator(); it->Valid(); it->Next()) {
    image.emplace_back(it->key(), it->value());
  }

  // The node seals newer generations after the snapshot was taken.
  Bump(sys.get(), &client, addr);
  Bump(sys.get(), &client, addr);

  storage::WriteBatch batch;
  for (auto it = kv->NewIterator(); it->Valid(); it->Next()) {
    batch.Delete(it->key());
  }
  for (const auto& [key, value] : image) {
    batch.Put(key, value);
  }
  ASSERT_TRUE(kv->Write(batch).ok());
  ASSERT_TRUE(kv->Sync().ok());
  ASSERT_TRUE(sys->node()->ResyncFromStore().ok());

  uint64_t refused_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "confide.freshness.refused.count");
  Status stale = sys->VerifyStateContinuity();
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.IsStaleState()) << stale.ToString();
  EXPECT_GT(metrics::MetricsRegistry::Global().Snapshot().counter(
                "confide.freshness.refused.count"),
            refused_before);
}

// ---------------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------------

class DProtocolSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(DProtocolSweep, SealOpenRoundTripAndDeterminism) {
  size_t size = GetParam();
  StateKey k{};
  crypto::Drbg(77).Fill(k.data(), 32);
  crypto::Drbg rng(size);
  Bytes plain = rng.Generate(size);
  Bytes aad = StateAad(AsByteView("c"), AsByteView("k"), 1);

  auto s1 = SealState(k, plain, aad);
  auto s2 = SealState(k, plain, aad);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);  // replica determinism at every size
  auto opened = OpenState(k, *s1, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plain);

  if (!s1->empty()) {
    Bytes bad = *s1;
    bad[size % bad.size()] ^= 1;
    EXPECT_FALSE(OpenState(k, bad, aad).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DProtocolSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 64, 1024, 4096,
                                           65536));

class EnvelopeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(EnvelopeSweep, RoundTripAtEverySize) {
  size_t size = GetParam();
  crypto::Drbg rng(size + 1);
  crypto::KeyPair kp = crypto::GenerateKeyPair(&rng);
  Bytes raw = rng.Generate(size);
  TxKey k_tx = DeriveTxKey(AsByteView("root"), crypto::Sha256::Digest(raw));
  auto envelope = SealEnvelope(kp.pub, k_tx, raw, size);
  ASSERT_TRUE(envelope.ok());
  auto opened = OpenEnvelope(kp.priv, *envelope);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->raw_tx, raw);
  auto body = OpenEnvelopeBody(k_tx, *envelope);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, raw);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnvelopeSweep,
                         ::testing::Values(0, 1, 100, 1024, 16384));

}  // namespace
}  // namespace confide::core
