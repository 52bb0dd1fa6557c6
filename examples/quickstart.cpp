/// \file quickstart.cpp
/// \brief CONFIDE in ~100 lines: bootstrap a confidential node, verify
/// the attested engine key, deploy a contract confidentially, call it,
/// open the sealed receipt — and show that the raw database only ever
/// sees ciphertext.
///
///   $ ./examples/quickstart

#include <cstdio>

#include "confide/system.h"
#include "lang/compiler.h"

using namespace confide;

namespace {

constexpr const char* kContract = R"(
fn greet() {
  var key = "visits";
  var buf = alloc(16);
  var n = get_storage(key, strlen(key), buf, 16);
  var count = 0;
  if (n == 8) { count = load64(buf); }
  count = count + 1;
  store64(buf, count);
  set_storage(key, strlen(key), buf, 8);

  var msg = alloc(64);
  var end = str_append(msg, "hello, confidential world #");
  end = end + u64_to_dec(count, end);
  write_output(msg, end - msg);
  return count;
}
)";

}  // namespace

int main() {
  // 1. Boot a node: SGX platform (simulated), KM enclave generates the
  //    consortium keys, CS enclave gets them over local attestation, then
  //    the KM enclave is destroyed to free EPC.
  core::SystemOptions options;
  options.seed = 2024;
  auto sys = core::ConfideSystem::BootstrapFirst(options);
  if (!sys.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  std::printf("== CONFIDE quickstart ==\n");
  std::printf("node booted; KM enclave alive after provisioning: %s\n",
              (*sys)->km_alive() ? "yes" : "no (EPC released)");

  // 2. The client checks the engine key against the attestation quote
  //    before trusting it (MITM protection: the pk fingerprint is locked
  //    into the measured report).
  auto pk = core::Client::VerifyEnginePublicKey(
      (*sys)->pk_info_blob(), tee::MeasureEnclave("confide-km-enclave", 1));
  if (!pk.ok()) {
    std::fprintf(stderr, "attestation check failed: %s\n",
                 pk.status().ToString().c_str());
    return 1;
  }
  std::printf("engine key attested: pk_tx fingerprint verified\n");

  core::Client client(7, *pk);

  // 3. Compile the contract (CCL -> CONFIDE-VM bytecode) and deploy it
  //    confidentially: the code itself is sealed on-chain by D-Protocol.
  auto code = lang::Compile(kContract, lang::VmTarget::kCvm);
  if (!code.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", code.status().ToString().c_str());
    return 1;
  }
  chain::Address addr = chain::NamedAddress("greeter");
  auto deploy = client.MakeConfidentialTx(
      addr, chain::ContractRegistry::kDeployEntry,
      chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, *code));
  (void)(*sys)->node()->SubmitTransaction(deploy->tx);
  auto deploy_receipts = (*sys)->RunToCompletion();
  std::printf("contract deployed confidentially (%zu bytes of sealed code)\n",
              code->size());

  // 4. Call it three times; each call is a TYPE=1 transaction whose body
  //    travels as Enc(pk_tx, k_tx) | Enc(k_tx, Tx_raw).
  for (int i = 0; i < 3; ++i) {
    auto call = client.MakeConfidentialTx(addr, "greet", Bytes{});
    (void)(*sys)->node()->SubmitTransaction(call->tx);
    auto receipts = (*sys)->RunToCompletion();
    if (!receipts.ok() || receipts->empty() || !(*receipts)[0].success) {
      std::fprintf(stderr, "call failed\n");
      return 1;
    }
    // 5. The on-chain receipt is sealed under the one-time key k_tx; only
    //    this client (or a delegate handed k_tx) can open it.
    auto opened = core::Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
    std::printf("call %d -> sealed receipt %zu bytes -> \"%s\"\n", i + 1,
                (*receipts)[0].output.size(), ToString(opened->output).c_str());
  }

  // 6. The malicious-host view: read the database directly. The counter
  //    state exists only as AES-GCM ciphertext bound to the contract id.
  auto raw = (*sys)->node()->state()->Get(addr, AsByteView("visits"));
  std::printf("raw DB bytes for state 'visits': %s...\n",
              HexEncode(ByteView(raw->data(), 16)).c_str());
  std::printf("(plaintext counter would be 8 bytes; stored blob is %zu bytes "
              "of sealed data)\n", raw->size());

  std::printf("TEE stats: %lu ecalls, %lu ocalls, %lu bytes copied across "
              "the boundary\n",
              (unsigned long)(*sys)->platform()->stats().ecalls.load(),
              (unsigned long)(*sys)->platform()->stats().ocalls.load(),
              (unsigned long)((*sys)->platform()->stats().bytes_copied_in.load() +
                              (*sys)->platform()->stats().bytes_copied_out.load()));
  std::printf("done.\n");
  return 0;
}
