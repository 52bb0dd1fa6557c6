/// \file supply_chain_finance.cpp
/// \brief The paper's flagship application (§6.3, Figures 1 & 8): an
/// Account-Receivable transfer on the SCF-AR contract suite.
///
/// A supplier holds a digitized receivable certificate; transferring it
/// to a bank flows Gateway → Manager → account/asset/fee/transfer/
/// clearing/audit service contracts — 11 cooperating confidential
/// contracts, tens of cross-contract calls and >100 state reads, all
/// inside the enclave with state sealed at rest.
///
///   $ ./examples/supply_chain_finance

#include <cstdio>

#include "confide/system.h"
#include "lang/compiler.h"
#include "workloads/workloads.h"

using namespace confide;

namespace {

bool Run(core::ConfideSystem* sys, core::Client* client, const std::string& name,
         const std::string& entry, Bytes input, core::TxKey* k_tx = nullptr) {
  auto tx = client->MakeConfidentialTx(chain::NamedAddress(name), entry,
                                       std::move(input));
  if (!tx.ok()) return false;
  if (k_tx != nullptr) *k_tx = tx->k_tx;
  if (!sys->node()->SubmitTransaction(tx->tx).ok()) return false;
  auto receipts = sys->RunToCompletion();
  if (!receipts.ok() || receipts->empty()) return false;
  if (!(*receipts)[0].success) {
    std::fprintf(stderr, "  %s.%s failed: %s\n", name.c_str(), entry.c_str(),
                 (*receipts)[0].status_message.c_str());
    return false;
  }
  if (k_tx != nullptr) {
    auto opened = core::Client::OpenSealedReceipt(*k_tx, (*receipts)[0].output);
    if (opened.ok() && opened->output.size() == 8) {
      uint64_t v = 0;
      for (int i = 7; i >= 0; --i) v = (v << 8) | opened->output[i];
      std::printf("  receipt opened with k_tx: net amount = %lu\n",
                  (unsigned long)v);
    }
  }
  return true;
}

}  // namespace

int main() {
  std::printf("== Supply Chain Finance on CONFIDE (Ant Duo-Chain style) ==\n");

  core::SystemOptions options;
  options.seed = 88;
  options.parallelism = 4;
  options.block_max_bytes = 64 * 1024;
  auto sys = core::ConfideSystem::BootstrapFirst(options);
  if (!sys.ok()) {
    std::fprintf(stderr, "bootstrap: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  core::Client supplier(1001, (*sys)->pk_tx());

  // Deploy the 11-contract suite confidentially.
  std::printf("deploying the SCF-AR contract suite...\n");
  for (const auto& [name, source] : workloads::ScfArContracts()) {
    auto code = lang::Compile(source, lang::VmTarget::kCvm);
    if (!code.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", name.c_str(),
                   code.status().ToString().c_str());
      return 1;
    }
    if (!Run(sys->get(), &supplier, name, chain::ContractRegistry::kDeployEntry,
             chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, *code))) {
      return 1;
    }
    std::printf("  %-16s deployed (%5zu bytes sealed bytecode)\n", name.c_str(),
                code->size());
  }

  // Business setup: policies, fee schedule, accounts (creditworthiness,
  // KYC, history) and the receivable certificate with provenance.
  std::printf("seeding business state (policies, accounts, certificate)...\n");
  if (!Run(sys->get(), &supplier, "scf.manager", "seed", Bytes{}) ||
      !Run(sys->get(), &supplier, "scf.fee", "seed", Bytes{}) ||
      !Run(sys->get(), &supplier, "scf.account", "seed",
           ToBytes(std::string_view("supplier-alpha"))) ||
      !Run(sys->get(), &supplier, "scf.account", "seed",
           ToBytes(std::string_view("bank-one"))) ||
      !Run(sys->get(), &supplier, "scf.asset", "seed",
           ToBytes(std::string_view("ar-cert-0\nsupplier-alpha")))) {
    return 1;
  }

  // The transfer: supplier-alpha finances its receivable with bank-one.
  std::printf("transferring receivable ar-cert-0: supplier-alpha -> bank-one "
              "(amount 4800)...\n");
  core::TxKey k_tx;
  if (!Run(sys->get(), &supplier, "scf.gateway", "transfer",
           ToBytes(std::string_view("ar-cert-0\nsupplier-alpha\nbank-one\n4800")),
           &k_tx)) {
    return 1;
  }

  // Operation profile of the flow (paper Table 1's shape).
  auto stats = (*sys)->confidential_engine()->last_response();
  std::printf("flow profile (cf. paper Table 1):\n");
  std::printf("  contract calls : %3lu   (paper: 31)\n",
              (unsigned long)stats.contract_calls);
  std::printf("  GetStorage ops : %3lu   (paper: 151)\n",
              (unsigned long)stats.get_storage_ops);
  std::printf("  SetStorage ops : %3lu   (paper: 9)\n",
              (unsigned long)stats.set_storage_ops);

  // What a curious node operator sees: sealed bytes only.
  auto raw = (*sys)->node()->state()->Get(chain::NamedAddress("scf.account"),
                                          AsByteView("acct:bank-one:bal"));
  if (raw.ok()) {
    std::printf("bank-one balance at rest (first 16 bytes): %s...\n",
                HexEncode(ByteView(raw->data(), 16)).c_str());
  }
  std::printf("done: %lu blocks committed, modeled time %.2f ms\n",
              (unsigned long)(*sys)->node()->Height(),
              double((*sys)->clock()->NowNs()) / 1e6);
  return 0;
}
