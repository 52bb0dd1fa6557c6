/// \file bench_fig10_synthetic.cpp
/// \brief Reproduces **Figure 10**: throughput of the four Synthetic
/// workloads on {EVM, CONFIDE-VM} × {public, confidential(TEE)}.
///
/// Paper shape to reproduce: CONFIDE-VM ≫ EVM on every workload; the TEE
/// slowdown is visible for both engines but relatively smaller for
/// CONFIDE-VM. Absolute numbers differ (we interpret on a simulator, the
/// paper ran SGX silicon), the ordering and ratios are the target.

#include <map>

#include "bench/bench_util.h"
#include "chain/state.h"
#include "storage/lsm_store.h"

using namespace confide;
using namespace confide::bench;

namespace {

struct WorkloadSpec {
  const char* name;
  const char* entry;
  std::function<Bytes(crypto::Drbg*)> input;
};

// Executes `n` transactions straight through an engine (the Figure 10
// subject is engine throughput; ordering/storage are held constant).
double EngineTps(core::ConfideSystem* sys, chain::ExecutionEngine* engine,
                 const std::vector<chain::Transaction>& txs) {
  chain::CommitStateDb* state = sys->node()->state();
  double secs = TimeSeconds([&] {
    for (const chain::Transaction& tx : txs) {
      auto receipt = engine->Execute(tx, state);
      if (!receipt.ok() || !receipt->success) {
        std::fprintf(stderr, "execute failed: %s\n",
                     receipt.ok() ? receipt->status_message.c_str()
                                  : receipt.status().ToString().c_str());
        std::abort();
      }
    }
    (void)state->Commit();
  });
  return double(txs.size()) / secs;
}

}  // namespace

int main() {
  std::printf("== Figure 10: Synthetic workload throughput (tx/s) ==\n");
  std::printf("4-node-equivalent single-engine pipeline, 4KB blocks held "
              "constant; shapes (not absolute TPS) are the target.\n\n");

  const WorkloadSpec kWorkloads[] = {
      {"String Concatenation", "string_concat",
       [](crypto::Drbg* rng) { return workloads::MakeStringConcatInput(rng); }},
      {"E-notes Depository(4KB)", "enotes_deposit",
       [](crypto::Drbg* rng) { return workloads::MakeENotesInput(rng); }},
      {"Crypto Hash(100x)", "crypto_hash",
       [](crypto::Drbg* rng) { return workloads::MakeCryptoHashInput(rng); }},
      {"JSON Parsing(60kv)", "json_parse",
       [](crypto::Drbg* rng) { return workloads::MakeJsonParseInput(rng); }},
  };

  struct Config {
    const char* label;
    lang::VmTarget target;
    bool confidential;
  };
  const Config kConfigs[] = {
      {"EVM(public)", lang::VmTarget::kEvm, false},
      {"EVM(TEE)", lang::VmTarget::kEvm, true},
      {"CONFIDE-VM(public)", lang::VmTarget::kCvm, false},
      {"CONFIDE-VM(TEE)", lang::VmTarget::kCvm, true},
  };

  std::printf("%-26s %16s %16s %18s %18s\n", "workload", "EVM(public)",
              "EVM(TEE)", "CONFIDE-VM(public)", "CONFIDE-VM(TEE)");

  std::map<std::string, std::map<std::string, double>> results;
  for (const WorkloadSpec& workload : kWorkloads) {
    std::map<std::string, double> row;
    for (const Config& config : kConfigs) {
      core::SystemOptions options;
      options.seed = 10'000 + uint64_t(&config - kConfigs);
      auto sys = MustBootstrap(options);
      core::Client client(1, sys->pk_tx());

      std::string contract = std::string("syn-") + config.label;
      MustDeploy(sys.get(), &client, contract, workloads::SyntheticContractSource(),
                 config.confidential, config.target);

      // Pre-build transactions (client-side work excluded from timing).
      crypto::Drbg rng(42);
      // Size the batch so slow configs still finish quickly.
      size_t n = config.target == lang::VmTarget::kEvm ? 30 : 150;
      std::vector<chain::Transaction> txs;
      for (size_t i = 0; i < n; ++i) {
        Bytes input = workload.input(&rng);
        if (config.confidential) {
          auto sub = client.MakeConfidentialTx(chain::NamedAddress(contract),
                                               workload.entry, std::move(input));
          txs.push_back(sub->tx);
        } else {
          txs.push_back(client.MakePublicTx(chain::NamedAddress(contract),
                                            workload.entry, std::move(input)));
        }
      }
      chain::ExecutionEngine* engine =
          config.confidential
              ? static_cast<chain::ExecutionEngine*>(sys->confidential_engine())
              : sys->public_engine();
      // Pre-verification phase (§5.2) runs before ordering, overlapped
      // with the network: excluded from the execution-phase timing as in
      // the paper's pipeline. Neither engine re-checks a signature in the
      // execution phase that it pre-verified.
      for (const chain::Transaction& tx : txs) (void)engine->PreVerify(tx);
      // Warm-up once (code cache), then measure.
      (void)engine->Execute(txs[0], sys->node()->state());
      row[config.label] = EngineTps(sys.get(), engine, txs);
    }
    results[workload.name] = row;
    std::printf("%-26s %16.1f %16.1f %18.1f %18.1f\n", workload.name,
                row["EVM(public)"], row["EVM(TEE)"], row["CONFIDE-VM(public)"],
                row["CONFIDE-VM(TEE)"]);
  }

  std::printf("\nshape checks (paper Figure 10):\n");
  bool ok = true;
  for (const auto& [name, row] : results) {
    double cvm_pub = row.at("CONFIDE-VM(public)");
    double cvm_tee = row.at("CONFIDE-VM(TEE)");
    double evm_pub = row.at("EVM(public)");
    double evm_tee = row.at("EVM(TEE)");
    bool cvm_beats_evm = cvm_pub > evm_pub && cvm_tee > evm_tee;
    bool tee_costs = cvm_tee < cvm_pub && evm_tee < evm_pub;
    double cvm_slowdown = cvm_pub / cvm_tee;
    double evm_slowdown = evm_pub / evm_tee;
    std::printf("  %-26s CVM>EVM: %-3s  TEE slows both: %-3s  "
                "TEE slowdown CVM %.2fx vs EVM %.2fx\n",
                name.c_str(), cvm_beats_evm ? "yes" : "NO",
                tee_costs ? "yes" : "NO", cvm_slowdown, evm_slowdown);
    ok = ok && cvm_beats_evm;
  }
  std::printf("overall: %s\n", ok ? "PASS (CONFIDE-VM wins everywhere, as in "
                                    "the paper)"
                                  : "MISMATCH");
  confide::bench::DumpMetrics();
  return ok ? 0 : 1;
}
