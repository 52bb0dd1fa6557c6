/// \file bench_util.h
/// \brief Shared harness helpers for the experiment benchmarks.

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "confide/system.h"
#include "lang/compiler.h"
#include "workloads/workloads.h"

namespace confide::bench {

/// Wall-clock seconds for `fn`.
inline double TimeSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Bootstraps a single-node system with the given options; aborts on error.
inline std::unique_ptr<core::ConfideSystem> MustBootstrap(core::SystemOptions options) {
  auto sys = core::ConfideSystem::BootstrapFirst(options);
  if (!sys.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", sys.status().ToString().c_str());
    std::abort();
  }
  return std::move(*sys);
}

/// Deploys CCL source at a named address through `engine_conf ?
/// confidential : public` path; aborts on error.
inline void MustDeploy(core::ConfideSystem* sys, core::Client* client,
                       const std::string& name, const char* source,
                       bool confidential, lang::VmTarget target = lang::VmTarget::kCvm) {
  auto code = lang::Compile(source, target);
  if (!code.ok()) {
    std::fprintf(stderr, "compile %s: %s\n", name.c_str(),
                 code.status().ToString().c_str());
    std::abort();
  }
  chain::VmKind vm = target == lang::VmTarget::kCvm ? chain::VmKind::kCvm
                                                    : chain::VmKind::kEvm;
  const Bytes payload = chain::ContractRegistry::EncodeDeploy(vm, *code);
  const std::string entry = chain::ContractRegistry::kDeployEntry;
  chain::Transaction tx;
  if (confidential) {
    auto sub = client->MakeConfidentialTx(chain::NamedAddress(name), entry, payload);
    tx = sub->tx;
  } else {
    tx = client->MakePublicTx(chain::NamedAddress(name), entry, payload);
  }
  if (!sys->node()->SubmitTransaction(tx).ok()) std::abort();
  auto receipts = sys->RunToCompletion();
  if (!receipts.ok() || receipts->empty() || !(*receipts)[0].success) {
    std::fprintf(stderr, "deploy %s failed: %s\n", name.c_str(),
                 receipts.ok() && !receipts->empty()
                     ? (*receipts)[0].status_message.c_str()
                     : receipts.status().ToString().c_str());
    std::abort();
  }
}

/// Runs one confidential call through RunToCompletion; aborts on failure.
inline void MustCall(core::ConfideSystem* sys, core::Client* client,
                     const std::string& name, const std::string& entry,
                     Bytes input) {
  auto sub = client->MakeConfidentialTx(chain::NamedAddress(name), entry,
                                        std::move(input));
  if (!sub.ok() || !sys->node()->SubmitTransaction(sub->tx).ok()) std::abort();
  auto receipts = sys->RunToCompletion();
  if (!receipts.ok() || receipts->empty() || !(*receipts)[0].success) {
    std::fprintf(stderr, "call %s.%s failed: %s\n", name.c_str(), entry.c_str(),
                 receipts.ok() && !receipts->empty()
                     ? (*receipts)[0].status_message.c_str()
                     : receipts.status().ToString().c_str());
    std::abort();
  }
}

/// Dumps the process-wide metrics registry as JSON next to the bench
/// results so CI can archive counters alongside throughput numbers.
/// Env var CONFIDE_METRICS_OUT overrides the default path.
inline void DumpMetrics(const std::string& default_path = "metrics.json") {
  const char* env = std::getenv("CONFIDE_METRICS_OUT");
  std::string path = (env != nullptr && env[0] != '\0') ? env : default_path;
  Status dumped = metrics::DumpSnapshot(path);
  if (!dumped.ok()) {
    std::fprintf(stderr, "metrics: %s\n", dumped.message().c_str());
    return;
  }
  std::fprintf(stderr, "metrics: wrote %s\n", path.c_str());
}

}  // namespace confide::bench
