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
#include "serialize/rlp.h"
#include "workloads/workloads.h"

namespace confide::bench {

inline Bytes DeployPayload(chain::VmKind vm, const Bytes& code) {
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(vm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

/// Wall-clock seconds for `fn`.
inline double TimeSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// CI knob: CONFIDE_PIPELINE_DEPTH overrides the block-pipeline depth of
/// every benchmark system (0 = serial lifecycle). Returns `fallback` when
/// the variable is unset or empty.
inline uint32_t PipelineDepthFromEnv(uint32_t fallback) {
  const char* env = std::getenv("CONFIDE_PIPELINE_DEPTH");
  if (env == nullptr || env[0] == '\0') return fallback;
  return uint32_t(std::strtoul(env, nullptr, 10));
}

/// Bootstraps a single-node system with the given options; aborts on error.
/// Honors CONFIDE_PIPELINE_DEPTH unless `honor_env` is false (benches that
/// compare fixed depths against each other pass false).
inline std::unique_ptr<core::ConfideSystem> MustBootstrap(core::SystemOptions options,
                                                          bool honor_env = true) {
  if (honor_env) options.pipeline_depth = PipelineDepthFromEnv(options.pipeline_depth);
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
  chain::Transaction tx;
  if (confidential) {
    auto sub = client->MakeConfidentialTx(chain::NamedAddress(name), "__deploy__",
                                          DeployPayload(vm, *code));
    tx = sub->tx;
  } else {
    tx = client->MakePublicTx(chain::NamedAddress(name), "__deploy__",
                              DeployPayload(vm, *code));
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
