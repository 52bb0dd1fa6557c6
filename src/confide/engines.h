/// \file engines.h
/// \brief The two execution engines the chain routes to (paper Figure 2):
/// Public-Engine (plain execution, no enclave) and Confidential-Engine
/// (the CONFIDE plugin wrapping the CS enclave).

#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "chain/engine.h"
#include "confide/cs_enclave.h"
#include "vm/cvm/interpreter.h"
#include "vm/evm/evm.h"

namespace confide::core {

/// \brief VM feature toggles shared by both engines.
struct EngineOptions {
  bool enable_code_cache = true;
  bool enable_fusion = true;
  uint64_t gas_limit = 400'000'000;
};

/// \brief Public-Engine: verifies and executes TYPE=0 transactions
/// directly against contract state, no encryption anywhere.
class PublicEngine : public chain::ExecutionEngine {
 public:
  explicit PublicEngine(EngineOptions options = EngineOptions{})
      : options_(options) {}

  using chain::ExecutionEngine::Execute;

  Result<bool> PreVerify(const chain::Transaction& tx) override;
  Result<chain::Receipt> Execute(const chain::Transaction& tx,
                                 chain::StateDb* state,
                                 chain::TxTouchSet* touch) override;
  uint64_t ConflictKey(const chain::Transaction& tx) override;

  vm::cvm::CvmStats cvm_stats() const { return cvm_.stats(); }

 private:
  /// Bounds `preverified_`: a transaction that never executes on this
  /// node (its block was applied elsewhere first) is forgotten once the
  /// set fills, and then merely verified twice.
  static constexpr size_t kMaxPreverified = 4096;

  struct HashPrefix {
    size_t operator()(const crypto::Hash256& h) const {
      size_t v;
      std::memcpy(&v, h.data(), sizeof v);
      return v;
    }
  };

  EngineOptions options_;
  vm::cvm::CvmVm cvm_;
  vm::evm::EvmVm evm_;
  /// Hashes of transactions whose signature PreVerify accepted and that
  /// have not executed yet. The hash covers the signature and every
  /// signed field, so Execute skips the check for them: the node that
  /// pre-verified a block's transactions (the leader) checks each once.
  std::mutex preverified_mu_;
  std::unordered_set<crypto::Hash256, HashPrefix> preverified_;
};

/// \brief Confidential-Engine: the untrusted half of CONFIDE. Owns the
/// CS enclave handle, registers the state ocalls, routes pre-verification
/// and execution through ecalls, and caches conflict keys host-side so the
/// parallel scheduler can group encrypted transactions.
class ConfidentialEngine : public chain::ExecutionEngine {
 public:
  /// \brief Creates the CS enclave on `platform` and wires its ocalls.
  /// The enclave still needs keys (provision via KM enclave or KMS).
  static Result<std::unique_ptr<ConfidentialEngine>> Create(
      tee::EnclavePlatform* platform, CsOptions options = CsOptions{},
      uint64_t seed = 1, uint64_t enclave_heap_bytes = 48ull << 20);

  using chain::ExecutionEngine::Execute;

  /// \brief P1–P5 pipeline for one transaction (the node parallelizes
  /// across transactions).
  Result<bool> PreVerify(const chain::Transaction& tx) override;

  Result<chain::Receipt> Execute(const chain::Transaction& tx,
                                 chain::StateDb* state,
                                 chain::TxTouchSet* touch) override;

  uint64_t ConflictKey(const chain::Transaction& tx) override;

  /// \brief Replaces a crashed CS enclave with a freshly created one
  /// (same options, new `seed`) inside this engine object, so every
  /// ExecutionEngine pointer held by the node stays valid. The new
  /// enclave has no keys — the caller must re-provision it (see
  /// ConfideSystem::RecoverConfidentialEngine).
  Status RecreateEnclave(uint64_t seed,
                         uint64_t enclave_heap_bytes = 48ull << 20);

  tee::EnclaveId enclave_id() const { return enclave_id_; }
  CsEnclave* enclave() { return enclave_.get(); }
  tee::EnclavePlatform* platform() { return platform_; }

  /// \brief Operation counters of the most recent Execute() (Table 1
  /// profiling: contract calls, Get/SetStorage ops).
  CsExecuteResponse last_response() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_response_;
  }

 private:
  ConfidentialEngine(tee::EnclavePlatform* platform,
                     std::shared_ptr<CsEnclave> enclave, tee::EnclaveId id,
                     CsOptions options)
      : platform_(platform),
        enclave_(std::move(enclave)),
        enclave_id_(id),
        options_(options) {}

  void RegisterOcalls();

  tee::EnclavePlatform* platform_;
  std::shared_ptr<CsEnclave> enclave_;
  tee::EnclaveId enclave_id_;
  CsOptions options_;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, chain::StateDb*> contexts_;   // token -> state
  std::unordered_map<std::string, uint64_t> conflict_keys_;  // tx hash -> key
  std::atomic<uint64_t> next_token_{1};
  CsExecuteResponse last_response_;
};

}  // namespace confide::core
