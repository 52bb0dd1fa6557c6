/// \file engine.h
/// \brief Execution-engine interface and contract registry.
///
/// The chain routes transactions by TYPE to one of two engines (paper
/// Figure 2): Public-Engine for plain transactions, Confidential-Engine
/// (the CONFIDE plugin, src/confide) for TYPE=1. The chain itself knows
/// nothing about enclaves — this seam is what makes CONFIDE pluggable.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/state.h"
#include "chain/types.h"

namespace confide::chain {

/// \brief Which VM executes a contract's code.
enum class VmKind : uint8_t { kCvm = 0, kEvm = 1 };

/// \brief On-chain contract code access. Code lives in contract state
/// under reserved keys so it is replicated and (for confidential
/// contracts) encrypted like any other state (D-Protocol covers "contract
/// states and contract code", §3.2.4).
class ContractRegistry {
 public:
  static constexpr const char* kCodeKey = "__code__";
  static constexpr const char* kVmKey = "__vm__";
  /// Entry point that deploys instead of calling: the tx input is a
  /// deploy payload (EncodeDeploy).
  static constexpr const char* kDeployEntry = "__deploy__";

  /// \brief The deploy payload, RLP [vm, code] — the one encoder every
  /// client uses.
  static Bytes EncodeDeploy(VmKind vm, ByteView code);

  struct DeployRef {
    VmKind vm;
    ByteView code;  ///< aliases the decoded payload
  };
  /// \brief The one decoder both engines use. InvalidArgument "bad deploy
  /// payload" for a malformed payload, "bad vm kind" for vm > 1.
  static Result<DeployRef> DecodeDeploy(ByteView payload);

  struct ContractInfo {
    VmKind vm;
    Bytes code;
  };
  static Result<ContractInfo> Load(StateDb* state, const Address& contract);
};

/// \brief Conflict keys of the contracts one execution actually touched,
/// including contracts reached through nested calls. The parallel executor
/// uses these to detect cross-group overlap that the envelope-level
/// ConflictKey (target contract only) cannot see.
struct TxTouchSet {
  std::vector<uint64_t> read_keys;
  std::vector<uint64_t> written_keys;
};

/// \brief A transaction execution engine.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// \brief Pre-verification (paper §5.2): signature checks that can run
  /// in parallel before ordering. Returns false for invalid transactions
  /// (which are discarded).
  virtual Result<bool> PreVerify(const Transaction& tx) = 0;

  /// \brief Executes against `state`. Must Discard() partial writes on
  /// failure; the caller commits per block. When `touch` is non-null the
  /// engine fills it with the conflict keys of every contract the
  /// execution read or wrote (nested calls included).
  virtual Result<Receipt> Execute(const Transaction& tx, StateDb* state,
                                  TxTouchSet* touch) = 0;

  /// \brief Convenience overload for callers that do not need touch sets.
  Result<Receipt> Execute(const Transaction& tx, StateDb* state) {
    return Execute(tx, state, nullptr);
  }

  /// \brief Conflict-group key for k-way parallel execution: transactions
  /// with equal keys are serialized, distinct keys may run concurrently.
  /// Returning 0 means "unknown — run in the serial group".
  virtual uint64_t ConflictKey(const Transaction& tx) = 0;
};

/// \brief The engine pair a node routes to.
struct EngineSet {
  ExecutionEngine* public_engine = nullptr;
  ExecutionEngine* confidential_engine = nullptr;

  ExecutionEngine* Route(const Transaction& tx) const {
    return tx.type == TxType::kConfidential ? confidential_engine : public_engine;
  }
};

}  // namespace confide::chain
