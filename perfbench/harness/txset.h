/// \file txset.h
/// \brief Workload definitions and the generated transaction set.
///
/// Every transaction a run submits is built, signed and (for TYPE=1)
/// sealed here, from the workload seed, before any clock starts. The set
/// is written to one file that the deployed run and the traced replay
/// both read, so they drive byte-identical inputs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "confide/protocol.h"
#include "crypto/sha256.h"

namespace perfbench {

/// \brief One workload's traffic shape (README.md says why each exists).
struct WorkloadSpec {
  std::string name;
  double tx_rate = 0;            ///< Poisson submissions per second
  uint32_t confidential_pct = 0; ///< share of TYPE=1 transactions
  /// Backlog workloads offer a fixed count (per second of run length)
  /// instead of a fixed schedule length.
  uint64_t backlog_per_run_second = 0;
  double read_rate = 0;          ///< Poisson reads per second
  /// A transaction not committed this long after its scheduled send
  /// counts as failed.
  uint64_t commit_deadline_ms = 10'000;
};

/// \brief The workload called `name`; InvalidArgument when unknown.
confide::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// \brief One generated transaction.
struct GenTx {
  uint64_t at_ns = 0;                ///< scheduled send, from window start
  bool confidential = false;
  confide::Bytes wire;               ///< Transaction::Serialize()
  confide::crypto::Hash256 hash{};   ///< Transaction::Hash()
  confide::core::TxKey k_tx{};       ///< client-retained key (TYPE=1 only)
};

/// \brief Everything one run submits.
struct TxSet {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  /// Public then confidential deploy of the synthetic contract; set-up
  /// commits both before the measured window.
  std::vector<GenTx> deploys;
  /// Offered and committed before the measured window, so first-use
  /// costs (connections, caches, lazy set-up) stay out of it.
  std::vector<GenTx> warmup;
  std::vector<GenTx> txs;              ///< in schedule order
  std::vector<uint64_t> reads_at_ns;   ///< read schedule (may be empty)
};

/// \brief Consortium key seed for the cluster of a run with `seed`: every
/// node and the generator derive the same pk_tx from it.
inline uint64_t ConsortiumSeed(uint64_t seed) { return seed; }

/// \brief Builds the set for `spec` from `seed`, `seconds` of schedule.
confide::Result<TxSet> Generate(const WorkloadSpec& spec, uint64_t seed,
                                uint64_t seconds);

confide::Status SaveTxSet(const TxSet& set, const std::string& path);
confide::Result<TxSet> LoadTxSet(const std::string& path);

/// \brief JSON POST body of /v1/tx for a transaction wire.
std::string SubmitBody(const confide::Bytes& wire);

}  // namespace perfbench
