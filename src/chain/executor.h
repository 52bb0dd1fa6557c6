/// \file executor.h
/// \brief Block executor with k-way parallel scheduling.
///
/// Ant Blockchain "supports smart contract paralleled execution" (paper
/// §6.2, Figure 11 reports 1/4/6-way numbers). Transactions are grouped
/// by conflict key (engine-reported; typically the target contract);
/// groups execute concurrently on a shared thread pool while transactions
/// within a group stay serial. Receipts are returned in block order
/// regardless of completion order.

#pragma once

#include <map>
#include <vector>

#include "chain/engine.h"
#include "common/thread_pool.h"

namespace confide::chain {

struct ExecutorOptions {
  uint32_t parallelism = 1;
  /// Shared worker pool (the node's). When null every group runs on the
  /// calling thread.
  ThreadPool* pool = nullptr;
};

/// \brief Executes a block's transactions and returns per-tx receipts in
/// order. A failed transaction yields a success=false receipt and its
/// state writes are discarded; execution continues (standard blockchain
/// semantics — failures are recorded, not fatal).
class BlockExecutor {
 public:
  explicit BlockExecutor(ExecutorOptions options) : options_(options) {}

  Result<std::vector<Receipt>> ExecuteBlock(
      const std::vector<Transaction>& transactions, const EngineSet& engines,
      StateDb* state) const;

  /// \brief The conflict partition ExecuteBlock schedules: conflict key →
  /// in-block tx indices, order preserved within each group. Exposed so
  /// benchmarks that *simulate* k-way scheduling (fig11's LPT makespan)
  /// can assert their grouping matches the real executor's.
  static Result<std::map<uint64_t, std::vector<size_t>>> GroupByConflictKey(
      const std::vector<Transaction>& transactions, const EngineSet& engines);

 private:
  ExecutorOptions options_;
};

}  // namespace confide::chain
