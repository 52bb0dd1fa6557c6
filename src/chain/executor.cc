#include "chain/executor.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/metrics.h"

namespace confide::chain {

namespace {

struct ExecutorMetrics {
  metrics::Counter* regrouped_groups =
      metrics::GetCounter("chain.executor.conflict_regroup.count");
  metrics::Counter* reexecuted_txs =
      metrics::GetCounter("chain.executor.conflict_reexec_tx.count");

  static const ExecutorMetrics& Get() {
    static const ExecutorMetrics instruments;
    return instruments;
  }
};

/// Union of the touch sets reported by one group's transactions.
struct GroupTouch {
  std::set<uint64_t> reads;
  std::set<uint64_t> writes;
};

bool Intersects(const std::set<uint64_t>& a, const std::set<uint64_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    (*ia < *ib) ? ++ia : ++ib;
  }
  return false;
}

/// Runs one transaction against `parent` through its own overlay, so a
/// failed tx discards only its own writes while earlier group writes
/// survive. A transaction-level failure (trap, exhausted budget, crypto
/// or missing-state error) becomes a success=false receipt; any other
/// engine error is returned and aborts the block.
Result<Receipt> ExecuteTx(const Transaction& tx, const EngineSet& engines,
                          StateDb* parent, TxTouchSet* touch) {
  OverlayStateDb txn(parent);
  Result<Receipt> result = engines.Route(tx)->Execute(tx, &txn, touch);
  if (result.ok()) {
    if (result->success) (void)txn.Commit();
    return result;
  }
  const Status& status = result.status();
  if (!status.IsVmTrap() && status.code() != StatusCode::kResourceExhausted &&
      !status.IsCryptoError() && !status.IsNotFound()) {
    return status;
  }
  Receipt receipt;
  receipt.tx_hash = tx.Hash();
  receipt.success = false;
  receipt.status_message = status.ToString();
  return receipt;
}

Status BlockAborted(const Status& cause) {
  return Status::Internal("executor: block aborted: " + cause.ToString());
}

}  // namespace

Result<std::map<uint64_t, std::vector<size_t>>> BlockExecutor::GroupByConflictKey(
    const std::vector<Transaction>& transactions, const EngineSet& engines) {
  // Group by conflict key, preserving in-block order within each group.
  std::map<uint64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < transactions.size(); ++i) {
    ExecutionEngine* engine = engines.Route(transactions[i]);
    if (engine == nullptr) {
      return Status::InvalidArgument("executor: no engine for tx type");
    }
    groups[engine->ConflictKey(transactions[i])].push_back(i);
  }
  return groups;
}

Result<std::vector<Receipt>> BlockExecutor::ExecuteBlock(
    const std::vector<Transaction>& transactions, const EngineSet& engines,
    StateDb* state) const {
  std::vector<Receipt> receipts(transactions.size());

  CONFIDE_ASSIGN_OR_RETURN(auto groups,
                           GroupByConflictKey(transactions, engines));

  // Each worker drains whole groups; writes stage in a per-group overlay
  // and merge in deterministic group order afterwards.
  std::vector<std::pair<uint64_t, std::vector<size_t>>> group_list(groups.begin(),
                                                                   groups.end());
  std::vector<OverlayStateDb> overlays;
  overlays.reserve(group_list.size());
  for (size_t g = 0; g < group_list.size(); ++g) overlays.emplace_back(state);
  // Filled by the worker that owns group g; read only after the join.
  std::vector<GroupTouch> touches(group_list.size());

  std::atomic<size_t> next_group{0};
  std::atomic<bool> failed{false};
  Status failure;
  std::mutex failure_mutex;

  auto worker = [&] {
    for (;;) {
      size_t g = next_group.fetch_add(1);
      if (g >= group_list.size() || failed.load()) return;
      for (size_t index : group_list[g].second) {
        TxTouchSet touch;
        Result<Receipt> receipt =
            ExecuteTx(transactions[index], engines, &overlays[g], &touch);
        touches[g].reads.insert(touch.read_keys.begin(), touch.read_keys.end());
        touches[g].writes.insert(touch.written_keys.begin(),
                                 touch.written_keys.end());
        if (!receipt.ok()) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          failure = receipt.status();
          failed.store(true);
          return;
        }
        receipts[index] = std::move(receipt).value();
      }
    }
  };

  uint32_t n_threads = std::max<uint32_t>(1, options_.parallelism);
  if (n_threads == 1 || group_list.size() <= 1 || options_.pool == nullptr) {
    worker();
  } else {
    // The calling thread is the n-th worker (inline run), so only
    // n_threads - 1 pool helpers are requested; a saturated pool simply
    // yields fewer helpers, never a deadlock.
    options_.pool->RunOnWorkers(n_threads - 1, worker);
  }

  if (failed.load()) return BlockAborted(failure);

  // Cross-group overlap check: nested calls can write a contract that a
  // *different* group also read or wrote, which the envelope-level
  // conflict key never sees. All groups executed against the same parent
  // snapshot, so any such overlap makes the parallel schedule unsound —
  // those groups rerun serially below, after the clean groups merge.
  std::vector<bool> conflicted(group_list.size(), false);
  for (size_t g = 0; g < group_list.size(); ++g) {
    for (size_t h = g + 1; h < group_list.size(); ++h) {
      if (Intersects(touches[g].writes, touches[h].writes) ||
          Intersects(touches[g].writes, touches[h].reads) ||
          Intersects(touches[g].reads, touches[h].writes)) {
        conflicted[g] = true;
        conflicted[h] = true;
      }
    }
  }

  // Deterministic merge order for the clean groups.
  for (size_t g = 0; g < group_list.size(); ++g) {
    if (conflicted[g]) continue;
    CONFIDE_RETURN_NOT_OK(overlays[g].Commit());
  }

  // Serial re-execution of conflicted groups, in group-key order, each
  // seeing every previously committed write. Their first-run overlays are
  // dropped wholesale; receipts are replaced by the serial results.
  for (size_t g = 0; g < group_list.size(); ++g) {
    if (!conflicted[g]) continue;
    ExecutorMetrics::Get().regrouped_groups->Increment();
    overlays[g].Discard();
    OverlayStateDb redo(state);
    for (size_t index : group_list[g].second) {
      ExecutorMetrics::Get().reexecuted_txs->Increment();
      Result<Receipt> receipt =
          ExecuteTx(transactions[index], engines, &redo, nullptr);
      if (!receipt.ok()) return BlockAborted(receipt.status());
      receipts[index] = std::move(receipt).value();
    }
    CONFIDE_RETURN_NOT_OK(redo.Commit());
  }
  return receipts;
}

}  // namespace confide::chain
