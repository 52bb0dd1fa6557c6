/// \file node.h
/// \brief A consortium blockchain node: transaction pools with parallel
/// pre-verification, block production, execution, commitment and
/// SPV-style consensus reads.

#pragma once

#include <deque>
#include <memory>
#include <mutex>

#include "chain/checkpoint.h"
#include "chain/executor.h"
#include "chain/types.h"
#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "storage/block_store.h"
#include "storage/lsm_store.h"

namespace confide::chain {

struct NodeOptions {
  uint32_t parallelism = 1;
  /// Block payload target (the paper's evaluation uses 4 KB blocks).
  size_t block_max_bytes = 4096;
  /// Charges the ~6 ms cloud-SSD write model on block commits when set.
  SimClock* clock = nullptr;
  /// Directory for the state-store WAL; empty = volatile state.
  std::string state_wal_dir;
  /// Blocks allowed in flight between the execute and commit stages of
  /// RunPipelined(). 0 = the old strictly serial lifecycle.
  uint32_t pipeline_depth = 0;
  /// fsync the store once per commit group (group commit): consecutive
  /// blocks' log records coalesce into one device flush.
  bool sync_commits = false;
  /// Real (wall-clock) commit latency, modelling the paper's ~6 ms
  /// cloud-SSD block write (§6.4) as actual blocking time the pipeline
  /// can overlap with execution. Charged once per commit group — one
  /// coalesced device flush covers consecutive blocks under group
  /// commit, so the serial lifecycle pays it per block while the
  /// pipeline pays it per group. 0 = no modelled wait.
  uint64_t commit_write_latency_ns = 0;
  /// Stable-checkpoint production (checkpoint.h). interval == 0 disables.
  CheckpointOptions checkpoint;
  /// Consortium validator set that certifies checkpoints; required when
  /// checkpointing is enabled (and for serving checkpoints to sync
  /// clients). Must outlive the node.
  const ValidatorSet* validators = nullptr;
};

/// \brief Inclusion proof for one transaction (SPV read, paper §3.3: "to
/// query blockchain data from other nodes, a consensus read should be
/// performed"). The caller compares `header` against headers fetched from
/// a quorum of nodes.
struct TxProof {
  BlockHeader header;
  crypto::MerkleProof proof;
  Bytes tx_wire;
};

/// \brief One node. Thread-compatible: external synchronization required
/// only around block production; pools are internally locked.
class Node {
 public:
  /// \brief Opens the state store (recovering from the WAL when
  /// `options.state_wal_dir` is set) and builds the node. A store that
  /// cannot be opened fails creation — a node asked for durability never
  /// silently degrades to a volatile store.
  static Result<std::unique_ptr<Node>> Create(NodeOptions options,
                                              EngineSet engines);

  /// \brief Receives a transaction into the unverified pool.
  Status SubmitTransaction(Transaction tx);

  /// \brief Runs pre-verification over the unverified pool (the paper's
  /// parallelizable phase, §5.2); valid transactions move to the verified
  /// pool, invalid ones are discarded. Returns the number verified.
  Result<size_t> PreVerify();

  /// \brief Builds the next block from the verified pool (up to
  /// block_max_bytes of transactions, at least one if available).
  Result<Block> ProposeBlock();

  /// \brief Returns already-verified transactions to the front of the
  /// verified pool, preserving their order. Used when a proposed block is
  /// abandoned (e.g. the proposer lost its leadership view before the
  /// block committed) so the drained transactions are not lost.
  void RequeueVerified(std::vector<Transaction> txs);

  /// \brief Executes and commits a block: state writes, receipts, block
  /// storage — all folded into one atomic KV write. Returns the receipts
  /// in order.
  ///
  /// The commit rule: once the block's batch has landed in the store the
  /// block is final — height, tip hash and state root advance. A failure
  /// before that (execution, an injected or real write fault) leaves the
  /// node exactly at the previous block, and the caller may retry the
  /// same block. A failure after it (the fsync under `sync_commits`) is
  /// still returned, but the block stays applied: re-applying it is
  /// refused with AlreadyExists and never executes its transactions a
  /// second time.
  Result<std::vector<Receipt>> ApplyBlock(const Block& block);

  /// \brief Drains the transaction pools through the three-stage block
  /// pipeline: stage 1 batch-pre-verifies on the shared pool, stage 2
  /// (this thread) packs blocks and runs the execute/stage step, stage 3
  /// runs the commit step, one WAL fsync per commit group — the same two
  /// steps ApplyBlock runs, under the same commit rule. Block N+1
  /// pre-verifies while block N executes and block N−1 commits; bounded
  /// queues (capacity `pipeline_depth`) provide backpressure. Every
  /// block still lands as one atomic WriteBatch. On failure the chain
  /// stops at the last durably committed block (staged state and
  /// appends roll back; unprocessed transactions return to the pools)
  /// and the error is returned. With pipeline_depth == 0 this is the
  /// serial PreVerify/ProposeBlock/ApplyBlock loop. Returns receipts in
  /// block order.
  Result<std::vector<Receipt>> RunPipelined();

  /// \brief Fetches a stored receipt by transaction hash.
  Result<Receipt> GetReceipt(const crypto::Hash256& tx_hash) const;

  /// \brief Builds an SPV inclusion proof for a transaction.
  Result<TxProof> ProveTransaction(const crypto::Hash256& tx_hash) const;

  /// \brief Verifies an SPV proof against a (quorum-checked) header.
  static bool VerifyTxProof(const TxProof& proof);

  /// \brief Re-derives every in-memory cursor (chain height, tip hash,
  /// state root, checkpoint retention) from the backing store. Called by
  /// state sync after installing a snapshot batch; also the restart
  /// recovery path.
  Status ResyncFromStore();

  CommitStateDb* state() { return state_.get(); }
  storage::BlockStore* blocks() { return blocks_.get(); }
  /// \brief Checkpoint producer/store; nullptr when no validator set was
  /// configured.
  CheckpointManager* checkpoints() { return checkpoints_.get(); }
  /// \brief Installs the fork-evidence callback on this node's checkpoint
  /// manager (no-op when checkpointing is disabled). See
  /// CheckpointManager::SetForkAlarm.
  void SetForkAlarm(CheckpointManager::ForkAlarm alarm) {
    if (checkpoints_) checkpoints_->SetForkAlarm(std::move(alarm));
  }
  uint64_t Height() const { return blocks_->NextHeight(); }
  /// \brief Hash of the latest durably committed block (zero at genesis).
  crypto::Hash256 TipHash() const { return last_block_hash_; }
  size_t UnverifiedPoolSize() const;
  size_t VerifiedPoolSize() const;

 private:
  Node(NodeOptions options, EngineSet engines,
       std::shared_ptr<storage::KvStore> kv);

  struct StagedBlock;

  /// \brief The execute/stage step: runs `staged->block` on the newest
  /// staged state, stores its receipts, sets its receipt and state roots,
  /// and stages receipts, tx index, state writes and block body into
  /// `staged->batch`. Writes nothing. On failure the caller unwinds the
  /// staged state (RollbackPending/RollbackStaged) once nothing in
  /// flight still needs it.
  Status ExecuteAndStage(StagedBlock* staged);

  /// \brief The commit step: writes each staged block's batch in order and
  /// finalizes it as soon as it lands (the commit rule, see ApplyBlock),
  /// then pays one commit wait and one optional fsync for the group.
  /// `*committed` counts the blocks finalized, also on failure.
  Status CommitGroup(std::vector<StagedBlock>* group, size_t* committed);

  /// \brief Parallel pre-verification of `txs` on the shared pool;
  /// `valid[i]` is set for transactions that passed.
  void PreVerifyBatch(std::vector<Transaction>* txs, std::vector<uint8_t>* valid);

  /// \brief Restores the height cursors, tip hash and state root from the
  /// durable store after a restart (crash recovery).
  Status RecoverChainTip();

  /// \brief Checkpoint hook after a block finalized at `height`; a failed
  /// checkpoint is counted and logged but never fails the block (it is
  /// already durable).
  void MaybeCheckpointTip(uint64_t height, const crypto::Hash256& block_hash,
                          const crypto::Hash256& state_root);

  NodeOptions options_;
  EngineSet engines_;
  std::unique_ptr<ThreadPool> pool_;  ///< before executor_: executor borrows it
  BlockExecutor executor_;
  std::shared_ptr<storage::KvStore> kv_;
  std::unique_ptr<CommitStateDb> state_;
  std::unique_ptr<storage::BlockStore> blocks_;
  std::unique_ptr<CheckpointManager> checkpoints_;

  mutable std::mutex pool_mutex_;
  std::deque<Transaction> unverified_;
  std::deque<Transaction> verified_;
  crypto::Hash256 last_block_hash_{};
};

}  // namespace confide::chain
