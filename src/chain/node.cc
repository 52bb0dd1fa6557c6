#include "chain/node.h"

#include <atomic>

#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"

namespace confide::chain {

namespace {

struct NodeMetrics {
  metrics::Counter* blocks = metrics::GetCounter("chain.block.count");
  metrics::Counter* block_txs = metrics::GetCounter("chain.block.tx.count");
  metrics::Histogram* txs_per_block = metrics::GetHistogram(
      "chain.block.txs", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  metrics::Histogram* block_execute_latency =
      metrics::GetHistogram("chain.block.execute.latency_ns");
  metrics::Histogram* preverify_batch_latency =
      metrics::GetHistogram("chain.preverify.batch.latency_ns");
  metrics::Gauge* unverified_pool = metrics::GetGauge("chain.pool.unverified");
  metrics::Gauge* verified_pool = metrics::GetGauge("chain.pool.verified");

  static const NodeMetrics& Get() {
    static const NodeMetrics instruments;
    return instruments;
  }
};

std::string ReceiptKey(const crypto::Hash256& tx_hash) {
  return "rcpt/" + HexEncode(crypto::HashView(tx_hash));
}

std::string TxIndexKey(const crypto::Hash256& tx_hash) {
  return "txix/" + HexEncode(crypto::HashView(tx_hash));
}

/// Pool sizing: the calling thread always works inline, so parallel
/// execution/pre-verification needs parallelism−1 helpers.
std::unique_ptr<ThreadPool> MakeNodePool(const NodeOptions& options) {
  uint32_t workers = std::max<uint32_t>(1, options.parallelism) - 1;
  if (workers == 0) return nullptr;
  return std::make_unique<ThreadPool>(workers);
}

}  // namespace

Node::Node(NodeOptions options, EngineSet engines,
           std::shared_ptr<storage::KvStore> kv)
    : options_(options),
      engines_(engines),
      pool_(MakeNodePool(options)),
      executor_(ExecutorOptions{options.parallelism, pool_.get()}),
      kv_(std::move(kv)) {
  state_ = std::make_unique<CommitStateDb>(kv_);
  blocks_ = std::make_unique<storage::BlockStore>(kv_, options.clock);
  // Move LSM compactions onto the node's shared pool: a flush that
  // crosses the run threshold schedules the merge in the background
  // instead of stalling the committing thread. kv_ is declared after
  // pool_ in Node, so the store (which joins its inflight compaction on
  // destruction) dies first.
  if (pool_ != nullptr) {
    if (auto* lsm = dynamic_cast<storage::LsmKvStore*>(kv_.get())) {
      lsm->SetCompactionPool(pool_.get());
    }
  }
}

Result<std::unique_ptr<Node>> Node::Create(NodeOptions options,
                                           EngineSet engines) {
  storage::LsmOptions lsm;
  lsm.wal_dir = options.state_wal_dir;
  auto store = storage::LsmKvStore::Open(lsm);
  if (!store.ok()) {
    // A node configured for durability must not come up volatile: an
    // unusable WAL would otherwise mean every acknowledged write is lost
    // on restart while the node reports success throughout.
    metrics::GetCounter("chain.node.storage_open_failure.count")->Increment();
    return store.status();
  }
  if (options.checkpoint.interval > 0 && options.validators == nullptr) {
    return Status::InvalidArgument(
        "node: checkpointing enabled without a validator set");
  }
  std::unique_ptr<Node> node(new Node(
      options, engines, std::shared_ptr<storage::KvStore>(std::move(*store))));
  if (options.validators != nullptr) {
    node->checkpoints_ = std::make_unique<CheckpointManager>(
        options.checkpoint, node->kv_, options.validators);
  }
  CONFIDE_RETURN_NOT_OK(node->ResyncFromStore());
  return node;
}

Status Node::ResyncFromStore() {
  CONFIDE_RETURN_NOT_OK(RecoverChainTip());
  if (checkpoints_ != nullptr) {
    CONFIDE_RETURN_NOT_OK(checkpoints_->RecoverLatest());
  }
  return Status::OK();
}

Status Node::RecoverChainTip() {
  // The WAL replay restored state, receipts and block bodies, but the
  // height cursor and tip hash live in memory: rebuild them so a
  // restarted node keeps extending the durable chain instead of starting
  // over at height 0.
  CONFIDE_RETURN_NOT_OK(blocks_->RecoverTip());
  uint64_t tip = blocks_->NextHeight();
  if (tip == 0) {
    last_block_hash_ = crypto::Hash256{};
    state_->RestoreRoot(crypto::Hash256{});
    return Status::OK();
  }
  CONFIDE_ASSIGN_OR_RETURN(Bytes stored, blocks_->GetByHeight(tip - 1));
  CONFIDE_ASSIGN_OR_RETURN(Block block, Block::Deserialize(stored));
  last_block_hash_ = block.header.Hash();
  // The chained state root is in-memory only; without restoring it from
  // the tip header a restarted node would re-chain from a zero root and
  // silently fork from its peers at the next block.
  state_->RestoreRoot(block.header.state_root);
  return Status::OK();
}

void Node::MaybeCheckpointTip(uint64_t height, const crypto::Hash256& block_hash,
                              const crypto::Hash256& state_root) {
  if (checkpoints_ == nullptr) return;
  Status status = checkpoints_->MaybeCheckpoint(height, block_hash, state_root);
  if (!status.ok()) {
    // The block is already durable; a failed checkpoint only delays the
    // next snapshot, so count it instead of failing the commit.
    metrics::GetCounter("chain.checkpoint.failure.count")->Increment();
  }
}

Status Node::SubmitTransaction(Transaction tx) {
  if (fault::FaultInjector::Global().ShouldFail("fault.chain.submit")) {
    return Status::Unavailable("node: injected submit failure");
  }
  if (tx.type == TxType::kConfidential && tx.envelope.empty()) {
    return Status::InvalidArgument("node: confidential tx without envelope");
  }
  std::lock_guard<std::mutex> lock(pool_mutex_);
  unverified_.push_back(std::move(tx));
  NodeMetrics::Get().unverified_pool->Set(int64_t(unverified_.size()));
  return Status::OK();
}

void Node::PreVerifyBatch(std::vector<Transaction>* txs,
                          std::vector<uint8_t>* valid) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= txs->size()) return;
      ExecutionEngine* engine = engines_.Route((*txs)[i]);
      if (engine == nullptr) continue;
      auto ok = engine->PreVerify((*txs)[i]);
      (*valid)[i] = (ok.ok() && *ok) ? 1 : 0;
    }
  };
  uint32_t n_threads = std::max<uint32_t>(1, options_.parallelism);
  if (n_threads == 1 || pool_ == nullptr) {
    worker();
  } else {
    pool_->RunOnWorkers(n_threads - 1, worker);
  }
}

Result<size_t> Node::PreVerify() {
  std::deque<Transaction> pending;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pending.swap(unverified_);
    NodeMetrics::Get().unverified_pool->Set(0);
  }
  if (pending.empty()) return size_t(0);
  metrics::ScopedLatencyTimer timer(NodeMetrics::Get().preverify_batch_latency);

  std::vector<Transaction> txs(std::make_move_iterator(pending.begin()),
                               std::make_move_iterator(pending.end()));
  std::vector<uint8_t> valid(txs.size(), 0);
  PreVerifyBatch(&txs, &valid);

  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    for (size_t i = 0; i < txs.size(); ++i) {
      if (valid[i]) {
        verified_.push_back(std::move(txs[i]));
        ++count;
      }
    }
    NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
  }
  return count;
}

Result<Block> Node::ProposeBlock() {
  Block block;
  block.header.height = blocks_->NextHeight();
  block.header.parent_hash = last_block_hash_;
  block.header.timestamp_ns = block.header.height;  // deterministic
  std::vector<Bytes> leaves;
  {
    // Fill up to block_max_bytes, always taking at least one transaction;
    // the first that does not fit stays in the pool to open the next block.
    std::lock_guard<std::mutex> lock(pool_mutex_);
    size_t bytes = 0;
    while (!verified_.empty()) {
      Bytes wire = verified_.front().Serialize();
      if (!leaves.empty() && bytes + wire.size() > options_.block_max_bytes) break;
      bytes += wire.size();
      leaves.push_back(std::move(wire));
      block.transactions.push_back(std::move(verified_.front()));
      verified_.pop_front();
    }
    NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
  }
  block.header.tx_root = crypto::MerkleTree(leaves).Root();
  return block;
}

void Node::RequeueVerified(std::vector<Transaction> txs) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (auto it = txs.rbegin(); it != txs.rend(); ++it) {
    verified_.push_front(std::move(*it));
  }
  NodeMetrics::Get().verified_pool->Set(int64_t(verified_.size()));
}

Result<std::vector<Receipt>> Node::ApplyBlock(const Block& block) {
  if (fault::FaultInjector::Global().ShouldFail("fault.chain.apply_block")) {
    return Status::Unavailable("node: injected apply-block failure");
  }
  if (block.header.height < blocks_->NextHeight()) {
    return Status::AlreadyExists("node: block already applied");
  }
  if (block.header.height != blocks_->NextHeight()) {
    return Status::InvalidArgument("node: block height mismatch");
  }
  if (block.header.height > 0 && block.header.parent_hash != last_block_hash_) {
    return Status::InvalidArgument("node: parent hash mismatch");
  }

  // The header gains its receipt and state roots below.
  Block applied = block;
  std::vector<Receipt> receipts;
  {
    metrics::ScopedLatencyTimer timer(NodeMetrics::Get().block_execute_latency);
    auto executed =
        executor_.ExecuteBlock(applied.transactions, engines_, state_.get());
    if (!executed.ok()) {
      state_->Discard();  // partial overlay from failed groups
      return executed.status();
    }
    receipts = std::move(*executed);
  }

  // Receipts, the tx→block index, the state writes and the block itself
  // land in ONE batch: the store applies a batch atomically (single WAL
  // record), so any write failure — injected or real — leaves the chain
  // exactly at the previous block.
  storage::WriteBatch batch;
  uint8_t height_be[8];
  StoreBe64(height_be, applied.header.height);
  std::vector<Bytes> receipt_leaves;
  receipt_leaves.reserve(receipts.size());
  for (size_t i = 0; i < receipts.size(); ++i) {
    const crypto::Hash256 tx_hash = applied.transactions[i].Hash();
    receipts[i].tx_hash = tx_hash;
    Bytes wire = receipts[i].Serialize();
    batch.Put(ReceiptKey(tx_hash), wire);
    batch.Put(TxIndexKey(tx_hash), Bytes(height_be, height_be + 8));
    receipt_leaves.push_back(std::move(wire));
  }
  applied.header.receipt_root = crypto::MerkleTree(receipt_leaves).Root();
  state_->StageCommit(&batch, &applied.header.state_root);
  const crypto::Hash256 block_hash = applied.header.Hash();
  Status written = blocks_->StageAppend(applied.header.height, block_hash,
                                        applied.Serialize(), &batch);
  if (written.ok()) written = kv_->Write(batch);
  if (!written.ok()) {
    state_->Discard();  // nothing landed: a retry re-executes the block
    return written;
  }

  // The commit rule: a block whose batch landed is final. Height, tip
  // hash and state root advance now, so the in-memory view never trails
  // what the store holds — and a block that is in the store is never
  // executed again, even if the fsync below fails.
  const crypto::Hash256& root = applied.header.state_root;
  state_->FinalizeCommit(root);
  blocks_->FinalizeAppend();
  last_block_hash_ = block_hash;
  // ApplyBlock is the only writer of the backing store, so a snapshot
  // taken here sees exactly the committed prefix.
  MaybeCheckpointTip(blocks_->NextHeight(), block_hash, root);
  const size_t txs = applied.transactions.size();
  NodeMetrics::Get().blocks->Increment();
  NodeMetrics::Get().block_txs->Increment(txs);
  NodeMetrics::Get().txs_per_block->Observe(double(txs));
  if (options_.sync_commits) CONFIDE_RETURN_NOT_OK(kv_->Sync());
  return receipts;
}

Result<std::vector<Receipt>> Node::RunToCompletion() {
  std::vector<Receipt> all;
  for (;;) {
    CONFIDE_RETURN_NOT_OK(PreVerify().status());
    CONFIDE_ASSIGN_OR_RETURN(Block block, ProposeBlock());
    if (block.transactions.empty()) return all;
    const uint64_t height = Height();
    auto receipts = ApplyBlock(block);
    if (!receipts.ok()) {
      // A block that did not land goes back to the pool, so a retry
      // commits the same transactions in the same order. One whose batch
      // landed (only the fsync failed) is final: requeueing it would
      // execute its signed transactions twice.
      if (Height() == height) RequeueVerified(std::move(block.transactions));
      return receipts.status();
    }
    for (Receipt& receipt : *receipts) all.push_back(std::move(receipt));
  }
}

Result<Receipt> Node::GetReceipt(const crypto::Hash256& tx_hash) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes wire, kv_->Get(ReceiptKey(tx_hash)));
  return Receipt::Deserialize(wire);
}

Result<TxProof> Node::ProveTransaction(const crypto::Hash256& tx_hash) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes height_bytes, kv_->Get(TxIndexKey(tx_hash)));
  if (height_bytes.size() != 8) return Status::Corruption("node: bad tx index");
  uint64_t height = LoadBe64(height_bytes.data());
  CONFIDE_ASSIGN_OR_RETURN(Bytes block_wire, blocks_->GetByHeight(height));
  CONFIDE_ASSIGN_OR_RETURN(Block block, Block::Deserialize(block_wire));

  std::vector<Bytes> leaves;
  size_t index = block.transactions.size();
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    leaves.push_back(block.transactions[i].Serialize());
    if (block.transactions[i].Hash() == tx_hash) index = i;
  }
  if (index == block.transactions.size()) {
    return Status::Corruption("node: tx index points to wrong block");
  }
  crypto::MerkleTree tree(leaves);
  TxProof proof;
  proof.header = block.header;
  proof.tx_wire = leaves[index];
  CONFIDE_ASSIGN_OR_RETURN(proof.proof, tree.Prove(index));
  return proof;
}

bool Node::VerifyTxProof(const TxProof& proof) {
  return crypto::MerkleTree::Verify(proof.header.tx_root, proof.tx_wire,
                                    proof.proof);
}

size_t Node::UnverifiedPoolSize() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return unverified_.size();
}

size_t Node::VerifiedPoolSize() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return verified_.size();
}

}  // namespace confide::chain
