/// \file state.h
/// \brief Contract state database: per-contract namespaced KV access with
/// block-atomic commit and a state root.
///
/// Two implementations share the StateDb interface:
///  * CommitStateDb — the node's canonical state over a KvStore; buffered
///    writes land atomically per block and fold into a chained state root.
///  * OverlayStateDb — a scratch view for one parallel execution group;
///    reads fall through to the parent, writes stay local until merged
///    (or are thrown away when the transaction fails).

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "chain/types.h"
#include "storage/kv_store.h"

namespace confide::chain {

/// \brief Abstract contract-state access used by execution engines.
class StateDb {
 public:
  virtual ~StateDb() = default;

  /// \brief Namespaced key: <contract hex>/<raw key>.
  static std::string StateKey(const Address& contract, ByteView key);

  virtual Result<Bytes> Get(const Address& contract, ByteView key) const = 0;
  virtual void Put(const Address& contract, ByteView key, Bytes value) = 0;

  /// \brief Batched point reads (the SDM read-set prefetch / enclave
  /// batch ocall): one Result per (contract, key), in request order;
  /// absent keys come back NotFound. The base implementation loops Get;
  /// CommitStateDb overrides it to resolve every store-level miss against
  /// one pinned kv snapshot instead of N locked point reads.
  virtual std::vector<Result<Bytes>> GetMany(
      const std::vector<std::pair<Address, Bytes>>& keys) const;

  /// \brief Makes buffered writes durable/visible at this layer's parent.
  virtual Status Commit() = 0;

  /// \brief Drops buffered writes.
  virtual void Discard() = 0;

  /// \brief Buffered write count (tests).
  virtual size_t PendingWrites() const = 0;
};

/// \brief Canonical node state over a KvStore.
///
/// Writes buffer in one overlay. A block commit stages the overlay into
/// the block's batch (StageCommit); the overlay keeps serving reads until
/// FinalizeCommit — called once the batch landed — clears it and adopts
/// the new root, and Discard() is the rollback when the batch never lands.
class CommitStateDb : public StateDb {
 public:
  explicit CommitStateDb(std::shared_ptr<storage::KvStore> kv) : kv_(std::move(kv)) {}

  Result<Bytes> Get(const Address& contract, ByteView key) const override;
  std::vector<Result<Bytes>> GetMany(
      const std::vector<std::pair<Address, Bytes>>& keys) const override;
  void Put(const Address& contract, ByteView key, Bytes value) override;
  Status Commit() override;
  void Discard() override;
  size_t PendingWrites() const override;

  /// \brief Writes the buffered overlay into `batch` and reports the state
  /// root it chains to, without touching the store or the overlay. Once
  /// the batch is durably written call FinalizeCommit(new_root); if it
  /// never lands call Discard(). Lets the node fold state, receipts and
  /// block data into one atomic KV write.
  void StageCommit(storage::WriteBatch* batch, crypto::Hash256* new_root) const;

  /// \brief Completes a commit after its batch landed: drops the overlay
  /// (the store now serves it) and adopts `new_root` as the durable root.
  void FinalizeCommit(const crypto::Hash256& new_root);

  /// \brief Chained digest over all *durably committed* writes. (A
  /// production system would use a Merkle-Patricia trie; the chained
  /// digest preserves the state-continuity property consensus checks,
  /// §3.3.)
  crypto::Hash256 StateRoot() const;

  /// \brief Adopts `root` as the durable root and drops the overlay. The
  /// root is chained (not recomputable from the store), so restart
  /// recovery and state sync restore it from the tip block header after
  /// the backing store is in place.
  void RestoreRoot(const crypto::Hash256& root);

  storage::KvStore* backing() { return kv_.get(); }

 private:
  std::shared_ptr<storage::KvStore> kv_;
  mutable std::mutex mutex_;
  std::map<std::string, Bytes> overlay_;
  crypto::Hash256 state_root_{};  ///< durable root
};

/// \brief Scratch overlay for one transaction/group; Commit() merges into
/// the parent, Discard() drops.
class OverlayStateDb : public StateDb {
 public:
  explicit OverlayStateDb(StateDb* parent) : parent_(parent) {}

  Result<Bytes> Get(const Address& contract, ByteView key) const override;
  void Put(const Address& contract, ByteView key, Bytes value) override;
  Status Commit() override;
  void Discard() override { writes_.clear(); }
  size_t PendingWrites() const override { return writes_.size(); }

 private:
  StateDb* parent_;
  // Keyed by (contract, raw key) so merges replay through parent->Put.
  std::map<std::string, std::pair<std::pair<Address, Bytes>, Bytes>> writes_;
};

}  // namespace confide::chain
