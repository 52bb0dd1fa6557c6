/// \file block_store.h
/// \brief Append-only block storage over a KvStore, with a cloud-SSD write
/// latency model (the paper reports ~6 ms average block write latency on
/// cloud SSD, §6.4).

#pragma once

#include <memory>
#include <mutex>

#include "common/sim_clock.h"
#include "crypto/sha256.h"
#include "storage/kv_store.h"

namespace confide::storage {

/// \brief Stores serialized blocks addressable by height and by hash.
class BlockStore {
 public:
  /// \brief `clock` may be null to disable latency modelling. Each block
  /// write charges it the cloud-SSD model: 6 ms per write plus 4 µs per
  /// KiB.
  explicit BlockStore(std::shared_ptr<KvStore> kv, SimClock* clock = nullptr)
      : kv_(std::move(kv)), clock_(clock) {}

  /// \brief Appends a block. Heights must be contiguous from 0.
  Status Append(uint64_t height, const crypto::Hash256& hash, Bytes block);

  /// \brief Stages an append into `batch` (height check + SSD latency
  /// model) without writing. `height` must be NextHeight(); call
  /// FinalizeAppend() once the batch has been durably written. Lets the
  /// node commit block data atomically with state and receipts.
  Status StageAppend(uint64_t height, const crypto::Hash256& hash, Bytes block,
                     WriteBatch* batch);

  /// \brief Completes the staged append (advances the height cursor).
  void FinalizeAppend();

  Result<Bytes> GetByHeight(uint64_t height) const;
  Result<Bytes> GetByHash(const crypto::Hash256& hash) const;

  /// \brief Number of durably stored blocks (next height to finalize).
  uint64_t NextHeight() const;

  /// \brief Rebuilds the height cursor from the underlying store after a
  /// restart: blocks land in the same atomic batch as state and receipts,
  /// so the highest contiguous stored height IS the committed prefix.
  /// No-op on an empty (or volatile) store.
  Status RecoverTip();

 private:
  static std::string HeightKey(uint64_t height);
  static std::string HashKey(const crypto::Hash256& hash);

  std::shared_ptr<KvStore> kv_;
  SimClock* clock_;
  mutable std::mutex mutex_;
  uint64_t next_height_ = 0;  ///< durable
};

}  // namespace confide::storage
