/// \file kv_store.h
/// \brief Pluggable key-value storage interface.
///
/// The paper's platform deliberately leaves storage loosely coupled so
/// operators can pick their own KV store (§1, §2.4 "loosely coupling").
/// CONFIDE only sees this interface: contract states and transactions land
/// here, encrypted or plain according to the confidentiality model, and a
/// malicious host is assumed to read the raw database freely (§3.3).
/// LsmKvStore (storage/lsm_store.h) is the implementation this repository
/// ships; another backend implements every pure virtual below.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace confide::storage {

/// \brief An atomically applied batch of writes (RocksDB-style).
class WriteBatch {
 public:
  void Put(std::string key, Bytes value) {
    ops_.push_back({OpType::kPut, std::move(key), std::move(value)});
  }
  void Delete(std::string key) {
    ops_.push_back({OpType::kDelete, std::move(key), {}});
  }
  void Clear() { ops_.clear(); }
  size_t size() const { return ops_.size(); }

  enum class OpType : uint8_t { kPut = 0, kDelete = 1 };
  struct Op {
    OpType type;
    std::string key;
    Bytes value;
  };
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

/// \brief Forward iterator over a consistent view of the store.
class KvIterator {
 public:
  virtual ~KvIterator() = default;
  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual const std::string& key() const = 0;
  virtual const Bytes& value() const = 0;
  /// \brief Positions at the first key >= target.
  virtual void Seek(const std::string& target) = 0;
  virtual void SeekToFirst() = 0;
};

/// \brief Immutable point-in-time view of a store. Reads against a
/// snapshot never touch the store's write lock, so long scans (checkpoint
/// chunking) and batched reads (read-set prefetch) cannot contend with
/// the commit path. Sequence() identifies the pinned write generation:
/// writes sequenced after it are invisible to this view.
class KvSnapshot {
 public:
  virtual ~KvSnapshot() = default;
  virtual Result<Bytes> Get(const std::string& key) const = 0;
  virtual std::unique_ptr<KvIterator> NewIterator() const = 0;
  virtual uint64_t Sequence() const = 0;
};

/// \brief Abstract KV store.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Result<Bytes> Get(const std::string& key) const = 0;
  virtual Status Put(const std::string& key, Bytes value) = 0;
  virtual Status Delete(const std::string& key) = 0;
  virtual Status Write(const WriteBatch& batch) = 0;

  /// \brief Makes every previously acknowledged write durable. Stores
  /// without a durability layer treat it as a no-op. Calling it once
  /// after several Write()s is the group-commit pattern: all their log
  /// records ride one device flush.
  virtual Status Sync() { return Status::OK(); }

  /// \brief Iterator over a consistent snapshot taken at call time.
  virtual std::unique_ptr<KvIterator> NewIterator() const = 0;

  /// \brief Pins a consistent read view (LsmKvStore: a cheap
  /// sequence-pinned structure share, not a copy).
  virtual std::unique_ptr<KvSnapshot> GetSnapshot() const = 0;

  /// \brief Approximate number of live keys.
  virtual size_t ApproximateCount() const = 0;
};

}  // namespace confide::storage
