/// \file cache.h
/// \brief Shared row cache for the LSM read path, built on common/lru.h
/// with a byte budget and an admission policy.
///
/// Entries are full rows (key → value, or a negative entry recording a
/// confirmed miss) populated when a point lookup had to probe the sorted
/// runs. The budget is bytes, not entries: each row is charged
/// key + value + bookkeeping overhead and the LRU tail is evicted until
/// the total fits. Admission policy: a row larger than 1/8 of the budget
/// is rejected outright — one oversized blob must not wipe out the whole
/// working set.
///
/// The cache is kept strictly coherent by the store: every write erases
/// the written key under the same lock that mutates the memtable, so a
/// hit can never serve a stale row. Not internally synchronized; the
/// owning LsmKvStore holds its lock around every call.
///
/// Budget knob: `CONFIDE_STORAGE_CACHE_MB` (LsmOptions::cache_bytes wins
/// when set); 0 disables the cache entirely.

#pragma once

#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/lru.h"

namespace confide::storage {

class RowCache {
 public:
  /// \brief A zero budget builds a disabled cache (every call no-ops).
  explicit RowCache(size_t budget_bytes);

  bool enabled() const { return budget_ > 0; }

  /// \brief A cached row: a value, or a confirmed absence (negative
  /// entry, so repeated misses skip the runs too).
  struct Row {
    std::optional<Bytes> value;  ///< nullopt = cached NotFound
  };

  /// \brief Returns the row (refreshing recency) or nullptr.
  const Row* Get(const std::string& key);

  /// \brief Admits a row, evicting LRU rows past the byte budget.
  /// Oversized rows (> budget/8) are rejected.
  void Insert(const std::string& key, std::optional<Bytes> value);

  /// \brief Coherence hook: drops the row for a written key.
  void Invalidate(const std::string& key);

  size_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }
  size_t budget() const { return budget_; }

 private:
  struct Slot {
    Row row;
    size_t charge = 0;
  };

  static size_t ChargeOf(const std::string& key,
                         const std::optional<Bytes>& value);

  size_t budget_;
  size_t bytes_ = 0;
  LruCache<std::string, Slot> lru_;
};

/// \brief Resolves the cache budget: `configured` when set, otherwise the
/// CONFIDE_STORAGE_CACHE_MB environment variable, otherwise
/// `fallback_mb` megabytes.
size_t ResolveCacheBudget(const std::optional<size_t>& configured,
                          size_t fallback_mb);

}  // namespace confide::storage
