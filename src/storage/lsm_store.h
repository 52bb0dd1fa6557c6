/// \file lsm_store.h
/// \brief LSM-style KV store: skiplist memtable + WAL + sorted runs with
/// tombstone-dropping compaction.
///
/// Read path (PR 6): a byte-budgeted row cache answers hot point lookups
/// without touching any structure, per-run bloom filters skip runs that
/// cannot hold the key, and `GetSnapshot()` pins a sequence-stamped view
/// (frozen memtable + shared run list) so long scans and batched reads
/// proceed without the store lock. Compaction can run on a shared
/// `common::ThreadPool` (`LsmOptions::compaction_pool`); without a pool it
/// stays inline and deterministic.
///
/// Durability: pointing the store at a directory adds WAL replay *and*
/// SSTable persistence — every flushed or compacted run is written to
/// `<wal_dir>/<n>.sst` and recorded in a manifest before the WAL resets,
/// so flushed data now survives a crash (it previously lived only in
/// memory).

#pragma once

#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "storage/bloom.h"
#include "storage/cache.h"
#include "storage/kv_store.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace confide::storage {

/// \brief Tuning knobs.
struct LsmOptions {
  /// Memtable bytes before flush to a sorted run.
  size_t memtable_flush_bytes = 4 << 20;
  /// Sorted runs before a full merge compaction.
  size_t max_runs = 6;
  /// Directory for the WAL and SSTables; empty string = volatile store.
  std::string wal_dir;
  /// Build a bloom filter per run and consult it before binary search.
  bool enable_bloom = true;
  /// Bloom sizing (~0.8% false-positive rate at 10).
  size_t bloom_bits_per_key = 10;
  /// Row-cache budget in bytes. Unset = `CONFIDE_STORAGE_CACHE_MB`
  /// megabytes (default 64). Zero disables the cache.
  std::optional<size_t> cache_bytes;
  /// Runs compactions on this pool when set (single inflight task);
  /// nullptr keeps compaction inline under the store lock. The pool must
  /// outlive the store (or the store must be destroyed first — it joins
  /// its inflight task on destruction).
  ThreadPool* compaction_pool = nullptr;
};

/// \brief Immutable sorted run produced by a memtable flush or a
/// compaction. `file_number` names its SSTable on disk (0 = memory-only).
class SortedRun {
 public:
  SortedRun(std::vector<RunEntry> entries, BloomFilter bloom,
            uint64_t file_number = 0)
      : entries_(std::move(entries)),
        bloom_(std::move(bloom)),
        file_number_(file_number) {}

  /// \brief Binary-searched point lookup.
  Lookup Get(const std::string& key) const;

  const std::vector<RunEntry>& entries() const { return entries_; }
  const BloomFilter& bloom() const { return bloom_; }
  uint64_t file_number() const { return file_number_; }

 private:
  std::vector<RunEntry> entries_;
  BloomFilter bloom_;
  uint64_t file_number_ = 0;
};

/// \brief What crash recovery found (Recover() diagnostics).
struct RecoveryInfo {
  uint64_t batches_replayed = 0;  ///< intact WAL records re-applied
  bool torn_tail = false;         ///< WAL ended mid-record (crash mid-write)
  uint64_t tables_loaded = 0;     ///< SSTables restored from the manifest
  uint64_t orphans_removed = 0;   ///< unreferenced tables deleted
};

/// \brief The store. Thread-safe.
class LsmKvStore : public KvStore {
 public:
  /// \brief Opens a store; replays the WAL when `options.wal_dir` is set.
  static Result<std::unique_ptr<LsmKvStore>> Open(const LsmOptions& options);

  /// \brief Open with recovery diagnostics: loads the manifest's SSTables,
  /// deletes orphaned tables (a crash between a table write and its
  /// manifest install), then replays the WAL (tolerating a torn tail
  /// record from a crash mid-append) and reports what it found. A store
  /// that crashed after acknowledging batch k recovers every batch up to
  /// and including k — a prefix-consistent state.
  static Result<std::unique_ptr<LsmKvStore>> Recover(const LsmOptions& options,
                                                     RecoveryInfo* info = nullptr);

  ~LsmKvStore() override;  // joins the inflight background compaction

  Result<Bytes> Get(const std::string& key) const override;
  Status Put(const std::string& key, Bytes value) override;
  Status Delete(const std::string& key) override;
  Status Write(const WriteBatch& batch) override;
  Status Sync() override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  std::unique_ptr<KvSnapshot> GetSnapshot() const override;
  size_t ApproximateCount() const override;

  /// \brief Forces a memtable flush (tests/benchmarks). No-op when the
  /// memtable is empty.
  Status Flush();

  /// \brief Number of sorted runs currently live (tests).
  size_t RunCount() const;

  /// \brief Write sequence number: one per applied batch.
  uint64_t Sequence() const;

  /// \brief Late pool wiring for owners that build the store before the
  /// pool (Node::Create). Safe while the store is serving traffic.
  void SetCompactionPool(ThreadPool* pool);

  /// \brief Blocks until no background compaction is queued or running
  /// (tests/benchmarks; inline compaction makes this a no-op).
  void WaitForCompaction();

 private:
  explicit LsmKvStore(const LsmOptions& options);

  Status ApplyLocked(const WriteBatch& batch);
  Status MaybeFlushLocked();
  /// Schedules (pool) or runs (inline) a compaction when over max_runs.
  void MaybeScheduleCompactionLocked();
  /// One merge attempt with fault sites. `lock` non-null = background
  /// path: the merge and table write drop the store lock. On injected
  /// failure returns Unavailable and names the site in `failed_site`.
  Status CompactOnce(std::unique_lock<std::mutex>* lock,
                     std::string* failed_site);
  /// Retry wrapper: attempts CompactOnce a few times, noting
  /// `<site>.recovered` when a later attempt succeeds. Never fails the
  /// caller — an exhausted compaction just waits for the next trigger.
  /// Returns false when the budget ran out or a real IO error occurred.
  bool CompactWithRetries(std::unique_lock<std::mutex>* lock);
  bool durable() const { return !options_.wal_dir.empty(); }

  LsmOptions options_;
  mutable std::mutex mutex_;
  MemTable mem_;
  std::vector<std::shared_ptr<SortedRun>> runs_;  // oldest first
  std::unique_ptr<Wal> wal_;
  mutable RowCache cache_;  // guarded by mutex_ (Get mutates recency)
  uint64_t sequence_ = 0;
  uint64_t next_file_number_ = 1;
  bool compaction_inflight_ = false;          // pool task queued or running
  std::future<void> compaction_future_;
  std::condition_variable compaction_cv_;
};

}  // namespace confide::storage
