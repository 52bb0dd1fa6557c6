#include "storage/lsm_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string_view>
#include <unordered_set>

#include "common/fault.h"
#include "common/metrics.h"

namespace confide::storage {

namespace {

/// Read amplification = structures_probed / reads: every point lookup
/// probes the memtable plus however many sorted runs it has to touch
/// before the key (or its absence) is resolved. A row-cache hit resolves
/// with zero structures probed; a bloom negative skips a run without
/// counting it as probed.
struct LsmMetrics {
  metrics::Counter* reads = metrics::GetCounter("storage.lsm.read.count");
  metrics::Counter* structures_probed =
      metrics::GetCounter("storage.lsm.read.structures_probed");
  metrics::Counter* memtable_hits =
      metrics::GetCounter("storage.lsm.read.memtable_hit.count");
  metrics::Counter* flushes = metrics::GetCounter("storage.memtable.flush.count");
  metrics::Counter* flushed_entries =
      metrics::GetCounter("storage.memtable.flush.entries");
  metrics::Counter* compactions = metrics::GetCounter("storage.compaction.count");
  metrics::Counter* compacted_entries =
      metrics::GetCounter("storage.compaction.entries");
  metrics::Counter* bloom_probes = metrics::GetCounter("storage.bloom.probes");
  metrics::Counter* bloom_negatives =
      metrics::GetCounter("storage.bloom.negatives");
  metrics::Counter* bloom_false_positives =
      metrics::GetCounter("storage.bloom.false_positives");
  metrics::Counter* snapshots =
      metrics::GetCounter("storage.snapshot.created.count");
  metrics::Counter* snapshot_reads =
      metrics::GetCounter("storage.snapshot.read.count");
  metrics::Counter* orphans_removed =
      metrics::GetCounter("storage.sst.orphans_removed.count");
  metrics::Gauge* run_count = metrics::GetGauge("storage.lsm.run_count");
  metrics::Gauge* sequence = metrics::GetGauge("storage.lsm.sequence");

  static const LsmMetrics& Get() {
    static const LsmMetrics instruments;
    return instruments;
  }
};

/// Frozen point-in-time view: the pinned sequence, a frozen copy of the
/// memtable (bounded by memtable_flush_bytes), and the shared run list.
/// Snapshots and their iterators share one SnapView; the shared_ptr runs
/// keep compacted-away tables alive until the last reader drops them.
struct SnapView {
  uint64_t sequence = 0;
  std::shared_ptr<SortedRun> mem;                // frozen memtable, newest
  std::vector<std::shared_ptr<SortedRun>> runs;  // oldest first
  bool use_bloom = true;
};

/// Probes a frozen view: memtable first, then runs newest to oldest with
/// bloom gating. Shares the read-amplification counters with the store's
/// own Get so snapshot reads are visible in the same metrics.
Result<Bytes> ProbeView(const SnapView& view, const std::string& key) {
  const LsmMetrics& m = LsmMetrics::Get();
  m.reads->Increment();
  m.snapshot_reads->Increment();
  uint64_t probed = 1;  // the frozen memtable
  Lookup hit = view.mem->Get(key);
  if (!hit.found()) {
    for (auto it = view.runs.rbegin(); it != view.runs.rend(); ++it) {
      const SortedRun& run = **it;
      const bool bloom_used = view.use_bloom && !run.bloom().empty();
      if (bloom_used) {
        m.bloom_probes->Increment();
        if (!run.bloom().MayContain(key)) {
          m.bloom_negatives->Increment();
          continue;
        }
      }
      ++probed;
      hit = run.Get(key);
      if (hit.found()) break;
      if (bloom_used) m.bloom_false_positives->Increment();
    }
  }
  m.structures_probed->Increment(probed);
  if (hit.state == LookupState::kFoundValue) return *hit.value;
  if (hit.state == LookupState::kFoundTombstone) {
    return Status::NotFound("key deleted: " + key);
  }
  return Status::NotFound("key not found: " + key);
}

/// K-way merging iterator over a SnapView. Sources are ordered newest
/// first (frozen memtable, then runs back to front); on equal keys the
/// newest source wins and tombstones hide the key entirely. No
/// materialization: memory is O(sources), not O(keys).
class MergingIterator : public KvIterator {
 public:
  explicit MergingIterator(std::shared_ptr<const SnapView> view)
      : view_(std::move(view)) {
    sources_.push_back(&view_->mem->entries());
    for (auto it = view_->runs.rbegin(); it != view_->runs.rend(); ++it) {
      sources_.push_back(&(*it)->entries());
    }
    pos_.assign(sources_.size(), 0);
    Resolve();
  }

  bool Valid() const override { return current_ != nullptr; }
  const std::string& key() const override { return current_->key; }
  const Bytes& value() const override { return *current_->value; }

  void Next() override {
    SkipKey(current_->key);
    Resolve();
  }

  void SeekToFirst() override {
    std::fill(pos_.begin(), pos_.end(), size_t(0));
    Resolve();
  }

  void Seek(const std::string& target) override {
    for (size_t i = 0; i < sources_.size(); ++i) {
      const auto& entries = *sources_[i];
      pos_[i] = size_t(std::lower_bound(
                           entries.begin(), entries.end(), target,
                           [](const RunEntry& entry, const std::string& k) {
                             return entry.key < k;
                           }) -
                       entries.begin());
    }
    Resolve();
  }

 private:
  /// Advances every source past `key` (each source holds unique keys).
  void SkipKey(const std::string& key) {
    for (size_t i = 0; i < sources_.size(); ++i) {
      const auto& entries = *sources_[i];
      if (pos_[i] < entries.size() && entries[pos_[i]].key == key) ++pos_[i];
    }
  }

  /// Positions current_ at the smallest live key >= the cursor: picks the
  /// minimum head key, lets the newest source win ties, and skips keys
  /// whose newest version is a tombstone.
  void Resolve() {
    current_ = nullptr;
    for (;;) {
      const RunEntry* best = nullptr;
      for (size_t i = 0; i < sources_.size(); ++i) {
        const auto& entries = *sources_[i];
        if (pos_[i] >= entries.size()) continue;
        const RunEntry& head = entries[pos_[i]];
        // Strict < keeps the first (newest) source on ties.
        if (best == nullptr || head.key < best->key) best = &head;
      }
      if (best == nullptr) return;
      if (best->value) {
        current_ = best;
        return;
      }
      SkipKey(best->key);
    }
  }

  std::shared_ptr<const SnapView> view_;
  std::vector<const std::vector<RunEntry>*> sources_;  // newest first
  std::vector<size_t> pos_;
  const RunEntry* current_ = nullptr;
};

class LsmSnapshot : public KvSnapshot {
 public:
  explicit LsmSnapshot(std::shared_ptr<const SnapView> view)
      : view_(std::move(view)) {}

  Result<Bytes> Get(const std::string& key) const override {
    return ProbeView(*view_, key);
  }
  std::unique_ptr<KvIterator> NewIterator() const override {
    return std::make_unique<MergingIterator>(view_);
  }
  uint64_t Sequence() const override { return view_->sequence; }

 private:
  std::shared_ptr<const SnapView> view_;
};

/// Freezes the memtable into a (bloom-less) SortedRun.
std::shared_ptr<SortedRun> FreezeMemtable(const MemTable& mem) {
  std::vector<RunEntry> entries;
  entries.reserve(mem.entry_count());
  mem.ForEach([&](const std::string& key, const std::optional<Bytes>& value) {
    entries.push_back({key, value});
  });
  return std::make_shared<SortedRun>(std::move(entries), BloomFilter{});
}

/// Bloom sizing of every run (~0.8% false-positive rate).
constexpr size_t kBloomBitsPerKey = 10;

BloomFilter MaybeBuildBloom(const std::vector<RunEntry>& entries,
                            const LsmOptions& options) {
  if (!options.enable_bloom) return {};
  std::vector<std::string_view> keys;
  keys.reserve(entries.size());
  for (const RunEntry& entry : entries) keys.emplace_back(entry.key);
  return BloomFilter::Build(keys, kBloomBitsPerKey);
}

}  // namespace

Lookup SortedRun::Get(const std::string& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const RunEntry& entry, const std::string& k) { return entry.key < k; });
  if (it == entries_.end() || it->key != key) return Lookup::NotFound();
  if (it->value) return Lookup::FoundValue(&*it->value);
  return Lookup::FoundTombstone();
}

LsmKvStore::LsmKvStore(const LsmOptions& options)
    : options_(options),
      cache_(ResolveCacheBudget(options.cache_bytes, /*fallback_mb=*/64)) {}

LsmKvStore::~LsmKvStore() {
  std::future<void> inflight;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight = std::move(compaction_future_);
  }
  if (inflight.valid()) inflight.wait();
}

Result<std::unique_ptr<LsmKvStore>> LsmKvStore::Open(const LsmOptions& options) {
  return Recover(options, nullptr);
}

Result<std::unique_ptr<LsmKvStore>> LsmKvStore::Recover(const LsmOptions& options,
                                                        RecoveryInfo* info) {
  std::unique_ptr<LsmKvStore> store(new LsmKvStore(options));
  RecoveryInfo local;
  if (!options.wal_dir.empty()) {
    const std::string& dir = options.wal_dir;
    // Restore the manifest's tables (oldest first), then delete orphans —
    // tables a crash stranded between their write and the manifest
    // install. A manifest that names a missing or corrupt table is a real
    // durability loss and fails recovery loudly.
    CONFIDE_ASSIGN_OR_RETURN(std::vector<uint64_t> live, ReadManifest(dir));
    uint64_t max_number = 0;
    for (uint64_t number : live) {
      CONFIDE_ASSIGN_OR_RETURN(SsTableContents contents,
                               ReadSsTable(SsTablePath(dir, number)));
      store->runs_.push_back(std::make_shared<SortedRun>(
          std::move(contents.entries), std::move(contents.bloom), number));
      max_number = std::max(max_number, number);
      ++local.tables_loaded;
    }
    std::unordered_set<uint64_t> live_set(live.begin(), live.end());
    for (uint64_t number : ListSsTables(dir)) {
      max_number = std::max(max_number, number);
      if (live_set.count(number) != 0) continue;
      std::remove(SsTablePath(dir, number).c_str());
      LsmMetrics::Get().orphans_removed->Increment();
      ++local.orphans_removed;
    }
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".tmp") {
        std::filesystem::remove(entry.path(), ec);
      }
    }
    store->next_file_number_ = max_number + 1;

    std::string wal_path = dir + "/confide.wal";
    ReplayStats stats;
    CONFIDE_RETURN_NOT_OK(Wal::Replay(
        wal_path,
        [&](const WriteBatch& batch) {
          for (const auto& op : batch.ops()) {
            if (op.type == WriteBatch::OpType::kPut) {
              store->mem_.Put(op.key, op.value);
            } else {
              store->mem_.Put(op.key, std::nullopt);
            }
          }
        },
        &stats));
    local.batches_replayed = stats.records;
    local.torn_tail = stats.torn_tail;
    if (stats.torn_tail) {
      // Repair the log on disk before appending resumes: the torn bytes
      // of the partial record must not end up in front of the next
      // record, where a later Replay would read them as a garbage header
      // and lose everything written after this recovery.
      CONFIDE_RETURN_NOT_OK(Wal::TruncateTo(wal_path, stats.good_offset));
    }
    CONFIDE_ASSIGN_OR_RETURN(store->wal_, Wal::Open(wal_path));
    store->sequence_ = stats.records;
    metrics::GetCounter("storage.lsm.recover.count")->Increment();
    LsmMetrics::Get().run_count->Set(int64_t(store->runs_.size()));
    LsmMetrics::Get().sequence->Set(int64_t(store->sequence_));
  }
  if (info != nullptr) *info = local;
  return store;
}

Result<Bytes> LsmKvStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LsmMetrics& m = LsmMetrics::Get();
  m.reads->Increment();
  // Row cache first: a hit (positive or negative) resolves the read with
  // zero structures probed. Coherence holds because every write
  // invalidates its key under this same lock.
  if (const RowCache::Row* row = cache_.Get(key)) {
    if (row->value) return *row->value;
    return Status::NotFound("key not found: " + key);
  }
  uint64_t probed = 1;  // the memtable
  Lookup hit = mem_.Get(key);
  if (hit.found()) {
    m.structures_probed->Increment(probed);
    m.memtable_hits->Increment();
    if (hit.state == LookupState::kFoundValue) return *hit.value;
    return Status::NotFound("key deleted: " + key);
  }
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {  // newest first
    const SortedRun& run = **it;
    const bool bloom_used = options_.enable_bloom && !run.bloom().empty();
    if (bloom_used) {
      m.bloom_probes->Increment();
      if (!run.bloom().MayContain(key)) {
        m.bloom_negatives->Increment();
        continue;
      }
    }
    ++probed;
    hit = run.Get(key);
    if (hit.found()) {
      m.structures_probed->Increment(probed);
      if (hit.state == LookupState::kFoundValue) {
        // Populate the cache only from run hits: memtable hits are
        // already cheap and churn under writes.
        cache_.Insert(key, *hit.value);
        return *hit.value;
      }
      cache_.Insert(key, std::nullopt);
      return Status::NotFound("key deleted: " + key);
    }
    if (bloom_used) m.bloom_false_positives->Increment();
  }
  m.structures_probed->Increment(probed);
  cache_.Insert(key, std::nullopt);  // negative entry: miss resolved once
  return Status::NotFound("key not found: " + key);
}

Status LsmKvStore::ApplyLocked(const WriteBatch& batch) {
  if (wal_ != nullptr) {
    CONFIDE_RETURN_NOT_OK(wal_->Append(batch));
  }
  for (const auto& op : batch.ops()) {
    if (op.type == WriteBatch::OpType::kPut) {
      mem_.Put(op.key, op.value);
    } else {
      mem_.Put(op.key, std::nullopt);
    }
    cache_.Invalidate(op.key);
  }
  ++sequence_;
  LsmMetrics::Get().sequence->Set(int64_t(sequence_));
  return MaybeFlushLocked();
}

Status LsmKvStore::Put(const std::string& key, Bytes value) {
  WriteBatch batch;
  batch.Put(key, std::move(value));
  return Write(batch);
}

Status LsmKvStore::Delete(const std::string& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status LsmKvStore::Write(const WriteBatch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ApplyLocked(batch);
}

Status LsmKvStore::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_ == nullptr) return Status::OK();  // volatile store: nothing to sync
  return wal_->Sync();
}

Status LsmKvStore::MaybeFlushLocked() {
  if (mem_.approximate_bytes() < options_.memtable_flush_bytes ||
      mem_.entry_count() == 0) {
    return Status::OK();
  }
  // Fail before any structural mutation so a rejected flush leaves the
  // memtable (and its WAL coverage) fully intact.
  if (fault::FaultInjector::Global().ShouldFail("fault.storage.lsm_flush")) {
    return Status::Unavailable("lsm: injected flush failure");
  }
  std::vector<RunEntry> entries;
  entries.reserve(mem_.entry_count());
  mem_.ForEach([&](const std::string& key, const std::optional<Bytes>& value) {
    entries.push_back({key, value});
  });
  BloomFilter bloom = MaybeBuildBloom(entries, options_);
  uint64_t number = 0;
  if (durable()) {
    // Persist before install: table first, then the manifest naming it.
    // A crash after the table write leaves an orphan (cleaned at
    // recovery, WAL intact); a crash after the manifest but before the
    // WAL reset replays the same keys over the run — idempotent.
    number = next_file_number_++;
    CONFIDE_RETURN_NOT_OK(
        WriteSsTable(SsTablePath(options_.wal_dir, number), entries, bloom));
    std::vector<uint64_t> live;
    live.reserve(runs_.size() + 1);
    for (const auto& run : runs_) live.push_back(run->file_number());
    live.push_back(number);
    CONFIDE_RETURN_NOT_OK(WriteManifest(options_.wal_dir, live));
  }
  LsmMetrics::Get().flushes->Increment();
  LsmMetrics::Get().flushed_entries->Increment(entries.size());
  runs_.push_back(
      std::make_shared<SortedRun>(std::move(entries), std::move(bloom), number));
  LsmMetrics::Get().run_count->Set(int64_t(runs_.size()));
  mem_ = MemTable();
  if (wal_ != nullptr) {
    CONFIDE_RETURN_NOT_OK(wal_->Reset());
  }
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

void LsmKvStore::MaybeScheduleCompactionLocked() {
  if (runs_.size() <= options_.max_runs) return;
  if (options_.compaction_pool == nullptr) {
    // Inline: merge under the store lock, deterministic for tests.
    CompactWithRetries(nullptr);
    return;
  }
  if (compaction_inflight_) return;
  compaction_inflight_ = true;
  compaction_future_ = options_.compaction_pool->Submit([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    // Flushes that cross the threshold while this task merges find it in
    // flight and schedule nothing, so keep merging until the run count is
    // back within bound — or until an attempt gives up, leaving the runs
    // for the next flush to re-trigger.
    while (runs_.size() > options_.max_runs && CompactWithRetries(&lock)) {
    }
    compaction_inflight_ = false;
    compaction_cv_.notify_all();
  });
}

bool LsmKvStore::CompactWithRetries(std::unique_lock<std::mutex>* lock) {
  // Compaction is maintenance: an attempt that trips a fault site is
  // retried, and when a later attempt succeeds the site is recorded as
  // recovered. An exhausted budget (or a genuine IO error) just leaves
  // the runs for the next flush to re-trigger — it never fails a write.
  std::vector<std::string> tripped;
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::string site;
    Status status = CompactOnce(lock, &site);
    if (status.ok()) {
      std::sort(tripped.begin(), tripped.end());
      tripped.erase(std::unique(tripped.begin(), tripped.end()), tripped.end());
      for (const std::string& recovered : tripped) {
        fault::NoteRecovered(recovered);
      }
      return true;
    }
    if (site.empty()) return false;  // real IO error: defer to the next trigger
    tripped.push_back(site);
  }
  return false;
}

Status LsmKvStore::CompactOnce(std::unique_lock<std::mutex>* lock,
                               std::string* failed_site) {
  auto trip = [&](const char* site) {
    if (!fault::FaultInjector::Global().ShouldFail(site)) return false;
    *failed_site = site;
    return true;
  };
  if (runs_.size() <= options_.max_runs) return Status::OK();  // raced: done
  if (trip("fault.storage.compaction.start")) {
    return Status::Unavailable("lsm: injected compaction start failure");
  }
  // Pin the inputs; flushes appending while we merge stay untouched
  // because only the prefix [0, n) is replaced at install.
  std::vector<std::shared_ptr<SortedRun>> inputs = runs_;
  const size_t n = inputs.size();
  const uint64_t number = durable() ? next_file_number_++ : 0;

  if (lock != nullptr) lock->unlock();
  std::vector<RunEntry> entries;
  BloomFilter bloom;
  Status status = [&]() -> Status {
    if (trip("fault.storage.compaction.merge")) {
      return Status::Unavailable("lsm: injected compaction merge failure");
    }
    // Full merge: newest shadowing oldest; tombstones drop because the
    // inputs include the oldest run, so nothing older can resurrect.
    std::map<std::string, std::optional<Bytes>> merged;
    for (const auto& run : inputs) {  // oldest first; later inserts win
      for (const auto& entry : run->entries()) {
        merged[entry.key] = entry.value;
      }
    }
    entries.reserve(merged.size());
    for (auto& [key, value] : merged) {
      if (value) entries.push_back({key, std::move(value)});
    }
    bloom = MaybeBuildBloom(entries, options_);
    if (durable()) {
      if (trip("fault.storage.compaction.write")) {
        return Status::Unavailable("lsm: injected compaction write failure");
      }
      CONFIDE_RETURN_NOT_OK(
          WriteSsTable(SsTablePath(options_.wal_dir, number), entries, bloom));
      // The table is on disk but not yet in the manifest: failing here
      // strands an orphan for recovery to delete.
      if (trip("fault.storage.compaction.install")) {
        return Status::Unavailable("lsm: injected compaction install failure");
      }
    }
    return Status::OK();
  }();
  if (lock != nullptr) lock->lock();
  if (!status.ok()) return status;

  // Install: the merged run replaces the pinned prefix; runs flushed
  // during the merge stay on top. Manifest first — if it cannot be
  // written the old table set stays live and the new table is an orphan.
  if (durable()) {
    std::vector<uint64_t> live;
    live.reserve(runs_.size() - n + 1);
    live.push_back(number);
    for (size_t i = n; i < runs_.size(); ++i) {
      live.push_back(runs_[i]->file_number());
    }
    CONFIDE_RETURN_NOT_OK(WriteManifest(options_.wal_dir, live));
  }
  std::vector<std::shared_ptr<SortedRun>> next;
  next.reserve(runs_.size() - n + 1);
  next.push_back(
      std::make_shared<SortedRun>(std::move(entries), std::move(bloom), number));
  for (size_t i = n; i < runs_.size(); ++i) next.push_back(runs_[i]);
  runs_ = std::move(next);
  LsmMetrics::Get().compactions->Increment();
  LsmMetrics::Get().compacted_entries->Increment(
      runs_.front()->entries().size());
  LsmMetrics::Get().run_count->Set(int64_t(runs_.size()));
  // Replaced tables are no longer named by the manifest; snapshots still
  // pinning them read from memory, so the files can go now.
  for (const auto& input : inputs) {
    if (input->file_number() != 0) {
      std::remove(SsTablePath(options_.wal_dir, input->file_number()).c_str());
    }
  }
  return Status::OK();
}

Status LsmKvStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t saved = options_.memtable_flush_bytes;
  options_.memtable_flush_bytes = 0;
  Status status = MaybeFlushLocked();
  options_.memtable_flush_bytes = saved;
  return status;
}

size_t LsmKvStore::RunCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

uint64_t LsmKvStore::Sequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

void LsmKvStore::SetCompactionPool(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_.compaction_pool = pool;
}

void LsmKvStore::WaitForCompaction() {
  std::unique_lock<std::mutex> lock(mutex_);
  compaction_cv_.wait(lock, [&] { return !compaction_inflight_; });
}

std::unique_ptr<KvSnapshot> LsmKvStore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto view = std::make_shared<SnapView>();
  view->sequence = sequence_;
  view->mem = FreezeMemtable(mem_);
  view->runs = runs_;
  view->use_bloom = options_.enable_bloom;
  LsmMetrics::Get().snapshots->Increment();
  return std::make_unique<LsmSnapshot>(std::move(view));
}

std::unique_ptr<KvIterator> LsmKvStore::NewIterator() const {
  return GetSnapshot()->NewIterator();
}

size_t LsmKvStore::ApproximateCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = mem_.entry_count();
  for (const auto& run : runs_) count += run->entries().size();
  return count;
}

}  // namespace confide::storage
