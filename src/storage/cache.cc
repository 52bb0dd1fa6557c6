#include "storage/cache.h"

#include <cstdlib>

#include "common/metrics.h"

namespace confide::storage {

namespace {

/// Approximate per-row bookkeeping (LRU node + index entry + Slot).
constexpr size_t kRowOverhead = 64;

struct CacheMetrics {
  metrics::Counter* hits = metrics::GetCounter("storage.cache.hit.count");
  metrics::Counter* misses = metrics::GetCounter("storage.cache.miss.count");
  metrics::Counter* inserts = metrics::GetCounter("storage.cache.insert.count");
  metrics::Counter* evictions = metrics::GetCounter("storage.cache.evict.count");
  metrics::Counter* rejected =
      metrics::GetCounter("storage.cache.admission_reject.count");
  metrics::Counter* invalidations =
      metrics::GetCounter("storage.cache.invalidate.count");
  metrics::Gauge* bytes = metrics::GetGauge("storage.cache.bytes");
  metrics::Gauge* entries = metrics::GetGauge("storage.cache.entries");

  static const CacheMetrics& Get() {
    static const CacheMetrics instruments;
    return instruments;
  }
};

}  // namespace

size_t RowCache::ChargeOf(const std::string& key,
                          const std::optional<Bytes>& value) {
  return key.size() + (value ? value->size() : 0) + kRowOverhead;
}

RowCache::RowCache(size_t budget_bytes)
    : budget_(budget_bytes),
      // Every row is charged at least kRowOverhead bytes, so the entry
      // count can never reach this capacity before the byte budget
      // evicts — the LRU's own count eviction (which would bypass the
      // byte accounting) stays dormant.
      lru_(budget_bytes / kRowOverhead + 2) {}

const RowCache::Row* RowCache::Get(const std::string& key) {
  if (!enabled()) return nullptr;
  const CacheMetrics& m = CacheMetrics::Get();
  Slot* slot = lru_.Get(key);
  if (slot == nullptr) {
    m.misses->Increment();
    return nullptr;
  }
  m.hits->Increment();
  return &slot->row;
}

void RowCache::Insert(const std::string& key, std::optional<Bytes> value) {
  if (!enabled()) return;
  const CacheMetrics& m = CacheMetrics::Get();
  size_t charge = ChargeOf(key, value);
  if (charge > budget_ / 8) {
    m.rejected->Increment();
    return;
  }
  if (Slot* existing = lru_.Get(key)) {
    bytes_ -= existing->charge;
    existing->row.value = std::move(value);
    existing->charge = charge;
    bytes_ += charge;
  } else {
    lru_.Put(key, Slot{{std::move(value)}, charge});
    bytes_ += charge;
    m.inserts->Increment();
  }
  while (bytes_ > budget_) {
    const std::string* victim = lru_.OldestKey();
    if (victim == nullptr) break;
    bytes_ -= lru_.Peek(*victim)->charge;
    lru_.Erase(*victim);
    m.evictions->Increment();
  }
  m.bytes->Set(int64_t(bytes_));
  m.entries->Set(int64_t(lru_.size()));
}

void RowCache::Invalidate(const std::string& key) {
  if (!enabled()) return;
  const Slot* slot = lru_.Peek(key);
  if (slot == nullptr) return;
  bytes_ -= slot->charge;
  lru_.Erase(key);
  const CacheMetrics& m = CacheMetrics::Get();
  m.invalidations->Increment();
  m.bytes->Set(int64_t(bytes_));
  m.entries->Set(int64_t(lru_.size()));
}

size_t ResolveCacheBudget(const std::optional<size_t>& configured,
                          size_t fallback_mb) {
  if (configured.has_value()) return *configured;
  const char* env = std::getenv("CONFIDE_STORAGE_CACHE_MB");
  size_t mb = fallback_mb;
  if (env != nullptr && env[0] != '\0') {
    mb = size_t(std::strtoull(env, nullptr, 10));
  }
  return mb * (size_t(1) << 20);
}

}  // namespace confide::storage
