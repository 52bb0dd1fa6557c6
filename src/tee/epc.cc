#include "tee/epc.h"

#include "common/metrics.h"

namespace confide::tee {

namespace {

struct EpcMetrics {
  metrics::Counter* pages_evicted = metrics::GetCounter("tee.epc.page_evict.count");
  metrics::Counter* pages_loaded = metrics::GetCounter("tee.epc.page_load.count");
  /// Bytes run through the paging crypto (evictions encrypt, loads decrypt).
  metrics::Counter* crypto_bytes = metrics::GetCounter("tee.epc.crypto.bytes");
  metrics::Counter* paging_cycles = metrics::GetCounter("tee.epc.paging.cycles");

  static const EpcMetrics& Get() {
    static const EpcMetrics instruments;
    return instruments;
  }
};

}  // namespace

void EpcManager::ChargeCycles(uint64_t cycles) {
  clock_->AdvanceCycles(cycles);
  stats_->modeled_cycles.fetch_add(cycles, std::memory_order_relaxed);
}

Status EpcManager::EvictForLocked(uint64_t needed_pages) {
  const uint64_t budget_pages = model_.epc_usable_bytes / model_.page_size;
  if (needed_pages > budget_pages) {
    return Status::ResourceExhausted("EPC request exceeds total EPC size");
  }
  while (resident_pages_ + needed_pages > budget_pages) {
    if (lru_.empty()) {
      return Status::ResourceExhausted("EPC exhausted with nothing evictable");
    }
    EpcRegionId victim = lru_.back();
    lru_.pop_back();
    Region& region = regions_[victim];
    region.resident = false;
    resident_pages_ -= region.pages;
    stats_->pages_evicted.fetch_add(region.pages, std::memory_order_relaxed);
    EpcMetrics::Get().pages_evicted->Increment(region.pages);
    EpcMetrics::Get().crypto_bytes->Increment(region.pages * model_.page_size);
    EpcMetrics::Get().paging_cycles->Increment(region.pages * model_.page_evict_cycles);
    ChargeCycles(region.pages * model_.page_evict_cycles);
  }
  return Status::OK();
}

Result<EpcRegionId> EpcManager::Allocate(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t pages = (bytes + model_.page_size - 1) / model_.page_size;
  if (pages == 0) pages = 1;
  CONFIDE_RETURN_NOT_OK(EvictForLocked(pages));

  EpcRegionId id = next_id_++;
  Region region;
  region.pages = pages;
  region.resident = true;
  lru_.push_front(id);
  region.lru_pos = lru_.begin();
  regions_[id] = region;
  resident_pages_ += pages;
  return id;
}

Status EpcManager::Free(EpcRegionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    return Status::NotFound("unknown EPC region");
  }
  if (it->second.resident) {
    lru_.erase(it->second.lru_pos);
    resident_pages_ -= it->second.pages;
  }
  regions_.erase(it);
  return Status::OK();
}

Status EpcManager::Touch(EpcRegionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    return Status::NotFound("unknown EPC region");
  }
  Region& region = it->second;
  if (region.resident) {
    // Refresh LRU position.
    lru_.erase(region.lru_pos);
    lru_.push_front(id);
    region.lru_pos = lru_.begin();
    return Status::OK();
  }
  // Page the region back in, evicting others if needed.
  CONFIDE_RETURN_NOT_OK(EvictForLocked(region.pages));
  region.resident = true;
  lru_.push_front(id);
  region.lru_pos = lru_.begin();
  resident_pages_ += region.pages;
  stats_->pages_loaded.fetch_add(region.pages, std::memory_order_relaxed);
  EpcMetrics::Get().pages_loaded->Increment(region.pages);
  EpcMetrics::Get().crypto_bytes->Increment(region.pages * model_.page_size);
  EpcMetrics::Get().paging_cycles->Increment(region.pages * model_.page_load_cycles);
  ChargeCycles(region.pages * model_.page_load_cycles);
  return Status::OK();
}

uint64_t EpcManager::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_pages_ * model_.page_size;
}

}  // namespace confide::tee
