/// \file epc.h
/// \brief Enclave Page Cache simulator.
///
/// Models the SGX v1 physical-memory ceiling: allocations beyond the
/// usable EPC trigger page eviction (encrypt + store outside) and later
/// reloads, the dominant cost the paper's "efficient memory management"
/// optimizations avoid (§5.3).

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/sim_clock.h"
#include "common/status.h"
#include "tee/cost_model.h"

namespace confide::tee {

/// \brief Opaque id for an EPC region.
using EpcRegionId = uint64_t;

/// \brief Platform-wide EPC manager shared by all enclaves on one host.
///
/// Regions are allocated in whole pages and tracked in an LRU; when
/// resident pages exceed the EPC budget the least-recently-used regions'
/// pages are evicted, charging eviction cycles, and touching an evicted
/// region charges reload cycles. Thread-safe.
class EpcManager {
 public:
  EpcManager(const TeeCostModel& model, SimClock* clock, TeeStats* stats)
      : model_(model), clock_(clock), stats_(stats) {}

  /// \brief Allocates a region of `bytes` (rounded up to pages); may evict
  /// other regions to make room. Fails if the request alone exceeds EPC.
  Result<EpcRegionId> Allocate(uint64_t bytes);

  /// \brief Releases a region.
  Status Free(EpcRegionId id);

  /// \brief Marks a region accessed; reloads it (with cost) if evicted.
  Status Touch(EpcRegionId id);

  /// \brief Currently resident bytes.
  uint64_t ResidentBytes() const;

 private:
  struct Region {
    uint64_t pages = 0;
    bool resident = false;
    std::list<EpcRegionId>::iterator lru_pos;  // valid only when resident
  };

  // Evicts LRU regions until `needed_pages` fit. Caller holds mutex_.
  Status EvictForLocked(uint64_t needed_pages);
  void ChargeCycles(uint64_t cycles);

  TeeCostModel model_;
  SimClock* clock_;
  TeeStats* stats_;

  mutable std::mutex mutex_;
  std::unordered_map<EpcRegionId, Region> regions_;
  std::list<EpcRegionId> lru_;  // front = most recent
  uint64_t resident_pages_ = 0;
  EpcRegionId next_id_ = 1;
};

}  // namespace confide::tee
