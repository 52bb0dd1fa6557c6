#include "common/fault.h"

#include "common/metrics.h"

namespace confide::fault {

namespace {

/// splitmix64: tiny, deterministic, and dependency-free (the common
/// library sits below crypto, so Drbg is unavailable here). Quality is
/// more than enough for fire/no-fire draws.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

metrics::Counter* SiteCounter(std::string_view site, const char* suffix) {
  return metrics::GetCounter(std::string(site) + suffix);
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  rng_state_ = seed ^ 0x9e3779b97f4a7c15ull;
}

void FaultInjector::Arm(const std::string& site, Trigger trigger) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& s = sites_[site];
  if (!s.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  s.trigger = trigger;
  s.armed = true;
  s.hits = 0;
  s.fired = 0;
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFail(std::string_view site, uint64_t* arg_out) {
  // Production fast path: nothing armed anywhere.
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return false;
  Site& s = it->second;
  ++s.hits;
  if (s.hits <= s.trigger.after_hits) return false;
  if (s.trigger.probability < 1.0) {
    // Draw in [0, 1) with 53-bit resolution.
    double draw = double(SplitMix64(&rng_state_) >> 11) * 0x1.0p-53;
    if (draw >= s.trigger.probability) return false;
  }
  ++s.fired;
  if (s.trigger.one_shot) {
    s.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (arg_out != nullptr) *arg_out = s.trigger.arg;
  SiteCounter(site, ".injected")->Increment();
  return true;
}

uint64_t FaultInjector::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::FiredCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

void NoteInjected(std::string_view site) {
  SiteCounter(site, ".injected")->Increment();
}

void NoteRecovered(std::string_view site) {
  SiteCounter(site, ".recovered")->Increment();
}

}  // namespace confide::fault
