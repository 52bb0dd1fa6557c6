/// \file fault.h
/// \brief Deterministic, seeded fault injection for chaos testing.
///
/// Every layer of the system declares named *fault sites* — fixed points
/// where an artificial failure can be injected (a torn WAL write, a
/// dropped PBFT message, an enclave crash). Sites follow the naming
/// convention `fault.<layer>.<event>` (DESIGN.md §Fault injection). In
/// production nothing is armed and a site check is one relaxed atomic
/// load; tests arm sites through a scoped FaultPlan with per-site
/// triggers (probability, one-shot, nth-hit) driven by a seeded PRNG so
/// every chaos run replays bit-identically for a fixed seed.
///
/// Observability: each fired injection increments the registry counter
/// `<site>.injected`; recovery paths report `<site>.recovered` — so
/// `metrics.json` shows exactly which faults a run survived.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace confide::fault {

/// \brief When an armed site fires. Fields compose: the site must first
/// survive `after_hits` hits, then fires with `probability` per hit, and
/// disarms after the first fire when `one_shot` is set.
struct Trigger {
  /// Chance of firing per eligible hit, in [0, 1]. 1.0 = always.
  double probability = 1.0;
  /// Number of initial hits that can never fire (nth-hit triggers:
  /// `after_hits = n - 1` fires on the nth hit at probability 1).
  uint64_t after_hits = 0;
  /// Disarm the site after its first fire.
  bool one_shot = false;
  /// Site-interpreted parameter, e.g. how many bytes of a WAL record to
  /// persist before the injected crash.
  uint64_t arg = 0;
};

/// \brief Process-wide injector. Thread-safe; the unarmed fast path is a
/// single relaxed atomic load.
class FaultInjector {
 public:
  /// \brief The process-wide instance every fault site consults.
  static FaultInjector& Global();

  /// \brief Reseeds the PRNG driving probabilistic triggers. Chaos runs
  /// call this once up front so the whole run is a pure function of the
  /// seed.
  void Seed(uint64_t seed);

  /// \brief Arms (or re-arms) `site` with `trigger`. Resets the site's
  /// hit/fire counts.
  void Arm(const std::string& site, Trigger trigger);

  /// \brief Disarms every site and drops all per-site counters.
  void DisarmAll();

  /// \brief Called by instrumented code at a fault site. Counts a hit
  /// and returns true when the armed trigger fires; `arg_out` (optional)
  /// receives the trigger's `arg`. Unarmed sites never fire.
  bool ShouldFail(std::string_view site, uint64_t* arg_out = nullptr);

  uint64_t HitCount(const std::string& site) const;
  uint64_t FiredCount(const std::string& site) const;

  /// \brief True when at least one site is armed (tests).
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

 private:
  FaultInjector() = default;

  struct Site {
    Trigger trigger;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Site, std::less<>> sites_;
  std::atomic<uint64_t> armed_count_{0};
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;  // splitmix64 state
};

/// \brief Scoped arming for tests: arms sites on construction/Arm() and
/// disarms everything at scope exit, so a failing test cannot leak armed
/// faults into the next one.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) { FaultInjector::Global().Seed(seed); }
  ~FaultPlan() { FaultInjector::Global().DisarmAll(); }
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  FaultPlan& Arm(const std::string& site, Trigger trigger = Trigger{}) {
    FaultInjector::Global().Arm(site, trigger);
    return *this;
  }
};

/// \brief Records an injected fault that came from explicit model
/// configuration rather than an armed site (e.g. an enclave killed through
/// EnclavePlatform::KillEnclave). Increments `<site>.injected`.
void NoteInjected(std::string_view site);

/// \brief Records that the system recovered from a fault at `site`
/// (view-change completed, WAL replay survived a torn record, enclave
/// re-provisioned). Increments `<site>.recovered`.
void NoteRecovered(std::string_view site);

}  // namespace confide::fault
