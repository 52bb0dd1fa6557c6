/// \file stats.h
/// \brief The benchmark's own arithmetic, kept free of the system under
/// test so it can be unit-tested alone (stats_test.cc):
///
///  * a nearest-rank percentile that refuses to report a tail the sample
///    cannot support (at least 10 samples must lie beyond the rank), and
///    its batched form, robust to one transient hiccup;
///  * the leader-height timeline that turns "block h" into "the moment
///    the leader's height first passed h" — the commit time;
///  * the seeded Poisson arrival schedule every workload is built from.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// \brief 1-based nearest rank of percentile `p` (0 < p < 1) in `n`
/// sorted samples: ceil(p * n), clamped to [1, n]. The epsilon keeps
/// exact products such as 0.99 * 1000 from rounding up a rank.
inline size_t NearestRank(size_t n, double p) {
  const double raw = std::ceil(p * double(n) - 1e-9);
  return std::clamp<size_t>(size_t(std::max(raw, 1.0)), 1, std::max<size_t>(n, 1));
}

/// \brief Nearest-rank percentile of `values`, or nullopt when fewer than
/// 10 samples lie beyond the rank (the tail is not supported): p50 needs
/// 20 samples, p99 needs 1000.
inline std::optional<double> Percentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, p);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + long(rank - 1), values.end());
  return values[rank - 1];
}

/// \brief Splits `values` (in the order taken) into `batches` consecutive
/// equal batches and returns the median of the batches' percentile `p`:
/// a tail that one transient hiccup cannot move. Nullopt unless every
/// batch supports the percentile on its own.
inline std::optional<double> BatchedPercentile(const std::vector<double>& values,
                                               size_t batches, double p) {
  if (batches == 0 || values.size() < batches) return std::nullopt;
  const size_t per = values.size() / batches;
  std::vector<double> tails;
  for (size_t b = 0; b < batches; ++b) {
    auto tail = Percentile(std::vector<double>(values.begin() + long(b * per),
                                               values.begin() + long((b + 1) * per)),
                           p);
    if (!tail) return std::nullopt;
    tails.push_back(*tail);
  }
  // The median of a handful of estimates, not a sample percentile: the
  // ten-beyond rule applied to each batch above.
  std::sort(tails.begin(), tails.end());
  const size_t mid = tails.size() / 2;
  return tails.size() % 2 ? tails[mid] : (tails[mid - 1] + tails[mid]) / 2;
}

/// \brief The leader's applied height as observed over time. Each
/// observation is (time, height); only increases are kept, so the
/// timeline is the list of moments the height first reached a new value.
/// A block at height h is committed once the height exceeds h (height
/// counts applied blocks), so its commit time is the first observation
/// with height > h.
class CommitTimeline {
 public:
  /// \brief Records that the height read `height` at `t_ns`. Observations
  /// must arrive in time order; a height at or below the last recorded
  /// one adds nothing.
  void Observe(uint64_t t_ns, uint64_t height) {
    if (steps_.empty() || height > steps_.back().height) {
      steps_.push_back(Step{t_ns, height});
    }
  }

  /// \brief First observed time at which block `block_height` was
  /// applied, or nullopt when the timeline never got past it.
  std::optional<uint64_t> CommitTimeNs(uint64_t block_height) const {
    auto it = std::upper_bound(
        steps_.begin(), steps_.end(), block_height,
        [](uint64_t h, const Step& step) { return h < step.height; });
    if (it == steps_.end()) return std::nullopt;
    return it->t_ns;
  }

 private:
  struct Step {
    uint64_t t_ns;
    uint64_t height;
  };
  std::vector<Step> steps_;
};

/// \brief SplitMix64: a tiny, platform-independent generator, so a seed
/// yields the same schedule on every machine and compiler.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// \brief Uniform in (0, 1]: never 0, so -log(u) stays finite.
  double NextUnit() { return (double(Next() >> 11) + 1.0) / 9007199254740992.0; }

  /// \brief Uniform in [0, bound); bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// \brief Open-loop Poisson arrival offsets (ns from the window start) at
/// `rate_per_s`, ending at whichever limit comes first: `horizon_ns` of
/// schedule or `max_count` arrivals. Same seed → same schedule.
inline std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                             uint64_t horizon_ns, size_t max_count) {
  std::vector<uint64_t> out;
  if (rate_per_s <= 0) return out;
  SplitMix64 rng(seed);
  double t_ns = 0;
  while (out.size() < max_count) {
    t_ns += -std::log(rng.NextUnit()) / rate_per_s * 1e9;
    if (t_ns >= double(horizon_ns)) break;
    out.push_back(uint64_t(t_ns));
  }
  return out;
}

}  // namespace perfbench
