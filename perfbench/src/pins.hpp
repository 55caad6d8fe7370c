// Pinned model quantities. The simulated energy, depth, distance and
// message count of a workload are exact functions of its input, so on the
// default seed and on one held-out seed they are pinned here: a call that
// reproduces them differently fails, and the benchmark prints both values.
// This makes "model quantities stay bit-identical through speed work"
// checkable from the benchmark. Re-pin only for a change that is meant to
// alter the model's costs.
#pragma once

#include "spatial/metrics.hpp"

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Seed used when --seed is not given.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed pinned alongside the default one and never used for tuning.
inline constexpr std::uint64_t kHeldOutSeed = 20251017;

struct Pin {
  std::string_view workload;
  std::uint64_t seed;
  scm::index_t energy;
  scm::index_t depth;
  scm::index_t distance;
  scm::index_t messages;

  [[nodiscard]] bool matches(const scm::Metrics& m) const {
    return m.energy == energy && m.depth() == depth &&
           m.distance() == distance && m.messages == messages;
  }

  [[nodiscard]] std::string str() const {
    return "energy=" + std::to_string(energy) +
           " depth=" + std::to_string(depth) +
           " distance=" + std::to_string(distance) +
           " messages=" + std::to_string(messages);
  }
};

// Measured from this benchmark's Release build; the values are
// host-independent.
inline constexpr Pin kPins[] = {
    // workload, seed, energy, depth, distance, messages
    {"mergesort_2e18", kDefaultSeed, 759527661, 2739, 104274, 69623278},
    {"mergesort_2e18", kHeldOutSeed, 759532735, 2729, 102469, 69620001},
    {"scan_2e20", kDefaultSeed, 4889401, 48, 5127, 2534046},
    {"scan_2e20", kHeldOutSeed, 4889401, 48, 5127, 2534046},
    {"mergesort_profiled_2e14", kDefaultSeed, 14649566, 1358, 20677, 2659246},
    {"mergesort_profiled_2e14", kHeldOutSeed, 14695838, 1338, 21307, 2664213},
};

/// The pin of (workload, seed), or nullptr when that seed is not pinned.
[[nodiscard]] inline const Pin* find_pin(std::string_view workload,
                                         std::uint64_t seed) {
  for (const Pin& p : kPins) {
    if (p.workload == workload && p.seed == seed) return &p;
  }
  return nullptr;
}

}  // namespace perfbench
